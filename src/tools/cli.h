#ifndef DMTL_TOOLS_CLI_H_
#define DMTL_TOOLS_CLI_H_

#include <ostream>
#include <string>
#include <vector>

#include "src/common/status.h"

namespace dmtl {

// The `dmtl_cli` command-line reasoner, factored as a library function so
// tests can drive it without spawning processes.
//
//   dmtl_cli run FILE...     [--min T] [--max T]
//                            [--query PRED] [--at TIME] [--stats]
//                            [--output FILE]
//   dmtl_cli check FILE...                  validate, stratify, report
//   dmtl_cli dot FILE...                    dependency graph as Graphviz
//   dmtl_cli fmt FILE...                    parse and pretty-print
//
// Input files may mix rules and facts. `run` materializes and prints the
// derived facts (all of them, or only --query PRED; --at restricts to one
// time point). --output writes the materialized database as parseable
// facts.
Status RunCli(const std::vector<std::string>& args, std::ostream& out,
              std::ostream& err);

// Process exit code for a RunCli outcome, so scripts can distinguish
// failure classes (see docs/robustness.md):
//   0  success
//   2  bad invocation or bad program (InvalidArgument, ParseError,
//      UnsafeRule, NotStratifiable)
//   3  deadline exceeded (--deadline-ms tripped)
//   4  cancelled
//   5  resource budget exhausted (max_intervals / max_rounds)
//   1  anything else (evaluation error, I/O, internal fault)
int ExitCodeForStatus(const Status& status);

// argv adapter used by the binary's main(); returns ExitCodeForStatus.
int CliMain(int argc, const char* const* argv);

}  // namespace dmtl

#endif  // DMTL_TOOLS_CLI_H_
