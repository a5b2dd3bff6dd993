#include "src/tools/cli.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>

#include "src/analysis/dot_export.h"
#include "src/chain/workload.h"
#include "src/contracts/eth_perp_program.h"
#include "src/engine/reasoner.h"
#include "src/engine/session.h"
#include "src/eval/compiled_program.h"
#include "src/eval/vm.h"
#include "src/fleet/server.h"
#include "src/fleet/workload.h"
#include "src/storage/serialize.h"
#include "src/storage/snapshot.h"

namespace dmtl {

namespace {

constexpr char kUsage[] =
    "usage: dmtl_cli <command> FILE... [options]\n"
    "\n"
    "commands:\n"
    "  run     materialize the program over the facts and print results\n"
    "  check   parse, check safety, stratify; print a report\n"
    "  dot     print the dependency graph as Graphviz DOT\n"
    "  fmt     parse and pretty-print rules and facts\n"
    "\n"
    "options for run:\n"
    "  --min T         derivation horizon lower bound (rational)\n"
    "  --max T         derivation horizon upper bound (rational)\n"
    "  --dump-bytecode print each rule's compiled bytecode program after\n"
    "                  the run\n"
    "  --deadline-ms N wall-clock budget for materialization; on a trip the\n"
    "                  run exits with code 3 and prints stop diagnostics\n"
    "  --explain-plan  print each rule's join order, probed index\n"
    "                  signatures, and planner counters after the run\n"
    "  --query PRED    print only facts of PRED\n"
    "  --at TIME       print only tuples holding at TIME\n"
    "  --stats         print engine statistics\n"
    "  --output FILE   write the materialized database to FILE\n"
    "  --explain FACT  run with provenance and print the rule applications\n"
    "                  deriving FACT, e.g. --explain 'margin(acc, 100.0)@5 .'\n"
    "\n"
    "streaming (run only):\n"
    "  --stream FILE   live-session mode: facts in the program files seed\n"
    "                  the input log, then FILE's events drive an\n"
    "                  EngineSession. One NDJSON line per event on\n"
    "                  stdout: {event, op, t, delta_intervals, latency_us}.\n"
    "                  FILE lines: fact syntax pushes facts;\n"
    "                  '@step <fact>@T .' steps a channel;\n"
    "                  '@advance T' raises the watermark; '@slide T' moves\n"
    "                  the window minimum; '@checkpoint' verifies the\n"
    "                  database against a cold replay (mismatch exits 1);\n"
    "                  '@snapshot FILE' checkpoints the session to FILE.\n"
    "                  --min sets the session start; --max is rejected.\n"
    "                  --stats adds per-event engine counters; --output\n"
    "                  writes the final database.\n"
    "  --restore FILE  resume the stream session from a snapshot file\n"
    "                  written by '@snapshot' (DMTL-SNAPSHOT v2): one cold\n"
    "                  run over the snapshot's input log rebuilds the\n"
    "                  database, then FILE's events continue it. The\n"
    "                  program files supply only rules; facts already live\n"
    "                  in the input log. v1 snapshots are refused.\n"
    "  --horizon T     sliding-window length: advances auto-slide the\n"
    "                  window minimum to watermark - T\n"
    "\n"
    "fleet (run only, takes no FILE arguments):\n"
    "  --fleet N       host N account-sharded ETH-PERP trading sessions on\n"
    "                  the in-process fleet server (work-stealing scheduler,\n"
    "                  per-session admission control, snapshot warm\n"
    "                  restarts). Prints one NDJSON line per session plus an\n"
    "                  aggregate line. --deadline-ms becomes the\n"
    "                  per-operation session deadline; --horizon gives\n"
    "                  every session a sliding window.\n"
    "  --threads N     scheduler workers (0 = hardware, default 1); only\n"
    "                  with --fleet - every engine run is sequential\n";

struct CliOptions {
  std::string command;
  std::vector<std::string> files;
  EngineOptions engine;
  std::optional<std::string> query;
  std::optional<Rational> at;
  bool stats = false;
  std::optional<std::string> output;
  std::optional<std::string> explain;
  bool explain_plan = false;
  bool dump_bytecode = false;
  std::optional<std::string> stream;
  std::optional<std::string> restore;
  std::optional<Rational> horizon;
  int fleet = 0;
  std::optional<int> threads;  // fleet scheduler workers (--fleet only)
};

Result<CliOptions> ParseArgs(const std::vector<std::string>& args) {
  if (args.empty()) return Status::InvalidArgument("missing command");
  CliOptions options;
  options.command = args[0];
  if (options.command != "run" && options.command != "check" &&
      options.command != "dot" && options.command != "fmt") {
    return Status::InvalidArgument("unknown command '" + options.command +
                                   "'");
  }
  for (size_t i = 1; i < args.size(); ++i) {
    const std::string& arg = args[i];
    auto next = [&]() -> Result<std::string> {
      if (i + 1 >= args.size()) {
        return Status::InvalidArgument(arg + " needs an argument");
      }
      return args[++i];
    };
    if (arg == "--min" || arg == "--max" || arg == "--at") {
      DMTL_ASSIGN_OR_RETURN(std::string text, next());
      DMTL_ASSIGN_OR_RETURN(Rational value, Rational::FromString(text));
      if (arg == "--min") {
        options.engine.min_time = value;
      } else if (arg == "--max") {
        options.engine.max_time = value;
      } else {
        options.at = value;
      }
    } else if (arg == "--dump-bytecode") {
      options.dump_bytecode = true;
    } else if (arg == "--explain-plan") {
      options.explain_plan = true;
    } else if (arg == "--deadline-ms") {
      DMTL_ASSIGN_OR_RETURN(std::string text, next());
      char* end = nullptr;
      long value = std::strtol(text.c_str(), &end, 10);
      if (end == text.c_str() || *end != '\0' || value < 0) {
        return Status::InvalidArgument(
            "--deadline-ms needs a non-negative int, got '" + text + "'");
      }
      options.engine.deadline = std::chrono::milliseconds(value);
    } else if (arg == "--threads") {
      DMTL_ASSIGN_OR_RETURN(std::string text, next());
      char* end = nullptr;
      long value = std::strtol(text.c_str(), &end, 10);
      if (end == text.c_str() || *end != '\0' || value < 0) {
        return Status::InvalidArgument("--threads needs a non-negative int, got '" +
                                       text + "'");
      }
      options.threads = static_cast<int>(value);
    } else if (arg == "--query") {
      DMTL_ASSIGN_OR_RETURN(std::string pred, next());
      options.query = pred;
    } else if (arg == "--stats") {
      options.stats = true;
    } else if (arg == "--output") {
      DMTL_ASSIGN_OR_RETURN(std::string path, next());
      options.output = path;
    } else if (arg == "--explain") {
      DMTL_ASSIGN_OR_RETURN(std::string fact, next());
      options.explain = fact;
    } else if (arg == "--stream") {
      DMTL_ASSIGN_OR_RETURN(std::string path, next());
      options.stream = path;
    } else if (arg == "--restore") {
      DMTL_ASSIGN_OR_RETURN(std::string path, next());
      options.restore = path;
    } else if (arg == "--fleet") {
      DMTL_ASSIGN_OR_RETURN(std::string text, next());
      char* end = nullptr;
      long value = std::strtol(text.c_str(), &end, 10);
      if (end == text.c_str() || *end != '\0' || value <= 0) {
        return Status::InvalidArgument("--fleet needs a positive int, got '" +
                                       text + "'");
      }
      options.fleet = static_cast<int>(value);
    } else if (arg == "--horizon") {
      DMTL_ASSIGN_OR_RETURN(std::string text, next());
      DMTL_ASSIGN_OR_RETURN(Rational value, Rational::FromString(text));
      options.horizon = value;
    } else if (!arg.empty() && arg[0] == '-') {
      return Status::InvalidArgument("unknown option '" + arg + "'");
    } else {
      options.files.push_back(arg);
    }
  }
  // Fleet mode generates its own workload against the built-in program, so
  // it is the one command shape that takes no input files.
  if (options.files.empty() && options.fleet == 0) {
    return Status::InvalidArgument("no input files");
  }
  // Sessions are the only parallel axis: outside the fleet there is nothing
  // for a thread count to apply to.
  if (options.threads.has_value() && options.fleet == 0) {
    return Status::InvalidArgument(
        "--threads sets fleet scheduler workers and needs --fleet; every "
        "engine run is sequential");
  }
  return options;
}

// Prints each rule's chosen join plan against the materialized database
// (the plan a full non-delta pass would use now), then the run's planner
// counters. Comment-prefixed so the output stays a loadable program.
void PrintJoinPlans(const CompiledProgram& program, const Database& db,
                    const EngineStats& stats, std::ostream& out) {
  out << "% join plans (over the materialized database):\n";
  const std::vector<CompiledProgram::CompiledRule>& rules = program.rules();
  for (size_t i = 0; i < rules.size(); ++i) {
    out << "% rule " << i << ":\n";
    std::string plan = rules[i].planner.ExplainPlan(db);
    size_t start = 0;
    while (start < plan.size()) {
      size_t end = plan.find('\n', start);
      if (end == std::string::npos) end = plan.size();
      out << "%   " << plan.substr(start, end - start) << "\n";
      start = end + 1;
    }
  }
  out << "% planner: " << stats.planner_indexes_built << " indexes built, "
      << stats.planner_index_probes << " probes ("
      << stats.planner_probe_hits << " hits), "
      << stats.planner_pruned_tuples << " tuples pruned, "
      << stats.scan_candidates << " scan candidates\n";
}

// Prints each rule's compiled bytecode program against the materialized
// database (the variant a full non-delta pass would run now).
// Comment-prefixed so the output stays a loadable program.
void PrintBytecode(const CompiledProgram& program, const Database& db,
                   std::ostream& out) {
  out << "% bytecode (over the materialized database):\n";
  const std::vector<CompiledProgram::CompiledRule>& rules = program.rules();
  for (size_t i = 0; i < rules.size(); ++i) {
    out << "% rule " << i << ": " << rules[i].rule().ToString() << "\n";
    RuleVm vm(rules[i]);
    std::string text = vm.DumpBytecode(db);
    size_t start = 0;
    while (start < text.size()) {
      size_t end = text.find('\n', start);
      if (end == std::string::npos) end = text.size();
      out << "%   " << text.substr(start, end - start) << "\n";
      start = end + 1;
    }
  }
}

Result<Parser::ParsedUnit> LoadAll(const std::vector<std::string>& files) {
  Parser::ParsedUnit all;
  for (const std::string& path : files) {
    DMTL_ASSIGN_OR_RETURN(Parser::ParsedUnit unit, ReadSourceFile(path));
    for (const Rule& rule : unit.program.rules()) {
      all.program.AddRule(rule);
    }
    all.database.MergeFrom(unit.database);
  }
  return all;
}

// Live-session mode: one NDJSON line per stream event. Engine failures keep
// their batch exit-code classes (deadline 3, cancel 4, budget 5); a
// checkpoint mismatch is an internal error (exit 1).
Status CommandStream(const CliOptions& options, std::ostream& out,
                     std::ostream& err) {
  if (options.engine.max_time.has_value()) {
    return Status::InvalidArgument(
        "--max conflicts with --stream: the watermark manages the horizon");
  }
  DMTL_ASSIGN_OR_RETURN(Parser::ParsedUnit unit, LoadAll(options.files));
  std::ifstream in(*options.stream);
  if (!in) {
    return Status::InvalidArgument("cannot open stream file '" +
                                   *options.stream + "'");
  }

  SessionOptions sopts;
  sopts.engine = options.engine;
  sopts.engine.min_time.reset();
  sopts.start_time = options.engine.min_time.value_or(Rational(0));
  sopts.horizon = options.horizon;
  std::unique_ptr<EngineSession> session;
  if (options.restore.has_value()) {
    if (options.engine.min_time.has_value()) {
      return Status::InvalidArgument(
          "--min conflicts with --restore: the snapshot fixes the window");
    }
    if (unit.database.NumIntervals() > 0) {
      return Status::InvalidArgument(
          "--restore takes rule-only program files: the facts already live "
          "in the snapshot's input log");
    }
    DMTL_ASSIGN_OR_RETURN(SessionSnapshot snap,
                          ReadSnapshotFile(*options.restore));
    DMTL_ASSIGN_OR_RETURN(
        session, EngineSession::Restore(unit.program, sopts, snap));
  } else {
    DMTL_ASSIGN_OR_RETURN(session,
                          EngineSession::Create(unit.program, sopts));
  }

  auto push_all = [&](const Database& facts) -> Status {
    for (const auto& [pred, rel] : facts.relations()) {
      for (const Relation::ScanEntry& row : rel.Rows()) {
        for (const Interval& iv : *row.extent) {
          DMTL_RETURN_IF_ERROR(session->Push(Fact{pred, *row.tuple, iv}));
        }
      }
    }
    return Status::Ok();
  };
  // Facts bundled with the program files seed the log pre-watermark.
  DMTL_RETURN_IF_ERROR(push_all(unit.database));

  size_t event_id = 0;
  size_t line_no = 0;
  std::string line;
  while (std::getline(in, line)) {
    ++line_no;
    size_t first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos) continue;
    std::string_view text(line);
    text.remove_prefix(first);
    if (text[0] == '%' || text[0] == '#') continue;
    auto fail_here = [&](const Status& s) {
      return Status(s.code(), *options.stream + ":" +
                                  std::to_string(line_no) + ": " +
                                  s.message());
    };

    std::string op;
    size_t before = session->db().NumIntervals();
    EngineStats stats;
    bool have_stats = false;
    bool checkpoint_match = true;
    auto t0 = std::chrono::steady_clock::now();
    if (text.rfind("@advance", 0) == 0 || text.rfind("@slide", 0) == 0) {
      bool advance = text[1] == 'a';
      op = advance ? "advance" : "slide";
      std::string arg(text.substr(advance ? 8 : 6));
      DMTL_ASSIGN_OR_RETURN(Rational t, Rational::FromString(
                                            arg.substr(arg.find_first_not_of(
                                                " \t"))));
      Status step = advance ? session->Advance(t, &stats)
                            : session->Slide(t, &stats);
      have_stats = true;
      if (!step.ok()) {
        if (stats.stop_reason != StopReason::kCompleted) {
          err << "dmtl_cli: " << stats.StopDiagnostics() << "\n";
        }
        return fail_here(step);
      }
    } else if (text.rfind("@checkpoint", 0) == 0) {
      op = "checkpoint";
      DMTL_ASSIGN_OR_RETURN(ReplayResult cold, session->ColdReplay());
      checkpoint_match =
          SerializeDatabase(session->db()) == SerializeDatabase(cold.db);
    } else if (text.rfind("@snapshot", 0) == 0) {
      op = "snapshot";
      std::string path(text.substr(9));
      size_t lead = path.find_first_not_of(" \t");
      path = lead == std::string::npos ? std::string() : path.substr(lead);
      size_t trail = path.find_last_not_of(" \t\r");
      if (trail != std::string::npos) path = path.substr(0, trail + 1);
      if (path.empty()) {
        return fail_here(
            Status::InvalidArgument("@snapshot needs a file path"));
      }
      Result<SessionSnapshot> snap = session->Snapshot();
      if (!snap.ok()) return fail_here(snap.status());
      Status written = WriteSnapshotFile(snap.value(), path);
      if (!written.ok()) return fail_here(written);
    } else if (text.rfind("@step", 0) == 0) {
      op = "step";
      DMTL_ASSIGN_OR_RETURN(Database parsed,
                            Parser::ParseDatabase(std::string(text.substr(5))));
      for (const auto& [pred, rel] : parsed.relations()) {
        for (const Relation::ScanEntry& row : rel.Rows()) {
          for (const Interval& iv : *row.extent) {
            if (iv.lo().infinite || iv.hi().infinite ||
                !(iv.lo().value == iv.hi().value)) {
              return fail_here(Status::InvalidArgument(
                  "@step needs point-interval facts (value@T)"));
            }
            Status stepped =
                session->PushStep(pred, *row.tuple, iv.lo().value);
            if (!stepped.ok()) return fail_here(stepped);
          }
        }
      }
    } else if (text[0] == '@') {
      return fail_here(Status::InvalidArgument(
          "unknown stream directive '" + std::string(text) + "'"));
    } else {
      op = "push";
      DMTL_ASSIGN_OR_RETURN(Database parsed,
                            Parser::ParseDatabase(std::string(text)));
      Status pushed = push_all(parsed);
      if (!pushed.ok()) return fail_here(pushed);
    }
    double latency_us = std::chrono::duration<double, std::micro>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
    long long delta = static_cast<long long>(session->db().NumIntervals()) -
                      static_cast<long long>(before);
    out << "{\"event\":" << event_id++ << ",\"op\":\"" << op << "\""
        << ",\"watermark\":\"" << session->watermark().ToString() << "\""
        << ",\"window_min\":\"" << session->window_min().ToString() << "\""
        << ",\"delta_intervals\":" << delta << ",\"latency_us\":"
        << latency_us;
    if (op == "checkpoint") {
      out << ",\"match\":" << (checkpoint_match ? "true" : "false");
    }
    if (options.stats && have_stats) {
      out << ",\"rounds\":" << stats.rounds
          << ",\"rule_evaluations\":" << stats.rule_evaluations
          << ",\"vm_dispatches\":" << stats.vm_dispatches;
    }
    out << "}\n";
    if (!checkpoint_match) {
      return Status::Internal("checkpoint diverged from cold replay at " +
                              *options.stream + ":" +
                              std::to_string(line_no));
    }
  }
  if (options.output.has_value()) {
    DMTL_RETURN_IF_ERROR(WriteDatabaseFile(session->db(), *options.output));
  }
  return Status::Ok();
}

// Fleet mode: generate N account-sharded ETH-PERP sessions, host them all
// on an in-process FleetServer, drain, and print NDJSON - one line per
// session, then one aggregate line. Any failed session exits non-zero
// after the full report.
Status CommandFleet(const CliOptions& options, std::ostream& out,
                    std::ostream& err) {
  if (!options.files.empty()) {
    return Status::InvalidArgument(
        "--fleet generates its own workload; FILE arguments are not "
        "accepted");
  }
  if (options.stream.has_value()) {
    return Status::InvalidArgument("--fleet conflicts with --stream");
  }
  if (options.engine.min_time.has_value() ||
      options.engine.max_time.has_value()) {
    return Status::InvalidArgument(
        "--min/--max conflict with --fleet: every hosted session manages "
        "its own window");
  }
  DMTL_ASSIGN_OR_RETURN(Program program, EthPerpProgram());

  FleetOptions fopts;
  fopts.num_threads = options.threads.value_or(1);
  // --deadline-ms is admission control here: a per-operation budget for
  // each hosted session, not one deadline for the whole drain.
  fopts.engine = options.engine;
  DMTL_ASSIGN_OR_RETURN(std::unique_ptr<FleetServer> server,
                        FleetServer::Create(fopts));
  DMTL_RETURN_IF_ERROR(server->RegisterProgram("eth-perp", program));

  // Small per-session windows: the fleet's scale axis is session count.
  WorkloadConfig base;
  base.name = "fleet";
  base.duration_s = 600;
  base.num_events = 8;
  base.num_trades = 2;
  base.price.update_interval_s = 60;
  size_t total_ops = 0;
  for (const WorkloadConfig& config : ShardConfigs(base, options.fleet)) {
    DMTL_ASSIGN_OR_RETURN(Session session, GenerateSession(config));
    SessionKey key{"eth-perp", 0, config.name};
    DMTL_RETURN_IF_ERROR(
        server->Open(key, Rational(session.start_time), options.horizon));
    std::vector<FleetOp> ops = SessionToOps(session);
    total_ops += ops.size();
    DMTL_RETURN_IF_ERROR(server->Enqueue(key, std::move(ops)));
  }

  auto t0 = std::chrono::steady_clock::now();
  DMTL_ASSIGN_OR_RETURN(std::vector<SessionReport> reports, server->Drain());
  double wall_s = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - t0)
                      .count();

  size_t failed = 0;
  size_t retried = 0;
  size_t advances = 0;
  size_t derived = 0;
  size_t snapshots = 0;
  std::vector<double> latencies;
  for (const SessionReport& r : reports) {
    out << "{\"session\":\"" << r.key.ToString() << "\""
        << ",\"ok\":" << (r.ok() ? "true" : "false")
        << ",\"ops\":" << r.ops_executed << ",\"advances\":" << r.advances
        << ",\"derived_intervals\":" << r.derived_intervals
        << ",\"snapshots\":" << r.snapshots_taken
        << ",\"retried\":" << (r.retried ? "true" : "false") << "}\n";
    if (!r.ok()) {
      ++failed;
      err << "dmtl_cli: " << r.key.ToString() << ": " << r.status.ToString()
          << "\n";
    }
    if (r.retried) ++retried;
    advances += r.advances;
    derived += r.derived_intervals;
    snapshots += r.snapshots_taken;
    latencies.insert(latencies.end(), r.advance_latencies_us.begin(),
                     r.advance_latencies_us.end());
  }
  std::sort(latencies.begin(), latencies.end());
  auto percentile = [&](double p) -> double {
    if (latencies.empty()) return 0.0;
    size_t idx = static_cast<size_t>(p * (latencies.size() - 1));
    return latencies[idx];
  };
  out << "{\"fleet\":" << reports.size()
      << ",\"workers\":" << ThreadPool::ResolveThreads(fopts.num_threads)
      << ",\"failed\":" << failed << ",\"retried\":" << retried
      << ",\"ops\":" << total_ops << ",\"advances\":" << advances
      << ",\"derived_intervals\":" << derived
      << ",\"snapshots\":" << snapshots << ",\"wall_s\":" << wall_s
      << ",\"sessions_per_sec\":"
      << (wall_s > 0 ? static_cast<double>(reports.size()) / wall_s : 0.0)
      << ",\"advance_p50_us\":" << percentile(0.5)
      << ",\"advance_p99_us\":" << percentile(0.99) << "}\n";
  if (failed > 0) {
    return Status::Internal(std::to_string(failed) + " of " +
                            std::to_string(reports.size()) +
                            " fleet sessions failed");
  }
  return Status::Ok();
}

Status CommandRun(const CliOptions& options, std::ostream& out,
                  std::ostream& err) {
  if (options.fleet > 0) return CommandFleet(options, out, err);
  if (options.stream.has_value()) return CommandStream(options, out, err);
  DMTL_ASSIGN_OR_RETURN(Parser::ParsedUnit unit, LoadAll(options.files));
  Database db = std::move(unit.database);
  EngineStats stats;
  EngineOptions engine = options.engine;
  std::vector<DerivationRecord> provenance;
  if (options.explain.has_value()) engine.provenance = &provenance;
  DMTL_ASSIGN_OR_RETURN(std::shared_ptr<const CompiledProgram> compiled,
                        CompiledProgram::Create(unit.program));
  Status run = Materialize(*compiled, &db, engine, &stats);
  if (!run.ok()) {
    // Guard trips and budget exhaustion come with where-it-stopped
    // diagnostics; surface them next to the error itself.
    if (stats.stop_reason != StopReason::kCompleted) {
      err << "dmtl_cli: " << stats.StopDiagnostics() << "\n";
    }
    return run;
  }
  if (options.explain.has_value()) {
    DMTL_ASSIGN_OR_RETURN(Database wanted,
                          Parser::ParseDatabase(*options.explain));
    for (const auto& [pred, rel] : wanted.relations()) {
      for (const auto& [tuple, set] : rel.data()) {
        for (const Interval& iv : set) {
          out << PredicateName(pred) << TupleToString(tuple) << "@"
              << iv.ToString() << ":\n";
          bool any = false;
          for (const DerivationRecord& record : provenance) {
            if (record.predicate != pred || record.tuple != tuple) continue;
            if (!record.piece.Intersect(iv).has_value()) continue;
            out << "  " << record.ToString(unit.program) << "\n";
            any = true;
          }
          if (!any) out << "  (no derivation: input fact or not entailed)\n";
        }
      }
    }
    return Status::Ok();
  }
  if (options.query.has_value()) {
    if (options.at.has_value()) {
      for (const Tuple& tuple :
           Reasoner::TuplesAt(db, *options.query, *options.at)) {
        out << *options.query << TupleToString(tuple) << "@"
            << options.at->ToString() << "\n";
      }
    } else {
      Database filtered;
      const Relation* rel = db.Find(*options.query);
      if (rel != nullptr) {
        PredicateId pred = InternPredicate(*options.query);
        for (const auto& [tuple, set] : rel->data()) {
          filtered.InsertSet(pred, tuple, set);
        }
      }
      out << SerializeDatabase(filtered);
    }
  } else if (options.at.has_value()) {
    // All predicates at one time point.
    std::vector<std::string> lines;
    for (const auto& [pred, rel] : db.relations()) {
      for (const auto& [tuple, set] : rel.data()) {
        if (set.Contains(*options.at)) {
          lines.push_back(PredicateName(pred) + TupleToString(tuple));
        }
      }
    }
    std::sort(lines.begin(), lines.end());
    for (const std::string& line : lines) out << line << "\n";
  } else {
    out << SerializeDatabase(db);
  }
  if (options.output.has_value()) {
    DMTL_RETURN_IF_ERROR(WriteDatabaseFile(db, *options.output));
  }
  if (options.explain_plan) PrintJoinPlans(*compiled, db, stats, out);
  if (options.dump_bytecode) PrintBytecode(*compiled, db, out);
  if (options.stats) {
    out << "% " << stats.ToString() << "\n";
  }
  return Status::Ok();
}

Status CommandCheck(const CliOptions& options, std::ostream& out) {
  DMTL_ASSIGN_OR_RETURN(Parser::ParsedUnit unit, LoadAll(options.files));
  DMTL_ASSIGN_OR_RETURN(std::shared_ptr<const CompiledProgram> compiled,
                        CompiledProgram::Create(unit.program));
  const Stratification& strat = compiled->stratification();
  out << "OK: " << unit.program.size() << " rules, "
      << unit.database.NumIntervals() << " facts, " << strat.num_strata
      << " strata\n";
  for (int s = 0; s < strat.num_strata; ++s) {
    std::vector<std::string> names;
    for (const auto& [pred, stratum] : strat.predicate_stratum) {
      if (stratum == s) names.push_back(PredicateName(pred));
    }
    std::sort(names.begin(), names.end());
    out << "stratum " << s << ":";
    for (const std::string& name : names) out << " " << name;
    out << "\n";
  }
  return Status::Ok();
}

Status CommandDot(const CliOptions& options, std::ostream& out) {
  DMTL_ASSIGN_OR_RETURN(Parser::ParsedUnit unit, LoadAll(options.files));
  out << ToDot(DependencyGraph::Build(unit.program), "program");
  return Status::Ok();
}

Status CommandFmt(const CliOptions& options, std::ostream& out) {
  DMTL_ASSIGN_OR_RETURN(Parser::ParsedUnit unit, LoadAll(options.files));
  out << unit.program.ToString();
  out << SerializeDatabase(unit.database);
  return Status::Ok();
}

}  // namespace

Status RunCli(const std::vector<std::string>& args, std::ostream& out,
              std::ostream& err) {
  auto options = ParseArgs(args);
  if (!options.ok()) {
    err << kUsage;
    return options.status();
  }
  if (options->command == "run") return CommandRun(*options, out, err);
  if (options->command == "check") return CommandCheck(*options, out);
  if (options->command == "dot") return CommandDot(*options, out);
  return CommandFmt(*options, out);
}

int ExitCodeForStatus(const Status& status) {
  switch (status.code()) {
    case StatusCode::kOk:
      return 0;
    case StatusCode::kInvalidArgument:
    case StatusCode::kParseError:
    case StatusCode::kUnsafeRule:
    case StatusCode::kNotStratifiable:
      return 2;
    case StatusCode::kDeadlineExceeded:
      return 3;
    case StatusCode::kCancelled:
      return 4;
    case StatusCode::kResourceExhausted:
      return 5;
    default:
      return 1;
  }
}

int CliMain(int argc, const char* const* argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  Status status = RunCli(args, std::cout, std::cerr);
  if (!status.ok()) {
    std::cerr << "dmtl_cli: " << status.ToString() << "\n";
  }
  return ExitCodeForStatus(status);
}

}  // namespace dmtl
