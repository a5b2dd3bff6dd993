// perfbench: runs one workload and prints one JSON line with its verdict,
// metrics, host readings and deterministic counts. perfbench/run.py builds
// this binary, starts one process per workload run, and turns that line
// into the benchmark's result.
//
//   perfbench --workload paper_batch|live_window|fleet_drain --seed N
//             --seconds S --trace 0|1 [--part P]
//
// --part numbers the process when run.py splits a run's work over several
// processes; live_window draws its windows from it.
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <string_view>

#include "perfbench/workloads.h"

namespace {

std::string Quote(std::string_view s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string Number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload paper_batch|live_window|"
               "fleet_drain --seed N --seconds S --trace 0|1 [--part P]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string_view flag = argv[i];
    if (flag.substr(0, 2) != "--") return Usage();
    args[std::string(flag.substr(2))] = argv[i + 1];
  }
  if (argc % 2 != 1 || args.size() != 4 + args.count("part") ||
      !args.count("workload") || !args.count("seed") ||
      !args.count("seconds") || !args.count("trace")) {
    return Usage();
  }
  perfbench::RunConfig config;
  config.seed = std::strtoull(args["seed"].c_str(), nullptr, 10);
  config.seconds = std::atoi(args["seconds"].c_str());
  config.trace = args["trace"] == "1";
  if (args.count("part")) config.part = std::atoi(args["part"].c_str());
  if (config.seconds < 1) return Usage();

  const std::string& workload = args["workload"];
  perfbench::RunResult result;
  if (workload == "paper_batch") {
    result = perfbench::RunPaperBatch(config);
  } else if (workload == "live_window") {
    result = perfbench::RunLiveWindow(config);
  } else if (workload == "fleet_drain") {
    result = perfbench::RunFleetDrain(config);
  } else {
    return Usage();
  }

  std::string out = "{\"correct\":";
  out += result.correct() ? "true" : "false";
  out += ",\"attempted\":" + std::to_string(result.attempted);
  out += ",\"failed\":" + std::to_string(result.failed);
  out += ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, metric] :
       config.trace ? result.per_layer : result.end_to_end) {
    if (!first) out += ",";
    first = false;
    out += Quote(name) + ":{\"value\":" + Number(metric.value) +
           ",\"unit\":" + Quote(metric.unit) + "}";
  }
  out += "},\"host\":{";
  first = true;
  for (const auto& [name, metric] : result.host) {
    if (!first) out += ",";
    first = false;
    out += Quote(name) + ":{\"value\":" + Number(metric.value) +
           ",\"unit\":" + Quote(metric.unit) + "}";
  }
  out += "},\"counts\":{";
  first = true;
  for (const auto& [name, value] : result.counts) {
    if (!first) out += ",";
    first = false;
    out += Quote(name) + ":" + Number(value);
  }
  out += "},\"errors\":[";
  for (size_t i = 0; i < result.errors.size(); ++i) {
    if (i > 0) out += ",";
    out += Quote(result.errors[i]);
  }
  out += "]}";
  std::printf("%s\n", out.c_str());
  return 0;
}
