#ifndef DMTL_BENCH_BENCH_UTIL_H_
#define DMTL_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "src/chain/replayer.h"
#include "src/chain/subgraph.h"
#include "src/chain/workload.h"
#include "src/contracts/eth_perp_program.h"
#include "src/contracts/trade_extractor.h"
#include "src/engine/reasoner.h"
#include "src/validation/compare.h"

namespace dmtl {
namespace bench {

// Aborts the harness with a message when a Status is not OK.
inline void Check(const Status& status, const char* what) {
  if (!status.ok()) {
    std::fprintf(stderr, "FATAL %s: %s\n", what, status.ToString().c_str());
    std::exit(1);
  }
}

template <typename T>
const T& Check(const Result<T>& result, const char* what) {
  Check(result.status(), what);
  return result.value();
}

inline double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// One materialization point timed by in-process repetition: each run starts
// from a fresh copy of the input, and runs repeat at least kMinTimedRuns
// times and until they add up to kMinTimedSeconds, so a point that takes a
// few ms is timed over a few hundred ms like a slow one. The point's figure
// is the median run. Every run must derive the same pieces in the same
// rounds as the first, or the harness aborts.
constexpr size_t kMinTimedRuns = 5;
constexpr double kMinTimedSeconds = 0.3;

struct TimedPoint {
  double median_s = 0;
  size_t runs = 0;
  Database db;        // the first run's result
  EngineStats stats;  // the first run's counters
};

inline TimedPoint TimeMaterialize(const Program& program,
                                  const Database& input,
                                  const EngineOptions& options) {
  TimedPoint out;
  std::vector<double> walls;
  double total_s = 0;
  while (walls.size() < kMinTimedRuns || total_s < kMinTimedSeconds) {
    Database db = input;
    EngineStats stats;
    Check(Materialize(program, &db, options, &stats), "materialize");
    if (walls.empty()) {
      out.db = std::move(db);
      out.stats = stats;
    } else if (stats.derived_intervals != out.stats.derived_intervals ||
               stats.rounds != out.stats.rounds) {
      std::fprintf(stderr, "FATAL repeated run did different work\n");
      std::exit(1);
    }
    walls.push_back(stats.wall_seconds);
    total_s += stats.wall_seconds;
  }
  out.median_s = Median(walls);
  out.runs = walls.size();
  return out;
}

// One fully-executed session: both the DatalogMTL materialization and the
// reference run, with the extracted comparison artifacts.
struct ExecutedSession {
  Session session;
  EngineStats stats;
  std::vector<FrsPoint> frs_datalog;
  std::vector<FrsPoint> frs_reference;
  std::vector<TradeSettlement> trades_datalog;
  std::vector<TradeSettlement> trades_reference;
};

inline ExecutedSession Execute(const WorkloadConfig& config,
                               const MarketParams& params = {},
                               const EngineOptions* engine_options = nullptr) {
  ExecutedSession out;
  out.session = Check(GenerateSession(config), "generate session");
  Program program = Check(EthPerpProgram(params), "parse ETH-PERP program");
  Database db = SessionToDatabase(out.session);
  EngineOptions options = engine_options != nullptr
                              ? *engine_options
                              : SessionEngineOptions(out.session);
  Check(Materialize(program, &db, options, &out.stats), "materialize");
  Subgraph subgraph =
      Check(Subgraph::Index(out.session, params), "reference run");
  out.frs_reference = subgraph.FundingRateUpdates();
  out.trades_reference = subgraph.FuturesTrades();
  out.frs_datalog =
      Check(ExtractFrsAt(db, out.session.EventTimes()), "extract frs");
  out.trades_datalog = Check(ExtractTrades(db), "extract trades");
  return out;
}

// Minimal JSON emission for machine-readable benchmark artifacts
// (BENCH_<name>.json). Handles objects, arrays, and scalar fields with
// correct comma placement; callers are responsible for balanced
// Begin/End pairs.
class JsonBuilder {
 public:
  JsonBuilder& BeginObject(std::string_view key = "") {
    Prefix(key);
    out_ << "{";
    stack_.push_back(false);
    return *this;
  }
  JsonBuilder& EndObject() { return End('}'); }

  JsonBuilder& BeginArray(std::string_view key = "") {
    Prefix(key);
    out_ << "[";
    stack_.push_back(false);
    return *this;
  }
  JsonBuilder& EndArray() { return End(']'); }

  JsonBuilder& Field(std::string_view key, std::string_view value) {
    Prefix(key);
    Quote(value);
    return *this;
  }
  JsonBuilder& Field(std::string_view key, const char* value) {
    return Field(key, std::string_view(value));
  }
  JsonBuilder& Field(std::string_view key, double value) {
    Prefix(key);
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", value);
    out_ << buf;
    return *this;
  }
  JsonBuilder& Field(std::string_view key, size_t value) {
    Prefix(key);
    out_ << value;
    return *this;
  }
  JsonBuilder& Field(std::string_view key, int value) {
    Prefix(key);
    out_ << value;
    return *this;
  }
  JsonBuilder& Field(std::string_view key, bool value) {
    Prefix(key);
    out_ << (value ? "true" : "false");
    return *this;
  }
  // Emits a JSON null - for metrics that are undefined for the run rather
  // than zero (e.g. a parallel speedup when the pool resolved to one
  // thread), so diffs skip them instead of comparing fabricated numbers.
  JsonBuilder& NullField(std::string_view key) {
    Prefix(key);
    out_ << "null";
    return *this;
  }

  std::string TakeString() { return out_.str(); }

 private:
  void Prefix(std::string_view key) {
    if (!stack_.empty()) {
      if (stack_.back()) out_ << ",";
      stack_.back() = true;
    }
    if (!key.empty()) {
      Quote(key);
      out_ << ":";
    }
  }
  void Quote(std::string_view s) {
    out_ << '"';
    for (char c : s) {
      if (c == '"' || c == '\\') out_ << '\\';
      out_ << c;
    }
    out_ << '"';
  }
  JsonBuilder& End(char close) {
    stack_.pop_back();
    out_ << close;
    return *this;
  }

  std::ostringstream out_;
  std::vector<bool> stack_;  // per open scope: "has emitted an element"
};

// Best-effort git revision of the working tree; "unknown" outside a
// checkout (benchmarks run from the repository root, see bench targets).
inline std::string GitSha() {
  std::string sha = "unknown";
  if (FILE* pipe = ::popen("git rev-parse HEAD 2>/dev/null", "r")) {
    char buf[80] = {0};
    if (std::fgets(buf, sizeof(buf), pipe) != nullptr) {
      std::string line(buf);
      while (!line.empty() && (line.back() == '\n' || line.back() == '\r')) {
        line.pop_back();
      }
      if (!line.empty()) sha = line;
    }
    ::pclose(pipe);
  }
  return sha;
}

// The CMake build type the binary was compiled under (DMTL_BUILD_TYPE is
// injected by bench/CMakeLists.txt; the NDEBUG fallback covers builds that
// bypass it).
inline const char* BuildType() {
#ifdef DMTL_BUILD_TYPE
  return DMTL_BUILD_TYPE;
#elif defined(NDEBUG)
  return "Release";
#else
  return "Debug";
#endif
}

// Emits the provenance context block every BENCH_*.json artifact carries:
// which revision and build type produced the numbers, and whether the runs
// were timed with an armed ExecutionGuard (deadline/cancel token), so
// bench_diff.py can refuse like-for-unlike comparisons. bench_diff.py
// ignores string fields, so these never trip the regression gate.
inline void WriteContext(JsonBuilder* json, bool guards_enabled = false) {
  json->BeginObject("context");
  json->Field("git_sha", GitSha());
  json->Field("build_type", BuildType());
  json->Field("guards_enabled", guards_enabled);
  json->EndObject();
}

// Writes a benchmark artifact and echoes the path so harness logs record
// where the machine-readable results went.
inline void WriteJson(const std::string& path, const std::string& json) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "FATAL cannot write %s\n", path.c_str());
    std::exit(1);
  }
  out << json << "\n";
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace bench
}  // namespace dmtl

#endif  // DMTL_BENCH_BENCH_UTIL_H_
