// Experiment B8 - engine stress on canonical DatalogMTL recursion patterns
// (iTemporal-style synthetic programs): materialization cost per pattern as
// depth and data volume grow. Complements the contract-specific benches
// with engine-general coverage. Each row's runtime_s is the median of
// repeated in-process runs (bench::TimeMaterialize). Results land in
// BENCH_engine_stress.json.

#include <cstdio>

#include "src/common/thread_pool.h"
#include "src/engine/reasoner.h"
#include "src/synth/temporal_bench.h"
#include "bench/bench_util.h"

int main() {
  using namespace dmtl;
  bench::JsonBuilder json;
  json.BeginObject();
  json.Field("bench", "engine_stress");
  json.Field("hardware_threads", ThreadPool::ResolveThreads(0));
  bench::WriteContext(&json);

  std::printf("=== engine stress: synthetic DatalogMTL patterns ===\n");
  std::printf("%-20s %6s %7s %9s %12s %6s %14s %8s\n", "pattern", "depth",
              "facts", "timeline", "runtime(s)", "runs", "derived", "out");

  const SynthPattern patterns[] = {
      SynthPattern::kLinearChain, SynthPattern::kStarJoin,
      SynthPattern::kTransitiveClosure, SynthPattern::kWindowCascade,
      SynthPattern::kSelfChain,
  };
  struct Size {
    int depth;
    int facts;
    int64_t timeline;
  };
  const Size sizes[] = {{4, 200, 500}, {8, 800, 2000}, {12, 2000, 5000}};

  json.BeginArray("patterns");
  for (SynthPattern pattern : patterns) {
    for (const Size& size : sizes) {
      SynthConfig config;
      config.pattern = pattern;
      config.depth = size.depth;
      config.num_facts = size.facts;
      config.timeline = size.timeline;
      config.num_constants = 20;
      config.window = 3;
      config.seed = 42;
      SynthBenchmark synth =
          bench::Check(GenerateTemporalBenchmark(config), "generate");
      auto unit = Parser::Parse(synth.text);
      bench::Check(unit.status(), "parse");
      EngineOptions options;
      options.min_time = Rational(0);
      options.max_time = Rational(synth.horizon);
      bench::TimedPoint run =
          bench::TimeMaterialize(unit->program, unit->database, options);
      const Relation* out_rel = run.db.Find(synth.output_predicate);
      size_t out_count = out_rel == nullptr ? 0 : out_rel->NumIntervals();
      std::printf("%-20s %6d %7d %9lld %12.5f %6zu %14zu %8zu\n",
                  SynthPatternToString(pattern), size.depth, size.facts,
                  static_cast<long long>(size.timeline), run.median_s,
                  run.runs, run.stats.derived_intervals, out_count);
      json.BeginObject()
          .Field("pattern", SynthPatternToString(pattern))
          .Field("depth", size.depth)
          .Field("facts", size.facts)
          .Field("timeline", static_cast<size_t>(size.timeline))
          .Field("runtime_s", run.median_s)
          .Field("runs", run.runs)
          .Field("derived", run.stats.derived_intervals)
          .Field("out", out_count)
          .EndObject();
    }
  }
  json.EndArray();

  json.EndObject();
  bench::WriteJson("BENCH_engine_stress.json", json.TakeString());
  return 0;
}
