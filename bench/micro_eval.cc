// Experiment B2 - microbenchmarks of rule evaluation: joins, negation,
// temporal self-propagation, aggregation, parsing, the rule VM's dispatch
// loop on a recursive join, and streaming-session creation with and
// without a shared compiled program. A custom
// main mirrors the results into BENCH_micro_eval.json (google-benchmark's
// JSON format) unless the caller already passed --benchmark_out.

#include <benchmark/benchmark.h>

#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/contracts/eth_perp_program.h"
#include "src/engine/reasoner.h"
#include "src/engine/session.h"
#include "src/eval/compiled_program.h"

namespace dmtl {
namespace {

Database EdgeFacts(int n) {
  Database db;
  for (int i = 0; i < n; ++i) {
    db.Insert("edge",
              {Value::Int(i), Value::Int((i * 7 + 1) % n)},
              Interval::Closed(Rational(i % 50), Rational(i % 50 + 20)));
  }
  return db;
}

void BM_NonRecursiveJoin(benchmark::State& state) {
  Database db = EdgeFacts(static_cast<int>(state.range(0)));
  auto program = Parser::ParseProgram(
      "two(X, Z) :- edge(X, Y), edge(Y, Z) .");
  for (auto _ : state) {
    Database out = db;
    benchmark::DoNotOptimize(Materialize(*program, &out));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_NonRecursiveJoin)->Arg(64)->Arg(256);

void BM_TransitiveClosure(benchmark::State& state) {
  Database db = EdgeFacts(static_cast<int>(state.range(0)));
  auto program = Parser::ParseProgram(
      "reach(X, Y) :- edge(X, Y) .\n"
      "reach(X, Z) :- reach(X, Y), edge(Y, Z) .");
  for (auto _ : state) {
    Database out = db;
    benchmark::DoNotOptimize(Materialize(*program, &out));
  }
}
BENCHMARK(BM_TransitiveClosure)->Arg(32)->Arg(128);

void BM_NegationFilter(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  Database db;
  for (int i = 0; i < n; ++i) {
    db.Insert("p", {Value::Int(i)},
              Interval::Closed(Rational(0), Rational(100)));
    if (i % 3 == 0) {
      db.Insert("blocked", {Value::Int(i)},
                Interval::Closed(Rational(20), Rational(40)));
    }
  }
  auto program = Parser::ParseProgram("ok(X) :- p(X), not blocked(X) .");
  for (auto _ : state) {
    Database out = db;
    benchmark::DoNotOptimize(Materialize(*program, &out));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_NegationFilter)->Arg(256)->Arg(1024);

void BM_ChainPropagationAccelerated(benchmark::State& state) {
  int ticks = static_cast<int>(state.range(0));
  auto program = Parser::ParseProgram(
      "open(A) :- deposit(A) .\n"
      "open(A) :- boxminus open(A), not close(A) .");
  Database db;
  for (int a = 0; a < 8; ++a) {
    db.Insert("deposit", {Value::Int(a)}, Interval::Point(Rational(a)));
  }
  EngineOptions options;
  options.min_time = Rational(0);
  options.max_time = Rational(ticks);
  for (auto _ : state) {
    Database out = db;
    benchmark::DoNotOptimize(Materialize(*program, &out, options));
  }
  state.SetItemsProcessed(state.iterations() * ticks * 8);
}
BENCHMARK(BM_ChainPropagationAccelerated)->Arg(1024)->Arg(8192);

void BM_TemporalAggregation(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  Database db;
  for (int i = 0; i < n; ++i) {
    db.Insert("c", {Value::Int(i), Value::Double(i * 0.5)},
              Interval::Point(Rational(i % 64)));
  }
  auto program = Parser::ParseProgram("total(msum(S)) :- c(A, S) .");
  for (auto _ : state) {
    Database out = db;
    benchmark::DoNotOptimize(Materialize(*program, &out));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_TemporalAggregation)->Arg(256)->Arg(2048);

void BM_ParseEthPerpProgram(benchmark::State& state) {
  for (auto _ : state) {
    auto program = Parser::ParseProgram(
        "isOpen(A) :- tranM(A, M) .\n"
        "isOpen(A) :- boxminus isOpen(A), not withdraw(A) .\n"
        "margin(A, M) :- tranM(A, M), not boxminus isOpen(A) .\n"
        "event(msum(S)) :- eventContrib(A, S) .\n");
    benchmark::DoNotOptimize(program);
  }
}
BENCHMARK(BM_ParseEthPerpProgram);

// The rule VM's dispatch loop on a recursive join workload (no rule is a
// chain, so every round runs in the per-rule executor).
void BM_VmDispatch(benchmark::State& state) {
  Database db = EdgeFacts(96);
  auto program = Parser::ParseProgram(
      "reach(X, Y) :- edge(X, Y) .\n"
      "reach(X, Z) :- reach(X, Y), edge(Y, Z) .\n"
      "near(X, Z) :- diamondminus[0,5] reach(X, Z), not edge(X, Z) .");
  for (auto _ : state) {
    Database out = db;
    benchmark::DoNotOptimize(Materialize(*program, &out));
  }
}
BENCHMARK(BM_VmDispatch);

// Creating and dropping one streaming session of the ETH-PERP contract:
// the per-session setup a fleet pays at every create and reactivation.
// BM_SessionCreate compiles the program for the session alone (the Program
// overload); BM_SessionCreateShared reuses one CompiledProgram, as every
// session hosted by a FleetServer does.
SessionOptions EthPerpSessionOptions() {
  SessionOptions options;
  options.start_time = Rational(0);
  options.track_provenance = false;
  return options;
}

void BM_SessionCreate(benchmark::State& state) {
  const Program program = bench::Check(EthPerpProgram(), "eth-perp program");
  const SessionOptions options = EthPerpSessionOptions();
  for (auto _ : state) {
    auto session = EngineSession::Create(program, options);
    benchmark::DoNotOptimize(session);
  }
}
BENCHMARK(BM_SessionCreate);

void BM_SessionCreateShared(benchmark::State& state) {
  const std::shared_ptr<const CompiledProgram> program = bench::Check(
      CompiledProgram::Create(bench::Check(EthPerpProgram(), "eth-perp")),
      "compile eth-perp");
  const SessionOptions options = EthPerpSessionOptions();
  for (auto _ : state) {
    auto session = EngineSession::Create(program, options);
    benchmark::DoNotOptimize(session);
  }
}
BENCHMARK(BM_SessionCreateShared);

}  // namespace
}  // namespace dmtl

int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  std::string out_flag = "--benchmark_out=BENCH_micro_eval.json";
  std::string format_flag = "--benchmark_out_format=json";
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--benchmark_out=", 16) == 0) has_out = true;
  }
  if (!has_out) {
    args.push_back(out_flag.data());
    args.push_back(format_flag.data());
  }
  int num_args = static_cast<int>(args.size());
  // Provenance for the JSON artifact's context block; strings are ignored
  // by tools/bench_diff.py.
  ::benchmark::AddCustomContext("git_sha", dmtl::bench::GitSha());
  ::benchmark::AddCustomContext("build_type", dmtl::bench::BuildType());
  ::benchmark::Initialize(&num_args, args.data());
  if (::benchmark::ReportUnrecognizedArguments(num_args, args.data())) {
    return 1;
  }
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  return 0;
}
