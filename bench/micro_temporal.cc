// Experiment B1 - microbenchmarks of the temporal substrate: interval set
// insertion/coalescing, intersections (including the asymmetric fast path
// that rule evaluation leans on), and the MTL operator transforms. The
// BM_Grid* rows (EXPERIMENTS.md B16) run the kernels the contract's
// per-second persistence grids go through on one 14,400-point step-1 grid,
// the 4-hour paper window.

#include <benchmark/benchmark.h>

#include <vector>

#include "src/temporal/interval_set.h"

namespace dmtl {
namespace {

IntervalSet TickChain(int n) {
  IntervalSet set;
  for (int i = 0; i < n; ++i) {
    set.Insert(Interval::Point(Rational(i)));
  }
  return set;
}

void BM_InsertAppendChain(benchmark::State& state) {
  for (auto _ : state) {
    IntervalSet set = TickChain(static_cast<int>(state.range(0)));
    benchmark::DoNotOptimize(set);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_InsertAppendChain)->Arg(128)->Arg(1024)->Arg(8192);

void BM_InsertCoalescing(benchmark::State& state) {
  for (auto _ : state) {
    IntervalSet set;
    int n = static_cast<int>(state.range(0));
    for (int i = 0; i < n; ++i) {
      // Touching closed intervals coalesce into one.
      set.Insert(Interval::Closed(Rational(i), Rational(i + 1)));
    }
    benchmark::DoNotOptimize(set);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_InsertCoalescing)->Arg(128)->Arg(1024)->Arg(8192);

void BM_IntersectSmallLarge(benchmark::State& state) {
  IntervalSet large = TickChain(static_cast<int>(state.range(0)));
  IntervalSet small(Interval::Point(Rational(state.range(0) / 2)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(large.Intersect(small));
  }
}
BENCHMARK(BM_IntersectSmallLarge)->Arg(1024)->Arg(8192)->Arg(65536);

void BM_IntersectSweep(benchmark::State& state) {
  IntervalSet a = TickChain(static_cast<int>(state.range(0)));
  IntervalSet b = a.Shift(Rational(1, 2));
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.Intersect(b));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_IntersectSweep)->Arg(1024)->Arg(8192);

void BM_Complement(benchmark::State& state) {
  IntervalSet set = TickChain(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(set.Complement());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Complement)->Arg(1024)->Arg(8192);

void BM_DiamondMinusTransform(benchmark::State& state) {
  IntervalSet set = TickChain(static_cast<int>(state.range(0)));
  Interval rho = Interval::Point(Rational(1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(set.DiamondMinus(rho));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_DiamondMinusTransform)->Arg(1024)->Arg(8192);

void BM_BoxMinusTransform(benchmark::State& state) {
  // Wide components erode; per-tick chains mostly vanish.
  IntervalSet set;
  int n = static_cast<int>(state.range(0));
  for (int i = 0; i < n; ++i) {
    set.Insert(
        Interval::Closed(Rational(10 * i), Rational(10 * i + 6)));
  }
  Interval rho = Interval::Closed(Rational(0), Rational(2));
  for (auto _ : state) {
    benchmark::DoNotOptimize(set.BoxMinus(rho));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BoxMinusTransform)->Arg(1024)->Arg(8192);

void BM_SinceOperator(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  IntervalSet m1;
  IntervalSet m2;
  for (int i = 0; i < n; ++i) {
    m1.Insert(Interval::Closed(Rational(10 * i), Rational(10 * i + 8)));
    m2.Insert(Interval::Point(Rational(10 * i + 1)));
  }
  Interval rho = Interval::Closed(Rational(0), Rational(5));
  for (auto _ : state) {
    benchmark::DoNotOptimize(m1.Since(m2, rho));
  }
}
BENCHMARK(BM_SinceOperator)->Arg(64)->Arg(256);

// Batched construction: one sort + one coalescing sweep (FromIntervals)
// versus the per-interval Insert loop over the same stream. The stream is
// emitted out of order so the bulk path cannot ride the append fast path.
void BM_IntervalSetBulkInsert(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  std::vector<Interval> stream;
  stream.reserve(n);
  for (int i = 0; i < n; ++i) {
    // Stride through residue classes: maximally unsorted, partially
    // coalescing input.
    int t = (i * 7919) % n;
    stream.push_back(Interval::Closed(Rational(2 * t), Rational(2 * t + 1)));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(IntervalSet::FromIntervals(stream));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_IntervalSetBulkInsert)->Arg(128)->Arg(1024)->Arg(8192);

// The per-interval reference for the bulk row above (same stream).
void BM_IntervalSetBulkInsertReference(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  std::vector<Interval> stream;
  stream.reserve(n);
  for (int i = 0; i < n; ++i) {
    int t = (i * 7919) % n;
    stream.push_back(Interval::Closed(Rational(2 * t), Rational(2 * t + 1)));
  }
  for (auto _ : state) {
    IntervalSet set;
    for (const Interval& iv : stream) set.Insert(iv);
    benchmark::DoNotOptimize(set);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_IntervalSetBulkInsertReference)->Arg(128)->Arg(1024)->Arg(8192);

// Bulk merge-union of two offset tick chains: the single two-pointer sweep
// UnionWith runs versus inserting the other set's components one by one.
void BM_IntervalSetUnionWith(benchmark::State& state) {
  IntervalSet a = TickChain(static_cast<int>(state.range(0)));
  IntervalSet b = a.Shift(Rational(1, 2));
  for (auto _ : state) {
    IntervalSet merged = a;
    merged.UnionWith(b);
    benchmark::DoNotOptimize(merged);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_IntervalSetUnionWith)->Arg(1024)->Arg(8192);

// The store insert path: one UnionWithDelta per batch, 256 batches per
// iteration, in the three shapes the engine's store sees.
//   0  frontier append: two-point batches past the end (the disjoint
//      suffix; all of the batch is new);
//   1  interior overlap: over a store of points at 4k, batches
//      {[4k, 4k+1], [4k+2, 4k+2]} that overlap a stored point and fill a
//      gap, walking from the front (the general sweep);
//   2  single interval: the same store, one [4k, 4k+1] per batch (Insert).
void BM_UnionWithDelta(benchmark::State& state) {
  const int arm = static_cast<int>(state.range(0));
  const int calls = 256;
  IntervalSet base;
  std::vector<IntervalSet> batches;
  for (int k = 0; k < calls; ++k) {
    const Rational t(4 * k);
    if (arm == 0) {
      batches.push_back(IntervalSet::FromIntervals(
          {Interval::Point(t), Interval::Point(t + Rational(2))}));
      continue;
    }
    base.Add(Interval::Point(t));
    Interval overlap = Interval::Closed(t, t + Rational(1));
    batches.push_back(
        arm == 1 ? IntervalSet::FromIntervals(
                       {overlap, Interval::Point(t + Rational(2))})
                 : IntervalSet(overlap));
  }
  for (auto _ : state) {
    IntervalSet set = base;
    size_t fresh = 0;
    for (const IntervalSet& batch : batches) {
      fresh += set.UnionWithDelta(batch).size();
    }
    benchmark::DoNotOptimize(fresh);
  }
  state.SetItemsProcessed(state.iterations() * calls);
}
BENCHMARK(BM_UnionWithDelta)->Arg(0)->Arg(1)->Arg(2);

// --- Point grids -------------------------------------------------------------
// One account's per-second state over the paper window, built point by
// point at the frontier.
constexpr int kGridPoints = 14400;

void BM_GridIntersectWindow(benchmark::State& state) {
  IntervalSet grid = TickChain(kGridPoints);
  Interval window = Interval::Closed(Rational(3600), Rational(10800));
  for (auto _ : state) {
    benchmark::DoNotOptimize(grid.Intersect(window));
  }
}
BENCHMARK(BM_GridIntersectWindow);

// Two grids on one phase, offset by a second: a persistence extent against
// its own [1,1]-shifted window.
void BM_GridIntersectGrid(benchmark::State& state) {
  IntervalSet grid = TickChain(kGridPoints);
  IntervalSet shifted = grid.Shift(Rational(1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(grid.Intersect(shifted));
  }
}
BENCHMARK(BM_GridIntersectGrid);

void BM_GridDiamondMinus(benchmark::State& state) {
  IntervalSet grid = TickChain(kGridPoints);
  Interval rho = Interval::Point(Rational(1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(grid.DiamondMinus(rho));
  }
}
BENCHMARK(BM_GridDiamondMinus);

// The grid built by 14,400 frontier inserts, each returning its delta.
void BM_GridFrontierAppend(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(TickChain(kGridPoints));
  }
  state.SetItemsProcessed(state.iterations() * kGridPoints);
}
BENCHMARK(BM_GridFrontierAppend);

// `not change(A)`: the grid minus a sparse event set (267 points, the
// paper session's event count).
void BM_GridSubtractSparse(benchmark::State& state) {
  IntervalSet grid = TickChain(kGridPoints);
  IntervalSet events;
  for (int i = 0; i < 267; ++i) {
    events.Add(Interval::Point(Rational((i * 7919) % kGridPoints)));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(grid.Subtract(events));
  }
}
BENCHMARK(BM_GridSubtractSparse);

void BM_ContainsBinarySearch(benchmark::State& state) {
  IntervalSet set = TickChain(static_cast<int>(state.range(0)));
  Rational probe(state.range(0) / 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(set.Contains(probe));
  }
}
BENCHMARK(BM_ContainsBinarySearch)->Arg(1024)->Arg(65536);

}  // namespace
}  // namespace dmtl
