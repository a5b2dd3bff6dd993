// Metamorphic properties of the rational timeline.
//
// Scaling: scaling time by q > 0 maps every model to a model. Multiplying
// every fact endpoint, every rule bound and the horizon by q must therefore
// yield the original materialization with each endpoint multiplied by q,
// byte for byte. The rational factors 1/3 and 7/2 push integral programs
// onto non-integral endpoints, so the kernels' bound arithmetic runs on
// genuine fractions.
//
// Shifting: no operator refers to an absolute time, so translating every
// fact endpoint and the horizon by an integer k (rule bounds unchanged, they
// are durations) must yield the original materialization translated by k.
// k = -3 moves part of every run below time 0.
//
// Programs that read the time point into a variable (timestamp(), as in
// ETH-PERP's tdelta) do arithmetic on time values and are out of scope.
//
// Splitting and merging: a fact's extent is a set of time points, so how
// the input divides it into facts is invisible. Cutting every input fact at
// interior points, or merging touching input facts of one tuple, must leave
// the materialization byte for byte the same. The split pieces reach the
// store as interleaved multi-component sets, so the store's one-sweep merge
// sees shapes that are not at the frontier. This property needs no time
// map, so it holds for ETH-PERP too.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "src/chain/replayer.h"
#include "src/chain/workload.h"
#include "src/contracts/eth_perp_program.h"
#include "src/eval/seminaive.h"
#include "src/parser/parser.h"
#include "tests/testing/program_fuzzer.h"
#include "tests/testing/recursion_cases.h"

namespace dmtl {
namespace {

const Rational kFactors[] = {Rational(1, 3), Rational(7, 2)};
const Rational kShifts[] = {Rational(5), Rational(-3)};

// An order-preserving map of the timeline, applied to finite bounds.
using TimeMap = std::function<Rational(const Rational&)>;

Bound MapBound(Bound b, const TimeMap& f) {
  if (!b.infinite) b.value = f(b.value);
  return b;
}

Interval MapInterval(const Interval& iv, const TimeMap& f) {
  return *Interval::Make(MapBound(iv.lo(), f), MapBound(iv.hi(), f));
}

Interval ScaleInterval(const Interval& iv, const Rational& q) {
  return MapInterval(iv, [&q](const Rational& t) { return t * q; });
}

MetricAtom ScaleMetric(const MetricAtom& m, const Rational& q) {
  switch (m.kind()) {
    case MetricAtom::Kind::kUnary:
      return MetricAtom::Unary(m.op(), ScaleInterval(m.range(), q),
                               ScaleMetric(m.left(), q));
    case MetricAtom::Kind::kBinary:
      return MetricAtom::Binary(m.op(), ScaleInterval(m.range(), q),
                                ScaleMetric(m.left(), q),
                                ScaleMetric(m.right(), q));
    default:
      return m;
  }
}

Program ScaleProgram(const Program& program, const Rational& q) {
  Program out;
  for (Rule rule : program.rules()) {
    for (HeadAtom::HeadOp& op : rule.head.ops) {
      op.range = ScaleInterval(op.range, q);
    }
    for (BodyLiteral& lit : rule.body) {
      if (lit.kind == BodyLiteral::Kind::kMetric) {
        lit.metric = ScaleMetric(lit.metric, q);
      }
    }
    out.AddRule(std::move(rule));
  }
  return out;
}

Database MapDatabase(const Database& db, const TimeMap& f) {
  Database out;
  for (const auto& [pred, rel] : db.relations()) {
    for (const auto& [tuple, set] : rel.data()) {
      std::vector<Interval> mapped;
      for (const Interval& iv : set) mapped.push_back(MapInterval(iv, f));
      out.InsertSet(pred, tuple, IntervalSet::FromIntervals(mapped));
    }
  }
  return out;
}

// True when some rule binds the current time point to a variable, after
// which builtins may compute with it (a difference of two timestamps does
// not scale with q the way an interval endpoint does).
bool ReadsTimePoints(const Program& program) {
  for (const Rule& rule : program.rules()) {
    for (const BodyLiteral& lit : rule.body) {
      if (lit.kind == BodyLiteral::Kind::kBuiltin &&
          lit.builtin.kind == BuiltinAtom::Kind::kTimestamp) {
        return true;
      }
    }
  }
  return false;
}

// Runs `mapped_program` over `input` and the horizon with every time value
// mapped by `f`, and expects the result to equal `original` (the unmapped
// run) with `f` applied to every endpoint.
void ExpectMappedRun(const Database& original, const Program& mapped_program,
                     const Database& input, const EngineOptions& options,
                     const TimeMap& f, const std::string& what) {
  EngineOptions mapped_options = options;
  if (options.min_time.has_value()) {
    mapped_options.min_time = f(*options.min_time);
  }
  if (options.max_time.has_value()) {
    mapped_options.max_time = f(*options.max_time);
  }
  Database mapped = MapDatabase(input, f);
  Status status = Materialize(mapped_program, &mapped, mapped_options);
  ASSERT_TRUE(status.ok()) << status << " (" << what << ")";
  EXPECT_EQ(MapDatabase(original, f).ToString(), mapped.ToString())
      << what << ": mapped run diverged from the mapped original";
}

Database MaterializeOriginal(const Program& program, const Database& input,
                             const EngineOptions& options,
                             const std::string& label) {
  EXPECT_FALSE(ReadsTimePoints(program)) << label;
  Database original = input;
  Status status = Materialize(program, &original, options);
  EXPECT_TRUE(status.ok()) << status << " (" << label << ")";
  return original;
}

void ExpectScaleInvariant(const Program& program, const Database& input,
                          const EngineOptions& options,
                          const std::string& label) {
  const Database original =
      MaterializeOriginal(program, input, options, label);
  for (const Rational& q : kFactors) {
    ExpectMappedRun(original, ScaleProgram(program, q), input, options,
                    [&q](const Rational& t) { return t * q; },
                    label + " (q=" + q.ToString() + ")");
  }
}

void ExpectShiftInvariant(const Program& program, const Database& input,
                          const EngineOptions& options,
                          const std::string& label) {
  const Database original =
      MaterializeOriginal(program, input, options, label);
  for (const Rational& k : kShifts) {
    ExpectMappedRun(original, program, input, options,
                    [&k](const Rational& t) { return t + k; },
                    label + " (k=" + k.ToString() + ")");
  }
}

class ScaleFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ScaleFuzzTest, ScaledRunIsScaledOriginal) {
  ProgramFuzzer fuzzer(GetParam());
  std::string text = fuzzer.Generate();
  auto unit = Parser::Parse(text);
  ASSERT_TRUE(unit.ok()) << unit.status() << "\nprogram:\n" << text;
  EngineOptions options;
  options.min_time = Rational(0);
  options.max_time = Rational(40);
  ExpectScaleInvariant(unit->program, unit->database, options,
                       "fuzz program:\n" + text);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScaleFuzzTest,
                         ::testing::Range<uint64_t>(1, 13));

class ScaleRecursionTest : public ::testing::TestWithParam<RecursionCase> {};

TEST_P(ScaleRecursionTest, ScaledRunIsScaledOriginal) {
  auto unit = Parser::Parse(GetParam().text);
  ASSERT_TRUE(unit.ok()) << unit.status();
  EngineOptions options;
  options.min_time = Rational(0);
  options.max_time = Rational(20);
  ExpectScaleInvariant(unit->program, unit->database, options,
                       GetParam().name);
}

INSTANTIATE_TEST_SUITE_P(Cases, ScaleRecursionTest,
                         ::testing::ValuesIn(kRecursionCases),
                         [](const auto& info) { return info.param.name; });

// The same fuzz seeds and recursion shapes under integer time shifts.
class ShiftFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ShiftFuzzTest, ShiftedRunIsShiftedOriginal) {
  ProgramFuzzer fuzzer(GetParam());
  std::string text = fuzzer.Generate();
  auto unit = Parser::Parse(text);
  ASSERT_TRUE(unit.ok()) << unit.status() << "\nprogram:\n" << text;
  EngineOptions options;
  options.min_time = Rational(0);
  options.max_time = Rational(40);
  ExpectShiftInvariant(unit->program, unit->database, options,
                       "fuzz program:\n" + text);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShiftFuzzTest,
                         ::testing::Range<uint64_t>(1, 13));

class ShiftRecursionTest : public ::testing::TestWithParam<RecursionCase> {};

TEST_P(ShiftRecursionTest, ShiftedRunIsShiftedOriginal) {
  auto unit = Parser::Parse(GetParam().text);
  ASSERT_TRUE(unit.ok()) << unit.status();
  EngineOptions options;
  options.min_time = Rational(0);
  options.max_time = Rational(20);
  ExpectShiftInvariant(unit->program, unit->database, options,
                       GetParam().name);
}

INSTANTIATE_TEST_SUITE_P(Cases, ShiftRecursionTest,
                         ::testing::ValuesIn(kRecursionCases),
                         [](const auto& info) { return info.param.name; });

// --- Input splitting and merging -------------------------------------------

// The fact statements of a program text, one Fact each, before the parser
// coalesces them into the input database.
std::vector<Fact> TextFacts(const std::string& text) {
  std::vector<Fact> out;
  size_t start = 0;
  while (start < text.size()) {
    size_t end = text.find(" .", start);
    if (end == std::string::npos) break;
    const std::string stmt = text.substr(start, end - start);
    start = end + 2;
    if (stmt.find(":-") != std::string::npos ||
        stmt.find('@') == std::string::npos) {
      continue;
    }
    auto unit = Parser::Parse(stmt + " .\n");
    EXPECT_TRUE(unit.ok()) << unit.status() << ": " << stmt;
    if (!unit.ok()) continue;
    for (const auto& [pred, rel] : unit->database.relations()) {
      for (const auto& [tuple, set] : rel.data()) {
        for (const Interval& iv : set) out.push_back({pred, tuple, iv});
      }
    }
  }
  return out;
}

// One fact per stored component.
std::vector<Fact> DatabaseFacts(const Database& db) {
  std::vector<Fact> out;
  for (const auto& [pred, rel] : db.relations()) {
    for (const auto& [tuple, set] : rel.data()) {
      for (const Interval& iv : set) out.push_back({pred, tuple, iv});
    }
  }
  return out;
}

// Up to two points strictly inside `iv`, ascending; none for a point.
std::vector<Rational> CutPoints(const Interval& iv, size_t n) {
  if (iv.IsPunctual()) return {};
  const Bound& lo = iv.lo();
  const Bound& hi = iv.hi();
  if (lo.infinite && hi.infinite) {
    return n == 1 ? std::vector<Rational>{Rational(0)}
                  : std::vector<Rational>{Rational(-1), Rational(1)};
  }
  if (lo.infinite || hi.infinite) {
    const Rational& t = lo.infinite ? hi.value : lo.value;
    const Rational d = lo.infinite ? Rational(-1) : Rational(1);
    std::vector<Rational> out = {t + d};
    if (n == 2) out.push_back(t + d + d);
    if (lo.infinite) std::reverse(out.begin(), out.end());
    return out;
  }
  const Rational len = hi.value - lo.value;
  if (n == 1) return {lo.value + len * Rational(1, 2)};
  return {lo.value + len * Rational(1, 3), lo.value + len * Rational(2, 3)};
}

// Cuts every fact at one or two interior points (alternately), and
// alternates which side of each cut holds the cut point itself.
std::vector<Fact> SplitFacts(const std::vector<Fact>& facts) {
  std::vector<Fact> out;
  bool left_holds = true;
  size_t n = 1;
  for (const Fact& f : facts) {
    Bound lo = f.interval.lo();
    for (const Rational& c : CutPoints(f.interval, n)) {
      Bound cut_hi = left_holds ? Bound::Closed(c) : Bound::Open(c);
      out.push_back({f.predicate, f.args, *Interval::Make(lo, cut_hi)});
      lo = left_holds ? Bound::Open(c) : Bound::Closed(c);
      left_holds = !left_holds;
    }
    out.push_back({f.predicate, f.args, *Interval::Make(lo, f.interval.hi())});
    n = 3 - n;
  }
  return out;
}

using TupleKey = std::pair<PredicateId, Tuple>;

// Per tuple, the facts' intervals in ascending order.
std::map<TupleKey, std::vector<Interval>> ByTuple(
    const std::vector<Fact>& facts) {
  std::map<TupleKey, std::vector<Interval>> out;
  for (const Fact& f : facts) out[{f.predicate, f.args}].push_back(f.interval);
  for (auto& [key, ivs] : out) {
    std::sort(ivs.begin(), ivs.end(),
              [](const Interval& a, const Interval& b) {
                return a.StartsBefore(b);
              });
  }
  return out;
}

// Merges the touching or overlapping facts of each tuple into one.
std::vector<Fact> MergeAdjacentFacts(const std::vector<Fact>& facts) {
  std::vector<Fact> out;
  for (const auto& [key, ivs] : ByTuple(facts)) {
    for (const Interval& iv : ivs) {
      Fact* back = out.empty() ? nullptr : &out.back();
      if (back != nullptr && back->predicate == key.first &&
          back->args == key.second && back->interval.Unionable(iv)) {
        back->interval = back->interval.UnionWith(iv);
      } else {
        out.push_back({key.first, key.second, iv});
      }
    }
  }
  return out;
}

// Loads split pieces as two interleaved sets per tuple: the odd-position
// pieces first, then the even ones, each of which touches or sits between
// stored components - a store merge away from the frontier.
Database LoadInterleaved(const std::vector<Fact>& pieces) {
  Database db;
  for (const auto& [key, ivs] : ByTuple(pieces)) {
    std::vector<Interval> even;
    std::vector<Interval> odd;
    for (size_t i = 0; i < ivs.size(); ++i) {
      (i % 2 == 0 ? even : odd).push_back(ivs[i]);
    }
    if (!odd.empty()) {
      db.InsertSet(key.first, key.second, IntervalSet::FromIntervals(odd));
    }
    db.InsertSet(key.first, key.second, IntervalSet::FromIntervals(even));
  }
  return db;
}

// Loads facts one Insert at a time, latest first.
Database LoadReversed(const std::vector<Fact>& facts) {
  Database db;
  for (auto it = facts.rbegin(); it != facts.rend(); ++it) db.Insert(*it);
  return db;
}

// `facts` is the input as a fact list; `input` the database it loads to.
void ExpectSplitMergeInvariant(const Program& program, const Database& input,
                               const std::vector<Fact>& facts,
                               const EngineOptions& options,
                               const std::string& label) {
  Database original = input;
  Status status = Materialize(program, &original, options);
  ASSERT_TRUE(status.ok()) << status << " (" << label << ")";

  const std::vector<Fact> split = SplitFacts(facts);
  const std::vector<Fact> merged = MergeAdjacentFacts(facts);
  struct Variant {
    const char* name;
    Database db;
  };
  for (Variant v : {Variant{"split", LoadInterleaved(split)},
                    Variant{"merged", LoadReversed(merged)},
                    Variant{"split+merged",
                            LoadReversed(MergeAdjacentFacts(split))}}) {
    EXPECT_EQ(v.db.ToString(), input.ToString()) << label << " " << v.name;
    status = Materialize(program, &v.db, options);
    ASSERT_TRUE(status.ok()) << status << " (" << label << " " << v.name
                             << ")";
    EXPECT_EQ(v.db.ToString(), original.ToString())
        << label << ": " << v.name << " input diverged";
  }
}

class SplitFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SplitFuzzTest, SplitAndMergedInputsMaterializeIdentically) {
  ProgramFuzzer fuzzer(GetParam());
  std::string text = fuzzer.Generate();
  auto unit = Parser::Parse(text);
  ASSERT_TRUE(unit.ok()) << unit.status() << "\nprogram:\n" << text;
  EngineOptions options;
  options.min_time = Rational(0);
  options.max_time = Rational(40);
  const std::vector<Fact> facts = TextFacts(text);
  ASSERT_FALSE(facts.empty());
  ExpectSplitMergeInvariant(unit->program, unit->database, facts, options,
                            "fuzz program:\n" + text);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SplitFuzzTest,
                         ::testing::Range<uint64_t>(1, 13));

class SplitRecursionTest : public ::testing::TestWithParam<RecursionCase> {};

TEST_P(SplitRecursionTest, SplitAndMergedInputsMaterializeIdentically) {
  auto unit = Parser::Parse(GetParam().text);
  ASSERT_TRUE(unit.ok()) << unit.status();
  EngineOptions options;
  options.min_time = Rational(0);
  options.max_time = Rational(20);
  const std::vector<Fact> facts = TextFacts(GetParam().text);
  ASSERT_FALSE(facts.empty());
  ExpectSplitMergeInvariant(unit->program, unit->database, facts, options,
                            GetParam().name);
}

INSTANTIATE_TEST_SUITE_P(Cases, SplitRecursionTest,
                         ::testing::ValuesIn(kRecursionCases),
                         [](const auto& info) { return info.param.name; });

// Interval budget of the contract runs below, in pieces: about 4x the
// largest passing run (98,689), so a kernel or chain-walk fault that
// over-derives fails fast on ResourceExhausted instead of growing the store
// until the machine runs out of memory.
constexpr size_t kContractIntervalBudget = 400'000;

TEST(SplitInvarianceTest, EthPerpSession) {
  WorkloadConfig config;
  config.name = "split-invariance";
  config.num_events = 60;
  config.num_trades = 12;
  config.duration_s = 1800;
  config.seed = 7;
  auto session = GenerateSession(config);
  ASSERT_TRUE(session.ok()) << session.status();
  auto program = EthPerpProgram({});
  ASSERT_TRUE(program.ok()) << program.status();
  const Database input = SessionToDatabase(*session);
  const std::vector<Fact> facts = DatabaseFacts(input);
  // The price step function is the non-punctual input; it must be cut.
  ASSERT_GT(SplitFacts(facts).size(), facts.size());
  EngineOptions options = SessionEngineOptions(*session);
  options.max_intervals = kContractIntervalBudget;
  ExpectSplitMergeInvariant(*program, input, facts, options, "ETH-PERP");
}

// Directed rational inputs: a non-integral rule bound, fact endpoint or
// horizon must scale like the integral ones.
void ExpectTextScaleInvariant(const char* text, const Rational& max_time,
                              const std::string& label) {
  auto unit = Parser::Parse(text);
  ASSERT_TRUE(unit.ok()) << unit.status();
  EngineOptions options;
  options.min_time = Rational(0);
  options.max_time = max_time;
  ExpectScaleInvariant(unit->program, unit->database, options, label);
}

TEST(ScaleInvarianceTest, RationalRuleBound) {
  ExpectTextScaleInvariant(
      "q(X) :- diamondminus[0,3/2] p(X) .\n"
      "r(X) :- boxminus[1,1] q(X), not p(X) .\n"
      "p(a)@[0,4] .\n"
      "p(b)@[2,6] .\n",
      Rational(10), "rational rule bound");
}

TEST(ScaleInvarianceTest, RationalFactEndpoint) {
  ExpectTextScaleInvariant(
      "q(X) :- diamondminus[1,2] p(X) .\n"
      "p(a)@[0,7/2] .\n"
      "p(b)@[2,6] .\n",
      Rational(10), "rational fact endpoint");
}

TEST(ScaleInvarianceTest, RationalHorizon) {
  ExpectTextScaleInvariant(
      "q(X) :- diamondminus[1,2] p(X) .\n"
      "p(a)@[0,4] .\n",
      Rational(19, 2), "rational horizon");
}

// The shipped contract computes with timestamp differences (tdelta), so the
// property does not apply to it; the check above must recognize that.
TEST(ScaleInvarianceTest, ShippedContractReadsTimePoints) {
  auto program = EthPerpProgram();
  ASSERT_TRUE(program.ok()) << program.status();
  EXPECT_TRUE(ReadsTimePoints(*program));
}

}  // namespace
}  // namespace dmtl
