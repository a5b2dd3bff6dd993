#ifndef DMTL_TESTS_TESTING_PROGRAM_FUZZER_H_
#define DMTL_TESTS_TESTING_PROGRAM_FUZZER_H_

// The random program generator the differential, oracle, planner,
// round-executor and metamorphic suites share. Its fragment is safe and
// stratifiable by construction:
//  - predicates p0..p{k-1} are EDB, d0..d{m-1} are derived in layer order;
//  - rule bodies use EDB or strictly-lower derived predicates positively,
//    EDB predicates under negation, and unary operators with small ranges;
//  - every derived predicate also has one self-propagation (chain) rule;
//  - facts are integral intervals on a small timeline.
// A seed fixes the program text.

#include <cstdint>
#include <random>
#include <sstream>
#include <string>

namespace dmtl {

class ProgramFuzzer {
 public:
  explicit ProgramFuzzer(uint64_t seed) : rng_(seed) {}

  std::string Generate() {
    std::ostringstream out;
    int num_edb = 2 + Pick(2);      // p0..p{1,2,3}
    int num_derived = 2 + Pick(3);  // d0..d{1..4}
    for (int d = 0; d < num_derived; ++d) {
      // Base rule from a random lower predicate.
      out << "d" << d << "(X) :- " << LowerAtom(d, num_edb) << Guard(num_edb)
          << " .\n";
      // Chain rule with a random step and blocker.
      int step = 1 + Pick(2);
      const char* op = Pick(2) == 0 ? "boxminus" : "diamondminus";
      out << "d" << d << "(X) :- " << op << "[" << step << "," << step
          << "] d" << d << "(X), not p0(X) .\n";
      // A windowed rule exercising dilation/erosion.
      if (Pick(2) == 0) {
        out << "d" << d << "(X) :- diamondminus[0," << (1 + Pick(3)) << "] "
            << LowerAtom(d, num_edb) << " .\n";
      }
    }
    // Facts: random punctual and interval extents on a small timeline.
    for (int p = 0; p < num_edb; ++p) {
      int facts = 1 + Pick(4);
      for (int f = 0; f < facts; ++f) {
        int lo = Pick(12);
        int hi = lo + Pick(4);
        out << "p" << p << "(c" << Pick(3) << ")@[" << lo << "," << hi
            << "] .\n";
      }
    }
    return out.str();
  }

 private:
  int Pick(int n) { return static_cast<int>(rng_() % n); }

  // Either an EDB atom or a strictly lower derived one.
  std::string LowerAtom(int d, int num_edb) {
    if (d > 0 && Pick(2) == 0) {
      return "d" + std::to_string(Pick(d)) + "(X)";
    }
    return "p" + std::to_string(Pick(num_edb)) + "(X)";
  }

  std::string Guard(int num_edb) {
    switch (Pick(3)) {
      case 0:
        return "";
      case 1:
        return ", not p" + std::to_string(Pick(num_edb)) + "(X)";
      default:
        return ", diamondminus[0,2] p" + std::to_string(Pick(num_edb)) +
               "(X)";
    }
  }

  std::mt19937_64 rng_;
};

}  // namespace dmtl

#endif  // DMTL_TESTS_TESTING_PROGRAM_FUZZER_H_
