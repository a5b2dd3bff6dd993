#ifndef DMTL_TESTS_TESTING_RECURSION_CASES_H_
#define DMTL_TESTS_TESTING_RECURSION_CASES_H_

// Directed recursive programs shared by the executor-oracle and the
// scale-invariance suites. Every time bound and fact endpoint is a literal
// in the program text, and no rule reads the time point into a variable.

namespace dmtl {

struct RecursionCase {
  const char* name;
  const char* text;
};

// Shapes chosen to hit every executor path: self-recursion (the emit-
// during-iteration hazard), mutual recursion, mixed chain steps, negation
// over derived state, metric windows on recursive results, two-operator
// unary chains, a since body whose left operand holds vacuously (p never
// holds near q, yet r holds wherever q does), and an aggregate head mixed
// among plain rules.
inline constexpr RecursionCase kRecursionCases[] = {
    {"transitive_closure",
     "reach(X, Y) :- edge(X, Y) .\n"
     "reach(X, Z) :- reach(X, Y), edge(Y, Z) .\n"
     "edge(a, b)@[0,10] . edge(b, c)@[2,8] . edge(c, a)@[4,6] .\n"
     "edge(c, d)@5 .\n"},
    {"mutual_recursion",
     "a(X) :- seed(X) .\n"
     "b(X) :- boxminus[1,1] a(X) .\n"
     "a(X) :- boxminus[1,1] b(X), not stop(X) .\n"
     "seed(u)@0 . seed(v)@[0,2] . stop(v)@6 .\n"},
    {"mixed_step_chains",
     "d0(X) :- p0(X) .\n"
     "d0(X) :- boxminus[2,2] d0(X), not p1(X) .\n"
     "d1(X) :- d0(X) .\n"
     "d1(X) :- diamondminus[1,1] d1(X), not p0(X) .\n"
     "p0(a)@[0,1] . p1(a)@7 . p0(b)@4 .\n"},
    {"negation_over_derived",
     "open(X) :- deposit(X) .\n"
     "open(X) :- boxminus[1,1] open(X), not closed(X) .\n"
     "closed(X) :- withdraw(X) .\n"
     "idle(X) :- account(X), not diamondminus[0,3] open(X) .\n"
     "deposit(a)@1 . withdraw(a)@5 . account(a)@[0,12] . account(b)@[0,12] "
     ".\n"},
    {"metric_window_on_recursion",
     "tick(X) :- start(X) .\n"
     "tick(X) :- diamondminus[1,1] tick(X), lim(X) .\n"
     "recent(X) :- diamondminus[0,2] tick(X) .\n"
     "steady(X) :- boxminus[0,2] tick(X) .\n"
     "start(a)@0 . lim(a)@[0,15] .\n"},
    {"nested_operator_chains",
     "d(X) :- p(X) .\n"
     "d(X) :- boxminus[1,1] d(X), lim(X) .\n"
     "e(X) :- diamondminus[0,2] boxminus[1,1] d(X) .\n"
     "f(X) :- boxminus[0,2] diamondminus[1,1] p(X), not d(X) .\n"
     "p(a)@[0,1] . p(b)@[3,9] . lim(a)@[0,6] .\n"},
    {"since_body_under_recursion",
     "r(X) :- s(X), p(X) since[0,2] q(X) .\n"
     "r(X) :- diamondminus[1,1] r(X), s(X) .\n"
     "s(a)@[0,10] . q(a)@[3,5] . p(a)@[100,200] .\n"},
    {"aggregate_among_compiled",
     "bal(A, M) :- tranM(A, M) .\n"
     "bal(A, M) :- boxminus[1,1] bal(A, M), not tranM(A, M) .\n"
     "total(msum(M)) :- bal(A, M) .\n"
     "tranM(a, 5.0)@0 . tranM(b, 7.0)@2 . tranM(a, 3.0)@4 .\n"},
};

}  // namespace dmtl

#endif  // DMTL_TESTS_TESTING_RECURSION_CASES_H_
