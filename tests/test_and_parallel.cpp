// Tests for await_all (the AND companion to race) and independent-goal
// AND-parallelism in the Prolog engine.
#include <gtest/gtest.h>
#include <unistd.h>

#include "posix/await_all.hpp"
#include "prolog/or_parallel.hpp"

namespace altx {
namespace {

using namespace std::chrono_literals;

// ---------------------------------------------------------------------------
// posix::await_all
// ---------------------------------------------------------------------------

TEST(AwaitAll, CollectsEveryResultInOrder) {
  auto r = posix::await_all<int>({
      [] { ::usleep(30'000); return std::optional<int>(1); },
      [] { ::usleep(5'000); return std::optional<int>(2); },
      [] { return std::optional<int>(3); },
  });
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(*r, (std::vector<int>{1, 2, 3}));
}

TEST(AwaitAll, OneFailureFailsTheConjunction) {
  auto r = posix::await_all<int>({
      [] { return std::optional<int>(1); },
      [] { return std::optional<int>(); },
      [] { return std::optional<int>(3); },
  });
  EXPECT_FALSE(r.has_value());
}

TEST(AwaitAll, FastFailureBehindSlowTaskIsDetectedFirst) {
  // The conjunction fails at the first task that fails, in whatever order
  // the tasks finish — not when collection reaches it in task order.
  const auto t0 = std::chrono::steady_clock::now();
  auto r = posix::await_all<int>({
      [] { ::usleep(500'000); return std::optional<int>(1); },
      [] { return std::optional<int>(); },
  });
  EXPECT_FALSE(r.has_value());
  EXPECT_LT(std::chrono::steady_clock::now() - t0, 250ms);
}

TEST(AwaitAll, CrashCountsAsFailure) {
  auto r = posix::await_all<int>({
      [] { return std::optional<int>(1); },
      []() -> std::optional<int> { ::abort(); },
  });
  EXPECT_FALSE(r.has_value());
}

TEST(AwaitAll, TimeoutKillsStragglers) {
  posix::AwaitOptions opts;
  opts.timeout = 100ms;
  const auto t0 = std::chrono::steady_clock::now();
  auto r = posix::await_all<int>(
      {
          [] { return std::optional<int>(1); },
          [] { ::sleep(30); return std::optional<int>(2); },
      },
      opts);
  EXPECT_FALSE(r.has_value());
  EXPECT_LT(std::chrono::steady_clock::now() - t0, 5s);
}

TEST(AwaitAll, ParallelSleepsOverlap) {
  // Four 60 ms sleeps in parallel finish in well under 4 * 60 ms even on one
  // CPU (they sleep, not compute).
  const auto t0 = std::chrono::steady_clock::now();
  auto r = posix::await_all<int>({
      [] { ::usleep(60'000); return std::optional<int>(0); },
      [] { ::usleep(60'000); return std::optional<int>(1); },
      [] { ::usleep(60'000); return std::optional<int>(2); },
      [] { ::usleep(60'000); return std::optional<int>(3); },
  });
  const auto ms = std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
  ASSERT_TRUE(r.has_value());
  EXPECT_LT(ms, 180.0);
}

TEST(AwaitAll, StringPayloads) {
  auto r = posix::await_all<std::string>({
      [] { return std::optional<std::string>("left"); },
      [] { return std::optional<std::string>("right"); },
  });
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ((*r)[0], "left");
  EXPECT_EQ((*r)[1], "right");
}

// ---------------------------------------------------------------------------
// Prolog AND-parallelism
// ---------------------------------------------------------------------------

namespace pl = prolog;

TEST(AndParallel, IndependentGroupsArePartitionedByVariables) {
  pl::Database db;
  db.consult("p(1). q(2). r(3).");
  // p(X), q(Y) independent; r(X) shares X with p.
  const auto q = pl::parse_query(db.symbols, "p(X), q(Y), r(X)");
  const auto groups = pl::independent_groups(q);
  ASSERT_EQ(groups.size(), 2u);
  // One group holds goals {0, 2} (sharing X), the other {1}.
  std::size_t sizes[2] = {groups[0].size(), groups[1].size()};
  std::sort(sizes, sizes + 2);
  EXPECT_EQ(sizes[0], 1u);
  EXPECT_EQ(sizes[1], 2u);
}

TEST(AndParallel, GroundGoalsAreEachTheirOwnGroup) {
  pl::Database db;
  db.consult("p(1). q(2).");
  const auto q = pl::parse_query(db.symbols, "p(1), q(2)");
  EXPECT_EQ(pl::independent_groups(q).size(), 2u);
}

TEST(AndParallel, SolvesIndependentConjunctionAcrossProcesses) {
  pl::Database db;
  db.consult(R"(
    color(red). color(blue).
    size(big). size(small).
    shape(round).
  )");
  const auto q = pl::parse_query(db.symbols, "color(C), size(S), shape(Sh)");
  const auto r = pl::solve_and_parallel(db, q);
  ASSERT_TRUE(r.found);
  EXPECT_EQ(r.groups, 3u);
  EXPECT_EQ(r.solution.at("C"), "red");
  EXPECT_EQ(r.solution.at("S"), "big");
  EXPECT_EQ(r.solution.at("Sh"), "round");
}

TEST(AndParallel, OneUnsatisfiableGroupFailsTheConjunction) {
  pl::Database db;
  db.consult("p(1).");
  const auto q = pl::parse_query(db.symbols, "p(X), missing(Y)");
  const auto r = pl::solve_and_parallel(db, q);
  EXPECT_FALSE(r.found);
}

TEST(AndParallel, SharedVariablesStayInOneGroup) {
  // A chained query collapses to a single group: correctness over
  // parallelism (the paper's reason OR is "more interesting").
  pl::Database db;
  db.consult(R"(
    edge(a, b). edge(b, c).
    two_hop(X, Z) :- edge(X, Y), edge(Y, Z).
  )");
  const auto q = pl::parse_query(db.symbols, "edge(X, Y), edge(Y, Z)");
  EXPECT_EQ(pl::independent_groups(q).size(), 1u);
  const auto r = pl::solve_and_parallel(db, q);
  ASSERT_TRUE(r.found);
  EXPECT_EQ(r.solution.at("X"), "a");
  EXPECT_EQ(r.solution.at("Z"), "c");
}

TEST(AndParallel, AgreesWithSequentialEngine) {
  pl::Database db;
  db.consult(R"(
    fact(0, 1).
    fact(N, F) :- N > 0, M is N - 1, fact(M, G), F is N * G.
    fib(0, 0). fib(1, 1).
    fib(N, F) :- N > 1, A is N - 1, B is N - 2,
                 fib(A, FA), fib(B, FB), F is FA + FB.
  )");
  const auto q = pl::parse_query(db.symbols, "fact(8, F), fib(15, G)");
  pl::Solver seq(db);
  const auto s = seq.solve_first(q);
  const auto p = pl::solve_and_parallel(db, q);
  ASSERT_TRUE(s.has_value());
  ASSERT_TRUE(p.found);
  EXPECT_EQ(p.groups, 2u);
  EXPECT_EQ(p.solution.at("F"), s->at("F"));
  EXPECT_EQ(p.solution.at("G"), s->at("G"));
}

}  // namespace
}  // namespace altx

namespace altx::prolog {
namespace {

TEST(OrParallelAll, UnionOfBranchesEqualsSequentialSolutions) {
  Database db;
  db.consult(R"(
    route(X) :- cheap(X).
    route(X) :- scenic(X).
    cheap(bus). cheap(train).
    scenic(boat). scenic(bike). scenic(walk).
  )");
  const auto q = parse_query(db.symbols, "route(R)");
  Solver seq(db);
  const auto expected = seq.solve_all(q);
  const auto par = solve_or_parallel_all(db, q);
  ASSERT_TRUE(par.complete);
  ASSERT_EQ(par.solutions.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(par.solutions[i].at("R"), expected[i].at("R")) << i;
  }
}

TEST(OrParallelAll, EmptyBranchesAreNotFailures) {
  Database db;
  db.consult(R"(
    p(X) :- none(X).
    p(X) :- some(X).
    some(1).
    none(_) :- fail.
  )");
  const auto q = parse_query(db.symbols, "p(X)");
  const auto par = solve_or_parallel_all(db, q);
  ASSERT_TRUE(par.complete);
  ASSERT_EQ(par.solutions.size(), 1u);
  EXPECT_EQ(par.solutions[0].at("X"), "1");
}

TEST(OrParallelAll, PerBranchLimitCaps) {
  Database db;
  std::string text = "q(X) :- n(X).\nq(X) :- n(X).\n";
  for (int i = 0; i < 20; ++i) text += "n(" + std::to_string(i) + ").\n";
  db.consult(text);
  const auto q = parse_query(db.symbols, "q(X)");
  const auto par = solve_or_parallel_all(db, q, /*per_branch_limit=*/5);
  ASSERT_TRUE(par.complete);
  EXPECT_EQ(par.solutions.size(), 10u);  // 5 per branch, 2 branches
}

TEST(OrParallelAll, SixQueensAllSolutionsAcrossBranches) {
  Database db;
  db.consult(R"(
    q6(Qs) :- solve6([1,2,3,4,5,6], Qs).
    solve6(Ns, Qs) :- perm(Ns, Qs), safe(Qs).
    perm([], []).
    perm(L, [H|T]) :- select(H, L, R), perm(R, T).
    select(X, [X|T], T).
    select(X, [H|T], [H|R]) :- select(X, T, R).
    safe([]).
    safe([Q|Qs]) :- noattack(Q, Qs, 1), safe(Qs).
    noattack(_, [], _).
    noattack(Q, [Q1|Qs], D) :-
      Q =\= Q1, Q1 - Q =\= D, Q - Q1 =\= D,
      D1 is D + 1, noattack(Q, Qs, D1).
  )");
  const auto q = parse_query(db.symbols, "q6(Qs)");
  const auto par = solve_or_parallel_all(db, q);
  ASSERT_TRUE(par.complete);
  EXPECT_EQ(par.solutions.size(), 4u);  // 6-queens has exactly 4 solutions
}

}  // namespace
}  // namespace altx::prolog
