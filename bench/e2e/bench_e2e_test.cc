// Unit tests for bench_e2e's own arithmetic (e2e_stats.h). run.sh runs them
// before every benchmark run: a wrong interval cover or percentile would
// silently skew every number the benchmark reports.

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "e2e_stats.h"

namespace fnproxy::e2e {
namespace {

TEST(MergeIntervals, SortsMergesOverlappingTouchingAndNested) {
  std::vector<Interval> merged =
      MergeIntervals({{50, 60}, {0, 10}, {5, 20}, {20, 25}, {30, 40},
                      {32, 35}, {70, 70}});
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_EQ(merged[0].start, 0);
  EXPECT_EQ(merged[0].end, 25);
  EXPECT_EQ(merged[1].start, 30);
  EXPECT_EQ(merged[1].end, 40);
  EXPECT_EQ(merged[2].start, 50);
  EXPECT_EQ(merged[2].end, 60);
}

TEST(CoveredLength, ClipsToTheWindow) {
  std::vector<Interval> merged = MergeIntervals({{0, 10}, {20, 30}, {40, 50}});
  EXPECT_EQ(CoveredLength({5, 45}, merged), 5 + 10 + 5);
  EXPECT_EQ(CoveredLength({10, 20}, merged), 0);
  EXPECT_EQ(CoveredLength({60, 70}, merged), 0);
  EXPECT_EQ(CoveredLength({-5, 100}, merged), 30);
  EXPECT_EQ(CoveredLength({22, 28}, merged), 6);
}

// A request whose origin work came from nested and overlapping calls (a
// batch that wraps a solo call, a retry that overlaps the first attempt's
// tail) counts each covered nanosecond once.
TEST(CoveredLength, NestedAndOverlappingOriginCalls) {
  std::vector<Interval> calls = MergeIntervals({{100, 400}, {150, 200},
                                                {350, 500}});
  EXPECT_EQ(CoveredLength({0, 1000}, calls), 400);
}

// The pipelined path: the remainder's origin call runs on a dispatcher
// thread while the proxy thread evaluates the cached portion inside the
// origin_roundtrip span. The span's own proxy time is what neither its
// local_eval child nor the origin call covers, counted once.
TEST(UncoveredLength, AsyncOverlappingOriginCall) {
  const Interval origin_span{30, 90};
  const Interval local_eval{40, 60};
  const Interval dispatcher_call{35, 80};
  EXPECT_EQ(UncoveredLength(origin_span, {local_eval, dispatcher_call}), 15);
  // The request as a whole: only the origin call is subtracted; the local
  // evaluation is proxy time even though it overlaps the call.
  EXPECT_EQ(UncoveredLength({0, 100}, {dispatcher_call}), 55);
  EXPECT_EQ(UncoveredLength({0, 100}, {}), 100);
}

TEST(ChargedCalls, OwnThreadCallsAreClippedToTheWindow) {
  const std::vector<Interval> own = MergeIntervals({{0, 50}, {80, 90}});
  std::vector<Interval> charged = ChargedCalls({40, 100}, own, {});
  ASSERT_EQ(charged.size(), 2u);
  EXPECT_EQ(charged[0].start, 40);
  EXPECT_EQ(charged[0].end, 50);
  EXPECT_EQ(charged[1].start, 80);
  EXPECT_EQ(charged[1].end, 90);
}

// With several clients, a dispatcher call belongs to the request that
// issued it and waits inside it, not to a cache hit on another client that
// happens to run meanwhile.
TEST(ChargedCalls, DispatcherCallsOnlyChargeTheRequestsThatContainThem) {
  const std::vector<Interval> dispatcher = {{50, 600}, {700, 720}};
  // The issuing request: both calls lie inside it.
  EXPECT_EQ(UncoveredLength({0, 800}, ChargedCalls({0, 800}, {}, dispatcher)),
            800 - 550 - 20);
  // A hit during the first call and overlapping the second: nothing.
  EXPECT_TRUE(ChargedCalls({100, 120}, {}, dispatcher).empty());
  EXPECT_TRUE(ChargedCalls({710, 730}, {}, dispatcher).empty());
  // Own-thread and dispatcher calls that overlap count once.
  const std::vector<Interval> own = MergeIntervals({{40, 60}});
  EXPECT_EQ(UncoveredLength({0, 650}, ChargedCalls({0, 650}, own, dispatcher)),
            650 - 560);
}

TEST(SelfTimes, SubtractsChildrenOnce) {
  // request [0,100): match [0,10), lookup [10,30), origin [30,90) with a
  // pipelined local_eval [40,60) nested in it, serialize [90,95).
  std::vector<SpanInterval> spans = {
      {-1, {0, 100}}, {0, {0, 10}},  {0, {10, 30}},
      {0, {30, 90}},  {3, {40, 60}}, {0, {90, 95}},
  };
  std::vector<int64_t> self = SelfTimes(spans);
  ASSERT_EQ(self.size(), spans.size());
  EXPECT_EQ(self[0], 5);   // 100 - (10 + 20 + 60 + 5)
  EXPECT_EQ(self[1], 10);
  EXPECT_EQ(self[2], 20);
  EXPECT_EQ(self[3], 40);  // 60 - 20
  EXPECT_EQ(self[4], 20);
  EXPECT_EQ(self[5], 5);
  int64_t total = 0;
  for (int64_t s : self) total += s;
  EXPECT_EQ(total, 100);  // Self times add up to the root's wall time.
}

TEST(SelfTimes, OverlappingChildrenAreNotDoubleCounted) {
  std::vector<SpanInterval> spans = {{-1, {0, 100}}, {0, {10, 60}},
                                     {0, {40, 80}}};
  EXPECT_EQ(SelfTimes(spans)[0], 30);
}

TEST(NearestRank, MatchesTheDefinition) {
  std::vector<double> sorted;
  for (int i = 1; i <= 100; ++i) sorted.push_back(i);
  EXPECT_EQ(NearestRank(sorted, 0.50), 50);
  EXPECT_EQ(NearestRank(sorted, 0.99), 99);
  EXPECT_EQ(NearestRank(sorted, 1.00), 100);
  EXPECT_EQ(NearestRank(sorted, 0.001), 1);
  EXPECT_EQ(NearestRank({7.0}, 0.99), 7.0);
  // 11,323 samples (one replay of the paper trace): p99 is rank 11,210,
  // leaving 113 samples beyond it; p50 is rank 5,662.
  std::vector<double> trace(11323);
  for (size_t i = 0; i < trace.size(); ++i) trace[i] = static_cast<double>(i);
  EXPECT_EQ(NearestRank(trace, 0.99), 11209);
  EXPECT_EQ(NearestRank(trace, 0.50), 5661);
}

// Reference values from Python: statistics.quantiles(data, n=4).
TEST(QuartilesOf, MatchesPythonStatisticsQuantiles) {
  Quartiles q = QuartilesOf({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  EXPECT_DOUBLE_EQ(q.q1, 2.75);
  EXPECT_DOUBLE_EQ(q.median, 5.5);
  EXPECT_DOUBLE_EQ(q.q3, 8.25);
  q = QuartilesOf({7, 1, 3});
  EXPECT_DOUBLE_EQ(q.q1, 1.0);
  EXPECT_DOUBLE_EQ(q.median, 3.0);
  EXPECT_DOUBLE_EQ(q.q3, 7.0);
  q = QuartilesOf({4, 2});
  EXPECT_DOUBLE_EQ(q.q1, 1.5);
  EXPECT_DOUBLE_EQ(q.median, 3.0);
  EXPECT_DOUBLE_EQ(q.q3, 4.5);
  q = QuartilesOf({42});
  EXPECT_DOUBLE_EQ(q.q1, 42.0);
  EXPECT_DOUBLE_EQ(q.q3, 42.0);
}

TEST(AttributedShare, IsRequestTreesAndSweepsOverClientWall) {
  EXPECT_DOUBLE_EQ(AttributedShare(960, 0, 1000), 0.96);
  EXPECT_DOUBLE_EQ(AttributedShare(900, 60, 1000), 0.96);
  EXPECT_DOUBLE_EQ(AttributedShare(1, 0, 0), 0.0);
}

TEST(TraceSeed, KeepsTheRunSeedAndSpreadsTheRest) {
  EXPECT_EQ(TraceSeed(2004, 0), 2004u);  // The paper trace.
  std::set<uint64_t> seen;
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    for (uint64_t j = 0; j < 8; ++j) seen.insert(TraceSeed(seed, j));
  }
  // Nearby run seeds share no trace.
  EXPECT_EQ(seen.size(), 20u * 8u);
  EXPECT_EQ(TraceSeed(7, 3), TraceSeed(7, 3));
}

TEST(FastestPerRequest, TakesEachRequestsMinimumOverReplays) {
  std::vector<double> fastest =
      FastestPerRequest({{5, 9, 3}, {4, 12, 3}, {6, 8, 7}});
  EXPECT_EQ(fastest, (std::vector<double>{4, 8, 3}));
  EXPECT_EQ(FastestPerRequest({{1, 2}}), (std::vector<double>{1, 2}));
  EXPECT_TRUE(FastestPerRequest({}).empty());
}

}  // namespace
}  // namespace fnproxy::e2e
