// Tests for the benchmark's own measurement helpers.
#include <gtest/gtest.h>

#include <vector>

#include "stats.h"
#include "trace.h"

namespace perfbench {
namespace {

std::vector<double> OneTo(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) {
    v.push_back(i);  // descending: Percentile must not assume sorted input
  }
  return v;
}

TEST(PercentileTest, NearestRank) {
  EXPECT_EQ(Percentile(OneTo(100), 50.0), 50.0);
  EXPECT_EQ(Percentile(OneTo(100), 99.0), 99.0);
  EXPECT_EQ(Percentile(OneTo(10), 95.0), 10.0);
  EXPECT_EQ(Percentile({}, 50.0), 0.0);
  EXPECT_EQ(Median({3.0, 1.0, 2.0}), 2.0);
}

TEST(SummaryTest, TailIsHighestPercentileWithTenSamplesBeyond) {
  EXPECT_EQ(SamplesBeyond(1000, 99.0), 10);
  EXPECT_EQ(SamplesBeyond(999, 99.0), 9);

  Summary s = Summarize(OneTo(1000));  // p99 has exactly 10 beyond
  EXPECT_EQ(s.tail_pct, 99.0);
  EXPECT_EQ(s.tail, 990.0);
  EXPECT_EQ(s.p50, 500.0);
  EXPECT_EQ(s.n, 1000);

  s = Summarize(OneTo(999));  // p99 has 9 beyond: fall back to p95
  EXPECT_EQ(s.tail_pct, 95.0);
  EXPECT_EQ(s.tail, 950.0);

  s = Summarize(OneTo(10000));  // the ladder stops at p99
  EXPECT_EQ(s.tail_pct, 99.0);
  EXPECT_EQ(s.tail, 9900.0);

  s = Summarize(OneTo(30));  // even p75 has only 7 beyond: the median
  EXPECT_EQ(s.tail_pct, 50.0);
  EXPECT_EQ(s.tail, s.p50);
}

Span MakeSpan(uint64_t id, uint64_t parent, int64_t start, int64_t end) {
  Span s;
  s.name = "x";
  s.id = id;
  s.parent = parent;
  s.start_ns = start;
  s.end_ns = end;
  return s;
}

TEST(SelfTimeTest, SubtractsCoveredChildTimeOnce) {
  // root [0,100): children [10,30) and [20,50) overlap -> 40 covered; a
  // grandchild [12,18) belongs to the first child only.
  const std::vector<Span> spans = {MakeSpan(1, 0, 0, 100), MakeSpan(2, 1, 10, 30),
                                   MakeSpan(3, 1, 20, 50), MakeSpan(4, 2, 12, 18)};
  const auto self = SelfTimes(spans);
  EXPECT_EQ(self.at(1), 60);
  EXPECT_EQ(self.at(2), 14);
  EXPECT_EQ(self.at(3), 30);
  EXPECT_EQ(self.at(4), 6);
}

TEST(SelfTimeTest, ClipsChildrenToTheParentInterval) {
  // A child running on another thread past its parent's end.
  const std::vector<Span> spans = {MakeSpan(1, 0, 0, 100), MakeSpan(2, 1, 90, 150)};
  EXPECT_EQ(SelfTimes(spans).at(1), 90);
}

TEST(TracerTest, NestedScopedSpansRecordParentsAndAggregate) {
  Tracer& tracer = Tracer::Get();
  tracer.Drain();
  { ScopedSpan off("ignored"); }  // tracer disabled: nothing recorded
  tracer.Enable(7);
  {
    ScopedSpan outer("outer");
    ScopedSpan inner("inner", 4);
  }
  tracer.Disable();
  const std::vector<Span> spans = tracer.Drain();
  ASSERT_EQ(spans.size(), 2u);
  const Span& inner = spans[0];
  const Span& outer = spans[1];
  EXPECT_STREQ(inner.name, "inner");
  EXPECT_EQ(inner.parent, outer.id);
  EXPECT_EQ(outer.parent, 0u);
  EXPECT_EQ(inner.run, 7u);
  const auto stats = Aggregate(spans);
  EXPECT_EQ(stats.at("inner").items, 4);
  EXPECT_EQ(stats.at("outer").count, 1);
  EXPECT_LE(stats.at("outer").self_ns, stats.at("outer").total_ns);
}

TEST(OpenLoopTest, LatencyCountsFromTheDueTime) {
  // Tick 1 was due at 1000 but started at 1500 behind a stall: its latency
  // includes the 500 ns it waited.
  const std::vector<Tick> ticks = {{0, 0, 200, 3}, {1000, 1500, 1700, 4}};
  const std::vector<double> latency = LatencyFromDueUs(ticks);
  EXPECT_DOUBLE_EQ(latency[0], 0.2);
  EXPECT_DOUBLE_EQ(latency[1], 0.7);
  EXPECT_DOUBLE_EQ(LatenessUs(ticks)[1], 0.5);
  // Every decision of a late tick missed the limit.
  EXPECT_EQ(LateItems(ticks, 500), 4);
  EXPECT_EQ(LateItems(ticks, 700), 0);
  EXPECT_EQ(LateItems(ticks, 100), 7);
  EXPECT_EQ(TotalItems(ticks), 7);
  // Busy time excludes the wait before a tick starts: 7 items in 400 ns.
  const std::vector<double> rates = BusyRates(ticks, 2);
  ASSERT_EQ(rates.size(), 1u);
  EXPECT_DOUBLE_EQ(rates[0], 7.0 / 400e-9);
  EXPECT_TRUE(BusyRates(ticks, 3).empty());
}

TEST(OpenLoopTest, BacklogGrowsOnlyWhenLagKeepsRising) {
  const int64_t period = 1000;
  std::vector<Tick> steady, growing, jitter;
  for (int k = 0; k < 100; ++k) {
    const int64_t due = k * period;
    steady.push_back({due, due + 50, due + 400, 1});
    // Each tick takes 1.5 periods: every tick starts later than the last.
    growing.push_back({due, due + k * period / 2, due + k * period / 2 + 1500, 1});
    // One long stall in the middle, then the generator catches up.
    const int64_t lag = (k == 50) ? 5 * period : 100;
    jitter.push_back({due, due + lag, due + lag + 300, 1});
  }
  EXPECT_FALSE(BacklogGrows(steady, period));
  EXPECT_TRUE(BacklogGrows(growing, period));
  EXPECT_FALSE(BacklogGrows(jitter, period));
  EXPECT_FALSE(BacklogGrows({}, period));
}

TEST(FailureLedgerTest, CountsFailuresAgainstAttempts) {
  FailureLedger ledger;
  EXPECT_EQ(ledger.ok_frac(), 1.0);
  ledger.Attempt("tick", 1000);
  ledger.Fail("tick_late", 5);
  ledger.Attempt("report", 3000);
  ledger.Fail("report_rejected", 0);
  ledger.Attempt("decision_check", 32);
  ledger.Fail("decision_check", 1);
  EXPECT_EQ(ledger.attempted(), 4032);
  EXPECT_EQ(ledger.failed(), 6);
  EXPECT_DOUBLE_EQ(ledger.ok_frac(), 1.0 - 6.0 / 4032.0);
  EXPECT_NE(ledger.Describe().find("tick_late=5/0"), std::string::npos);
  EXPECT_NE(ledger.Describe().find("decision_check=1/32"), std::string::npos);
}

TEST(DigestTest, OrderSensitive) {
  EXPECT_NE(MixU64(MixU64(0, 1), 2), MixU64(MixU64(0, 2), 1));
  EXPECT_NE(MixDouble(0, 0.0), MixDouble(0, -0.0));
}

}  // namespace
}  // namespace perfbench
