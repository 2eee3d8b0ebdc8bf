// Tests of the benchmark's percentile, failure-accounting and span
// self-time helpers.
#include <gtest/gtest.h>

#include <vector>

#include "perfbench/stats.hpp"
#include "perfbench/trace.hpp"

namespace pb = perfbench;

namespace {

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

TEST(Summarize, MedianAndTailWithTenSamplesBeyond) {
  const pb::Summary s = pb::summarize(one_to(100));
  EXPECT_EQ(s.n, 100u);
  EXPECT_EQ(s.p50, 50.5);
  // p90 is the highest percentile leaving 10 of 100 samples beyond it.
  EXPECT_DOUBLE_EQ(s.tail_pct, 90.0);
  EXPECT_EQ(s.tail, 90);
}

TEST(Summarize, NoTailBelowElevenSamples) {
  const pb::Summary s = pb::summarize(one_to(10));
  EXPECT_EQ(s.n, 10u);
  EXPECT_EQ(s.p50, 5.5);
  EXPECT_EQ(s.tail_pct, 0);
  EXPECT_EQ(s.tail, 0);
  EXPECT_EQ(pb::summarize({}).n, 0u);
}

TEST(Summarize, TailLeavesExactlyTenBeyond) {
  for (int n : {11, 37, 250, 1000, 1234}) {
    const pb::Summary s = pb::summarize(one_to(n));
    EXPECT_EQ(s.tail, n - 10) << n;  // samples n-9 .. n lie beyond it
  }
}

TEST(SupportedQuantile, UsesP99OnlyWhenSupported) {
  double used = -1;
  EXPECT_EQ(pb::supported_quantile(one_to(1000), 0.99, &used), 990);
  EXPECT_DOUBLE_EQ(used, 99.0);
  // 500 samples leave 5 beyond p99: fall back to the supported p98.
  EXPECT_EQ(pb::supported_quantile(one_to(500), 0.99, &used), 490);
  EXPECT_DOUBLE_EQ(used, 98.0);
  // No supported tail at all: the maximum, flagged with percentile 0.
  EXPECT_EQ(pb::supported_quantile(one_to(5), 0.99, &used), 5);
  EXPECT_EQ(used, 0);
  EXPECT_EQ(pb::supported_quantile({}, 0.99, &used), 0);
  EXPECT_EQ(used, 0);
}

TEST(Quantile, NearestRank) {
  const std::vector<double> v = {1, 2, 3, 4};
  EXPECT_EQ(pb::quantile(v, 0.0), 1);
  EXPECT_EQ(pb::quantile(v, 0.25), 1);
  EXPECT_EQ(pb::quantile(v, 0.5), 2);
  EXPECT_EQ(pb::quantile(v, 0.51), 3);
  EXPECT_EQ(pb::quantile(v, 1.0), 4);
}

TEST(Ledger, CountsFailuresAndRefusalsAgainstAttempts) {
  pb::Ledger l;
  l.ok(10);
  l.ok(300);
  l.failed();
  l.refused();
  EXPECT_EQ(l.attempted(), 4u);
  EXPECT_EQ(l.failures(), 2u);
  EXPECT_EQ(l.refusals(), 1u);
  EXPECT_DOUBLE_EQ(l.failed_ratio(), 0.5);
  // Failures miss every limit; successes only when slower than it.
  EXPECT_EQ(l.missed(1000), 2u);
  EXPECT_EQ(l.missed(100), 3u);
  EXPECT_EQ(l.latencies_ms().size(), 2u);

  pb::Ledger m;
  m.ok(1);
  m.merge(l);
  EXPECT_EQ(m.attempted(), 5u);
  EXPECT_EQ(m.failures(), 2u);
  EXPECT_EQ(m.latencies_ms().size(), 3u);
  EXPECT_EQ(pb::Ledger{}.failed_ratio(), 0.0);
}

TEST(Median, InterpolatesEvenCounts) {
  EXPECT_EQ(pb::median({3, 1, 2}), 2);
  EXPECT_EQ(pb::median({4, 1, 2, 3}), 2.5);
  EXPECT_EQ(pb::median({}), 0);
}

TEST(SelfSeconds, NestedSpansPartitionTheRoot) {
  pb::Tracer t;
  t.enabled = true;
  // root [0, 100]: a [10, 40] with child b [20, 30]; c [50, 60].
  t.add("root", 0, 100, -1, 0);
  t.add("a", 10, 40, 0, 0);
  t.add("b", 20, 30, 1, 0);
  t.add("c", 50, 60, 0, 0);
  const auto self = pb::self_seconds(t.spans(), 0);
  EXPECT_DOUBLE_EQ(self.at("a"), 20e-9);
  EXPECT_DOUBLE_EQ(self.at("b"), 10e-9);
  EXPECT_DOUBLE_EQ(self.at("c"), 10e-9);
  EXPECT_DOUBLE_EQ(self.at("bench.other"), 60e-9);
  double sum = 0;
  for (const auto& [name, s] : self) sum += s;
  EXPECT_DOUBLE_EQ(sum, 100e-9);
}

TEST(SelfSeconds, OverlappingSiblingsCountedOnce) {
  pb::Tracer t;
  t.enabled = true;
  // Three requests in flight together: [10, 50], [20, 60], [70, 80].
  t.add("root", 0, 100, -1, 0);
  t.add("req", 10, 50, 0, 1);
  t.add("req", 20, 60, 0, 2);
  t.add("req", 70, 80, 0, 3);
  const auto self = pb::self_seconds(t.spans(), 0);
  EXPECT_DOUBLE_EQ(self.at("req"), 60e-9);
  EXPECT_DOUBLE_EQ(self.at("bench.other"), 40e-9);
}

TEST(SelfSeconds, OnlyDescendantsOfTheRootCount) {
  pb::Tracer t;
  t.enabled = true;
  t.add("pass", 0, 10, -1, 0);
  t.add("x", 1, 9, 0, 0);
  t.add("pass", 20, 30, -1, 1);
  t.add("x", 21, 23, 2, 1);
  const auto self = pb::self_seconds(t.spans(), 2);
  EXPECT_DOUBLE_EQ(self.at("x"), 2e-9);
  EXPECT_DOUBLE_EQ(self.at("bench.other"), 8e-9);
}

TEST(Tracer, ScopesNestAndRename) {
  pb::Tracer t;
  t.enabled = true;
  {
    pb::Scope outer(t, "outer", 7);
    pb::Scope inner(t, "inner", 7, 3);
    inner.rename("renamed");
    EXPECT_EQ(t.current(), 1);
  }
  ASSERT_EQ(t.spans().size(), 2u);
  EXPECT_EQ(t.spans()[1].name, "renamed");
  EXPECT_EQ(t.spans()[1].parent, 0);
  EXPECT_EQ(t.spans()[1].tag, 3);
  EXPECT_LE(t.spans()[1].end_ns, t.spans()[0].end_ns);
  EXPECT_EQ(t.current(), -1);
  EXPECT_DOUBLE_EQ(pb::tagged_self_seconds(t.spans(), 0, "renamed", 4), 0.0);
}

TEST(Tracer, DisabledRecordsNothing) {
  pb::Tracer t;
  { pb::Scope s(t, "x", 0); }
  t.add("y", 0, 1, -1, 0);
  EXPECT_TRUE(t.spans().empty());
}

}  // namespace
