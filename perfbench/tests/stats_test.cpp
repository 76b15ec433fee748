// Self-tests of the benchmark's own arithmetic (perfbench/cpp/stats.hpp):
// the percentile rule, self time over nested spans, the digest check, the
// knee search and the host-speed scaling. Run with
// `python3 perfbench/run.py --self-test`.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "host_speed.hpp"
#include "stats.hpp"

namespace bf::perfbench {
namespace {

TEST(Percentile, NearestRank) {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  EXPECT_EQ(percentile(v, 50), 50);
  EXPECT_EQ(percentile(v, 99), 99);
  EXPECT_EQ(percentile(v, 100), 100);
  EXPECT_EQ(percentile(v, 0), 1);
  EXPECT_EQ(percentile({}, 50), 0);
  EXPECT_EQ(median({3, 1, 2}), 2);
  EXPECT_EQ(median({4, 1, 2, 3}), 2.5);
}

TEST(Percentile, TailRuleNeedsTenSamplesBeyond) {
  EXPECT_EQ(samples_beyond(1000, 99), 10u);
  EXPECT_EQ(samples_beyond(999, 99), 9u);

  const Tail t1000 = supported_tail(1000);
  EXPECT_EQ(t1000.p, 99);
  EXPECT_EQ(t1000.beyond, 10u);
  EXPECT_EQ(t1000.n, 1000u);

  // One sample short of p99: the rule falls back to p90.
  const Tail t999 = supported_tail(999);
  EXPECT_EQ(t999.p, 90);
  EXPECT_EQ(t999.beyond, 99u);

  EXPECT_EQ(supported_tail(10000).p, 99.9);
  EXPECT_EQ(supported_tail(100000).p, 99.99);
  EXPECT_EQ(supported_tail(20).p, 50);
  EXPECT_EQ(supported_tail(19).p, 0);  // not even a median
}

TEST(Percentile, WindowedTailIgnoresAStallInOneWindow) {
  std::vector<double> v(5000, 1.0);
  for (std::size_t i = 1200; i < 1260; ++i) v[i] = 50.0;  // one stall
  EXPECT_EQ(percentile(v, 99), 50.0);
  EXPECT_EQ(windowed_percentile(v, 1000, 99), 1.0);
  // Stalls in three of five windows do move it.
  for (std::size_t i = 3200; i < 3260; ++i) v[i] = 40.0;
  for (std::size_t i = 4200; i < 4260; ++i) v[i] = 30.0;
  EXPECT_EQ(windowed_percentile(v, 1000, 99), 30.0);
  // Fewer samples than one window: the plain percentile.
  EXPECT_EQ(windowed_percentile({1, 2, 3}, 1000, 50), 2.0);
}

Span span(const char* name, std::int64_t start, std::int64_t end, int parent) {
  Span s;
  s.name = name;
  s.start_ns = start;
  s.end_ns = end;
  s.parent = parent;
  return s;
}

TEST(Spans, SelfTimeSubtractsTheUnionOfDirectChildren) {
  std::vector<Span> spans = {
      span("root", 0, 100, -1),
      span("a", 10, 40, 0),
      span("b", 30, 60, 0),      // overlaps a: union 10..60
      span("a.inner", 15, 20, 1),  // grandchild: not the root's child
      span("late", 90, 120, 0),  // runs past its parent: clipped to 90..100
  };
  const std::vector<std::int64_t> self = self_times_ns(spans);
  EXPECT_EQ(self[0], 100 - 50 - 10);
  EXPECT_EQ(self[1], 30 - 5);
  EXPECT_EQ(self[2], 30);
  EXPECT_EQ(self[3], 5);
  EXPECT_EQ(self[4], 30);  // no children of its own
}

TEST(Spans, TracerSumsByNameAndSharesTraceIds) {
  Tracer tr(true);
  const int root = tr.add(span("analysis", 0, 1000, -1));
  tr.add(span("core.fit", 100, 400, root));
  tr.add(span("core.fit", 500, 600, root));
  const int other = tr.add(span("analysis", 2000, 2500, -1));
  EXPECT_DOUBLE_EQ(tr.total_s("core.fit"), 400e-9);
  const std::vector<Span> all = tr.spans();
  const std::vector<std::int64_t> self = self_times_ns(all);
  EXPECT_EQ(self[0], 1000 - 300 - 100);
  EXPECT_EQ(self[static_cast<std::size_t>(other)], 500);
  EXPECT_EQ(all[1].trace_id, all[0].trace_id);
  EXPECT_EQ(all[2].trace_id, all[0].trace_id);
  EXPECT_NE(all[static_cast<std::size_t>(other)].trace_id, all[0].trace_id);

  {
    const Tracer::Scope outer(tr, "outer", -1);
    const Tracer::Scope inner(tr, "inner", outer.id());
    EXPECT_EQ(tr.spans()[static_cast<std::size_t>(inner.id())].parent,
              outer.id());
  }
  EXPECT_EQ(tr.durations_s("inner").size(), 1u);

  Tracer off(false);
  const Tracer::Scope none(off, "x", -1);
  EXPECT_EQ(none.id(), -1);
  off.count("n", 1);
  EXPECT_TRUE(off.spans().empty());
  EXPECT_EQ(off.counter("n"), 0);
}

TEST(Digests, PerturbedOutputIsCaught) {
  const std::string report = "size 96 -> 0.0216 ms grade B\n";
  Digests golden = {{"matrixMul.gtx580/predictions", digest(report)},
                    {"matrixMul.gtx580/bundle", digest("bundle bytes")}};
  Digests same = golden;
  EXPECT_TRUE(changed_outputs(golden, same).empty());

  std::string perturbed = report;
  perturbed[15] = '7';  // one digit of one prediction
  Digests actual = golden;
  actual["matrixMul.gtx580/predictions"] = digest(perturbed);
  EXPECT_EQ(changed_outputs(golden, actual),
            std::vector<std::string>{"matrixMul.gtx580/predictions"});

  actual.erase("matrixMul.gtx580/bundle");  // a missing output counts too
  EXPECT_EQ(changed_outputs(golden, actual).size(), 2u);

  GoldenSet set;
  set.seed = 7;
  set.workloads["analyze-matmul"] = golden;
  const GoldenSet back = parse_golden(render_golden(set));
  EXPECT_EQ(back.seed, 7u);
  EXPECT_EQ(back.workloads.at("analyze-matmul"), golden);
}

TEST(Knee, LadderStepsAreAtMostTenPercent) {
  const std::vector<double> ladder = geometric_ladder(2000, 64000, 1.1);
  ASSERT_GE(ladder.size(), 2u);
  EXPECT_EQ(ladder.front(), 2000);
  EXPECT_LE(ladder.back(), 64000);
  EXPECT_GT(ladder.back() * 1.1, 64000);
  for (std::size_t i = 1; i < ladder.size(); ++i) {
    EXPECT_LE(ladder[i] / ladder[i - 1], 1.1 + 1e-12);
  }
}

TEST(Knee, FindsTheHighestRungUnderTheLimitOfASyntheticCurve) {
  // p99 of an M/M/1-like server: base / (1 - rate / capacity).
  const double base_ms = 0.2;
  const double capacity = 17000;
  const double limit_ms = 2.0;
  const std::vector<double> ladder = geometric_ladder(2000, 64000, 1.1);
  int probes = 0;
  const Knee knee = find_knee(ladder, [&](double rate) {
    ++probes;
    const double p99 = rate < capacity ? base_ms / (1 - rate / capacity)
                                       : INFINITY;
    return RungProbe{p99 < limit_ms, 0.99 * rate};
  });
  int expected = -1;
  for (std::size_t i = 0; i < ladder.size(); ++i) {
    if (ladder[i] < capacity * (1 - base_ms / limit_ms)) {
      expected = static_cast<int>(i);
    }
  }
  ASSERT_GE(expected, 0);
  EXPECT_EQ(knee.rung, expected);
  EXPECT_EQ(knee.rate_qps, ladder[static_cast<std::size_t>(expected)]);
  EXPECT_DOUBLE_EQ(knee.achieved_qps, 0.99 * knee.rate_qps);
  EXPECT_LE(probes, static_cast<int>(std::ceil(std::log2(ladder.size() + 1))));
  EXPECT_EQ(knee.probes.size(), static_cast<std::size_t>(probes));
}

TEST(Knee, AllFailingAndAllPassingLadders) {
  const std::vector<double> ladder = geometric_ladder(1000, 2000, 1.1);
  const Knee none = find_knee(ladder, [](double) { return RungProbe{}; });
  EXPECT_EQ(none.rung, -1);
  EXPECT_EQ(none.achieved_qps, 0);
  const Knee all = find_knee(
      ladder, [](double r) { return RungProbe{true, r}; });
  EXPECT_EQ(all.rung, static_cast<int>(ladder.size()) - 1);
}

TEST(HostSpeed, ScalesByTheMedianProbeAroundTheInterval) {
  const double ref = kReferenceProbeS;
  const std::int64_t ms = 1'000'000;
  const std::vector<Probe> probes = {
      {0, ref}, {200 * ms, 2 * ref}, {300 * ms, 2 * ref}, {400 * ms, 8 * ref},
      {900 * ms, ref / 2}};
  // Probes at 200, 300 and 400 ms fall within 100 ms of [250, 350] ms.
  EXPECT_DOUBLE_EQ(speed_over(probes, 250 * ms, 350 * ms), 0.5);
  // None within the slack of [600, 610] ms: the nearest, at 400 ms.
  EXPECT_DOUBLE_EQ(speed_over(probes, 600 * ms, 610 * ms), 0.125);
  EXPECT_DOUBLE_EQ(speed_over({}, 0, ms), 1.0);
}

}  // namespace
}  // namespace bf::perfbench
