// Self-tests of the benchmark's own helpers: the percentile rule, metric
// names, span self-time arithmetic, the span-coverage check and the seeded
// input generator.
// Runs every expectation; exits non-zero if any failed.
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "inputs.h"
#include "report.h"
#include "spans.h"

namespace {

int failures = 0;

void expect(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "selftest:%d: FAILED: %s\n", line, what);
    ++failures;
  }
}
#define EXPECT(cond) expect((cond), #cond, __LINE__)

perfbench::LatencyHistogram samples(std::size_t n) {
  perfbench::LatencyHistogram h;
  for (std::size_t i = n; i >= 1; --i) h.add(static_cast<double>(i));  // 1..n
  return h;
}

bool near(double x, double want) { return std::fabs(x - want) <= 0.011 * want; }

void test_percentile() {
  using perfbench::Percentile;
  // p99 needs 10 samples beyond the rank: 1000 samples is the minimum.
  Percentile p = samples(1000).percentile(0.99);
  EXPECT(p.supported);
  EXPECT(p.count == 1000);
  EXPECT(p.beyond == 10);
  EXPECT(near(p.value, 990.0));  // within one 1.1% bucket
  p = samples(999).percentile(0.99);
  EXPECT(!p.supported);
  EXPECT(p.count == 999);
  EXPECT(p.beyond == 9);
  // The median of 20 samples has exactly 10 beyond it; of 19, only 9.
  p = samples(20).percentile(0.5);
  EXPECT(p.supported && near(p.value, 10.0) && p.beyond == 10);
  EXPECT(!samples(19).percentile(0.5).supported);
  p = perfbench::LatencyHistogram().percentile(0.5);
  EXPECT(!p.supported && p.count == 0);
  // Samples in one bucket still read distinct, ordered values.
  perfbench::LatencyHistogram same;
  for (int i = 0; i < 100; ++i) same.add(1000.0);
  const double lo = same.percentile(0.2).value, hi = same.percentile(0.8).value;
  EXPECT(lo < hi && near(lo, 1000.0) && near(hi, 1000.0));
  // Slices: medians of per-slice figures when every slice supports the
  // quantile, the pooled sample otherwise.
  perfbench::Slices slices;
  for (int s = 0; s < 3; ++s) {
    for (int i = 1; i <= 100; ++i) slices.add(2.0, (s == 1 ? 10.0 : 1.0) * i);
    slices.add(1.0, -1.0);  // work without a latency sample
    slices.close(1'000'000'000ULL * static_cast<std::uint64_t>(s + 1));
  }
  EXPECT(slices.count() == 3);
  EXPECT(slices.throughput_per_s() == 201.0 / 2.0);  // median of 201, 100.5, 67
  p = slices.percentile(0.5);
  EXPECT(p.supported && p.count == 300 && near(p.value, 50.0));  // median of 50, 500, 50
  p = slices.percentile(0.95);  // 5 beyond per slice: falls back to pooled
  EXPECT(p.supported && p.count == 300 && p.beyond == 15 && near(p.value, 850.0));
  EXPECT(!slices.percentile(0.99).supported);
  EXPECT(perfbench::median_of({3.0, 1.0, 2.0}) == 2.0);
  EXPECT(perfbench::median_of({4.0, 1.0, 2.0, 3.0}) == 2.5);
}

void test_metric_names() {
  using perfbench::valid_metric_name;
  EXPECT(valid_metric_name("setup_s"));
  EXPECT(valid_metric_name("serve.rejected_frac.queue_full"));
  EXPECT(valid_metric_name("apps.lpf3x3_ms"));
  EXPECT(valid_metric_name("a-b.c_1"));
  EXPECT(!valid_metric_name(""));
  EXPECT(!valid_metric_name(".leading_dot"));
  EXPECT(!valid_metric_name("has space"));
  EXPECT(!valid_metric_name("slash/name"));
  EXPECT(!valid_metric_name("quote\"name"));
  EXPECT(!valid_metric_name(std::string(65, 'a')));
  EXPECT(valid_metric_name(std::string(64, 'a')));
  // A report with a bad name or a non-finite value is not correct.
  const auto no_message = [] { return std::string(); };
  perfbench::Report bad("t");
  bad.check(true, no_message);
  bad.metric("bad name", 1.0, "s");
  EXPECT(!bad.correct());
  perfbench::Report nan("t");
  nan.check(true, no_message);
  nan.metric("x", std::numeric_limits<double>::quiet_NaN(), "s");
  EXPECT(!nan.correct());
  perfbench::Report good("t");
  EXPECT(!good.correct());  // nothing attempted
  good.check(true, no_message);
  good.metric("x", 1.0, "s");
  EXPECT(good.correct());
  good.check(false, [] { return std::string("expected failure (self-test)"); });
  EXPECT(!good.correct() && good.failed() == 1 && good.attempted() == 2);
  // A check over several units counts each of them once.
  good.check(false, [] { return std::string("expected failure (self-test)"); }, 5);
  EXPECT(good.failed() == 6 && good.attempted() == 7);
}

void test_self_time() {
  using perfbench::covered_ns;
  using perfbench::Interval;
  using perfbench::self_ns;
  // No children: self time is the duration.
  EXPECT(self_ns({100, 200}, {}) == 100);
  // Disjoint children.
  EXPECT(self_ns({0, 100}, {{10, 20}, {50, 70}}) == 70);
  // Overlapping children (two threads) count once.
  EXPECT(self_ns({0, 100}, {{10, 40}, {20, 50}, {30, 35}}) == 60);
  // Touching children merge without double counting.
  EXPECT(self_ns({0, 100}, {{10, 20}, {20, 30}}) == 80);
  // Children spilling outside the parent are clipped to it.
  EXPECT(self_ns({50, 100}, {{0, 60}, {90, 200}}) == 30);
  // A child covering everything leaves no self time.
  EXPECT(self_ns({50, 100}, {{0, 1000}}) == 0);
  // Unsorted input, nested child, empty child.
  EXPECT(covered_ns({{70, 80}, {0, 10}, {2, 5}, {40, 40}}, 0, 100) == 20);
  // Span log totals add up durations and self times.
  perfbench::SpanLog log(2);
  const std::uint32_t p = log.layer("parent");
  const std::uint32_t c = log.layer("child");
  EXPECT(log.layer("parent") == p);
  const std::int64_t pi = log.record(p, 0, 100, -1, 7, self_ns({0, 100}, {{10, 30}, {20, 40}}));
  log.record_leaf(c, 10, 30, pi, 7);
  EXPECT(log.record_leaf(c, 20, 40, pi, 7) == -1);  // over the cap: counted only
  EXPECT(log.dropped() == 1);
  EXPECT(log.totals(p).self_ns == 70);
  EXPECT(log.totals(c).count == 2 && log.totals(c).total_ns == 40);
}

void test_coverage() {
  // A timed loop of three 1-ms pieces of work, 100 ns apart (the clock
  // reads between spans), with a wall clock read around it.
  const auto loop = [](bool skip_second, bool count_twice) {
    perfbench::SpanLog log;
    perfbench::DriverTimeline timeline(log);
    const std::uint32_t work = log.layer("work");
    timeline.start(0);
    std::uint64_t t = 50;
    for (int i = 0; i < 3; ++i) {
      if (!(skip_second && i == 1)) timeline.record_leaf(work, t, t + 1'000'000);
      if (count_twice && i == 2) timeline.record_leaf(work, t, t + 1'000'000);
      t += 1'000'100;
    }
    timeline.stop(t - 50);
    return timeline;
  };
  const perfbench::DriverTimeline tiled = loop(false, false);
  EXPECT(tiled.spans() == 3);
  EXPECT(tiled.coverage() > 0.9998 && tiled.coverage() < 1.0);
  EXPECT(tiled.coverage_ok(50.0));
  // A piece of work without its span leaves a third of the loop unaccounted.
  const perfbench::DriverTimeline missing = loop(true, false);
  EXPECT(near(missing.coverage(), 2.0 / 3.0));
  EXPECT(!missing.coverage_ok(50.0));
  // A span recorded twice accounts for more than the loop.
  const perfbench::DriverTimeline twice = loop(false, true);
  EXPECT(near(twice.coverage(), 4.0 / 3.0));
  EXPECT(!twice.coverage_ok(50.0));
  // Gaps are allowed two clock reads per span, no more: 1 us gaps between
  // 1-us spans pass only with a 500-ns clock read.
  perfbench::SpanLog log;
  perfbench::DriverTimeline fine(log);
  const std::uint32_t work = log.layer("work");
  fine.start(0);
  for (std::uint64_t i = 0; i < 100; ++i) fine.record_leaf(work, 2000 * i, 2000 * i + 1000);
  fine.stop(200'000);
  EXPECT(near(fine.coverage(), 0.5));
  EXPECT(!fine.coverage_ok(50.0));
  EXPECT(fine.coverage_ok(500.0));
  // An empty loop is never covered.
  perfbench::DriverTimeline empty(log);
  EXPECT(!empty.coverage_ok(50.0));
}

void test_inputs() {
  perfbench::BenchRng a = perfbench::BenchRng::derive(42, "x");
  perfbench::BenchRng b = perfbench::BenchRng::derive(42, "x");
  perfbench::BenchRng c = perfbench::BenchRng::derive(42, "y");
  bool same = true, differs = false;
  for (int i = 0; i < 100; ++i) {
    const std::uint64_t va = a.next();
    same = same && va == b.next();
    differs = differs || va != c.next();
  }
  EXPECT(same);
  EXPECT(differs);
  perfbench::BenchRng r(1);
  bool in_range = true;
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t v = r.range(33, 96);
    in_range = in_range && v >= 33 && v <= 96;
    in_range = in_range && r.bits(12) < (1u << 12);
  }
  EXPECT(in_range);
  perfbench::BenchRng f1(5), f2(5);
  const auto img1 = perfbench::smoothed_noise_frame(64, 48, f1);
  const auto img2 = perfbench::smoothed_noise_frame(64, 48, f2);
  EXPECT(img1 == img2);
  EXPECT(perfbench::hash_image(img1) == perfbench::hash_image(img2));
  auto img3 = img1;
  img3.set(3, 3, static_cast<std::uint16_t>(img3.at(3, 3) ^ 1));
  EXPECT(perfbench::hash_image(img1) != perfbench::hash_image(img3));
  EXPECT(perfbench::crop(img1, 8, 4, 16, 8).at(0, 0) == img1.at(8, 4));
}

}  // namespace

int main() {
  test_percentile();
  test_metric_names();
  test_self_time();
  test_coverage();
  test_inputs();
  if (failures != 0) {
    std::fprintf(stderr, "selftest: %d expectation(s) failed\n", failures);
    return 1;
  }
  std::fprintf(stderr, "selftest: all passed\n");
  return 0;
}
