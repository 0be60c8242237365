// mc_uniform: the paper's own method. Table III's four GeAr
// configurations, each estimated by the parallel bitsliced Monte-Carlo
// drivers (error probability and error distribution) on a 4-thread
// executor, checked against the exact analytic engines. Loads stats (RNG,
// pack_gp, executor) and the core MC driver; bypasses apps, adders and
// serve.
#include <array>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "clock.h"
#include "core/bitsliced_adder.h"
#include "core/config.h"
#include "core/error_model.h"
#include "inputs.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "spans.h"
#include "stats/bitsliced.h"
#include "stats/distributions.h"
#include "stats/parallel.h"
#include "workloads.h"

namespace perfbench {
namespace {

using gear::core::GeArConfig;

// One MC call estimates 2^19 trials in 16 shards, four per thread, so a
// thread the host preempts delays a call less (the others take its
// shards); a run still makes well over 1000 calls, enough for a p99.
constexpr std::uint64_t kTrialsPerCall = 1ULL << 19;
constexpr std::uint64_t kShardSize = 1ULL << 15;
constexpr int kSetupRepeats = 5;
// Per-test false-failure probability of the statistical checks. A run
// makes ~10^5 tests, so a correct program fails with probability ~1e-7.
constexpr double kCheckDelta = 1e-12;

struct McCase {
  GeArConfig cfg;
  double p_exact = 0.0;
  gear::stats::Pmf pmf;
};

/// Tolerance t with P(|X - n p| >= t) <= kCheckDelta for X ~ Bin(n, p),
/// from Bernstein's inequality: 2 exp(-t^2 / (2 (var + t / 3))).
double bernstein_tol(double n, double p) {
  const double l = std::log(2.0 / kCheckDelta);
  const double var = n * p * (1.0 - p);
  return l / 3.0 + std::sqrt(l * l / 9.0 + 2.0 * l * var);
}

bool within(double count, double n, double p) {
  return std::fabs(count - n * p) <= bernstein_tol(n, p);
}

std::string check_prob(const McCase& c,
                       const gear::core::McErrorEstimate& e) {
  if (e.trials != kTrialsPerCall) return "trial count";
  if (!within(static_cast<double>(e.errors), static_cast<double>(e.trials),
              c.p_exact)) {
    return "error count " + std::to_string(e.errors) + " vs exact p " +
           std::to_string(c.p_exact);
  }
  return {};
}

std::string check_dist(const McCase& c, const gear::stats::SparseHistogram& h) {
  if (h.total() != kTrialsPerCall) return "trial count";
  const double n = static_cast<double>(h.total());
  // Keys outside the exact support are impossible, not unlikely.
  for (const auto& [key, count] : h.entries()) {
    if (c.pmf.mass(key) <= 0.0) return "key " + std::to_string(key) + " outside support";
  }
  for (const auto& [key, mass] : c.pmf.entries()) {
    if (!within(static_cast<double>(h.count(key)), n, mass)) {
      return "count of key " + std::to_string(key);
    }
  }
  return {};
}

class McRunner {
 public:
  McRunner(const std::vector<McCase>& cases, std::uint64_t seed, Report& report)
      : cases_(cases), seed_(seed), report_(report) {}

  struct Timed {
    Interval call;   ///< the MC call
    Interval check;  ///< its referee check, after the clock stopped
  };

  /// One call and its check; returns when each ran.
  Timed call(gear::stats::ParallelExecutor& exec, std::size_t c, bool dist,
             const char* label, std::uint64_t index) {
    const std::uint64_t master = mix_seed(seed_, label, index);
    const McCase& mc = cases_[c];
    std::string why;
    std::uint64_t t0 = 0, t1 = 0;
    if (dist) {
      t0 = now_ns();
      const auto h = gear::core::mc_error_distribution(
          mc.cfg, kTrialsPerCall, master, exec, kShardSize,
          gear::core::McKernel::kBitsliced);
      t1 = now_ns();
      why = check_dist(mc, h);
    } else {
      t0 = now_ns();
      const auto e = gear::core::mc_error_probability(
          mc.cfg, kTrialsPerCall, master, exec, kShardSize,
          gear::core::McKernel::kBitsliced);
      t1 = now_ns();
      why = check_prob(mc, e);
    }
    report_.check(why.empty(), [&] {
      return mc.cfg.name() + (dist ? " distribution: " : " probability: ") + why;
    });
    return {{t0, t1}, {t1, now_ns()}};
  }

 private:
  const std::vector<McCase>& cases_;
  std::uint64_t seed_;
  Report& report_;
};

struct LayerCosts {
  double draw_ns_per_pair = 0.0;
  double pack_ns_per_block = 0.0;
  double eval_ns_per_op = 0.0;
  double mc1_ns_per_trial = 0.0;    ///< 1-thread MC call
  double parallel_efficiency = 0.0; ///< t1 / (T * tT)
};

/// Isolated calls into each layer under the MC driver, on the same
/// configuration and call size.
LayerCosts measure_layers(const McCase& c, std::uint64_t seed,
                          gear::stats::ParallelExecutor& exec,
                          gear::stats::ParallelExecutor& single) {
  constexpr std::size_t kPairs = 1u << 16;
  constexpr int kReps = 7;
  const int n = c.cfg.n();
  LayerCosts out;
  std::vector<gear::stats::OperandPair> pairs(kPairs);
  gear::stats::UniformSource source(n, gear::stats::Rng(mix_seed(seed, "mc-layer-draw")));
  out.draw_ns_per_pair =
      median_ns(kReps, [&] { source.fill(pairs.data(), kPairs); }) / kPairs;

  std::vector<std::uint64_t> a(kPairs), b(kPairs);
  for (std::size_t i = 0; i < kPairs; ++i) {
    a[i] = pairs[i].a;
    b[i] = pairs[i].b;
  }
  std::uint64_t sink = 0;
  std::uint64_t rows_g[64], rows_p[64];
  const double blocks = static_cast<double>(kPairs / 64);
  out.pack_ns_per_block = median_ns(kReps, [&] {
    for (std::size_t i = 0; i < kPairs; i += 64) {
      const std::uint64_t* p =
          gear::stats::pack_gp(&a[i], &b[i], 64, n, rows_g, rows_p);
      sink += rows_g[n - 1] ^ p[0];
    }
  }) / blocks;

  const gear::core::BitslicedGearAdder bs(c.cfg);
  gear::core::BitslicedBatch batch;
  out.eval_ns_per_op = median_ns(kReps, [&] {
    for (std::size_t i = 0; i < kPairs; i += 64) {
      bs.eval(&a[i], &b[i], 64, 0, 0, batch, true);
      sink += batch.error;
    }
  }) / static_cast<double>(kPairs);

  const std::uint64_t master = mix_seed(seed, "mc-layer-call");
  auto mc = [&](gear::stats::ParallelExecutor& e) {
    sink += gear::core::mc_error_probability(c.cfg, kTrialsPerCall, master, e,
                                             kShardSize,
                                             gear::core::McKernel::kBitsliced)
                .errors;
  };
  // Interleave the 1-thread and T-thread calls so drift hits both alike.
  std::vector<double> t1, tt;
  for (int r = 0; r < 5; ++r) {
    t1.push_back(median_ns(1, [&] { mc(single); }));
    tt.push_back(median_ns(1, [&] { mc(exec); }));
  }
  out.mc1_ns_per_trial = median_of(t1) / static_cast<double>(kTrialsPerCall);
  out.parallel_efficiency =
      median_of(t1) / (static_cast<double>(exec.threads()) * median_of(tt));
  keep(sink);
  return out;
}

}  // namespace

void run_mc_uniform(const Options& opt, Report& report) {
  report.fact_num("threads.executor", kThreads);
  report.fact_num("trials_per_call", static_cast<double>(kTrialsPerCall));

  // Referee phase (not set-up): the exact engines give the ground truth.
  std::vector<McCase> cases;
  for (const auto& [n, r, p] : {std::array<int, 3>{12, 4, 4}, {16, 4, 8},
                                {32, 8, 8}, {48, 8, 16}}) {
    McCase c{GeArConfig::must(n, r, p), 0.0, {}};
    c.p_exact = gear::core::exact_error_probability(c.cfg);
    c.pmf = gear::core::exact_error_distribution(c.cfg);
    const auto metrics = gear::core::exact_error_metrics(c.cfg);
    if (std::fabs(metrics.error_probability - c.p_exact) > 1e-12) {
      report.set_broken("exact engines disagree on " + c.cfg.name());
    }
    cases.push_back(std::move(c));
  }
  McRunner runner(cases, opt.seed, report);

  begin_setup(report);
  // Set-up: executor plus one warm-up round, repeated; the last one stays.
  std::unique_ptr<gear::stats::ParallelExecutor> exec;
  std::vector<double> setup_s;
  std::uint64_t warm_index = 0;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    exec.reset();
    std::uint64_t busy = 0;
    const std::uint64_t t0 = now_ns();
    exec = std::make_unique<gear::stats::ParallelExecutor>(kThreads);
    busy += now_ns() - t0;
    for (std::size_t c = 0; c < cases.size(); ++c) {
      for (const bool dist : {false, true}) {
        const Interval t = runner.call(*exec, c, dist, "mc-warmup", warm_index++).call;
        busy += t.end - t.start;
      }
    }
    setup_s.push_back(static_cast<double>(busy) * 1e-9);
  }

  SpanLog spans;
  DriverTimeline timeline(spans);
  const std::uint32_t layer_prob = spans.layer("core.mc_error_probability");
  const std::uint32_t layer_dist = spans.layer("core.mc_error_distribution");
  const std::uint32_t layer_check = spans.layer("bench.check");
  const std::uint32_t layer_drain = spans.layer("bench.obs_drain");
  const LaneFill lane_fill;

  TimedWindow window(opt.seconds);
  Slices slices;
  std::uint64_t slice_ns = 0;
  std::uint64_t index = 0;
  timeline.start(now_ns());
  while (!window.exhausted()) {  // whole rounds only
    for (std::size_t c = 0; c < cases.size(); ++c) {
      for (const bool dist : {false, true}) {
        const McRunner::Timed t = runner.call(*exec, c, dist, "mc-call", index);
        const std::uint64_t ns = t.call.end - t.call.start;
        window.add(ns);
        slice_ns += ns;
        slices.add(static_cast<double>(kTrialsPerCall), static_cast<double>(ns) * 1e-3);
        if (opt.trace) {
          timeline.record_leaf(dist ? layer_dist : layer_prob, t.call.start, t.call.end, index);
          timeline.record_leaf(layer_check, t.check.start, t.check.end, index);
        }
        ++index;
      }
    }
    // The MC driver records ~17 spans per call into the library's bounded
    // obs trace buffer (65536 spans), which a 10-s run does not fill: its
    // fill level, and with it peak RSS, would follow how many calls the
    // run made. Draining it every round, as a client exporting its trace
    // would, keeps peak RSS a property of the program, not of its speed.
    const std::uint64_t d0 = now_ns();
    gear::obs::TraceRecorder::global().clear();
    if (opt.trace) timeline.record_leaf(layer_drain, d0, now_ns());
    if (slice_ns >= kSliceNs) {
      slices.close(slice_ns);
      slice_ns = 0;
    }
  }
  timeline.stop(now_ns());
  if (slice_ns >= kSliceNs / 2) slices.close(slice_ns);
  report.fact_num("calls", static_cast<double>(index));
  report.fact_num("timed_s", window.timed_s());

  if (!opt.trace) {
    report.end_to_end(setup_s, slices);
    return;
  }

  gear::stats::ParallelExecutor single(1);
  LayerCosts mean;
  for (const McCase& c : cases) {
    const LayerCosts l = measure_layers(c, opt.seed, *exec, single);
    const double k = 1.0 / static_cast<double>(cases.size());
    mean.draw_ns_per_pair += k * l.draw_ns_per_pair;
    mean.pack_ns_per_block += k * l.pack_ns_per_block;
    mean.eval_ns_per_op += k * l.eval_ns_per_op;
    mean.mc1_ns_per_trial += k * l.mc1_ns_per_trial;
    mean.parallel_efficiency += k * l.parallel_efficiency;
  }
  report.metric("throughput_per_s", slices.throughput_per_s(), "1/s");
  check_coverage(timeline, report);
  report.metric("stats.uniform_draw_ns_per_pair", mean.draw_ns_per_pair, "ns");
  report.metric("stats.pack_gp_ns_per_block", mean.pack_ns_per_block, "ns");
  report.metric("stats.parallel_efficiency", mean.parallel_efficiency, "fraction");
  report.metric("stats.lane_fill", lane_fill.fraction(), "fraction");
  report.metric("core.eval_ns_per_op", mean.eval_ns_per_op, "ns");
  report.metric("core.mc_overhead_ns_per_trial",
                mean.mc1_ns_per_trial - mean.draw_ns_per_pair - mean.eval_ns_per_op,
                "ns");
  if (!opt.spans_out.empty() && !spans.write_json(opt.spans_out)) {
    report.set_broken("cannot write " + opt.spans_out);
  }
}

}  // namespace perfbench
