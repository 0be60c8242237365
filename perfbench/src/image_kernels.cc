// image_kernels: the paper's application side. Full-HD smoothed-noise
// frames through the batched LPF, Sobel, row-integral and SAD kernels on
// a 4-thread executor, with four adders: GeAr, GeAr with full error
// correction, ETAII (still on the scalar default add_batch) and CESA (its
// own bitsliced kernel). Loads the apps gathers and signed encode/decode
// and adders dispatch; no RNG and no service in the timed path.
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "adders/adder.h"
#include "adders/registry.h"
#include "apps/batch_kernel.h"
#include "apps/integral.h"
#include "apps/lpf.h"
#include "apps/sad.h"
#include "apps/sobel.h"
#include "clock.h"
#include "inputs.h"
#include "obs/metrics.h"
#include "spans.h"
#include "stats/parallel.h"
#include "workloads.h"

namespace perfbench {
namespace {

using gear::adders::ApproxAdder;
using gear::apps::Image;

constexpr int kWidth = 1920, kHeight = 1080;
constexpr int kFrames = 2;
constexpr int kSetupRepeats = 3;
constexpr std::uint64_t kMinRounds = 7;
// SAD runs on a crop, so that motion search does not dominate the
// workload: 16x16 blocks, +-4 pixel full search.
constexpr int kSadW = 320, kSadH = 192, kSadBlock = 16, kSadRange = 4;

struct AdderPlan {
  const char* spec;
  const char* metric;  ///< adders.<metric>_add_batch_ns_per_op
};
const AdderPlan kAdders[] = {{"gear:16:4:4", "gear"},
                             {"gear+ecc:16:4:4", "gear_ecc"},
                             {"etaii:16:4", "etaii"},
                             {"cesa:16:4:4", "cesa"}};
constexpr std::size_t kNumAdders = sizeof(kAdders) / sizeof(kAdders[0]);

enum Kernel { kLpf, kSobel, kIntegral, kSad, kNumKernels };
const char* const kKernelNames[kNumKernels] = {"lpf3x3", "sobel", "row_integral", "sad"};

struct Frame {
  Image full;
  Image sad_ref, sad_cand;
};

/// Records every add_batch call of the wrapped adder as a child interval,
/// in a buffer per calling thread (kernels call from executor threads).
class ChildLog {
 public:
  struct Call {
    std::uint64_t start, end, ops;
  };
  std::vector<Call>& buffer() {
    thread_local std::vector<Call>* mine = nullptr;
    thread_local const ChildLog* owner = nullptr;
    if (owner != this) {
      std::lock_guard<std::mutex> lock(mu_);
      buffers_.push_back(std::make_unique<std::vector<Call>>());
      mine = buffers_.back().get();
      owner = this;
    }
    return *mine;
  }
  /// Moves out every thread's calls; only while no kernel is running.
  std::vector<std::vector<Call>*> buffers() {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::vector<Call>*> out;
    for (auto& b : buffers_) out.push_back(b.get());
    return out;
  }

 private:
  std::mutex mu_;
  std::vector<std::unique_ptr<std::vector<Call>>> buffers_;
};

/// Benchmark-side decorator: times each add_batch call of `inner`.
class TimedAdder final : public ApproxAdder {
 public:
  TimedAdder(const ApproxAdder& inner, ChildLog& log) : inner_(inner), log_(log) {}
  std::string name() const override { return inner_.name(); }
  int width() const override { return inner_.width(); }
  std::uint64_t add(std::uint64_t a, std::uint64_t b) const override {
    return inner_.add(a, b);
  }
  void add_batch(const std::uint64_t* a, const std::uint64_t* b, std::uint64_t* out,
                 std::size_t count) const override {
    auto& buf = log_.buffer();
    const std::uint64_t t0 = now_ns();
    inner_.add_batch(a, b, out, count);
    buf.push_back({t0, now_ns(), count});
  }
  bool is_exact() const override { return inner_.is_exact(); }
  int error_free_width() const override { return inner_.error_free_width(); }
  std::string family() const override { return inner_.family(); }
  std::string spec() const override { return inner_.spec(); }
  int max_carry_chain() const override { return inner_.max_carry_chain(); }
  std::optional<gear::core::GeArConfig> gear_equivalent() const override {
    return inner_.gear_equivalent();
  }

 private:
  const ApproxAdder& inner_;
  ChildLog& log_;
};

std::uint64_t sad_hash(double rate) {
  std::uint64_t bits = 0;
  static_assert(sizeof bits == sizeof rate);
  std::memcpy(&bits, &rate, sizeof bits);
  return bits;
}

/// Runs `kernel` between two clock reads stored in `t`, then returns the
/// hash of its output (after the clock stopped).
template <typename Fn, typename Hash>
std::uint64_t timed(Interval& t, Fn&& kernel, Hash&& hash) {
  t.start = now_ns();
  const auto out = kernel();
  t.end = now_ns();
  return hash(out);
}

/// Batched kernel pass, timed into `t`; returns the output's hash.
std::uint64_t run_batch(Kernel k, const Frame& f, const ApproxAdder& adder,
                        gear::stats::ParallelExecutor* pool, Interval& t) {
  using gear::apps::lpf3x3_batch;
  using gear::apps::row_integral_batch;
  using gear::apps::sobel_batch;
  switch (k) {
    case kLpf: return timed(t, [&] { return lpf3x3_batch(f.full, adder, pool); }, hash_image);
    case kSobel: return timed(t, [&] { return sobel_batch(f.full, adder, pool); }, hash_image);
    case kIntegral:
      return timed(t, [&] { return row_integral_batch(f.full, adder, pool); }, hash_rows);
    case kSad:
      return timed(t, [&] {
        return gear::apps::sad_match_rate_batch(f.sad_ref, f.sad_cand, kSadBlock, kSadBlock,
                                                kSadRange, adder, pool);
      }, sad_hash);
    default: return 0;
  }
}

/// The scalar kernel, the referee; returns the output's hash.
std::uint64_t run_scalar(Kernel k, const Frame& f, const ApproxAdder& adder) {
  switch (k) {
    case kLpf: return hash_image(gear::apps::lpf3x3(f.full, adder));
    case kSobel: return hash_image(gear::apps::sobel(f.full, adder));
    case kIntegral: return hash_rows(gear::apps::row_integral(f.full, adder));
    case kSad:
      return sad_hash(gear::apps::sad_match_rate(f.sad_ref, f.sad_cand, kSadBlock,
                                                 kSadBlock, kSadRange, adder));
    default: return 0;
  }
}

double output_pixels(Kernel k) {
  return k == kSad ? static_cast<double>(kSadW) * kSadH
                   : static_cast<double>(kWidth) * kHeight;
}

}  // namespace

void run_image_kernels(const Options& opt, Report& report) {
  report.fact_num("threads.executor", kThreads);
  report.fact_str("frame", std::to_string(kWidth) + "x" + std::to_string(kHeight));
  report.fact_str("sad", std::to_string(kSadW) + "x" + std::to_string(kSadH) + " crop, " +
                             std::to_string(kSadBlock) + "px blocks, range " +
                             std::to_string(kSadRange));

  // Inputs.
  std::vector<Frame> frames(kFrames);
  for (int i = 0; i < kFrames; ++i) {
    BenchRng rng = BenchRng::derive(opt.seed, "image-frame:" + std::to_string(i));
    Frame& f = frames[static_cast<std::size_t>(i)];
    f.full = smoothed_noise_frame(kWidth, kHeight, rng);
    const int x0 = static_cast<int>(rng.range(0, kWidth - kSadW));
    const int y0 = static_cast<int>(rng.range(0, kHeight - kSadH));
    f.sad_ref = crop(f.full, x0, y0, kSadW, kSadH);
    const int dx = static_cast<int>(rng.range(0, 6)) - 3;
    const int dy = static_cast<int>(rng.range(0, 6)) - 3;
    f.sad_cand = shifted_frame(f.sad_ref, dx, dy, 2, rng);
  }
  std::vector<gear::adders::AdderPtr> adders;
  for (const AdderPlan& a : kAdders) adders.push_back(gear::adders::make_adder(a.spec));

  // Referee: every (frame, adder, kernel) through the scalar kernels, on
  // up to kThreads threads. Not part of set-up.
  const std::size_t n_ref = kFrames * kNumAdders * kNumKernels;
  std::vector<std::uint64_t> want(n_ref);
  const std::uint64_t ref_t0 = now_ns();
  auto ref_index = [](std::size_t f, std::size_t a, int k) {
    return (f * kNumAdders + a) * kNumKernels + static_cast<std::size_t>(k);
  };
  {
    gear::stats::ParallelExecutor referee(kThreads);
    referee.for_each(n_ref, [&](std::size_t i) {
      const std::size_t f = i / (kNumAdders * kNumKernels);
      const std::size_t a = (i / kNumKernels) % kNumAdders;
      const int k = static_cast<int>(i % kNumKernels);
      want[i] = run_scalar(static_cast<Kernel>(k), frames[f], *adders[a]);
    });
  }
  report.fact_num("referee_s", static_cast<double>(now_ns() - ref_t0) * 1e-9);

  ChildLog children;
  std::vector<std::unique_ptr<TimedAdder>> timed;
  for (const auto& a : adders) timed.push_back(std::make_unique<TimedAdder>(*a, children));
  auto adder_for = [&](std::size_t a) -> const ApproxAdder& {
    return opt.trace ? static_cast<const ApproxAdder&>(*timed[a]) : *adders[a];
  };
  auto clear_children = [&] {
    for (auto* b : children.buffers()) b->clear();
  };

  struct Timed {
    Interval pass;   ///< the batched kernel call
    Interval check;  ///< hashing and comparing its output, freeing it
  };
  // One batched pass, checked after the clock stops; returns when each ran.
  auto pass = [&](gear::stats::ParallelExecutor& pool, std::size_t f, std::size_t a,
                  int k) {
    Interval t;
    const std::uint64_t h = run_batch(static_cast<Kernel>(k), frames[f], adder_for(a), &pool, t);
    report.check(h == want[ref_index(f, a, k)], [&] {
      return std::string(kKernelNames[k]) + " with " + kAdders[a].spec + " on frame " +
             std::to_string(f) + " differs from the scalar kernel";
    });
    return Timed{t, {t.end, now_ns()}};
  };

  begin_setup(report);
  // Set-up: executor plus a warm-up pass of every (kernel, adder) on
  // frame 0, repeated; the last executor stays.
  std::unique_ptr<gear::stats::ParallelExecutor> pool;
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    pool.reset();
    std::uint64_t busy = 0;
    const std::uint64_t t0 = now_ns();
    pool = std::make_unique<gear::stats::ParallelExecutor>(kThreads);
    busy += now_ns() - t0;
    for (std::size_t a = 0; a < kNumAdders; ++a) {
      for (int k = 0; k < kNumKernels; ++k) {
        const Interval t = pass(*pool, 0, a, k).pass;
        busy += t.end - t.start;
      }
    }
    setup_s.push_back(static_cast<double>(busy) * 1e-9);
    clear_children();
  }

  const LaneFill lane_fill;
  SpanLog spans;
  DriverTimeline timeline(spans);
  std::vector<std::uint32_t> kernel_layer;
  for (const char* k : kKernelNames) kernel_layer.push_back(spans.layer(std::string("apps.") + k));
  std::vector<std::uint32_t> adder_layer;
  for (const AdderPlan& a : kAdders) adder_layer.push_back(spans.layer(std::string("adders.") + a.metric));
  const std::uint32_t check_layer = spans.layer("bench.check");
  const std::uint32_t fold_layer = spans.layer("bench.trace_fold");
  double kernel_ns[kNumKernels] = {}, kernel_child_ns[kNumKernels] = {};
  double kernel_passes[kNumKernels] = {};
  double adder_ns[kNumAdders] = {}, adder_ops[kNumAdders] = {};

  // One slice per round: every slice holds the same mix of passes. Whole
  // rounds only, and at least kMinRounds of them, so that the pooled p90
  // has 10 passes beyond it even on a slow host.
  TimedWindow window(opt.seconds);
  Slices slices;
  std::uint64_t round = 0;
  timeline.start(now_ns());
  while (!window.exhausted() || round < kMinRounds) {
    const std::size_t f = round % kFrames;
    std::uint64_t round_ns = 0;
    for (std::size_t a = 0; a < kNumAdders; ++a) {
      for (int k = 0; k < kNumKernels; ++k) {
        const Timed t = pass(*pool, f, a, k);
        const std::uint64_t t0 = t.pass.start, ns = t.pass.end - t.pass.start;
        window.add(ns);
        round_ns += ns;
        slices.add(output_pixels(static_cast<Kernel>(k)), static_cast<double>(ns) * 1e-3);
        if (!opt.trace) continue;
        // Fold this pass's add_batch calls into its span: children from
        // different threads overlap, so the covered part is their union.
        const std::uint64_t fold0 = now_ns();
        std::vector<Interval> iv;
        double child_sum = 0, ops = 0;
        for (auto* buf : children.buffers()) {
          for (const auto& c : *buf) {
            iv.push_back({c.start, c.end});
            child_sum += static_cast<double>(c.end - c.start);
            ops += static_cast<double>(c.ops);
          }
          buf->clear();
        }
        const std::int64_t parent = timeline.record(kernel_layer[static_cast<std::size_t>(k)],
                                                    t0, t0 + ns, round, self_ns(t.pass, iv));
        // One aggregate child span per pass: the adder's covered interval.
        spans.record(adder_layer[a], t0, t0 + ns, parent, round,
                     covered_ns(std::move(iv), t0, t0 + ns));
        timeline.record_leaf(check_layer, t.check.start, t.check.end, round);
        kernel_ns[k] += static_cast<double>(ns);
        kernel_child_ns[k] += child_sum;
        kernel_passes[k] += 1;
        adder_ns[a] += child_sum;
        adder_ops[a] += ops;
        timeline.record_leaf(fold_layer, fold0, now_ns(), round);
      }
    }
    slices.close(round_ns);
    ++round;
  }
  timeline.stop(now_ns());
  report.fact_num("rounds", static_cast<double>(round));
  report.fact_num("timed_s", window.timed_s());

  if (!opt.trace) {
    report.end_to_end(setup_s, slices);
    return;
  }

  report.metric("throughput_per_s", slices.throughput_per_s(), "1/s");
  check_coverage(timeline, report);
  report.metric("stats.lane_fill", lane_fill.fraction(), "fraction");
  for (std::size_t a = 0; a < kNumAdders; ++a) {
    report.metric(std::string("adders.") + kAdders[a].metric + "_add_batch_ns_per_op",
                  adder_ns[a] / adder_ops[a], "ns");
  }
  // Batch speedup as the app-kernel gate defines it: scalar kernel over
  // batch kernel, both on one thread, GeAr adder (undecorated), on a
  // 256x256 crop of frame 0 (the SAD crop for SAD); medians of
  // interleaved repetitions.
  gear::stats::ParallelExecutor single(1);
  const Frame gate{crop(frames[0].full, 0, 0, 256, 256), frames[0].sad_ref,
                   frames[0].sad_cand};
  for (int k = 0; k < kNumKernels; ++k) {
    const std::string name = std::string("apps.") + kKernelNames[k];
    report.metric(name + "_ms", kernel_ns[k] / kernel_passes[k] * 1e-6, "ms");
    report.metric(name + "_adder_share",
                  kernel_child_ns[k] / (static_cast<double>(pool->threads()) * kernel_ns[k]),
                  "fraction");
    std::vector<double> scalar, batch;
    for (int rep = 0; rep < 3; ++rep) {
      const std::uint64_t t0 = now_ns();
      const std::uint64_t hs = run_scalar(static_cast<Kernel>(k), gate, *adders[0]);
      scalar.push_back(static_cast<double>(now_ns() - t0));
      Interval t;
      const std::uint64_t hb = run_batch(static_cast<Kernel>(k), gate, *adders[0], &single, t);
      batch.push_back(static_cast<double>(t.end - t.start));
      report.check(hs == hb, [&] { return name + " batch differs from scalar on the gate crop"; });
    }
    report.metric(name + "_batch_speedup", median_of(scalar) / median_of(batch), "x");
  }
  if (!opt.spans_out.empty() && !spans.write_json(opt.spans_out)) {
    report.set_broken("cannot write " + opt.spans_out);
  }
}

}  // namespace perfbench
