// The three seeded workloads. Each runs set-up (timed, repeated), a timed
// phase of `seconds`, and referee checks outside the timed window, and
// fills a Report: end-to-end metrics when untraced, per-layer metrics
// when traced.
#pragma once

#include <malloc.h>

#include <cstdint>
#include <string>
#include <vector>

#include "clock.h"
#include "obs/metrics.h"
#include "report.h"
#include "spans.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_out;  ///< traced runs write their spans here ("" = no)
};

/// Threads one workload may use in total, counting the load generator.
inline constexpr int kThreads = 4;

/// Median over `reps` of fn()'s duration in ns.
template <typename Fn>
double median_ns(int reps, Fn&& fn) {
  std::vector<double> t;
  for (int r = 0; r < reps; ++r) {
    const std::uint64_t t0 = now_ns();
    fn();
    t.push_back(static_cast<double>(now_ns() - t0));
  }
  return median_of(t);
}

/// Makes the optimizer assume `v` is used, so that timed work whose
/// result is otherwise unused is not optimized away (GCC/Clang).
inline void keep(std::uint64_t v) { asm volatile("" : : "r"(v) : "memory"); }

/// Lanes filled per bitsliced pack since construction, from the
/// library's own counters (bitsliced/lanes_packed over 64 x
/// bitsliced/pack_gp_calls); 0 when nothing was packed or GEAR_OBS is off.
class LaneFill {
 public:
  LaneFill() : lanes0_(lanes()), packs0_(packs()) {}
  double fraction() const {
    const std::uint64_t p = packs() - packs0_;
    return p ? static_cast<double>(lanes() - lanes0_) / (64.0 * static_cast<double>(p)) : 0.0;
  }

 private:
  static std::uint64_t lanes() { return gear::obs::global().counter("bitsliced/lanes_packed"); }
  static std::uint64_t packs() { return gear::obs::global().counter("bitsliced/pack_gp_calls"); }
  std::uint64_t lanes0_, packs0_;
};

/// Called between the inputs/referee phase and set-up: settles the host
/// (see settle_host), returns the referee's freed heap to the system and
/// restarts the peak-RSS mark, so that set-up and the timed phase are
/// measured alike in every workload.
inline void begin_setup(Report& report) {
  report.fact_num("host_spin_mops_per_thread", settle_host(kThreads, 1.0));
  malloc_trim(0);
  report.fact("peak_rss_from_setup", reset_peak_rss() ? "true" : "false");
}

/// Reports how much of the traced timed loop the driving thread's
/// top-level spans account for, and fails a check when they do not.
inline void check_coverage(const DriverTimeline& timeline, Report& report) {
  const double read_ns = clock_read_ns();
  report.fact_num("clock_read_ns", read_ns);
  report.fact_num("driver_spans", static_cast<double>(timeline.spans()));
  report.metric("bench.span_coverage_frac", timeline.coverage(), "fraction");
  report.check(timeline.coverage_ok(read_ns), [&] {
    return "top-level spans account for " + std::to_string(timeline.coverage()) +
           " of the timed loop's wall time";
  });
}

void run_mc_uniform(const Options& opt, Report& report);
void run_serve_mix(const Options& opt, Report& report);
void run_image_kernels(const Options& opt, Report& report);

}  // namespace perfbench
