// Host wall-clock helpers shared by every workload.
#pragma once

#include <cstdint>

namespace perfbench {

/// Monotonic host time in nanoseconds (std::chrono::steady_clock).
std::uint64_t now_ns();

/// Cost of one now_ns() call in ns: the median over a few batches of
/// back-to-back reads.
double clock_read_ns();

/// Peak resident set of this process in MiB (VmHWM).
double peak_rss_mib();

/// Restarts the peak-RSS high-water mark at the current RSS (Linux >= 4.0,
/// /proc/self/clear_refs), so that peak_rss_mib() covers set-up and the
/// timed phase rather than input generation and referee checks. Returns
/// false when the kernel refuses; the peak then covers the whole process.
bool reset_peak_rss();

/// Keeps `threads` threads busy with integer work for `seconds`. The host
/// runs a process's first second or so measurably slower (up to 1.6x on
/// a shared 4-vCPU Xeon VM) whatever the process does; settling first keeps
/// that out of set-up and the timed phase. Returns the integer work rate
/// in its last half, in millions of multiply-adds per second per thread:
/// a host-speed fact for comparing runs, never part of a metric.
double settle_host(int threads, double seconds);

/// Accumulates the timed window as a sum of segments, so that referee
/// checks between timed calls stay outside it.
class TimedWindow {
 public:
  explicit TimedWindow(double seconds)
      : budget_ns_(static_cast<std::uint64_t>(seconds * 1e9)) {}

  void add(std::uint64_t ns) { timed_ns_ += ns; }
  bool exhausted() const { return timed_ns_ >= budget_ns_; }
  std::uint64_t timed_ns() const { return timed_ns_; }
  double timed_s() const { return static_cast<double>(timed_ns_) * 1e-9; }

 private:
  std::uint64_t budget_ns_;
  std::uint64_t timed_ns_ = 0;
};

}  // namespace perfbench
