// Result reporting: percentiles, metric names and the JSON result line.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

/// A nearest-rank percentile that is only reported when the sample
/// supports it: at least kMinBeyond samples must lie beyond the chosen
/// rank, so a p99 needs at least 1000 samples.
struct Percentile {
  static constexpr std::size_t kMinBeyond = 10;

  double q = 0.0;           ///< requested quantile in (0, 1)
  bool supported = false;   ///< false: too few samples beyond the rank
  double value = 0.0;       ///< value at the rank (when supported)
  std::size_t count = 0;    ///< total samples
  std::size_t beyond = 0;   ///< samples ranked above the reported one
};

/// Latency samples in fixed memory: log-spaced buckets, 64 per octave
/// (1.1% wide), so a run's memory does not grow with its speed.
/// Percentiles interpolate linearly within the bucket holding the rank.
class LatencyHistogram {
 public:
  LatencyHistogram();
  /// Records one sample; values <= 0 land in the lowest bucket.
  void add(double value);
  std::size_t count() const { return count_; }
  /// Nearest-rank percentile q: the sample of rank ceil(q * count).
  Percentile percentile(double q) const;

 private:
  static constexpr int kPerOctave = 64;
  static constexpr int kMinExp = -32;  ///< lowest octave: 2^-32
  static constexpr int kOctaves = 96;
  std::vector<std::uint64_t> buckets_;
  std::size_t count_ = 0;
};

/// Nominal slice length.
inline constexpr std::uint64_t kSliceNs = 1'000'000'000;

/// The timed phase as a sequence of slices of about a second (whole
/// rounds where a workload has rounds). Each slice yields a throughput and
/// latency percentiles; the run reports their medians, so a disturbance
/// of the host during part of a run moves a minority of slices rather
/// than the result.
class Slices {
 public:
  /// Records one unit of work (`work` items) in the current slice, with
  /// its latency in microseconds (< 0: no latency sample).
  void add(double work, double latency_us);
  /// Ends the current slice, which took `duration_ns` of timed work.
  void close(std::uint64_t duration_ns);
  std::size_t count() const { return slices_.size(); }
  /// Median over slices of work per second.
  double throughput_per_s() const;
  /// Percentile q: the median over slices of each slice's percentile
  /// when every slice supports q, otherwise q over all samples pooled.
  Percentile percentile(double q) const;
  std::vector<double> slice_throughputs() const;

 private:
  struct Slice {
    double work = 0.0;
    std::uint64_t duration_ns = 0;
    LatencyHistogram latency;
  };
  std::vector<Slice> slices_;
  Slice current_;
  LatencyHistogram pooled_;
};

/// Median of `v` (copied; mean of the middle two for even sizes); 0 when
/// empty. For repeated timings of one operation, where no tail is read.
double median_of(std::vector<double> v);

/// Metric names: [A-Za-z0-9_.-]+, first character alphanumeric, at most
/// 64 characters.
bool valid_metric_name(std::string_view name);

/// JSON string literal for `s` (quotes, escapes).
std::string json_string(std::string_view s);
/// JSON number with every significant digit (%.17g); non-finite -> null.
std::string json_number(double v);

/// Everything one workload run reports. Printed as two stdout lines: a
/// "perfbench-facts" line (host facts and sample counts), then the result
/// JSON as the last line.
class Report {
 public:
  explicit Report(std::string workload) : workload_(std::move(workload)) {}

  /// Adds a metric; an invalid name or a non-finite value marks the run
  /// as not correct (the benchmark itself is broken).
  void metric(const std::string& name, double value, const std::string& unit);
  /// Adds a host fact; `json_value` must already be valid JSON.
  void fact(const std::string& key, std::string json_value);
  void fact_str(const std::string& key, std::string_view value) {
    fact(key, json_string(value));
  }
  void fact_num(const std::string& key, double value) {
    fact(key, json_number(value));
  }
  /// Records a percentile's value and sample count as facts.
  void fact_percentile(const std::string& key, const Percentile& p);

  /// Counts `units` checked units of work; when `ok` is false they all
  /// count as failed and what() (only built then) is printed on stderr.
  template <typename What>
  void check(bool ok, What&& what, std::uint64_t units = 1) {
    attempted_ += units;
    if (!ok) {
      failed_ += units;
      print_failure(what());
    }
  }
  /// Marks the run as not correct: the benchmark itself could not measure.
  void set_broken(const std::string& what);

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  bool correct() const { return !broken_ && failed_ == 0 && attempted_ > 0; }

  void print() const;

  /// The five end-to-end metrics every workload reports: the median
  /// set-up time (each set-up, and the first, cold one, go to the facts
  /// line), peak RSS, and the timed phase's throughput, p50 and p90
  /// latency from `slices`. The p99 goes to the facts line only: its
  /// run-to-run spread on a shared 4-core host is too wide to bound.
  void end_to_end(const std::vector<double>& setup_s, const Slices& slices);

 private:
  void print_failure(const std::string& what);

  std::string workload_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  int printed_failures_ = 0;
  bool broken_ = false;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
  std::vector<std::pair<std::string, std::string>> facts_;
};

}  // namespace perfbench
