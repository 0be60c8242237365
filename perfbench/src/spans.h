// In-memory span log for the traced run.
//
// The benchmark records a span around each call it makes into a layer:
// layer name, start, end, parent span and request id. Spans stay in
// memory and are written out when the run ends. A layer's self time is
// its span's duration minus the part of that interval covered by its
// child spans; children that overlap each other (calls made from several
// threads at once) count once.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Interval {
  std::uint64_t start = 0;
  std::uint64_t end = 0;  ///< exclusive; end <= start is empty
};

/// Length of the union of `intervals` clipped to [lo, hi).
std::uint64_t covered_ns(std::vector<Interval> intervals, std::uint64_t lo,
                         std::uint64_t hi);

/// Self time of `span` given its children: duration minus covered part.
std::uint64_t self_ns(const Interval& span, std::vector<Interval> children);

class SpanLog {
 public:
  /// At most `cap` spans are kept for writing out; every span still
  /// counts into the per-layer totals.
  explicit SpanLog(std::size_t cap = 1u << 16) : cap_(cap) {}

  struct Totals {
    std::uint64_t count = 0;
    std::uint64_t total_ns = 0;  ///< sum of durations
    std::uint64_t self_ns = 0;   ///< sum of self times
  };

  /// Interns a layer name and returns its id.
  std::uint32_t layer(const std::string& name);

  /// Records one span; returns its index, or -1 when it was only counted
  /// (over the cap). `self` is the span's self time.
  std::int64_t record(std::uint32_t layer, std::uint64_t start,
                      std::uint64_t end, std::int64_t parent,
                      std::uint64_t request, std::uint64_t self);

  /// Records a span with no children (self time == duration).
  std::int64_t record_leaf(std::uint32_t layer, std::uint64_t start,
                           std::uint64_t end, std::int64_t parent = -1,
                           std::uint64_t request = 0) {
    return record(layer, start, end, parent, request, end > start ? end - start : 0);
  }

  const Totals& totals(std::uint32_t layer) const { return totals_[layer]; }
  std::uint64_t dropped() const { return dropped_; }

  /// Writes {"layers": {...totals...}, "spans": [...], "dropped": n} to
  /// `path`; returns false on an I/O error.
  bool write_json(const std::string& path) const;

 private:
  struct Span {
    std::uint32_t layer;
    std::uint64_t start, end;
    std::int64_t parent;
    std::uint64_t request;
    std::uint64_t self;
  };

  std::size_t cap_;
  std::vector<std::string> names_;
  std::vector<Totals> totals_;
  std::vector<Span> spans_;
  std::uint64_t dropped_ = 0;
};

/// The top-level spans of the thread that drives a traced run: one around
/// everything that thread does in the timed loop (calls into the program,
/// referee checks, trace bookkeeping). A wall clock read around the whole
/// loop checks that they account for it. Between two spans there may only
/// be the clock reads that delimit them; any other work left outside a
/// span, or a span counted twice, fails the check.
class DriverTimeline {
 public:
  /// Share of the loop's wall time the check allows to be unaccounted for
  /// (or double counted) beyond the clock reads between spans.
  static constexpr double kSlack = 0.01;

  explicit DriverTimeline(SpanLog& log) : log_(log) {}

  /// The wall clock around the whole timed loop.
  void start(std::uint64_t t) { start_ = t; }
  void stop(std::uint64_t t) { stop_ = t; }

  /// Records a top-level span with self time `self`; returns its index
  /// in the log (for children), or -1 when it was only counted.
  std::int64_t record(std::uint32_t layer, std::uint64_t start, std::uint64_t end,
                      std::uint64_t request, std::uint64_t self);
  std::int64_t record_leaf(std::uint32_t layer, std::uint64_t start, std::uint64_t end,
                           std::uint64_t request = 0) {
    return record(layer, start, end, request, end > start ? end - start : 0);
  }

  std::uint64_t spans() const { return spans_; }
  /// Summed span durations (self plus child time) over the loop's wall
  /// time: 1 when the spans tile the loop.
  double coverage() const;
  /// Whether coverage() is within kSlack of 1, after allowing two clock
  /// reads of `clock_read_ns` per span for the gaps between spans.
  bool coverage_ok(double clock_read_ns) const;

 private:
  SpanLog& log_;
  std::uint64_t start_ = 0, stop_ = 0;
  std::uint64_t spanned_ns_ = 0;
  std::uint64_t spans_ = 0;
};

}  // namespace perfbench
