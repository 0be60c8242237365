#include "spans.h"

#include <algorithm>
#include <cstdio>

#include "report.h"

namespace perfbench {

std::uint64_t covered_ns(std::vector<Interval> intervals, std::uint64_t lo,
                         std::uint64_t hi) {
  for (auto& iv : intervals) {
    iv.start = std::max(iv.start, lo);
    iv.end = std::min(iv.end, hi);
  }
  std::sort(intervals.begin(), intervals.end(),
            [](const Interval& x, const Interval& y) { return x.start < y.start; });
  std::uint64_t covered = 0;
  std::uint64_t cur_start = 0, cur_end = 0;
  bool open = false;
  for (const auto& iv : intervals) {
    if (iv.end <= iv.start) continue;
    if (open && iv.start <= cur_end) {
      cur_end = std::max(cur_end, iv.end);
      continue;
    }
    if (open) covered += cur_end - cur_start;
    cur_start = iv.start;
    cur_end = iv.end;
    open = true;
  }
  if (open) covered += cur_end - cur_start;
  return covered;
}

std::uint64_t self_ns(const Interval& span, std::vector<Interval> children) {
  if (span.end <= span.start) return 0;
  return (span.end - span.start) -
         covered_ns(std::move(children), span.start, span.end);
}

std::uint32_t SpanLog::layer(const std::string& name) {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<std::uint32_t>(i);
  }
  names_.push_back(name);
  totals_.emplace_back();
  return static_cast<std::uint32_t>(names_.size() - 1);
}

std::int64_t SpanLog::record(std::uint32_t layer, std::uint64_t start,
                             std::uint64_t end, std::int64_t parent,
                             std::uint64_t request, std::uint64_t self) {
  Totals& t = totals_[layer];
  ++t.count;
  t.total_ns += end > start ? end - start : 0;
  t.self_ns += self;
  if (spans_.size() >= cap_) {
    ++dropped_;
    return -1;
  }
  spans_.push_back({layer, start, end, parent, request, self});
  return static_cast<std::int64_t>(spans_.size() - 1);
}

bool SpanLog::write_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"layers\": {");
  for (std::size_t i = 0; i < names_.size(); ++i) {
    std::fprintf(f, "%s%s: {\"count\": %llu, \"total_ns\": %llu, \"self_ns\": %llu}",
                 i ? ", " : "", json_string(names_[i]).c_str(),
                 static_cast<unsigned long long>(totals_[i].count),
                 static_cast<unsigned long long>(totals_[i].total_ns),
                 static_cast<unsigned long long>(totals_[i].self_ns));
  }
  std::fprintf(f,
               "}, \"dropped\": %llu, \"span_fields\": [\"layer\", "
               "\"start_ns\", \"end_ns\", \"parent\", \"request\", "
               "\"self_ns\"], \"spans\": [\n",
               static_cast<unsigned long long>(dropped_));
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%s[%u, %llu, %llu, %lld, %llu, %llu]", i ? ",\n" : "",
                 s.layer, static_cast<unsigned long long>(s.start),
                 static_cast<unsigned long long>(s.end),
                 static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.request),
                 static_cast<unsigned long long>(s.self));
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

std::int64_t DriverTimeline::record(std::uint32_t layer, std::uint64_t start,
                                    std::uint64_t end, std::uint64_t request,
                                    std::uint64_t self) {
  spanned_ns_ += end > start ? end - start : 0;
  ++spans_;
  return log_.record(layer, start, end, -1, request, self);
}

double DriverTimeline::coverage() const {
  if (stop_ <= start_) return 0.0;
  return static_cast<double>(spanned_ns_) / static_cast<double>(stop_ - start_);
}

bool DriverTimeline::coverage_ok(double clock_read_ns) const {
  if (stop_ <= start_) return false;
  const double gaps = 2.0 * clock_read_ns * static_cast<double>(spans_) /
                      static_cast<double>(stop_ - start_);
  const double c = coverage();
  return c >= 1.0 - kSlack - gaps && c <= 1.0 + kSlack;
}

}  // namespace perfbench
