#include "report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "clock.h"

namespace perfbench {

LatencyHistogram::LatencyHistogram()
    : buckets_(static_cast<std::size_t>(kPerOctave) * kOctaves, 0) {}

void LatencyHistogram::add(double value) {
  const double pos =
      value > 0.0 ? (std::log2(value) - kMinExp) * kPerOctave : 0.0;
  const double top = static_cast<double>(buckets_.size() - 1);
  ++buckets_[static_cast<std::size_t>(std::clamp(pos, 0.0, top))];
  ++count_;
}

Percentile LatencyHistogram::percentile(double q) const {
  Percentile p;
  p.q = q;
  p.count = count_;
  if (count_ == 0 || !(q > 0.0 && q < 1.0)) return p;
  const double n = static_cast<double>(count_);
  const std::size_t idx =
      static_cast<std::size_t>(std::max(std::ceil(q * n - 1e-9), 1.0)) - 1;
  p.beyond = count_ - 1 - idx;
  p.supported = p.beyond >= Percentile::kMinBeyond;
  std::uint64_t below = 0;
  for (std::size_t b = 0; b < buckets_.size(); ++b) {
    if (below + buckets_[b] > idx) {
      // Rank idx is the (idx - below)-th of this bucket's samples: place
      // it at the matching fraction of the bucket's width.
      const double frac = (static_cast<double>(idx - below) + 0.5) /
                          static_cast<double>(buckets_[b]);
      const double lo = std::exp2(static_cast<double>(b) / kPerOctave + kMinExp);
      const double hi = std::exp2(static_cast<double>(b + 1) / kPerOctave + kMinExp);
      if (p.supported) p.value = lo + frac * (hi - lo);
      break;
    }
    below += buckets_[b];
  }
  return p;
}

void Slices::add(double work, double latency_us) {
  current_.work += work;
  if (latency_us < 0.0) return;
  current_.latency.add(latency_us);
  pooled_.add(latency_us);
}

void Slices::close(std::uint64_t duration_ns) {
  if (duration_ns == 0) return;
  current_.duration_ns = duration_ns;
  slices_.push_back(std::move(current_));
  current_ = Slice{};
}

std::vector<double> Slices::slice_throughputs() const {
  std::vector<double> out;
  for (const Slice& s : slices_) {
    out.push_back(s.work / (static_cast<double>(s.duration_ns) * 1e-9));
  }
  return out;
}

double Slices::throughput_per_s() const { return median_of(slice_throughputs()); }

Percentile Slices::percentile(double q) const {
  std::vector<double> values;
  for (const Slice& s : slices_) {
    const Percentile p = s.latency.percentile(q);
    if (!p.supported) return pooled_.percentile(q);
    values.push_back(p.value);
  }
  Percentile p = pooled_.percentile(q);
  if (p.supported) p.value = median_of(values);
  return p;
}

double median_of(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

bool valid_metric_name(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  if (!valid_metric_name(name)) set_broken("invalid metric name '" + name + "'");
  if (!std::isfinite(value)) set_broken("metric " + name + " is not finite");
  metrics_.push_back({name, {value, unit}});
}

void Report::fact(const std::string& key, std::string json_value) {
  facts_.emplace_back(key, std::move(json_value));
}

void Report::fact_percentile(const std::string& key, const Percentile& p) {
  fact(key, "{\"q\": " + json_number(p.q) + ", \"supported\": " +
                (p.supported ? "true" : "false") + ", \"value\": " +
                (p.supported ? json_number(p.value) : "null") +
                ", \"count\": " + std::to_string(p.count) +
                ", \"beyond\": " + std::to_string(p.beyond) + "}");
}

void Report::print_failure(const std::string& what) {
  constexpr int kMaxPrinted = 20;
  if (printed_failures_ < kMaxPrinted) {
    ++printed_failures_;
    std::fprintf(stderr, "perfbench[%s]: check failed: %s%s\n", workload_.c_str(),
                 what.c_str(),
                 printed_failures_ == kMaxPrinted ? " (further failures not printed)" : "");
  }
}

void Report::set_broken(const std::string& what) {
  broken_ = true;
  std::fprintf(stderr, "perfbench[%s]: %s\n", workload_.c_str(), what.c_str());
}

void Report::end_to_end(const std::vector<double>& setup_s, const Slices& slices) {
  const Percentile p50 = slices.percentile(0.5);
  const Percentile p90 = slices.percentile(0.9);
  fact_percentile("latency_p50_us", p50);
  fact_percentile("latency_p90_us", p90);
  fact_percentile("latency_p99_us", slices.percentile(0.99));
  std::string per_slice = "[";
  for (const double t : slices.slice_throughputs()) {
    per_slice += (per_slice.size() > 1 ? ", " : "") + json_number(t);
  }
  fact("slice_throughputs_per_s", per_slice + "]");
  // The first set-up of the process is the cold one (first use of every
  // code path and allocation); setup_s is the median of all of them.
  std::string reps = "[";
  for (const double t : setup_s) reps += (reps.size() > 1 ? ", " : "") + json_number(t);
  fact("setup_reps_s", reps + "]");
  if (!setup_s.empty()) fact_num("setup_cold_s", setup_s.front());
  if (!p90.supported || slices.count() == 0) {
    set_broken("too few requests for a p90 latency; run longer");
  }
  metric("setup_s", median_of(setup_s), "s");
  metric("peak_rss_mb", peak_rss_mib(), "MiB");
  metric("throughput_per_s", slices.throughput_per_s(), "1/s");
  metric("latency_p50_us", p50.value, "us");
  metric("latency_p90_us", p90.value, "us");
}

void Report::print() const {
  std::string facts = "{\"workload\": " + json_string(workload_);
  for (const auto& [k, v] : facts_) facts += ", " + json_string(k) + ": " + v;
  facts += "}";
  std::printf("perfbench-facts %s\n", facts.c_str());

  std::string out = "{\"workload\": " + json_string(workload_) +
                    ", \"correct\": " + (correct() ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted_) +
                    ", \"failed\": " + std::to_string(failed_) +
                    ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, vu] : metrics_) {
    if (!first) out += ", ";
    first = false;
    out += json_string(name) + ": {\"value\": " + json_number(vu.first) +
           ", \"unit\": " + json_string(vu.second) + "}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
