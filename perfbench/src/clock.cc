#include "clock.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>
#include <vector>

namespace perfbench {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double clock_read_ns() {
  constexpr int kReads = 1000;
  std::vector<double> batches;
  std::uint64_t sink = 0;
  for (int b = 0; b < 9; ++b) {
    const std::uint64_t t0 = now_ns();
    for (int i = 0; i < kReads; ++i) sink += now_ns();
    batches.push_back(static_cast<double>(now_ns() - t0) / kReads);
  }
  asm volatile("" : : "r"(sink) : "memory");
  std::sort(batches.begin(), batches.end());
  return batches[batches.size() / 2];
}

double settle_host(int threads, double seconds) {
  const std::uint64_t start = now_ns();
  const std::uint64_t half = start + static_cast<std::uint64_t>(seconds * 0.5e9);
  const std::uint64_t end = start + static_cast<std::uint64_t>(seconds * 1e9);
  constexpr int kBatch = 4096;
  std::atomic<std::uint64_t> batches{0};  // counted in the second half
  std::atomic<std::uint64_t> sink{0};
  auto spin = [&] {
    std::uint64_t x = 0x9e3779b97f4a7c15ULL;
    for (std::uint64_t t = now_ns(); t < end; t = now_ns()) {
      for (int i = 0; i < kBatch; ++i) x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      if (t >= half) batches.fetch_add(1, std::memory_order_relaxed);
    }
    sink += x;
  };
  std::vector<std::thread> pool;
  for (int t = 1; t < threads; ++t) pool.emplace_back(spin);
  spin();
  for (auto& t : pool) t.join();
  const double elapsed_s = static_cast<double>(now_ns() - half) * 1e-9;
  return static_cast<double>(batches.load()) * kBatch / elapsed_s / threads * 1e-6;
}

bool reset_peak_rss() {
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool ok = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && ok;
}

double peak_rss_mib() {
  // VmHWM is this process image's own high-water mark. ru_maxrss would
  // also carry the RSS of the process that forked this one (it survives
  // exec), i.e. that of run.py's Python process.
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    double kib = -1.0;
    while (std::fgets(line, sizeof line, f) != nullptr) {
      if (std::strncmp(line, "VmHWM:", 6) == 0) kib = std::strtod(line + 6, nullptr);
    }
    std::fclose(f);
    if (kib >= 0.0) return kib / 1024.0;
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace perfbench
