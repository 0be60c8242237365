// perfbench: one seeded benchmark for the Monte-Carlo error analysis, the
// multi-tenant service and the batched image kernels.
//
//   perfbench --workload <mc_uniform|serve_mix|image_kernels> --seed <n>
//             --seconds <s> --trace <0|1> [--spans-out <file>]
//
// Prints a "perfbench-facts" line, then one JSON result line. Exits 0 only
// when every output passed its check. perfbench/run.py builds this binary
// and assembles the benchmark's final result from one or more runs.
#include <malloc.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "obs/metrics.h"
#include "stats/bitsliced.h"
#include "workloads.h"

namespace {

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<mc_uniform|serve_mix|image_kernels> --seed <n> --seconds <s> "
               "--trace <0|1> [--spans-out <file>]\n",
               msg);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  // Pin glibc's mmap threshold at its initial 128 KiB. Left dynamic, it
  // rises to the size of the first large block some thread frees, and
  // which block that is varies between runs: image_kernels' peak RSS then
  // varied by 25% between identical runs. Setting it explicitly turns the
  // adjustment off (mallopt(3)).
  const bool mmap_pinned = mallopt(M_MMAP_THRESHOLD, 128 * 1024) == 1;
  perfbench::Options opt;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const std::string val = argv[++i];
    try {
      if (arg == "--workload") {
        opt.workload = val;
      } else if (arg == "--seed") {
        opt.seed = std::stoull(val);
        have_seed = true;
      } else if (arg == "--seconds") {
        opt.seconds = std::stod(val);
      } else if (arg == "--trace") {
        if (val != "0" && val != "1") usage("--trace takes 0 or 1");
        opt.trace = val == "1";
      } else if (arg == "--spans-out") {
        opt.spans_out = val;
      } else {
        usage(("unknown argument " + arg).c_str());
      }
    } catch (const std::exception&) {
      usage(("bad value for " + arg).c_str());
    }
  }
  if (!have_seed) usage("--seed is required");
  if (!(opt.seconds > 0.0 && opt.seconds <= 600.0)) usage("--seconds out of range");

  perfbench::Report report(opt.workload);
  report.fact_num("seed", static_cast<double>(opt.seed));
  report.fact_num("seconds", opt.seconds);
  report.fact_num("trace", opt.trace ? 1 : 0);
  report.fact_num("nproc", std::thread::hardware_concurrency());
  report.fact_str("bitsliced_dispatch", gear::stats::bitsliced_dispatch_name());
  report.fact_str("build_type", PERFBENCH_BUILD_TYPE);
  report.fact_str("compiler", PERFBENCH_COMPILER);
  report.fact("malloc_mmap_threshold_pinned", mmap_pinned ? "true" : "false");
  report.fact("gear_obs_compiled_in", gear::obs::kCompiledIn ? "true" : "false");
  report.fact("gear_obs_runtime_enabled",
              gear::obs::runtime_enabled() ? "true" : "false");

  try {
    if (opt.workload == "mc_uniform") {
      perfbench::run_mc_uniform(opt, report);
    } else if (opt.workload == "serve_mix") {
      perfbench::run_serve_mix(opt, report);
    } else if (opt.workload == "image_kernels") {
      perfbench::run_image_kernels(opt, report);
    } else {
      usage(("unknown workload '" + opt.workload + "'").c_str());
    }
  } catch (const std::exception& e) {
    report.set_broken(std::string("exception: ") + e.what());
  }
  report.print();
  return report.correct() ? 0 : 1;
}
