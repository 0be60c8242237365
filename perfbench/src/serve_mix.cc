// serve_mix: one ApproxService (2 workers) driven by one closed-loop load
// generator (this thread) with a fixed in-flight window per tenant. The
// four tenants differ in configuration, correction mask, guard and
// request size; small requests share the workers with bulk ones, so a
// change that trades small-request latency for throughput shows up.
// Request operands are built before set-up, so no RNG runs in the timed
// path. Loads per-request overhead in serve (admission, queue,
// promise/future, Response::sums, slicing) and StreamAdderEngine
// bookkeeping.
#include <chrono>
#include <cstring>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "apps/stream_engine.h"
#include "clock.h"
#include "core/bitsliced_adder.h"
#include "core/config.h"
#include "core/correction.h"
#include "core/watchdog.h"
#include "inputs.h"
#include "obs/metrics.h"
#include "serve/service.h"
#include "spans.h"
#include "workloads.h"

namespace perfbench {
namespace {

using gear::core::GeArConfig;
using gear::serve::Response;
using gear::stats::OperandPair;

constexpr int kWorkers = 2;
constexpr int kSetupRepeats = 5;
constexpr std::size_t kWarmupPasses = 4;

enum class SizeClass { kSmall, k512, k4096 };

struct TenantPlan {
  const char* name;
  int n, r, p;
  bool corrected;  ///< full correction mask vs approximate-only
  bool guarded;    ///< carries a DegradationPolicy
  SizeClass size;
  std::size_t pool_requests;
  std::size_t window;  ///< requests in flight
};

// Small requests have 33..96 ops, so most are not a multiple of 64. The
// windows keep every tenant's queue non-empty most of the time: with
// shallower windows the workers idle on their condition variable between
// requests and throughput follows the host's wake-up latency, which made
// it swing by 2x between runs.
const TenantPlan kPlans[] = {
    {"small_ecc", 32, 8, 8, true, false, SizeClass::kSmall, 1024, 8},
    {"small_guarded", 16, 4, 4, true, true, SizeClass::kSmall, 1024, 8},
    {"bulk512_approx", 32, 4, 8, false, false, SizeClass::k512, 256, 8},
    {"bulk4096_ecc", 48, 8, 16, true, false, SizeClass::k4096, 64, 4},
};
constexpr std::size_t kTenants = sizeof(kPlans) / sizeof(kPlans[0]);

std::uint64_t mask_of(const TenantPlan& t) {
  return t.corrected ? gear::core::Corrector::all_enabled() : 0;
}

/// The expected outcome of one request (the referee).
struct Expected {
  std::vector<std::uint64_t> sums;
  std::uint64_t corrected_ops = 0;
  std::uint64_t wrong_results = 0;
};

struct TenantData {
  TenantPlan plan;
  GeArConfig cfg;
  std::vector<std::vector<OperandPair>> pool;
  std::vector<Expected> expected;  ///< unguarded tenants only
};

/// Builds every tenant's request pool from the seed, and the referee
/// results of the unguarded tenants through the scalar Corrector, a path
/// that shares nothing with the service's 64-lane batch path.
std::vector<TenantData> build_tenants(std::uint64_t seed) {
  std::vector<TenantData> out;
  for (const TenantPlan& plan : kPlans) {
    TenantData t{plan, GeArConfig::must(plan.n, plan.r, plan.p), {}, {}};
    BenchRng rng = BenchRng::derive(seed, std::string("serve-ops:") + plan.name);
    for (std::size_t i = 0; i < plan.pool_requests; ++i) {
      const std::size_t size = plan.size == SizeClass::kSmall ? rng.range(33, 96)
                               : plan.size == SizeClass::k512 ? 512
                                                              : 4096;
      std::vector<OperandPair> ops(size);
      for (auto& op : ops) op = {rng.bits(plan.n), rng.bits(plan.n)};
      t.pool.push_back(std::move(ops));
    }
    if (!plan.guarded) {
      const gear::core::Corrector corrector(t.cfg, mask_of(plan));
      for (const auto& ops : t.pool) {
        Expected e;
        for (const OperandPair& op : ops) {
          const auto res = corrector.add(op.a, op.b);
          e.sums.push_back(res.sum);
          if (!res.corrected.empty()) ++e.corrected_ops;
          if (res.sum != op.a + op.b) ++e.wrong_results;
        }
        t.expected.push_back(std::move(e));
      }
    }
    out.push_back(std::move(t));
  }
  return out;
}

/// Digest of one guarded response: its sums and accounting counters.
std::uint64_t digest(const std::vector<std::uint64_t>& sums, std::uint64_t corrected,
                     std::uint64_t wrong, std::uint64_t safe_mode, std::uint64_t flagged,
                     std::uint64_t fallbacks) {
  const std::uint64_t counters[] = {corrected, wrong, safe_mode, flagged, fallbacks};
  return hash_words(counters, 5, hash_words(sums.data(), sums.size()));
}

struct Completed {
  std::size_t tenant;
  std::uint64_t submit_ns;     ///< before submit()
  std::uint64_t submitted_ns;  ///< submit() returned
  std::uint64_t ready_ns;      ///< future observed ready
  std::size_t ops;
};

/// One service instance with its tenants, plus what the referee needs to
/// check the responses it produced.
class Instance {
 public:
  Instance(const std::vector<TenantData>& tenants, Report& report)
      : tenants_(tenants), report_(report) {
    gear::serve::ServiceOptions options;
    options.workers = kWorkers;
    service_ = std::make_unique<gear::serve::ApproxService>(options);
    for (const TenantData& t : tenants_) {
      gear::serve::TenantSpec spec(t.cfg);
      spec.correction_mask = mask_of(t.plan);
      if (t.plan.guarded) spec.degradation = gear::core::DegradationPolicy{};
      std::string error;
      const auto id = service_->add_tenant(t.plan.name, spec, &error);
      if (!id) throw std::runtime_error("add_tenant: " + error);
      ids_.push_back(*id);
    }
    slots_.resize(kTenants);
    next_.assign(kTenants, 0);
    for (std::size_t t = 0; t < kTenants; ++t) slots_[t].resize(tenants_[t].plan.window);
  }

  /// The generator's timeline in a traced run: each sweep over the slots
  /// is a top-level span, with the referee checks made in it as children.
  struct Trace {
    DriverTimeline& timeline;
    SpanLog& log;
    std::uint32_t prime, sweep, check;
  };

  /// Runs the closed loop until `stop()` says so (checked between
  /// sweeps), then drains every in-flight request. `on_done` sees each
  /// completed request after its check.
  template <typename Stop, typename OnDone>
  void loop(Stop&& stop, OnDone&& on_done, Trace* trace = nullptr) {
    const std::uint64_t p0 = now_ns();
    for (std::size_t t = 0; t < kTenants; ++t) {
      for (auto& slot : slots_[t]) submit(t, slot);
    }
    if (trace) trace->timeline.record_leaf(trace->prime, p0, now_ns());
    bool draining = false;
    std::size_t in_flight = 0;
    for (const auto& s : slots_) in_flight += s.size();
    std::vector<Interval> checks;
    std::uint64_t sweep = 0;
    while (in_flight > 0) {
      const std::uint64_t s0 = trace ? now_ns() : 0;
      if (!draining && stop()) draining = true;
      for (std::size_t t = 0; t < kTenants; ++t) {
        for (auto& slot : slots_[t]) {
          if (!slot.active ||
              slot.fut.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
            continue;
          }
          const std::uint64_t ready = now_ns();
          Response resp = slot.fut.get();
          slot.active = false;
          const std::uint64_t c0 = trace ? now_ns() : 0;
          check(t, slot, resp);
          if (trace) checks.push_back({c0, now_ns()});
          on_done(Completed{t, slot.submit_ns, slot.submitted_ns, ready,
                            tenants_[t].pool[slot.pool_index].size()},
                  resp);
          if (draining) {
            --in_flight;
          } else {
            submit(t, slot);
          }
        }
      }
      if (trace) {
        const Interval span{s0, now_ns()};
        const std::int64_t parent = trace->timeline.record(trace->sweep, span.start, span.end,
                                                           sweep, self_ns(span, checks));
        for (const Interval& c : checks) {
          trace->log.record_leaf(trace->check, c.start, c.end, parent, sweep);
        }
        checks.clear();
      }
      ++sweep;
    }
  }

  /// Stops the service and checks the accounting invariants and the
  /// guarded tenant's responses (replayed in admission order through a
  /// scalar-path twin engine).
  gear::serve::ServiceStats finish() {
    service_->stop(true);
    const gear::serve::ServiceStats stats = service_->stats();
    report_.check(stats.conservation_ok(), [] { return std::string("ServiceStats conservation"); });
    for (std::size_t t = 0; t < kTenants; ++t) {
      if (tenants_[t].plan.guarded) verify_guarded(t);
    }
    return stats;
  }

  const LatencyHistogram& submit_ns() const { return submit_ns_; }

 private:
  struct Slot {
    std::future<Response> fut;
    std::size_t pool_index = 0;
    std::uint64_t submit_ns = 0;
    std::uint64_t submitted_ns = 0;
    std::size_t guarded_seq = 0;  ///< admission order (guarded tenant)
    bool active = false;
  };

  void submit(std::size_t t, Slot& slot) {
    const TenantData& td = tenants_[t];
    slot.pool_index = next_[t];
    next_[t] = (next_[t] + 1) % td.pool.size();
    if (td.plan.guarded) slot.guarded_seq = guarded_submitted_++;
    gear::serve::Request req;
    req.tenant = ids_[t];
    req.operands = td.pool[slot.pool_index];
    slot.submit_ns = now_ns();
    slot.fut = service_->submit(std::move(req));
    slot.submitted_ns = now_ns();
    slot.active = true;
    submit_ns_.add(static_cast<double>(slot.submitted_ns - slot.submit_ns));
  }

  void check(std::size_t t, const Slot& slot, const Response& resp) {
    const TenantData& td = tenants_[t];
    const std::size_t pool_index = slot.pool_index;
    const std::size_t n = td.pool[pool_index].size();
    bool ok = (resp.status == gear::serve::RequestStatus::kOk ||
               resp.status == gear::serve::RequestStatus::kDegraded) &&
              resp.sums.size() == n && resp.operations == n;
    if (ok && td.plan.guarded) {
      // Judged after the run by the replay, which the response's digest
      // joins in admission order; arrivals can be out of order within
      // the window.
      guarded_pending_[slot.guarded_seq] =
          digest(resp.sums, resp.corrected_ops, resp.wrong_results,
                 resp.safe_mode_ops, resp.flagged_ops, resp.fallback_events);
      ++guarded_responses_;
      fold_guarded();
      return;
    }
    if (td.plan.guarded) {
      guarded_pending_[slot.guarded_seq] = 0;  // keeps the fold moving
      fold_guarded();
    } else if (ok) {
      const Expected& e = td.expected[pool_index];
      ok = resp.status == gear::serve::RequestStatus::kOk &&
           std::memcmp(resp.sums.data(), e.sums.data(), n * sizeof(std::uint64_t)) == 0 &&
           resp.corrected_ops == e.corrected_ops &&
           resp.wrong_results == e.wrong_results;
    }
    report_.check(ok, [&] {
      return std::string(td.plan.name) + " request " + std::to_string(pool_index) +
             " (status " + gear::serve::request_status_name(resp.status) +
             ") does not match its referee";
    });
  }

  void fold_guarded() {
    for (auto it = guarded_pending_.find(guarded_folded_); it != guarded_pending_.end();
         it = guarded_pending_.find(guarded_folded_)) {
      guarded_stream_ = hash_words(&it->second, 1, guarded_stream_);
      guarded_pending_.erase(it);
      ++guarded_folded_;
    }
  }

  /// Replays the guarded tenant's admitted sequence (request i used pool
  /// entry i mod pool size) through a scalar-path twin engine with one
  /// persistent watchdog, and compares the folded digests.
  void verify_guarded(std::size_t t) {
    const TenantData& td = tenants_[t];
    gear::apps::StreamAdderEngine twin(td.cfg, mask_of(td.plan),
                                       gear::core::DegradationPolicy{});
    twin.force_scalar_path(true);
    std::optional<gear::core::Watchdog> wd = twin.make_watchdog();
    std::vector<std::uint64_t> sums;
    std::uint64_t want = 0;
    for (std::size_t i = 0; i < guarded_submitted_; ++i) {
      const auto& ops = td.pool[i % td.pool.size()];
      sums.assign(ops.size(), 0);
      const auto s = twin.run_with_sums(ops.data(), ops.size(), sums.data(), &*wd);
      const std::uint64_t d = digest(sums, s.corrected_ops, s.wrong_results,
                                     s.safe_mode_ops, s.flagged_ops, s.fallback_events);
      want = hash_words(&d, 1, want);
    }
    const bool ok = guarded_folded_ == guarded_submitted_ && want == guarded_stream_;
    report_.check(ok, [&] {
      return std::string(td.plan.name) + " responses differ from the scalar replay";
    }, guarded_responses_);
  }

  const std::vector<TenantData>& tenants_;
  Report& report_;
  std::unique_ptr<gear::serve::ApproxService> service_;
  std::vector<gear::serve::TenantId> ids_;
  std::vector<std::vector<Slot>> slots_;
  std::vector<std::size_t> next_;
  // Guarded tenant: responses fold, in admission order, into one stream
  // digest; out-of-order arrivals wait in guarded_pending_ (at most a
  // window's worth), so memory does not grow with the run.
  std::size_t guarded_submitted_ = 0;
  std::size_t guarded_folded_ = 0;
  std::size_t guarded_responses_ = 0;  ///< with a good status
  std::map<std::size_t, std::uint64_t> guarded_pending_;
  std::uint64_t guarded_stream_ = 0;
  LatencyHistogram submit_ns_;
};

// Reject reasons in RejectReason order (kNone excluded), as metric names.
const char* const kReasonNames[] = {
    "unknown_tenant", "empty_request",       "oversized_request", "queue_full",
    "tenant_queue_full", "deadline_unmeetable", "shutdown"};

/// Isolated calls into the layers under the service, on the serve_mix op
/// stream: the 64-lane kernel, the plain and guarded engine. Also yields
/// the simulated (deterministic) cycle counts.
void measure_layers(const std::vector<TenantData>& tenants, Report& report,
                    double service_ns_per_op) {
  constexpr int kReps = 5;
  double kernel_ns = 0, plain_ns = 0, guarded_ns = 0, ops_total = 0;
  gear::apps::StreamStats sim;
  std::uint64_t sink = 0;
  for (const TenantData& t : tenants) {
    std::vector<OperandPair> ops;
    for (const auto& req : t.pool) ops.insert(ops.end(), req.begin(), req.end());
    std::vector<std::uint64_t> a(ops.size()), b(ops.size()), out(ops.size());
    for (std::size_t i = 0; i < ops.size(); ++i) {
      a[i] = ops[i].a;
      b[i] = ops[i].b;
    }
    const gear::core::BitslicedGearAdder kernel(t.cfg);
    kernel_ns += median_ns(kReps, [&] {
      for (std::size_t i = 0; i < ops.size(); i += 64) {
        const int count = static_cast<int>(std::min<std::size_t>(64, ops.size() - i));
        kernel.add_batch(&a[i], &b[i], &out[i], count, mask_of(t.plan));
      }
      sink += out.back();
    });
    const gear::apps::StreamAdderEngine plain(t.cfg, mask_of(t.plan));
    const gear::apps::StreamAdderEngine guarded(t.cfg, mask_of(t.plan),
                                                gear::core::DegradationPolicy{});
    gear::apps::StreamStats stats;
    plain_ns += median_ns(kReps, [&] {
      stats = plain.run_with_sums(ops.data(), ops.size(), out.data());
    });
    sim.merge(stats);
    guarded_ns += median_ns(kReps, [&] {
      sink += guarded.run_with_sums(ops.data(), ops.size(), out.data()).cycles;
    });
    ops_total += static_cast<double>(ops.size());
  }
  keep(sink);
  const double ops_d = static_cast<double>(sim.operations);
  report.metric("core.add_batch_ns_per_op", kernel_ns / ops_total, "ns");
  report.metric("apps.engine_plain_ns_per_op", plain_ns / ops_total, "ns");
  report.metric("apps.engine_guarded_ns_per_op", guarded_ns / ops_total, "ns");
  report.metric("apps.engine_over_kernel_ns_per_op", (plain_ns - kernel_ns) / ops_total, "ns");
  report.metric("serve.over_engine_ns_per_op", service_ns_per_op - plain_ns / ops_total, "ns");
  report.metric("core.sim_cycles_per_op", static_cast<double>(sim.cycles) / ops_d, "cycles");
  report.metric("core.sim_stall_frac",
                static_cast<double>(sim.stall_cycles) / static_cast<double>(sim.cycles),
                "fraction");
  report.metric("core.corrected_frac", static_cast<double>(sim.corrected_ops) / ops_d,
                "fraction");
}

}  // namespace

void run_serve_mix(const Options& opt, Report& report) {
  report.fact_num("threads.workers", kWorkers);
  report.fact_num("threads.generator", 1);

  // Inputs and referee results (neither is set-up).
  const std::vector<TenantData> tenants = build_tenants(opt.seed);

  begin_setup(report);
  // Set-up: service, tenants and a warm-up pass, repeated; the last
  // instance stays for the timed phase.
  std::unique_ptr<Instance> inst;
  std::vector<double> setup_s, build_s;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    if (inst) inst->finish();
    inst.reset();
    const std::uint64_t t0 = now_ns();
    inst = std::make_unique<Instance>(tenants, report);
    const std::uint64_t t1 = now_ns();
    // Warm-up: every tenant completes each request of its pool
    // kWarmupPasses times (one pass alone took ~15 ms, too short to time
    // steadily).
    std::vector<std::size_t> done(kTenants, 0);
    std::size_t warm = 0;
    inst->loop([&] { return warm >= kTenants; },
               [&](const Completed& c, const Response&) {
                 if (++done[c.tenant] == kWarmupPasses * tenants[c.tenant].pool.size()) ++warm;
               });
    const std::uint64_t t2 = now_ns();
    build_s.push_back(static_cast<double>(t1 - t0) * 1e-9);
    setup_s.push_back(static_cast<double>(t2 - t0) * 1e-9);
  }
  report.fact_num("setup_build_s_median", median_of(build_s));

  const LaneFill lane_fill;

  SpanLog spans;
  DriverTimeline timeline(spans);
  Instance::Trace gen_trace{timeline, spans, spans.layer("bench.prime"),
                            spans.layer("bench.sweep"), spans.layer("bench.check")};
  const std::uint32_t l_request = spans.layer("serve.request");
  const std::uint32_t l_submit = spans.layer("serve.submit");
  const std::uint32_t l_queue = spans.layer("serve.queue");
  const std::uint32_t l_service = spans.layer("serve.service");
  // Wall-clock slices of about a second. Every completed request's ops
  // count as work; only small-tenant requests give latency samples.
  Slices slices;
  LatencyHistogram queue_us;
  double class_service_ns[3] = {0, 0, 0}, class_ops[3] = {0, 0, 0};
  double ops_done = 0, service_ns_total = 0;
  std::uint64_t request_id = 0;

  const std::uint64_t start = now_ns();
  const std::uint64_t budget = static_cast<std::uint64_t>(opt.seconds * 1e9);
  std::uint64_t slice_start = start;
  timeline.start(start);
  inst->loop([&] { return now_ns() - start >= budget; },
             [&](const Completed& c, const Response& r) {
               const TenantPlan& plan = tenants[c.tenant].plan;
               const int cls = static_cast<int>(plan.size);
               if (c.ready_ns - slice_start >= kSliceNs) {
                 slices.close(c.ready_ns - slice_start);
                 slice_start = c.ready_ns;
               }
               ops_done += static_cast<double>(c.ops);
               class_ops[cls] += static_cast<double>(c.ops);
               class_service_ns[cls] += static_cast<double>(r.service_ns);
               service_ns_total += static_cast<double>(r.service_ns);
               slices.add(static_cast<double>(c.ops),
                          plan.size == SizeClass::kSmall
                              ? static_cast<double>(c.ready_ns - c.submit_ns) * 1e-3
                              : -1.0);
               if (!opt.trace) return;
               queue_us.add(static_cast<double>(r.queue_ns) * 1e-3);
               // The request span's children are rebuilt from the
               // response's wall-clock fields: admission happens at the
               // start of submit(), so queueing starts there.
               const Interval submit{c.submit_ns, c.submitted_ns};
               const Interval queue{c.submit_ns, c.submit_ns + r.queue_ns};
               const Interval service{queue.end, queue.end + r.service_ns};
               const std::uint64_t id = request_id++;
               const std::int64_t parent = spans.record(
                   l_request, c.submit_ns, c.ready_ns, -1, id,
                   self_ns({c.submit_ns, c.ready_ns}, {submit, queue, service}));
               spans.record_leaf(l_submit, submit.start, submit.end, parent, id);
               spans.record_leaf(l_queue, queue.start, queue.end, parent, id);
               spans.record_leaf(l_service, service.start, service.end, parent, id);
             },
             opt.trace ? &gen_trace : nullptr);
  const std::uint64_t end = now_ns();
  timeline.stop(end);
  if (end - slice_start >= kSliceNs / 2) slices.close(end - slice_start);
  const double wall_s = static_cast<double>(end - start) * 1e-9;
  const gear::serve::ServiceStats stats = inst->finish();
  report.fact_num("timed_s", wall_s);
  report.fact_num("ops", ops_done);

  if (!opt.trace) {
    report.end_to_end(setup_s, slices);
    return;
  }

  report.metric("throughput_per_s", slices.throughput_per_s(), "1/s");
  check_coverage(timeline, report);
  // The generator compares each response on arrival, inside the timed
  // loop; this is the share of the loop it spends doing so.
  report.fact_num("referee_in_loop_frac",
                  static_cast<double>(spans.totals(gen_trace.check).total_ns) /
                      static_cast<double>(end - start));
  report.metric("stats.lane_fill", lane_fill.fraction(), "fraction");
  const Percentile submit50 = inst->submit_ns().percentile(0.5);
  const Percentile q50 = queue_us.percentile(0.5);
  const Percentile q99 = queue_us.percentile(0.99);
  if (!submit50.supported || !q50.supported || !q99.supported) {
    report.set_broken("too few requests for the queue percentiles");
  }
  report.fact_percentile("serve.submit_ns_p50", submit50);
  report.fact_percentile("serve.queue_us_p50", q50);
  report.fact_percentile("serve.queue_us_p99", q99);
  report.metric("serve.submit_ns_p50", submit50.value, "ns");
  report.metric("serve.queue_us_p50", q50.value, "us");
  report.metric("serve.queue_us_p99", q99.value, "us");
  const double service_ns_per_op = service_ns_total / ops_done;
  report.metric("serve.service_ns_per_op", service_ns_per_op, "ns");
  report.metric("serve.service_ns_per_op.small", class_service_ns[0] / class_ops[0], "ns");
  report.metric("serve.service_ns_per_op.r512", class_service_ns[1] / class_ops[1], "ns");
  report.metric("serve.service_ns_per_op.r4096", class_service_ns[2] / class_ops[2], "ns");
  report.metric("serve.worker_busy_frac", service_ns_total / (kWorkers * wall_s * 1e9),
                "fraction");
  std::uint64_t by_reason[gear::serve::kNumRejectReasons] = {};
  for (const auto& t : stats.tenants) {
    for (int i = 0; i < gear::serve::kNumRejectReasons; ++i) by_reason[i] += t.rejected_by_reason[i];
  }
  by_reason[static_cast<int>(gear::serve::RejectReason::kUnknownTenant)] +=
      stats.rejected_unknown_tenant;
  for (int i = 1; i < gear::serve::kNumRejectReasons; ++i) {
    report.metric(std::string("serve.rejected_frac.") + kReasonNames[i - 1],
                  static_cast<double>(by_reason[i]) / static_cast<double>(stats.submitted),
                  "fraction");
  }
  measure_layers(tenants, report, service_ns_per_op);
  if (!opt.spans_out.empty() && !spans.write_json(opt.spans_out)) {
    report.set_broken("cannot write " + opt.spans_out);
  }
}

}  // namespace perfbench
