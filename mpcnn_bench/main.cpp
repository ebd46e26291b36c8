// mpcnn_bench — end-to-end benchmark of the multi-precision cascade.
//
//   mpcnn_bench --workload W --seed S [--seconds T] [--out F.json]
//               [--chrome-trace F.json] [--check]
//   mpcnn_bench --prepare
//
// Every number names one of two clocks.  *wall* is real host CPU time
// spent by this process; *sim* is the modelled Eq. (3)–(5) fabric plus
// the host leg, pinned to the paper's Cortex-A9 rates (EXPERIMENTS.md
// Table IV) so it never depends on a measurement of this machine.  The
// Workbench supplies only trained artifacts; every session is built
// through its public constructor.
//
// One run: kSetups in-process Workbench constructions (setup_s), inputs
// from the seed (untimed), one warm-up replay checked against a
// per-image oracle, then timed replays on fresh sessions until --seconds
// of replay time and at least kMinReplays replays.  Replays do
// bit-identical work, so each one's sim report must match the warm-up's
// digest exactly.  The traced build (MPCNN_BENCH_TRACED) alternates
// traced and untraced replays and cross-checks its span counts against
// the program's own counters.
//
// --prepare trains every cached artifact at full thread count; --check
// replays once at 1 and once at 2 threads and compares the digests.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/analytic.hpp"
#include "core/cpu.hpp"
#include "core/fleet.hpp"
#include "core/pipeline.hpp"
#include "core/scene_stream.hpp"
#include "core/serve.hpp"
#include "core/threadpool.hpp"
#include "core/workbench.hpp"
#include "span.hpp"

#ifndef MPCNN_BENCH_TRACED
#define MPCNN_BENCH_TRACED 0
#endif

namespace {

using namespace mpcnn;
using mpcnn_bench::ScopedSpan;
using mpcnn_bench::Site;
using Clock = std::chrono::steady_clock;

// Host legs pinned to the paper's A9 rates (Table IV): Model A 29.68
// img/s, Model C 3.09 img/s.
constexpr double kHostSecondsA = 1.0 / 29.68;
constexpr double kHostSecondsC = 1.0 / 3.09;
constexpr int kMinReplays = 5;
// The first construction in a process pays cold page faults; the median
// of five shrugs it off.
constexpr int kSetups = 5;
constexpr Dim kBatch = 16;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::uint64_t mix(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t x = seed ^ (salt * 0x9E3779B97F4A7C15ULL);
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// FNV-1a 64 over the raw bytes of trivially copyable values.
struct Digest {
  std::uint64_t h = 14695981039346656037ULL;
  void bytes(const void* data, std::size_t n) {
    const unsigned char* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 1099511628211ULL;
    }
  }
  template <class T>
  void add(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    bytes(&v, sizeof(v));
  }
};

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Regularized incomplete beta I_x(a, b), by its continued fraction
/// (modified Lentz), on the side of x where the fraction converges.
double incomplete_beta(double x, double a, double b) {
  if (x <= 0.0) return 0.0;
  if (x >= 1.0) return 1.0;
  if (x > (a + 1.0) / (a + b + 2.0)) {
    return 1.0 - incomplete_beta(1.0 - x, b, a);
  }
  const double front =
      std::exp(std::lgamma(a + b) - std::lgamma(a) - std::lgamma(b) +
               a * std::log(x) + b * std::log1p(-x)) / a;
  constexpr double kTiny = 1e-300;
  double f = 1.0, c = 1.0, d = 0.0;
  for (int i = 0; i < 2000; ++i) {
    const double m = i / 2;
    const double num =
        i == 0       ? 1.0
        : i % 2 == 0 ? m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m))
                     : -(a + m) * (a + b + m) * x /
                           ((a + 2 * m) * (a + 2 * m + 1));
    d = 1.0 + num * d;
    d = 1.0 / (std::abs(d) < kTiny ? kTiny : d);
    c = 1.0 + num / c;
    if (std::abs(c) < kTiny) c = kTiny;
    f *= c * d;
    if (std::abs(1.0 - c * d) < 1e-13) break;
  }
  return front * (f - 1.0);
}

/// Harrell–Davis estimate of the p-quantile, in ms: the order statistics
/// weighted by a Beta((n+1)p, (n+1)(1-p)) density.  Deterministic like
/// nearest rank, but continuous in the sample — simulated latencies are
/// sums of a few fixed fabric and host terms, and a nearest-rank
/// percentile of such ties reads the same value for every seed.
double harrell_davis_ms(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double n = static_cast<double>(values.size());
  const double a = p * (n + 1.0), b = (1.0 - p) * (n + 1.0);
  double estimate = 0.0, below = 0.0;
  for (std::size_t i = 0; i < values.size(); ++i) {
    const double upto = incomplete_beta(static_cast<double>(i + 1) / n, a, b);
    estimate += (upto - below) * values[i];
    below = upto;
  }
  return 1e3 * estimate;
}

/// Correctness gates: every failed expectation fails the run.
class Checks {
 public:
  void expect(bool ok, const std::string& what) {
    if (ok) return;
    ++count_;
    if (messages_.size() < 20) messages_.push_back(what);
  }
  std::int64_t count() const { return count_; }
  const std::vector<std::string>& messages() const { return messages_; }

 private:
  std::int64_t count_ = 0;
  std::vector<std::string> messages_;
};

/// Span counts the traced run must observe for one replay, derived from
/// the program's own results and counters (-1 = not checked).
struct Expect {
  std::int64_t bnn_calls = 0;       ///< fabric slots + re-runs + canaries
  std::int64_t nn_calls = 0;        ///< host-served images + host re-runs
  std::int64_t dmu_calls = 0;       ///< fabric slots
  std::int64_t fabric_batches = 0;  ///< StreamSession dispatches on fabric
  std::int64_t extract_tile_calls = -1;
  std::int64_t fleet_dispatch_calls = -1;
  std::int64_t fleet_submit_calls = -1;
};

/// What one replay produced.  Everything but wall_s is simulated or a
/// program count and must repeat bit-for-bit on every replay.
struct Replay {
  double wall_s = 0.0;
  std::int64_t images = 0;   ///< classified: served requests or tiles
  std::int64_t offered = 0;  ///< operations attempted
  std::int64_t failed = 0;   ///< lost, duplicated or wrongly labelled
  std::uint64_t digest = 0;
  std::map<std::string, double> sim;     ///< sim end-to-end metrics
  std::map<std::string, double> counts;  ///< per-layer program counters
  std::map<std::string, double> notes;   ///< verify-only context
  Expect expect;
};

// --------------------------------------------------------------- oracle

/// Reference answers per test-set image through the plain single-image
/// calls on the golden network, memoised on first use.
class Oracle {
 public:
  Oracle(core::Workbench& wb, char host_model, float threshold)
      : wb_(wb), host_model_(host_model), threshold_(threshold) {}

  int dataset_label(Dim i) {
    return wb_.test_set().labels[static_cast<std::size_t>(i)];
  }

  int bnn_label(Dim i) {
    fill_bnn(i);
    return bnn_[static_cast<std::size_t>(i)];
  }

  bool rerun(Dim i) {
    fill_bnn(i);
    return confidence_[static_cast<std::size_t>(i)] < threshold_;
  }

  int host_label(Dim i) {
    resize();
    int& label = host_[static_cast<std::size_t>(i)];
    if (label < -1) {
      nn::Net& net = wb_.model(host_model_);
      net.set_training(false);
      label = net.predict(image(i)).front();
    }
    return label;
  }

  /// Checks one served answer against the reference for its route,
  /// including the DMU gate decision that picked the route.
  void check(Checks& checks, Dim i, int label, core::ServedBy by,
             std::int64_t& failed) {
    bool ok = true;
    switch (by) {
      case core::ServedBy::kFabric:
        ok = label == bnn_label(i) && !rerun(i);
        break;
      case core::ServedBy::kHost:
        ok = label == host_label(i) && rerun(i);
        break;
      case core::ServedBy::kHostDegraded:
      case core::ServedBy::kHostRouted:
        ok = label == host_label(i);
        break;
      case core::ServedBy::kNone:
        ok = label == -1;
        break;
    }
    if (!ok) ++failed;
    checks.expect(ok, "image " + std::to_string(i) + " served label " +
                          std::to_string(label) +
                          " differs from the reference for its route");
  }

 private:
  Tensor image(Dim i) { return wb_.test_set().images.slice_batch(i); }

  void resize() {
    const std::size_t n = static_cast<std::size_t>(wb_.test_set().size());
    if (bnn_.size() != n) {
      bnn_.assign(n, -2);
      confidence_.assign(n, 0.0f);
      host_.assign(n, -2);
    }
  }

  void fill_bnn(Dim i) {
    resize();
    int& label = bnn_[static_cast<std::size_t>(i)];
    if (label >= -1) return;
    const std::vector<std::int32_t> raw =
        bnn::run_reference(wb_.compiled_bnn(), image(i));
    label = static_cast<int>(
        std::max_element(raw.begin(), raw.end()) - raw.begin());
    confidence_[static_cast<std::size_t>(i)] =
        wb_.dmu().confidence(std::vector<float>(raw.begin(), raw.end()));
  }

  core::Workbench& wb_;
  char host_model_;
  float threshold_;
  std::vector<int> bnn_;          ///< -2 = not computed yet
  std::vector<float> confidence_;
  std::vector<int> host_;         ///< -2 = not computed yet
};

// ------------------------------------------------------------ workloads

/// Shared accounting of per-image results, whatever front door produced
/// them.
struct Tally {
  std::int64_t served = 0;
  std::int64_t correct = 0;      ///< label == dataset label
  std::int64_t fabric_slots = 0; ///< the fabric scored the image
  std::int64_t host_served = 0;  ///< the label came from the host
  std::int64_t reruns = 0;       ///< DMU distrusted the BNN
  std::vector<double> latencies;
};

class Workload {
 public:
  virtual ~Workload() = default;
  virtual const char* name() const = 0;
  /// The float host model this workload's sessions use.
  virtual char host_model() const { return 'A'; }
  /// Artifacts beyond the common BNN/DMU/design/host-model set.
  virtual bool uses_threshold() const { return true; }
  virtual bool uses_test_set() const { return true; }
  virtual bool uses_objects() const { return false; }
  /// Seeded inputs and any untimed reference data.
  virtual void make_inputs(core::Workbench& wb, std::uint64_t seed) = 0;
  /// One timed replay on fresh sessions; with `verify`, every result is
  /// also checked against the oracle (after the timed region).
  virtual Replay replay(core::Workbench& wb, bool verify,
                        Checks& checks) = 0;

 protected:
  /// `tail` is the highest percentile with at least ten samples beyond
  /// it: 0.99 for the request workloads, 0.95 for 240 scene frames.
  static void fill_sim(Replay& r, const Tally& t, double span_s,
                       double goodput_count, double tail) {
    MPCNN_CHECK((1.0 - tail) * static_cast<double>(t.latencies.size()) >=
                    10.0,
                "too few latency samples for the tail percentile");
    r.sim["sim_goodput_fps"] = ratio(goodput_count, span_s);
    r.sim["sim_p50_ms"] = harrell_davis_ms(t.latencies, 0.5);
    r.sim["sim_tail_ms"] = harrell_davis_ms(t.latencies, tail);
    r.sim["served_frac"] = ratio(static_cast<double>(t.served),
                                 static_cast<double>(r.offered));
    r.sim["accuracy"] = ratio(static_cast<double>(t.correct),
                              static_cast<double>(t.served));
  }

  static void fill_supervisor(Replay& r, const core::SupervisorStats& s) {
    r.counts["stream.dispatches"] = static_cast<double>(s.dispatches);
    r.counts["fault.watchdog_timeouts"] =
        static_cast<double>(s.watchdog_timeouts);
    r.counts["fault.retries"] = static_cast<double>(s.retries);
    r.counts["fault.scrub_repairs"] = static_cast<double>(s.scrub_repairs);
    r.counts["fault.seu_flips"] = static_cast<double>(s.seu_flips);
    r.counts["integrity.sdc_detected"] = static_cast<double>(s.sdc_detected);
    r.counts["integrity.sdc_corrected"] =
        static_cast<double>(s.sdc_corrected);
    r.counts["integrity.reexec_images"] =
        static_cast<double>(s.sdc_served_after_reexec);
    r.counts["integrity.canary_runs"] = static_cast<double>(s.canary_runs);
  }

  /// Counters and expected span counts shared by every StreamSession
  /// path: the fabric scores fabric_slots images (+ re-runs and canary
  /// probes), the DMU gates each of them once, the host float net runs
  /// once per host-served image plus once per host-side ABFT re-run.
  static void fill_stream(Replay& r, const Tally& t,
                          const core::SupervisorStats& s, double span_s,
                          double fabric_interval_s, double host_seconds) {
    fill_supervisor(r, s);
    r.counts["dmu.rerun_ratio"] = ratio(static_cast<double>(t.reruns),
                                        static_cast<double>(t.fabric_slots));
    r.counts["stream.batch_fill"] =
        ratio(static_cast<double>(t.fabric_slots),
              static_cast<double>(s.fabric_batches));
    r.counts["stream.sim_fabric_util"] = ratio(
        static_cast<double>(t.fabric_slots) * fabric_interval_s, span_s);
    r.counts["stream.sim_host_util"] =
        ratio(static_cast<double>(t.host_served) * host_seconds, span_s);
    r.expect.bnn_calls =
        t.fabric_slots + s.sdc_served_after_reexec + s.canary_runs;
    r.expect.nn_calls =
        t.host_served + (s.sdc_detected - s.sdc_served_after_reexec);
    r.expect.dmu_calls = t.fabric_slots;
    r.expect.fabric_batches = s.fabric_batches;
  }

  static void count_served(Tally& t, int label, int truth,
                           core::ServedBy by, bool rerun, double latency) {
    ++t.served;
    if (label == truth) ++t.correct;
    if (by == core::ServedBy::kFabric || by == core::ServedBy::kHost) {
      ++t.fabric_slots;
    }
    if (by != core::ServedBy::kFabric) ++t.host_served;
    if (rerun && by == core::ServedBy::kHost) ++t.reruns;
    t.latencies.push_back(latency);
  }

  /// `n` test-set indices: seeded permutations of the whole test set,
  /// concatenated, so every image appears before any repeats.
  static std::vector<Dim> image_order(core::Workbench& wb, Dim n,
                                      std::uint64_t seed) {
    const std::size_t size =
        static_cast<std::size_t>(wb.test_set().size());
    std::vector<Dim> order;
    Rng rng(seed);
    while (static_cast<Dim>(order.size()) < n) {
      for (const std::size_t i : rng.permutation(size)) {
        if (static_cast<Dim>(order.size()) == n) break;
        order.push_back(static_cast<Dim>(i));
      }
    }
    return order;
  }

  /// `n` steady arrivals at `rate_hz`, each delayed by a seeded uniform
  /// share of half an interval: a camera-like source whose latencies
  /// vary continuously with the seed (a pure grid would make every
  /// seed's batching waits identical), still in arrival order.
  static std::vector<double> jittered_arrivals(Dim n, double rate_hz,
                                               std::uint64_t seed) {
    Rng rng(seed);
    std::vector<double> arrivals;
    arrivals.reserve(static_cast<std::size_t>(n));
    for (Dim k = 0; k < n; ++k) {
      arrivals.push_back((static_cast<double>(k) + 0.5 * rng.uniform()) /
                         rate_hz);
    }
    return arrivals;
  }

  static std::vector<Tensor> slice(core::Workbench& wb,
                                   const std::vector<Dim>& order) {
    std::vector<Tensor> images;
    images.reserve(order.size());
    for (const Dim i : order) {
      images.push_back(wb.test_set().images.slice_batch(i));
    }
    return images;
  }
};

// serve_saturating: four Poisson tenants at 1.8x fabric capacity through
// the continuous-batching front end, SLO shedding, DMU off.  Batches run
// nearly full and the BNN engine holds almost all wall time, so a faster
// fabric engine shows here and host-float changes should show nothing.
class ServeSaturating : public Workload {
 public:
  const char* name() const override { return "serve_saturating"; }
  bool uses_threshold() const override { return false; }

  void make_inputs(core::Workbench& wb, std::uint64_t seed) override {
    interval_ = wb.operating_design().steady_seconds_per_image();
    const double window = 4.0 * interval_;
    const double slo = window + 8.0 * static_cast<double>(kBatch) * interval_;
    config_.batch_size = kBatch;
    config_.max_wait_s = window;
    config_.slo_policy = core::SloPolicy::kShed;
    // Global FIFO assembly: weighted round-robin over symmetric Poisson
    // tenants serves whichever tenant's queue ran short early, which
    // makes the median latency bimodal between seeds.
    config_.fairness = false;
    config_.session.dmu_threshold = 0.0f;
    config_.session.auto_dispatch = false;
    config_.session.queue_capacity = 0;
    config_.session.batch_size = kBatch;
    tenants_.assign(kTenants, core::TenantConfig{});
    arrivals_.assign(kTenants, {});
    for (std::size_t t = 0; t < kTenants; ++t) {
      tenants_[t].name = "tenant" + std::to_string(t);
      tenants_[t].slo_s = slo;
      core::TraceConfig trace;
      trace.pattern = core::TracePattern::kPoisson;
      trace.rate_hz = 1.8 / static_cast<double>(kTenants) / interval_;
      trace.duration_s = kSpanIntervals * interval_;
      arrivals_[t] = core::generate_arrivals(trace, mix(seed, 10 + t));
    }
    Dim total = 0;
    for (const auto& a : arrivals_) total += static_cast<Dim>(a.size());
    const std::vector<Dim> order = image_order(wb, total, mix(seed, 1));
    index_.assign(kTenants, {});
    images_.assign(kTenants, {});
    std::size_t cursor = 0;
    for (std::size_t t = 0; t < kTenants; ++t) {
      for (std::size_t k = 0; k < arrivals_[t].size(); ++k) {
        index_[t].push_back(order[cursor++]);
      }
      images_[t] = slice(wb, index_[t]);
    }
  }

  Replay replay(core::Workbench& wb, bool verify, Checks& checks) override {
    Replay r;
    const auto t0 = Clock::now();
    std::vector<core::StreamSession> pipelines;
    pipelines.emplace_back(wb.compiled_bnn(), wb.operating_design(),
                           wb.model('A'), kHostSecondsA, wb.dmu(),
                           config_.session);
    core::ServeFrontEnd front(config_, tenants_, std::move(pipelines));
    for (std::size_t t = 0; t < kTenants; ++t) {
      for (std::size_t k = 0; k < arrivals_[t].size(); ++k) {
        front.submit(static_cast<Dim>(t), images_[t][k], arrivals_[t][k]);
      }
    }
    core::ServeReport report;
    {
      ScopedSpan span(Site::kServeFinish);
      report = front.finish();
    }
    r.wall_s = seconds_since(t0);

    Oracle oracle(wb, 'A', 0.0f);
    Tally tally;
    Digest digest;
    std::vector<double> waits;
    std::vector<std::vector<int>> seen(kTenants);
    for (std::size_t t = 0; t < kTenants; ++t) {
      seen[t].assign(arrivals_[t].size(), 0);
    }
    for (const core::ServeResult& res : front.results()) {
      ++r.offered;
      const std::size_t t = static_cast<std::size_t>(res.tenant);
      const std::size_t k = static_cast<std::size_t>(res.tenant_seq);
      const bool known = t < kTenants && k < seen[t].size();
      checks.expect(known && seen[t][k] == 0,
                    "serve request completed twice or unknown");
      if (!known || seen[t][k]++ != 0) {
        ++r.failed;
        continue;
      }
      digest.add(res.request_id);
      digest.add(res.label);
      digest.add(res.status);
      digest.add(res.ready_at);
      digest.add(res.dispatched_at);
      const bool served = res.status == core::ServeStatus::kOk ||
                          res.status == core::ServeStatus::kDegraded;
      if (!served) continue;
      const Dim image = index_[t][k];
      count_served(tally, res.label, oracle.dataset_label(image),
                   res.served_by, res.rerun, res.latency());
      waits.push_back(res.dispatched_at - res.submitted_at);
      if (verify) oracle.check(checks, image, res.label, res.served_by,
                               r.failed);
    }
    std::int64_t missing = 0;
    for (const std::vector<int>& tenant : seen) {
      missing += std::count(tenant.begin(), tenant.end(), 0);
    }
    r.failed += missing;
    checks.expect(missing == 0, "a serve request never completed");
    const core::TenantReport& total = report.total;
    checks.expect(total.offered == r.offered &&
                      total.served + total.shed_admission +
                              total.shed_overload + total.shed_slo ==
                          total.offered,
                  "serve offered != served + shed");
    r.images = total.served;
    fill_sim(r, tally, report.span_s, static_cast<double>(total.slo_met),
             0.99);
    fill_stream(r, tally, report.supervisor, report.span_s, interval_,
                kHostSecondsA);
    r.counts["serve.sim_queue_wait_p50_ms"] = harrell_davis_ms(waits, 0.5);
    r.counts["serve.sim_queue_wait_p99_ms"] = harrell_davis_ms(waits, 0.99);
    r.counts["serve.shed_slo"] = static_cast<double>(total.shed_slo);
    r.counts["serve.mean_batch_fill"] = report.mean_batch_fill;
    r.counts["fleet.dispatches"] =
        static_cast<double>(report.fleet.dispatches);
    r.expect.fleet_dispatch_calls = report.batches;
    for (const auto& [key, value] : r.sim) digest.add(value);
    r.digest = digest.h;
    return r;
  }

 private:
  static constexpr std::size_t kTenants = 4;
  // ~5,600 offered at 1.8x capacity, ~3,300 served per replay: enough
  // that the served subset's accuracy and p99 repeat across seeds.
  static constexpr double kSpanIntervals = 3120.0;
  double interval_ = 0.0;
  core::ServeConfig config_;
  std::vector<core::TenantConfig> tenants_;
  std::vector<std::vector<double>> arrivals_;
  std::vector<std::vector<Dim>> index_;
  std::vector<std::vector<Tensor>> images_;
};

// cascade_host: the paper's Table V cascade through the stream front
// door (auto-dispatch, batch 16) with the Model C host pinned at 3.09
// img/s and the DMU at its operating threshold.  Jittered steady
// arrivals at 0.5x the Eq. (1) capacity: at higher load the host backlog
// makes p99 swing by more than 10% between seeds.  The host float net
// and the BNN share the wall time, so this is where host-path changes
// show; `accuracy` is the cascade accuracy of Eq. (2).
class CascadeHost : public Workload {
 public:
  const char* name() const override { return "cascade_host"; }
  char host_model() const override { return 'C'; }

  void make_inputs(core::Workbench& wb, std::uint64_t seed) override {
    interval_ = wb.operating_design().steady_seconds_per_image();
    threshold_ = wb.operating_threshold();
    // Eq. (1) at the rerun share the operating threshold targets.
    const double capacity_hz = 1.0 / core::analytic_seconds_per_image(
                                         kHostSecondsC, interval_, 0.251);
    arrivals_ = jittered_arrivals(kImages, 0.5 * capacity_hz, mix(seed, 2));
    index_ = image_order(wb, kImages, mix(seed, 3));
    images_ = slice(wb, index_);
  }

  Replay replay(core::Workbench& wb, bool verify, Checks& checks) override {
    Replay r;
    const auto t0 = Clock::now();
    core::StreamSession::Config config;
    config.batch_size = kBatch;
    config.dmu_threshold = threshold_;
    core::StreamSession session(wb.compiled_bnn(), wb.operating_design(),
                                wb.model('C'), kHostSecondsC, wb.dmu(),
                                config);
    for (std::size_t i = 0; i < images_.size(); ++i) {
      session.submit(images_[i], arrivals_[i]);
    }
    session.flush();
    const std::vector<core::StreamResult> results = session.drain();
    r.wall_s = seconds_since(t0);

    Oracle oracle(wb, 'C', threshold_);
    Tally tally;
    Digest digest;
    std::vector<int> seen(images_.size(), 0);
    double last_ready = 0.0;
    for (const core::StreamResult& res : results) {
      ++r.offered;
      const std::size_t i = static_cast<std::size_t>(res.image_id);
      const bool fresh = i < seen.size() && seen[i]++ == 0;
      checks.expect(fresh, "stream image completed twice or unknown");
      if (!fresh) {
        ++r.failed;
        continue;
      }
      digest.add(res.image_id);
      digest.add(res.label);
      digest.add(res.ready_at);
      last_ready = std::max(last_ready, res.ready_at);
      if (res.status == core::ResultStatus::kShed) continue;
      count_served(tally, res.label, oracle.dataset_label(index_[i]),
                   res.served_by, res.rerun, res.latency());
      if (verify) oracle.check(checks, index_[i], res.label, res.served_by,
                               r.failed);
    }
    const std::int64_t missing =
        static_cast<std::int64_t>(std::count(seen.begin(), seen.end(), 0));
    r.failed += missing;
    checks.expect(missing == 0, "a stream image never completed");
    r.images = static_cast<std::int64_t>(images_.size());
    const double span_s = last_ready - arrivals_.front();
    fill_sim(r, tally, span_s, static_cast<double>(tally.served), 0.99);
    fill_stream(r, tally, session.stats(), span_s, interval_,
                kHostSecondsC);
    for (const auto& [key, value] : r.sim) digest.add(value);
    r.digest = digest.h;
    return r;
  }

 private:
  static constexpr Dim kImages = 2400;
  double interval_ = 0.0;
  float threshold_ = 0.5f;
  std::vector<double> arrivals_;
  std::vector<Dim> index_;
  std::vector<Tensor> images_;
};

// Scene workloads: SceneStreamSession (tile 64, halo 8, DMU at the
// operating threshold, Model A host) over 240 frames of a fixed scene.
// scene_static is a still camera with one re-noised 32-pixel block per
// frame on a 256x448 frame (28 tiles): most tiles hit the cache, so
// cropping, hashing and cache reads dominate the wall time.
// scene_churn pans a 180x320 frame (15 tiles, the same tile geometry on
// a quarter of the area so a replay stays under 3 s) with a 256-entry
// cache: every tile misses, is inserted and evicts, so a change that
// speeds hits but slows inserts shows up here.
class SceneWorkload : public Workload {
 public:
  SceneWorkload(const char* name, data::ScenePattern pattern, Dim height,
                Dim width, Dim cache_capacity)
      : name_(name), pattern_(pattern), height_(height), width_(width),
        cache_capacity_(cache_capacity) {}

  const char* name() const override { return name_; }
  bool uses_test_set() const override { return false; }
  bool uses_objects() const override { return true; }

  void make_inputs(core::Workbench& wb, std::uint64_t seed) override {
    // One fixed scene per workload; the seed picks which stretch of its
    // trace is replayed (which blocks change, where the pan starts).  A
    // fresh scene per seed would swing the escalation count, and with it
    // every frame latency, by more than any bound could absorb.
    data::SceneTraceConfig trace;
    trace.pattern = pattern_;
    trace.frames = kFrames + kSpareFrames;
    trace.seed = kSceneSeed;
    trace.change_rate = 0.005;  // kStatic: one 32-px block per frame
    trace.pan_dx = 2;
    trace.pan_dy = 1;
    trace.scene.height = height_;
    trace.scene.width = width_;
    trace_ = data::generate_scene_trace(wb.objects(), trace);
    const std::ptrdiff_t skip =
        static_cast<std::ptrdiff_t>(mix(seed, 4) % kSpareFrames);
    trace_.frames.erase(trace_.frames.begin(), trace_.frames.begin() + skip);
    trace_.frames.resize(static_cast<std::size_t>(kFrames));
    config_.tile = 64;
    config_.halo = 8;
    config_.batch_size = kBatch;
    config_.dmu_threshold = wb.operating_threshold();
    config_.cache_capacity = cache_capacity_;

    // Reference verdicts of an uncached session over the first frames:
    // the cached session must reproduce them byte for byte.
    data::SceneTrace head;
    head.frames.assign(trace_.frames.begin(),
                       trace_.frames.begin() + kCheckedFrames);
    core::SceneStreamSession::Config uncached = config_;
    uncached.cache_enabled = false;
    core::SceneStreamSession reference(
        wb.compiled_bnn(), wb.operating_design(), wb.model('A'),
        kHostSecondsA, wb.dmu(), uncached);
    reference.run(head);
    reference_ = reference.verdicts();
  }

  Replay replay(core::Workbench& wb, bool verify, Checks& checks) override {
    Replay r;
    const auto t0 = Clock::now();
    core::SceneStreamSession session(wb.compiled_bnn(),
                                     wb.operating_design(), wb.model('A'),
                                     kHostSecondsA, wb.dmu(), config_);
    core::SceneReport report;
    {
      ScopedSpan span(Site::kSceneRun);
      report = session.run(trace_);
    }
    r.wall_s = seconds_since(t0);

    const std::vector<core::TileVerdict>& verdicts = session.verdicts();
    const core::SceneStats& stats = report.stats;
    r.offered = kFrames;
    r.images = stats.tiles;
    const bool complete =
        report.frames == kFrames &&
        stats.tiles == kFrames * report.grid_tiles &&
        static_cast<std::int64_t>(verdicts.size()) == stats.tiles &&
        stats.cache_hits + stats.cache_misses == stats.tiles;
    checks.expect(complete, "scene run lost frames or tiles");
    if (!complete) r.failed += kFrames;
    // Fidelity to the uncached cascade over the checked frames: scene
    // tiles carry no dataset label, so this is their `accuracy`.
    std::int64_t same = 0;
    for (std::size_t i = 0; i < reference_.size() && i < verdicts.size();
         ++i) {
      same += std::memcmp(&reference_[i], &verdicts[i],
                          sizeof(core::TileVerdict)) == 0;
    }
    if (verify) {
      checks.expect(same == static_cast<std::int64_t>(reference_.size()),
                    "cached scene verdicts differ from the uncached run");
      r.failed += static_cast<std::int64_t>(reference_.size()) - same;
    }

    Digest digest;
    digest.bytes(verdicts.data(), verdicts.size() * sizeof(verdicts[0]));
    for (const core::FrameReport& f : report.per_frame) digest.add(f.ready_s);
    Tally frames;
    frames.served = report.frames;
    frames.correct = same;
    for (const core::FrameReport& f : report.per_frame) {
      frames.latencies.push_back(f.latency_s);
    }
    fill_sim(r, frames, report.total_s, static_cast<double>(report.frames),
             0.95);
    r.sim["accuracy"] = ratio(static_cast<double>(same),
                              static_cast<double>(reference_.size()));

    Tally tiles;
    tiles.fabric_slots = stats.cache_misses;
    tiles.host_served = stats.escalated;
    tiles.reruns = stats.escalated;
    fill_stream(r, tiles, report.supervisor, report.total_s,
                wb.operating_design().steady_seconds_per_image(),
                kHostSecondsA);
    r.counts["scene.hit_rate"] = report.hit_rate;
    r.counts["scene.evictions"] =
        static_cast<double>(stats.cache_evictions);
    r.counts["scene.escalation_rate"] = report.escalation_rate;
    r.counts["scene.hash_collisions"] =
        static_cast<double>(stats.hash_collisions);
    r.counts["scene.tiles"] = static_cast<double>(stats.tiles);
    r.expect.extract_tile_calls = stats.tiles;
    for (const auto& [key, value] : r.sim) digest.add(value);
    r.digest = digest.h;
    return r;
  }

 private:
  static constexpr Dim kFrames = 240;
  static constexpr std::uint64_t kSpareFrames = 16;
  static constexpr std::uint64_t kSceneSeed = 11;
  static constexpr std::ptrdiff_t kCheckedFrames = 24;
  const char* name_;
  data::ScenePattern pattern_;
  Dim height_, width_, cache_capacity_;
  data::SceneTrace trace_;
  core::SceneStreamSession::Config config_;
  std::vector<core::TileVerdict> reference_;
};

// fleet_chaos: 4 replicas + 2 host workers (Model A), full ABFT, CRC
// scrub every 4 dispatches, through the direct submit/flush API.
// Replica 0 dies mid-trace, replica 1 takes SEU weight flips, replica 2
// takes transient accumulator bit flips.  Jittered steady arrivals at
// 0.7x the healthy capacity.  Covers failover, exactly-once delivery and ABFT
// re-execution; every served label must still be right.
class FleetChaos : public Workload {
 public:
  const char* name() const override { return "fleet_chaos"; }
  bool uses_threshold() const override { return false; }

  void make_inputs(core::Workbench& wb, std::uint64_t seed) override {
    interval_ = wb.operating_design().steady_seconds_per_image();
    arrivals_ = jittered_arrivals(
        kImages, 0.7 * static_cast<double>(kReplicas) / interval_,
        mix(seed, 5));
    index_ = image_order(wb, kImages, mix(seed, 6));
    images_ = slice(wb, index_);
    core::FleetFaultPlan plan(kReplicas);
    plan.add(0, {core::FaultKind::kFabricStall, 10, Dim{1} << 40, 1.0, 1});
    plan.add(1, {core::FaultKind::kSeuWeightFlip, 6, 7, 1.0, 1});
    plan.add(1, {core::FaultKind::kSeuWeightFlip, 18, 19, 1.0, 1});
    plan.add(2, {core::FaultKind::kAccumulatorBitFlip, 3, 26, 1.0, 1});
    injectors_.clear();
    for (Dim r = 0; r < kReplicas; ++r) {
      injectors_.push_back(std::make_unique<core::FaultInjector>(
          core::replica_seed(mix(seed, 7), r), plan.plan_for(r)));
    }
  }

  Replay replay(core::Workbench& wb, bool verify, Checks& checks) override {
    Replay r;
    const auto t0 = Clock::now();
    core::StreamSession::Config session;
    session.batch_size = kBatch;
    session.dmu_threshold = 0.0f;
    session.watchdog_factor = 2.0;
    session.max_retries = 1;
    session.scrub_interval = 4;
    session.integrity = core::integrity::IntegrityMode::kFull;
    session.canary_interval = 8;
    session.auto_dispatch = false;
    session.host_fallback = false;
    core::FleetConfig config;
    config.batch_size = kBatch;
    config.host_workers = 2;
    std::vector<core::StreamSession> replicas;
    for (Dim i = 0; i < kReplicas; ++i) {
      replicas.emplace_back(wb.compiled_bnn(), wb.operating_design(),
                            wb.model('A'), kHostSecondsA, wb.dmu(), session,
                            injectors_[static_cast<std::size_t>(i)].get());
    }
    core::FleetScheduler fleet(config, std::move(replicas), &wb.model('A'),
                               kHostSecondsA);
    for (std::size_t i = 0; i < images_.size(); ++i) {
      fleet.submit(images_[i], arrivals_[i]);
    }
    fleet.flush();
    const std::vector<core::FleetResult> results = fleet.drain();
    r.wall_s = seconds_since(t0);

    const core::FleetReport report = fleet.report();
    Oracle oracle(wb, 'A', 0.0f);
    Tally tally;
    Digest digest;
    std::vector<int> seen(images_.size(), 0);
    Dim max_hops = 0;
    std::int64_t seu_mismatches = 0;
    for (const core::FleetResult& res : results) {
      ++r.offered;
      const std::size_t i = static_cast<std::size_t>(res.tag);
      const bool fresh = i < seen.size() && seen[i]++ == 0;
      checks.expect(fresh, "fleet request completed twice or unknown");
      if (!fresh) {
        ++r.failed;
        continue;
      }
      digest.add(res.tag);
      digest.add(res.label);
      digest.add(res.replica);
      digest.add(res.ready_at);
      max_hops = std::max(max_hops, res.hops);
      if (res.status == core::ResultStatus::kShed) continue;
      count_served(tally, res.label, oracle.dataset_label(index_[i]),
                   res.served_by, res.rerun, res.latency());
      if (!verify) continue;
      // An SEU corrupts stored weights, which ABFT does not audit (the
      // CRC scrubber repairs them within 4 dispatches), so replica 1's
      // fabric answers may differ in that window; they are counted,
      // not gated.
      if (res.replica == 1 && res.served_by == core::ServedBy::kFabric) {
        seu_mismatches += res.label != oracle.bnn_label(index_[i]);
        continue;
      }
      oracle.check(checks, index_[i], res.label, res.served_by, r.failed);
    }
    const std::int64_t missing =
        static_cast<std::int64_t>(std::count(seen.begin(), seen.end(), 0));
    r.failed += missing;
    checks.expect(missing == 0 && report.served == kImages,
                  "the fleet lost work");
    const core::SupervisorStats& s = report.supervisor;
    checks.expect(s.sdc_served_after_reexec == s.sdc_detected,
                  "an SDC detection was served without re-execution");
    r.images = kImages;
    fill_sim(r, tally, report.span_s, static_cast<double>(tally.served),
             0.99);
    fill_stream(r, tally, s, report.span_s,
                interval_ / static_cast<double>(kReplicas), kHostSecondsA);
    r.counts["fleet.dispatches"] =
        static_cast<double>(report.fleet.dispatches);
    r.counts["fleet.redispatched_batches"] =
        static_cast<double>(report.fleet.redispatched_batches);
    r.counts["fleet.host_fallback_images"] =
        static_cast<double>(report.fleet.host_fallback_images);
    r.counts["fleet.probes"] = static_cast<double>(report.fleet.probes);
    r.counts["fleet.max_hops"] = static_cast<double>(max_hops);
    if (verify) r.notes["seu_mismatches"] = static_cast<double>(seu_mismatches);
    // Each replica records its canary golden book at construction.
    r.expect.bnn_calls += kReplicas * session.canary_count;
    r.expect.fleet_submit_calls = kImages;
    for (const auto& [key, value] : r.sim) digest.add(value);
    r.digest = digest.h;
    return r;
  }

 private:
  static constexpr Dim kImages = 2000;
  static constexpr Dim kReplicas = 4;
  double interval_ = 0.0;
  std::vector<double> arrivals_;
  std::vector<Dim> index_;
  std::vector<Tensor> images_;
  std::vector<std::unique_ptr<core::FaultInjector>> injectors_;
};

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "serve_saturating") return std::make_unique<ServeSaturating>();
  if (name == "cascade_host") return std::make_unique<CascadeHost>();
  if (name == "scene_static") {
    return std::make_unique<SceneWorkload>(
        "scene_static", data::ScenePattern::kStatic, 256, 448, 4096);
  }
  if (name == "scene_churn") {
    return std::make_unique<SceneWorkload>(
        "scene_churn", data::ScenePattern::kPan, 180, 320, 256);
  }
  if (name == "fleet_chaos") return std::make_unique<FleetChaos>();
  return nullptr;
}

// ---------------------------------------------------------------- setup

core::WorkbenchConfig workbench_config(bool verbose) {
  core::WorkbenchConfig config;
  config.cache_dir = "mpcnn_cache_bench";
  config.verbose = verbose;
  return config;
}

struct SetupTimes {
  double total_s = 0.0;
  double load_s = 0.0;    ///< datasets/objects, compiled BNN, host model
  double score_s = 0.0;   ///< training-set BNN scores
  double dmu_s = 0.0;     ///< DMU training + operating threshold
  double design_s = 0.0;  ///< FINN operating-point search
};

/// Constructs a Workbench and pulls every artifact `w` uses.
std::unique_ptr<core::Workbench> build_workbench(const Workload& w,
                                                 SetupTimes& times) {
  const auto t0 = Clock::now();
  auto wb = std::make_unique<core::Workbench>(workbench_config(false));
  auto t = Clock::now();
  const auto lap = [&t](double& into) {
    into = seconds_since(t);
    t = Clock::now();
  };
  if (w.uses_test_set()) wb->test_set();
  if (w.uses_objects()) wb->objects();
  wb->compiled_bnn();
  wb->model(w.host_model());
  lap(times.load_s);
  wb->train_scores();
  lap(times.score_s);
  wb->dmu();
  if (w.uses_threshold()) wb->operating_threshold();
  lap(times.dmu_s);
  wb->operating_design();
  lap(times.design_s);
  times.total_s = seconds_since(t0);
  return wb;
}

/// Trains (or loads) every cached artifact any workload uses.
void prepare() {
  const auto t0 = Clock::now();
  core::Workbench wb(workbench_config(true));
  wb.test_set();
  wb.objects();
  wb.compiled_bnn();
  wb.model('A');
  wb.model('C');
  wb.dmu();
  wb.operating_threshold();
  wb.operating_design();
  std::printf("{\"prepare_s\": %.6f}\n", seconds_since(t0));
}

// ------------------------------------------------------------------ run

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  std::string out;
  std::string chrome_trace;
  bool check = false;
  bool prepare = false;
};

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      MPCNN_CHECK(i + 1 < argc, arg << " needs a value");
      return argv[++i];
    };
    if (arg == "--workload") {
      o.workload = value();
    } else if (arg == "--seed") {
      o.seed = std::stoull(value());
    } else if (arg == "--seconds") {
      o.seconds = std::stod(value());
    } else if (arg == "--out") {
      o.out = value();
    } else if (arg == "--chrome-trace") {
      o.chrome_trace = value();
    } else if (arg == "--check") {
      o.check = true;
    } else if (arg == "--prepare") {
      o.prepare = true;
    } else {
      MPCNN_CHECK(false, "unknown argument " << arg);
    }
  }
  MPCNN_CHECK(o.seconds >= 0.0, "--seconds must be >= 0");
  return o;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double p10(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return core::percentile_nearest_rank(v, 10.0);
}

// Per-layer metrics of the traced run, in report order.  Span-derived
// values are averaged over the traced replays; counters come from the
// program and repeat on every replay.
const char* const kLayerMetrics[] = {
    "workbench.load_s", "workbench.score_s", "workbench.dmu_s",
    "workbench.design_s", "bnn.calls", "bnn.self_s", "bnn.us_per_img",
    "bnn.share", "nn.calls", "nn.self_s", "nn.us_per_img", "nn.share",
    "gemm.self_s", "gemm.share_of_nn", "dmu.calls", "dmu.rerun_ratio",
    "stream.dispatches", "stream.self_s", "stream.batch_fill",
    "stream.sim_fabric_util", "stream.sim_host_util", "serve.self_s",
    "serve.sim_queue_wait_p50_ms", "serve.sim_queue_wait_p99_ms",
    "serve.shed_slo", "serve.mean_batch_fill", "fleet.self_s",
    "fleet.dispatches", "fleet.redispatched_batches",
    "fleet.host_fallback_images", "fleet.probes", "fleet.max_hops",
    "fault.watchdog_timeouts", "fault.retries", "fault.scrub_repairs",
    "fault.seu_flips", "integrity.sdc_detected", "integrity.sdc_corrected",
    "integrity.reexec_images", "integrity.canary_runs", "scene.self_s",
    "scene.us_per_tile", "scene.hit_rate", "scene.evictions",
    "scene.escalation_rate", "scene.hash_collisions",
    "data.extract_tile_calls", "data.extract_tile_s", "trace.overhead_frac",
};

/// Sums span totals over a set of sites.
mpcnn_bench::SiteTotals sum_sites(const mpcnn_bench::Summary& s,
                                  std::initializer_list<Site> sites) {
  mpcnn_bench::SiteTotals t;
  for (const Site site : sites) t.add(s[static_cast<std::size_t>(site)]);
  return t;
}

constexpr std::initializer_list<Site> kBnnSites = {
    Site::kBnnRunReference, Site::kBnnRunReferenceBatch};
constexpr std::initializer_list<Site> kNnSites = {Site::kNnPredict,
                                                  Site::kNnForward};
constexpr std::initializer_list<Site> kGemmSites = {Site::kGemm,
                                                    Site::kGemmAt,
                                                    Site::kGemmBt};
constexpr std::initializer_list<Site> kStreamSites = {
    Site::kStreamSubmit, Site::kStreamFlush, Site::kStreamFlushAt,
    Site::kStreamHostRoute};
constexpr std::initializer_list<Site> kFleetSites = {
    Site::kFleetDispatch, Site::kFleetHostRoute, Site::kFleetPlan,
    Site::kFleetSubmit, Site::kFleetFlush};

/// Span counts of one traced replay against the program's counters.
void cross_check(const mpcnn_bench::Summary& s, const Expect& e,
                 Checks& checks) {
  const auto count = [&](Site site) { return sum_sites(s, {site}).calls; };
  const auto expect_eq = [&](const char* what, std::int64_t spans,
                             std::int64_t want) {
    if (want < 0) return;
    checks.expect(spans == want, std::string("trace cross-check: ") + what +
                                     " spans " + std::to_string(spans) +
                                     " != program count " +
                                     std::to_string(want));
  };
  expect_eq("bnn.run_reference", count(Site::kBnnRunReference),
            e.bnn_calls);
  expect_eq("nn.predict", count(Site::kNnPredict), e.nn_calls);
  expect_eq("dmu.confidence", count(Site::kDmuConfidence), e.dmu_calls);
  expect_eq("fabric-running stream",
            sum_sites(s, kStreamSites).with_bnn_child, e.fabric_batches);
  expect_eq("data.extract_tile", count(Site::kDataExtractTile),
            e.extract_tile_calls);
  expect_eq("fleet.dispatch", count(Site::kFleetDispatch),
            e.fleet_dispatch_calls);
  expect_eq("fleet.submit", count(Site::kFleetSubmit), e.fleet_submit_calls);
}

std::map<std::string, double> layer_metrics(
    const mpcnn_bench::Summary& s, int traced, double traced_wall_mean,
    const Replay& first, const SetupTimes& setup, double overhead_frac) {
  std::map<std::string, double> m;
  for (const char* name : kLayerMetrics) m[name] = 0.0;
  for (const auto& [key, value] : first.counts) {
    if (m.count(key)) m[key] = value;
  }
  const double n = std::max(traced, 1);
  const auto secs = [&](std::int64_t ns) { return 1e-9 * ns / n; };
  const auto calls = [&](std::int64_t c) { return c / n; };
  m["workbench.load_s"] = setup.load_s;
  m["workbench.score_s"] = setup.score_s;
  m["workbench.dmu_s"] = setup.dmu_s;
  m["workbench.design_s"] = setup.design_s;

  const mpcnn_bench::SiteTotals bnn = sum_sites(s, kBnnSites);
  m["bnn.calls"] = calls(bnn.calls);
  m["bnn.self_s"] = secs(bnn.self_ns);
  m["bnn.us_per_img"] = 1e6 * ratio(1e-9 * bnn.total_ns, bnn.calls);
  m["bnn.share"] = ratio(secs(bnn.total_ns), traced_wall_mean);
  const mpcnn_bench::SiteTotals nn = sum_sites(s, kNnSites);
  m["nn.calls"] = calls(nn.calls);
  m["nn.self_s"] = secs(nn.self_ns);
  m["nn.us_per_img"] = 1e6 * ratio(1e-9 * nn.total_ns, nn.calls);
  m["nn.share"] = ratio(secs(nn.total_ns), traced_wall_mean);
  const mpcnn_bench::SiteTotals gemm = sum_sites(s, kGemmSites);
  m["gemm.self_s"] = secs(gemm.self_ns);
  m["gemm.share_of_nn"] = ratio(gemm.total_ns, nn.total_ns);
  m["dmu.calls"] = calls(sum_sites(s, {Site::kDmuConfidence}).calls);
  m["stream.self_s"] = secs(sum_sites(s, kStreamSites).self_ns);
  m["serve.self_s"] = secs(sum_sites(s, {Site::kServeFinish}).self_ns);
  m["fleet.self_s"] = secs(sum_sites(s, kFleetSites).self_ns);
  const mpcnn_bench::SiteTotals scene = sum_sites(s, {Site::kSceneRun});
  m["scene.self_s"] = secs(scene.self_ns);
  const auto tiles = first.counts.find("scene.tiles");
  m["scene.us_per_tile"] =
      tiles == first.counts.end()
          ? 0.0
          : 1e6 * ratio(secs(scene.self_ns), tiles->second);
  const mpcnn_bench::SiteTotals tile = sum_sites(s, {Site::kDataExtractTile});
  m["data.extract_tile_calls"] = calls(tile.calls);
  m["data.extract_tile_s"] = secs(tile.total_ns);
  m["trace.overhead_frac"] = overhead_frac;
  MPCNN_CHECK(m.size() == std::size(kLayerMetrics),
              "a per-layer metric is missing from kLayerMetrics");
  return m;
}

void write_map(std::FILE* f, const char* key,
               const std::map<std::string, double>& m, bool last) {
  std::fprintf(f, "  \"%s\": {", key);
  bool first = true;
  for (const auto& [name, value] : m) {
    std::fprintf(f, "%s\n    \"%s\": %.17g", first ? "" : ",", name.c_str(),
                 value);
    first = false;
  }
  std::fprintf(f, "\n  }%s\n", last ? "" : ",");
}

int run(const Options& opt) {
  std::unique_ptr<Workload> workload = make_workload(opt.workload);
  MPCNN_CHECK(workload != nullptr, "unknown workload '" << opt.workload
                                       << "' (serve_saturating, "
                                          "cascade_host, scene_static, "
                                          "scene_churn, fleet_chaos)");
  core::set_thread_count(1);

  // setup_s: full constructions on a warm cache; the last one serves.
  std::vector<SetupTimes> setups;
  std::unique_ptr<core::Workbench> wb;
  for (int k = 0; k < kSetups; ++k) {
    wb.reset();
    setups.emplace_back();
    wb = build_workbench(*workload, setups.back());
  }
  const auto median_of = [&setups](double SetupTimes::*field) {
    std::vector<double> values;
    for (const SetupTimes& t : setups) values.push_back(t.*field);
    return median(values);
  };
  const SetupTimes setup{
      median_of(&SetupTimes::total_s), median_of(&SetupTimes::load_s),
      median_of(&SetupTimes::score_s), median_of(&SetupTimes::dmu_s),
      median_of(&SetupTimes::design_s)};

  workload->make_inputs(*wb, opt.seed);
  Checks checks;

  if (opt.check) {
    // Determinism self-check: the same inputs at 1 and 2 threads must
    // give bit-identical reports.
    const Replay one = workload->replay(*wb, true, checks);
    core::set_thread_count(2);
    const Replay two = workload->replay(*wb, false, checks);
    checks.expect(one.digest == two.digest && one.sim == two.sim &&
                      one.counts == two.counts,
                  "reports differ between 1 and 2 threads");
    std::printf("{\"correct\": %s, \"digest_1t\": \"%016llx\", "
                "\"digest_2t\": \"%016llx\"}\n",
                checks.count() == 0 ? "true" : "false",
                static_cast<unsigned long long>(one.digest),
                static_cast<unsigned long long>(two.digest));
    for (const std::string& m : checks.messages()) {
      std::fprintf(stderr, "check failed: %s\n", m.c_str());
    }
    return checks.count() == 0 ? 0 : 1;
  }

  // Warm-up replay: oracle-checked, defines the reference digest, not
  // timed into img_per_s.
  const Replay first = workload->replay(*wb, true, checks);
  std::int64_t attempted = first.offered;
  std::int64_t failed = first.failed;

  const bool traced_binary = MPCNN_BENCH_TRACED != 0;
  std::vector<double> walls, traced_walls;
  mpcnn_bench::Summary spans{};
  bool chrome_written = opt.chrome_trace.empty();
  double replay_time = 0.0;
  for (int i = 0;; ++i) {
    const bool traced = traced_binary && i % 2 == 1;
    const int timed = static_cast<int>(walls.size());
    const int timed_traced = static_cast<int>(traced_walls.size());
    if (replay_time >= opt.seconds && timed >= kMinReplays &&
        (!traced_binary || timed_traced >= kMinReplays)) {
      break;
    }
    mpcnn_bench::set_tracing(traced);
    const Replay r = workload->replay(*wb, false, checks);
    mpcnn_bench::set_tracing(false);
    replay_time += r.wall_s;
    attempted += r.offered;
    failed += r.failed;
    const bool same = r.digest == first.digest && r.sim == first.sim &&
                      r.counts == first.counts;
    checks.expect(same, "replay " + std::to_string(i) +
                            " sim report differs from the first");
    if (!same) failed += r.offered;
    if (!traced) {
      walls.push_back(r.wall_s);
      continue;
    }
    traced_walls.push_back(r.wall_s);
    if (!chrome_written) {
      chrome_written = true;
      checks.expect(mpcnn_bench::write_chrome_trace(opt.chrome_trace),
                    "cannot write " + opt.chrome_trace);
    }
    const mpcnn_bench::Summary s = mpcnn_bench::summarize();
    mpcnn_bench::clear_spans();
    cross_check(s, r.expect, checks);
    for (std::size_t k = 0; k < mpcnn_bench::kSiteCount; ++k) {
      spans[k].add(s[k]);
    }
  }

  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const double images = static_cast<double>(first.images);
  std::map<std::string, double> e2e = first.sim;
  e2e["setup_s"] = setup.total_s;
  e2e["img_per_s"] = images / p10(walls);
  e2e["peak_rss_mb"] = static_cast<double>(usage.ru_maxrss) / 1024.0;

  std::FILE* f = opt.out.empty() ? stdout : std::fopen(opt.out.c_str(), "w");
  MPCNN_CHECK(f != nullptr, "cannot write " << opt.out);
  std::fprintf(f, "{\n  \"workload\": \"%s\",\n  \"seed\": %llu,\n",
               workload->name(), static_cast<unsigned long long>(opt.seed));
  std::fprintf(f, "  \"correct\": %s,\n  \"attempted\": %lld,\n",
               checks.count() == 0 ? "true" : "false",
               static_cast<long long>(attempted));
  std::fprintf(f, "  \"failed\": %lld,\n  \"failures\": [",
               static_cast<long long>(failed));
  for (std::size_t i = 0; i < checks.messages().size(); ++i) {
    std::fprintf(f, "%s\"%s\"", i ? ", " : "", checks.messages()[i].c_str());
  }
  std::fprintf(f, "],\n");
  write_map(f, "end_to_end", e2e, false);
  if (traced_binary) {
    const double traced_img_per_s = images / p10(traced_walls);
    double mean = 0.0;
    for (const double w : traced_walls) mean += w;
    mean /= static_cast<double>(traced_walls.size());
    write_map(f, "per_layer",
              layer_metrics(spans, static_cast<int>(traced_walls.size()),
                            mean, first, setup,
                            1.0 - traced_img_per_s / e2e["img_per_s"]),
              false);
  }
  std::map<std::string, double> context = first.counts;
  context.insert(first.notes.begin(), first.notes.end());
  context["threads"] = core::thread_count();
  context["replays"] = static_cast<double>(walls.size());
  context["traced_replays"] = static_cast<double>(traced_walls.size());
  context["replay_wall_p10_s"] = p10(walls);
  context["replay_wall_median_s"] = median(walls);
  context["img_per_s_median_replay"] = images / median(walls);
  context["images_per_replay"] = images;
  context["offered_per_replay"] = static_cast<double>(first.offered);
  std::fprintf(f, "  \"cpu_signature\": \"%s\",\n  \"isa\": \"%s\",\n",
               core::cpu_signature().c_str(),
               core::isa_name(core::active_isa()));
  write_map(f, "context", context, true);
  std::fprintf(f, "}\n");
  if (f != stdout) std::fclose(f);
  for (const std::string& m : checks.messages()) {
    std::fprintf(stderr, "check failed: %s\n", m.c_str());
  }
  return checks.count() == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  // Tuned block sizes never change results, but a stray tuning cache
  // would change timings: always run on the built-in defaults.
  setenv("MPCNN_TUNE", "off", 1);
  try {
    const Options opt = parse(argc, argv);
    if (opt.prepare) {
      prepare();
      return 0;
    }
    return run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mpcnn_bench: %s\n", e.what());
    return 2;
  }
}
