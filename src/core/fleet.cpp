#include "core/fleet.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "io/artifact.hpp"
#include "tensor/error.hpp"

namespace mpcnn::core {
namespace {

// EWMA weight on history: health = decay·health + (1−decay)·sample.
constexpr double kHealthDecay = 0.6;
// Routing cost inflation at health 0: cost × (1 + penalty·(1−h)).
constexpr double kBrownoutPenalty = 3.0;
// EWMA weight on the latency-spike history (completion overruns).
constexpr double kSpikeDecay = 0.5;
// Health granted by a successful recovery probe — re-admission is
// gradual, not a jump back to 1.0.
constexpr double kReadmitHealth = 0.5;

}  // namespace

FleetScheduler::FleetScheduler(FleetConfig config,
                               std::vector<StreamSession> replicas,
                               nn::Net* host_net,
                               double host_seconds_per_image)
    : config_(config),
      host_net_(host_net),
      host_seconds_per_image_(host_seconds_per_image) {
  MPCNN_CHECK(!replicas.empty(), "a fleet needs at least one replica");
  MPCNN_CHECK(config_.batch_size >= 1, "batch size");
  MPCNN_CHECK(config_.host_workers >= 0, "host_workers must be >= 0");
  MPCNN_CHECK(config_.max_redispatch >= 0,
              "max_redispatch must be >= 0");
  MPCNN_CHECK(config_.probe_interval >= 0,
              "probe_interval must be >= 0");
  bool any_drain_mode = false;
  for (StreamSession& session : replicas) {
    MPCNN_CHECK(!session.config().auto_dispatch,
                "fleet sessions must be built with auto_dispatch off "
                "(the fleet owns batch assembly)");
    MPCNN_CHECK(session.config().queue_capacity == 0,
                "the fleet owns the bounded queue; session "
                "queue_capacity must be 0");
    MPCNN_CHECK(session.submitted() == 0, "fleet sessions must be fresh");
    if (!session.config().host_fallback) any_drain_mode = true;
    replicas_.emplace_back(std::move(session));
  }
  if (config_.host_workers > 0) {
    MPCNN_CHECK(host_net_ != nullptr,
                "fleet host workers need a host float network");
    MPCNN_CHECK(host_seconds_per_image_ > 0.0,
                "host worker latency must be positive");
    host_free_.assign(static_cast<std::size_t>(config_.host_workers), 0.0);
  }
  MPCNN_CHECK(!any_drain_mode || config_.host_workers >= 1,
              "sessions with host_fallback off park batches the fleet "
              "must be able to serve as a last resort — configure at "
              "least one host worker");
}

const StreamSession& FleetScheduler::replica(Dim r) const {
  MPCNN_CHECK(r >= 0 && r < replica_count(), "replica " << r);
  return replicas_[static_cast<std::size_t>(r)].session;
}

double FleetScheduler::replica_health(Dim r) const {
  MPCNN_CHECK(r >= 0 && r < replica_count(), "replica " << r);
  return replicas_[static_cast<std::size_t>(r)].health;
}

double FleetScheduler::earliest_free() const {
  double free = replicas_.front().session.fpga_busy_until();
  for (const Replica& rep : replicas_) {
    free = std::min(free, rep.session.fpga_busy_until());
  }
  return free;
}

FleetScheduler::Plan FleetScheduler::plan_route(
    Dim n, double now, const std::vector<char>* tried) const {
  const auto excluded = [&](std::size_t r) {
    return tried != nullptr && (*tried)[r] != 0;
  };
  const auto completion = [&](const Replica& rep) {
    const double busy = rep.session.fpga_busy_until();
    const double start = std::max(now, busy);
    const bool hot = busy > 0.0 && now <= busy;
    return start +
           rep.session.expected_batch_seconds(std::max<Dim>(n, 1), hot);
  };

  // A due recovery probe takes priority: a degraded replica only ever
  // re-admits through a real batch, and the cadence bounds how much
  // traffic the probes can cost.
  if (config_.routing == RoutePolicy::kHealthCost &&
      config_.probe_interval > 0) {
    for (std::size_t r = 0; r < replicas_.size(); ++r) {
      const Replica& rep = replicas_[r];
      if (excluded(r)) continue;
      if (rep.session.fabric_state() != FabricState::kDegraded) continue;
      if (batches_seen_ - rep.last_probe_batch < config_.probe_interval) {
        continue;
      }
      // Optimistic estimate: the probe is priced as if the fabric works
      // — its failure cost is the bounce, not the plan.
      return Plan{static_cast<Dim>(r), completion(rep), true};
    }
  }

  Plan best;
  double best_cost = 0.0;
  for (std::size_t r = 0; r < replicas_.size(); ++r) {
    const Replica& rep = replicas_[r];
    if (excluded(r)) continue;
    double cost = 0.0;
    double done = 0.0;
    if (config_.routing == RoutePolicy::kEarliestFree) {
      // The pre-fleet serve rule, bit-compatible with it: earliest-free
      // fabric wins, lowest index breaks ties.
      cost = rep.session.fpga_busy_until();
      done = completion(rep);
    } else {
      if (rep.session.fabric_state() == FabricState::kDegraded) continue;
      if (rep.health < kHealthFloor) continue;
      done = completion(rep);
      cost = (done - now) * (1.0 + (1.0 - rep.health) * kBrownoutPenalty);
    }
    if (best.replica < 0 || cost < best_cost) {
      best.replica = static_cast<Dim>(r);
      best.expected_done = done;
      best_cost = cost;
    }
  }
  if (best.replica < 0) {
    // No routable fabric replica: the host workers take it.
    double free = now;
    if (!host_free_.empty()) {
      free = host_free_.front();
      for (const double f : host_free_) free = std::min(free, f);
    }
    best.expected_done =
        std::max(now, free) +
        static_cast<double>(std::max<Dim>(n, 1)) * host_seconds_per_image_;
  }
  return best;
}

FleetScheduler::Plan FleetScheduler::plan(Dim n, double now) const {
  return plan_route(n, now, nullptr);
}

void FleetScheduler::update_health(Replica& rep,
                                   const SupervisorStats& before,
                                   double now, double expected_done,
                                   bool served) {
  const SupervisorStats& after = rep.session.stats();
  const double timeouts = static_cast<double>(
      after.watchdog_timeouts - before.watchdog_timeouts);
  const double hits =
      static_cast<double>((after.scrub_repairs - before.scrub_repairs) +
                          (after.seu_flips - before.seu_flips));
  // Silent-data-corruption signals: checksum detections and deviating
  // canary probes both mean the replica's datapath is actively lying.
  const double sdc = static_cast<double>(
      (after.sdc_detected - before.sdc_detected) +
      (after.canary_failures - before.canary_failures));
  double sample = 0.0;
  if (served) {
    // Latency-spike EWMA: how far past the Eq. (3)–(5) estimate the
    // fabric actually finished (retries and DMA stumbles stretch it).
    const double actual = rep.session.fpga_busy_until();
    double overrun = 0.0;
    if (expected_done > now && actual > expected_done) {
      overrun = (actual - now) / (expected_done - now) - 1.0;
    }
    rep.spike_ewma = kSpikeDecay * rep.spike_ewma +
                     (1.0 - kSpikeDecay) * std::min(overrun, 4.0);
    sample = 1.0 - 0.35 * std::min(timeouts, 2.0) -
             0.15 * std::min(hits, 2.0) -
             0.25 * std::min(rep.spike_ewma, 2.0) -
             0.2 * std::min(sdc, 2.0);
    sample = std::clamp(sample, 0.0, 1.0);
  }
  // A batch the replica failed to serve scores zero: brownouts shed
  // load gradually as the EWMA sinks, rather than flapping on a single
  // bad dispatch.
  rep.health = kHealthDecay * rep.health + (1.0 - kHealthDecay) * sample;
}

void FleetScheduler::dispatch(std::vector<Tagged> batch, double now) {
  MPCNN_CHECK(!batch.empty(), "dispatch of an empty batch");
  ++stats_.batches;
  ++batches_seen_;
  double at = now;
  std::vector<char> tried(replicas_.size(), 0);
  for (int hop = 0;; ++hop) {
    if (hop > config_.max_redispatch) {
      serve_on_host_workers(std::move(batch), at, hop);
      return;
    }
    const Plan route =
        plan_route(static_cast<Dim>(batch.size()), at, &tried);
    if (route.replica < 0) {
      serve_on_host_workers(std::move(batch), at, hop);
      return;
    }
    Replica& rep = replicas_[static_cast<std::size_t>(route.replica)];
    ++stats_.dispatches;
    ++rep.dispatches;
    if (route.probe) {
      ++stats_.probes;
      ++rep.probes;
      rep.last_probe_batch = batches_seen_;
      rep.session.scrub_now();
    }
    const bool was_degraded =
        rep.session.fabric_state() == FabricState::kDegraded;
    const SupervisorStats before = rep.session.stats();
    for (Tagged& request : batch) {
      const double submit_at =
          std::max(request.arrival, rep.last_submitted);
      rep.last_submitted = submit_at;
      rep.session.submit(request.image, submit_at);
      rep.sid_to_tag.push_back(request.tag);
      rep.sid_hops.push_back(static_cast<Dim>(hop));
    }
    rep.session.flush_at(at);
    std::vector<StreamSession::UnservedWork> unserved =
        rep.session.take_unserved();
    update_health(rep, before, at, route.expected_done,
                  unserved.empty());
    if (unserved.empty()) {
      ++rep.served_batches;
      if (was_degraded &&
          rep.session.fabric_state() == FabricState::kOk) {
        // The probe came back clean: gradual re-admission.
        ++stats_.probe_successes;
        ++stats_.readmissions;
        ++rep.readmissions;
        rep.health = std::max(rep.health, kReadmitHealth);
      }
      return;
    }
    // The replica parked the batch (degradation, failed probe, or the
    // hedging bound): drain it to the next-best peer.
    ++rep.bounced_batches;
    ++stats_.redispatched_batches;
    stats_.redispatched_images += static_cast<Dim>(unserved.size());
    if (rep.session.stats().abandoned_hedges > before.abandoned_hedges) {
      ++stats_.hedged_batches;
    }
    rep.last_probe_batch = batches_seen_;  // restart the probe cadence
    tried[static_cast<std::size_t>(route.replica)] = 1;
    double abandoned = at;
    std::vector<Tagged> bounced;
    bounced.reserve(unserved.size());
    for (StreamSession::UnservedWork& work : unserved) {
      bounced.push_back(
          Tagged{rep.sid_to_tag[static_cast<std::size_t>(work.id)],
                 std::move(work.image), work.arrival});
      abandoned = std::max(abandoned, work.abandoned_at);
    }
    batch = std::move(bounced);
    at = abandoned;
  }
}

FleetResult FleetScheduler::host_serve_one(const Tensor& image,
                                           double arrival,
                                           double not_before, Dim tag,
                                           Dim hops, ServedBy by) {
  MPCNN_CHECK(!host_free_.empty(),
              "no fleet host workers configured");
  std::size_t worker = 0;
  for (std::size_t w = 1; w < host_free_.size(); ++w) {
    if (host_free_[w] < host_free_[worker]) worker = w;
  }
  const double start = std::max(not_before, host_free_[worker]);
  const double done = start + host_seconds_per_image_;
  host_free_[worker] = done;
  host_net_->set_training(false);
  FleetResult result;
  result.tag = tag;
  result.label = host_net_->predict(image).front();
  result.bnn_label = -1;  // the fabric never saw this image
  result.confidence = 0.0f;
  result.rerun = by == ServedBy::kHostDegraded;
  result.status = by == ServedBy::kHostDegraded ? ResultStatus::kDegraded
                                                : ResultStatus::kOk;
  result.served_by = by;
  result.replica = -1;
  result.hops = hops;
  result.submitted_at = arrival;
  result.ready_at = done;
  host_results_.push_back(result);
  return result;
}

void FleetScheduler::serve_on_host_workers(std::vector<Tagged> batch,
                                           double at, Dim hops) {
  ++stats_.host_fallback_batches;
  for (Tagged& request : batch) {
    ++stats_.host_fallback_images;
    host_serve_one(request.image, request.arrival, at, request.tag, hops,
                   ServedBy::kHostDegraded);
  }
}

Dim FleetScheduler::host_route(const Tensor& image, double arrival,
                               double not_before, Dim tag,
                               Dim replica_hint) {
  if (!host_free_.empty()) {
    ++stats_.host_routed;
    host_serve_one(image, arrival, not_before, tag, 0,
                   ServedBy::kHostRouted);
    return tag;
  }
  // No fleet workers: the planned replica's own host serves it (the
  // pre-fleet behaviour; counted in that session's slo_host_routed).
  MPCNN_CHECK(replica_hint >= 0 && replica_hint < replica_count(),
              "replica " << replica_hint);
  Replica& rep = replicas_[static_cast<std::size_t>(replica_hint)];
  rep.session.host_route(image, arrival, not_before);
  rep.sid_to_tag.push_back(tag);
  rep.sid_hops.push_back(0);
  return tag;
}

Dim FleetScheduler::submit(const Tensor& image, double arrival) {
  MPCNN_CHECK(arrival >= last_arrival_,
              "arrival times must be monotone (got "
                  << arrival << " after " << last_arrival_ << ")");
  last_arrival_ = arrival;
  Tagged request;
  request.tag = next_tag_++;
  request.image = image;
  request.arrival = arrival;
  pending_.push_back(std::move(request));
  const Dim tag = next_tag_ - 1;
  if (static_cast<Dim>(pending_.size()) >= config_.batch_size) {
    std::vector<Tagged> batch = std::move(pending_);
    pending_.clear();
    dispatch(std::move(batch), arrival);
  }
  return tag;
}

void FleetScheduler::flush() {
  if (pending_.empty()) return;
  std::vector<Tagged> batch = std::move(pending_);
  pending_.clear();
  dispatch(std::move(batch), last_arrival_);
}

void FleetScheduler::note_result(const FleetResult& result) {
  if (!any_result_ || result.submitted_at < first_submit_) {
    first_submit_ = result.submitted_at;
  }
  if (!any_result_ || result.ready_at > last_ready_) {
    last_ready_ = result.ready_at;
  }
  any_result_ = true;
  ++served_count_;
}

std::vector<FleetResult> FleetScheduler::drain() {
  std::vector<FleetResult> out = std::move(host_results_);
  host_results_.clear();
  for (std::size_t r = 0; r < replicas_.size(); ++r) {
    Replica& rep = replicas_[r];
    for (const StreamResult& sres : rep.session.drain()) {
      MPCNN_CHECK(static_cast<std::size_t>(sres.image_id) <
                      rep.sid_to_tag.size(),
                  "replica " << r << " produced an unknown image id "
                             << sres.image_id);
      FleetResult result;
      result.tag =
          rep.sid_to_tag[static_cast<std::size_t>(sres.image_id)];
      result.label = sres.label;
      result.bnn_label = sres.bnn_label;
      result.rerun = sres.rerun;
      result.confidence = sres.confidence;
      result.status = sres.status;
      result.served_by = sres.served_by;
      result.replica = static_cast<Dim>(r);
      result.hops = rep.sid_hops[static_cast<std::size_t>(sres.image_id)];
      result.submitted_at = sres.submitted_at;
      result.ready_at = sres.ready_at;
      out.push_back(result);
    }
  }
  // Completion order with the caller's tag as the deterministic
  // tie-break — the same rule the serve trace and StreamSession use.
  std::stable_sort(out.begin(), out.end(),
                   [](const FleetResult& a, const FleetResult& b) {
                     if (a.ready_at != b.ready_at) {
                       return a.ready_at < b.ready_at;
                     }
                     return a.tag < b.tag;
                   });
  for (const FleetResult& result : out) note_result(result);
  return out;
}

SupervisorStats FleetScheduler::aggregate_supervisor() const {
  SupervisorStats total;
  for (const Replica& rep : replicas_) {
    const SupervisorStats& s = rep.session.stats();
    total.dispatches += s.dispatches;
    total.fabric_batches += s.fabric_batches;
    total.degraded_batches += s.degraded_batches;
    total.watchdog_timeouts += s.watchdog_timeouts;
    total.retries += s.retries;
    total.degraded_entries += s.degraded_entries;
    total.recoveries += s.recoveries;
    total.scrub_cycles += s.scrub_cycles;
    total.scrub_repairs += s.scrub_repairs;
    total.seu_flips += s.seu_flips;
    total.corrupted_inputs += s.corrupted_inputs;
    total.shed += s.shed;
    total.blocked += s.blocked;
    total.drained_batches += s.drained_batches;
    total.drained_images += s.drained_images;
    total.abandoned_hedges += s.abandoned_hedges;
    total.admission_shed += s.admission_shed;
    total.slo_shed += s.slo_shed;
    total.slo_host_routed += s.slo_host_routed;
    total.sdc_detected += s.sdc_detected;
    total.sdc_corrected += s.sdc_corrected;
    total.sdc_served_after_reexec += s.sdc_served_after_reexec;
    total.canary_runs += s.canary_runs;
    total.canary_failures += s.canary_failures;
    total.compute_faults_fired += s.compute_faults_fired;
  }
  total.slo_host_routed += stats_.host_routed;
  return total;
}

FleetReport FleetScheduler::report() const {
  FleetReport report;
  report.fleet = stats_;
  report.supervisor = aggregate_supervisor();
  for (const Replica& rep : replicas_) {
    ReplicaReport rr;
    rr.dispatches = rep.dispatches;
    rr.served_batches = rep.served_batches;
    rr.bounced_batches = rep.bounced_batches;
    rr.probes = rep.probes;
    rr.readmissions = rep.readmissions;
    rr.health = rep.health;
    rr.spike_ewma = rep.spike_ewma;
    rr.state = rep.session.fabric_state();
    rr.stats = rep.session.stats();
    report.replicas.push_back(rr);
    if (rr.state == FabricState::kDegraded) ++report.degraded_replicas;
  }
  report.all_fabric_degraded =
      report.degraded_replicas == replica_count();
  report.served = served_count_;
  if (any_result_) {
    report.span_s = std::max(last_ready_ - first_submit_, 1e-12);
    report.throughput_fps =
        static_cast<double>(served_count_) / report.span_s;
  }
  return report;
}

// ------------------------------------------------------------- plan file

namespace {

constexpr io::ArtifactMagic kFleetPlanMagic{'M', 'P', 'F', 'P'};
constexpr std::uint32_t kFleetPlanVersion = 1;
// Load-time sanity bounds: generous for any real scenario, tight enough
// that a hostile header can never drive a huge allocation on its own.
constexpr std::uint64_t kMaxReplicas = 1024;
constexpr std::uint64_t kMaxHostWorkers = 4096;
constexpr std::uint64_t kMaxBatch = 1 << 16;
constexpr std::uint64_t kMaxWindowCount = 1 << 20;
// One serialized FaultWindow: u32 kind + 2×i64 + f64 + i64.
constexpr std::size_t kWindowBytes = 4 + 8 + 8 + 8 + 8;

}  // namespace

void save_fleet_plan(const FleetPlanFile& plan, const std::string& path) {
  MPCNN_CHECK(plan.replicas >= 1 &&
                  plan.replicas <= static_cast<Dim>(kMaxReplicas),
              "fleet plan replicas " << plan.replicas);
  MPCNN_CHECK(plan.host_workers >= 0 &&
                  plan.host_workers <= static_cast<Dim>(kMaxHostWorkers),
              "fleet plan host workers " << plan.host_workers);
  MPCNN_CHECK(plan.batch_size >= 1 &&
                  plan.batch_size <= static_cast<Dim>(kMaxBatch),
              "fleet plan batch size " << plan.batch_size);
  MPCNN_CHECK(std::isfinite(plan.rate_hz) && plan.rate_hz >= 0.0,
              "fleet plan rate must be finite and >= 0");
  MPCNN_CHECK(std::isfinite(plan.duration_s) && plan.duration_s > 0.0,
              "fleet plan duration must be finite and positive");
  io::ArtifactWriter writer(kFleetPlanMagic, kFleetPlanVersion);
  writer.pod<std::uint64_t>(static_cast<std::uint64_t>(plan.replicas));
  writer.pod<std::uint64_t>(static_cast<std::uint64_t>(plan.host_workers));
  writer.pod<std::uint64_t>(static_cast<std::uint64_t>(plan.batch_size));
  writer.pod<std::uint64_t>(plan.seed);
  writer.pod<double>(plan.rate_hz);
  writer.pod<double>(plan.duration_s);
  writer.pod<std::uint64_t>(
      static_cast<std::uint64_t>(plan.faults.replicas.size()));
  for (const FaultPlan& replica : plan.faults.replicas) {
    writer.pod<std::uint64_t>(
        static_cast<std::uint64_t>(replica.windows.size()));
    for (const FaultWindow& window : replica.windows) {
      MPCNN_CHECK(window.first_dispatch >= 0 &&
                      window.last_dispatch >= window.first_dispatch,
                  "fleet plan window [" << window.first_dispatch << ", "
                                        << window.last_dispatch
                                        << "] is inverted");
      MPCNN_CHECK(std::isfinite(window.magnitude) &&
                      window.magnitude >= 0.0,
                  "fleet plan window magnitude");
      MPCNN_CHECK(window.count >= 0, "fleet plan window count");
      writer.pod<std::uint32_t>(static_cast<std::uint32_t>(window.kind));
      writer.pod<std::int64_t>(window.first_dispatch);
      writer.pod<std::int64_t>(window.last_dispatch);
      writer.pod<double>(window.magnitude);
      writer.pod<std::int64_t>(window.count);
    }
  }
  writer.commit(path);
}

FleetPlanFile load_fleet_plan(const std::string& path) {
  io::ArtifactReader reader(path, kFleetPlanMagic, kFleetPlanVersion);
  FleetPlanFile plan;
  const std::uint64_t replicas = reader.pod<std::uint64_t>();
  const std::uint64_t host_workers = reader.pod<std::uint64_t>();
  const std::uint64_t batch_size = reader.pod<std::uint64_t>();
  MPCNN_CHECK(replicas >= 1 && replicas <= kMaxReplicas,
              path << ": hostile replica count " << replicas);
  MPCNN_CHECK(host_workers <= kMaxHostWorkers,
              path << ": hostile host worker count " << host_workers);
  MPCNN_CHECK(batch_size >= 1 && batch_size <= kMaxBatch,
              path << ": hostile batch size " << batch_size);
  plan.replicas = static_cast<Dim>(replicas);
  plan.host_workers = static_cast<Dim>(host_workers);
  plan.batch_size = static_cast<Dim>(batch_size);
  plan.seed = reader.pod<std::uint64_t>();
  plan.rate_hz = reader.pod<double>();
  plan.duration_s = reader.pod<double>();
  MPCNN_CHECK(std::isfinite(plan.rate_hz) && plan.rate_hz >= 0.0,
              path << ": hostile trace rate");
  MPCNN_CHECK(std::isfinite(plan.duration_s) && plan.duration_s > 0.0,
              path << ": hostile trace duration");
  const std::uint64_t plan_count = reader.pod<std::uint64_t>();
  MPCNN_CHECK(plan_count <= kMaxReplicas,
              path << ": hostile per-replica plan count " << plan_count);
  (void)reader.bounded_count(plan_count, sizeof(std::uint64_t),
                             "per-replica plans");
  plan.faults.replicas.resize(static_cast<std::size_t>(plan_count));
  for (std::uint64_t r = 0; r < plan_count; ++r) {
    const std::uint64_t windows = reader.pod<std::uint64_t>();
    MPCNN_CHECK(windows <= kMaxWindowCount,
                path << ": hostile window count " << windows);
    (void)reader.bounded_count(windows, kWindowBytes, "fault windows");
    FaultPlan& replica =
        plan.faults.replicas[static_cast<std::size_t>(r)];
    replica.windows.reserve(static_cast<std::size_t>(windows));
    for (std::uint64_t w = 0; w < windows; ++w) {
      FaultWindow window;
      const std::uint32_t kind = reader.pod<std::uint32_t>();
      MPCNN_CHECK(
          kind <= static_cast<std::uint32_t>(FaultKind::kInputCorruption),
          path << ": unknown fault kind " << kind);
      window.kind = static_cast<FaultKind>(kind);
      window.first_dispatch = reader.pod<std::int64_t>();
      window.last_dispatch = reader.pod<std::int64_t>();
      window.magnitude = reader.pod<double>();
      window.count = reader.pod<std::int64_t>();
      MPCNN_CHECK(window.first_dispatch >= 0 &&
                      window.last_dispatch >= window.first_dispatch,
                  path << ": inverted fault window");
      MPCNN_CHECK(std::isfinite(window.magnitude) &&
                      window.magnitude >= 0.0,
                  path << ": hostile window magnitude");
      MPCNN_CHECK(window.count >= 0 &&
                      window.count <=
                          static_cast<Dim>(kMaxWindowCount),
                  path << ": hostile window count field");
      replica.windows.push_back(window);
    }
  }
  reader.expect_exhausted();
  return plan;
}

bool is_fleet_plan_file(const std::string& path) {
  return io::probe_magic(path, kFleetPlanMagic);
}

}  // namespace mpcnn::core
