// Sharded multi-fabric fleet scheduler.
//
// One emulated Zynq is a single shard; a production tier is a *fleet*:
// N FINN fabric replicas (heterogeneous P/S folds allowed — see
// finn::pick_fleet) plus M host float workers.  FleetScheduler owns the
// replica StreamSessions and routes every assembled batch by per-replica
// health score and the Eq. (3)–(5) expected-batch-cost:
//
//  * routing — kHealthCost picks the replica minimising expected
//    completion × a brownout factor that inflates with lost health, so
//    a flaky replica sheds load gradually instead of flapping between
//    "in" and "out"; kEarliestFree reproduces the earliest-free-fabric
//    rule the serve front-end used before the fleet existed;
//  * health — a decayed score per replica, fed by SupervisorStats
//    deltas of each dispatch (watchdog timeouts, scrub repairs / SEU
//    hits) and a latency-spike EWMA of completion overruns.  A batch
//    the replica failed to serve scores zero;
//  * peer drain — when the PR 4 state machine drives a replica to
//    FABRIC_DEGRADED (or the hedging bound below fires), the session
//    parks the batch (StreamSession::take_unserved) and the fleet
//    re-dispatches it to the next-best healthy peer; the M host float
//    workers serve it only as the last resort;
//  * hedged re-dispatch — Config-bounded: a batch stuck past
//    `give_up_factor ×` its expected time abandons early (at most
//    `max_redispatch` re-dispatches per batch), so one stuck batch
//    cannot ride the backoff ladder while peers sit idle;
//  * recovery probes — every `probe_interval` fleet batches a degraded
//    replica gets one real batch as a probe, preceded by a CRC scrub of
//    its emulated weight memory; success re-admits it at health 0.5
//    (ramping back to full health via the EWMA), and
//    failure just bounces the batch to a peer.
//
// Determinism contract: dispatch() is driven from a serial event loop
// (ServeFrontEnd::finish() or the direct submit()/flush() API); every
// routing, health and probe decision is pure arithmetic over simulated
// time and per-replica counters, and all inference goes through the
// bit-reproducible kernels — so the FleetReport is bit-identical at any
// thread count, including under a live per-replica FleetFaultPlan.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/fault.hpp"
#include "core/stream.hpp"
#include "nn/net.hpp"

namespace mpcnn::core {

/// How dispatch() picks a replica for a batch.
enum class RoutePolicy {
  kEarliestFree,  ///< min fpga_busy_until (the pre-fleet serve rule)
  kHealthCost,    ///< min expected completion × brownout(health)
};

/// Replicas below this health are quarantined (probe-only) under
/// kHealthCost routing.
inline constexpr double kHealthFloor = 0.05;

/// Fleet-level knobs; the per-replica supervisor keeps its own
/// StreamSession::Config.
struct FleetConfig {
  Dim batch_size = 16;     ///< direct-API auto-dispatch size
  RoutePolicy routing = RoutePolicy::kHealthCost;
  Dim host_workers = 1;    ///< last-resort float workers (M)
  /// Re-dispatches allowed per batch before the host workers take it.
  int max_redispatch = 2;
  /// Fleet batches between recovery probes of a degraded replica
  /// (0 = probes off; a degraded replica then never re-admits).  Each
  /// probe CRC-scrubs the replica's weights first.
  Dim probe_interval = 4;
  /// Copied into every replica session's give_up_factor by
  /// Workbench::make_fleet (0 = hedging off; see StreamSession::Config).
  double hedge_factor = 0.0;
};

/// Fleet-level counters (per-replica ones live in ReplicaReport).
struct FleetStats {
  Dim batches = 0;              ///< batches entering the fleet
  Dim dispatches = 0;           ///< batch→replica routings (incl. hops)
  Dim redispatched_batches = 0; ///< bounces drained to a peer
  Dim redispatched_images = 0;  ///< images inside those bounces
  Dim hedged_batches = 0;       ///< bounces the give-up budget triggered
  Dim host_fallback_batches = 0;///< batches the host workers absorbed
  Dim host_fallback_images = 0;
  Dim host_routed = 0;          ///< SLO host-routes the workers served
  Dim probes = 0;               ///< recovery probes dispatched
  Dim probe_successes = 0;
  Dim readmissions = 0;         ///< DEGRADED→OK via a probe
};

/// One replica's view in the FleetReport.
struct ReplicaReport {
  Dim dispatches = 0;      ///< fleet batches routed here (incl. probes)
  Dim served_batches = 0;
  Dim bounced_batches = 0; ///< batches this replica failed to serve
  Dim probes = 0;
  Dim readmissions = 0;
  double health = 1.0;
  double spike_ewma = 0.0;
  FabricState state = FabricState::kOk;
  SupervisorStats stats;
};

/// One classified request leaving the fleet.
struct FleetResult {
  Dim tag = 0;        ///< caller's id (request index / submit order)
  int label = -1;
  int bnn_label = -1;
  bool rerun = false;
  float confidence = 0.0f;
  ResultStatus status = ResultStatus::kOk;
  ServedBy served_by = ServedBy::kFabric;
  Dim replica = -1;   ///< serving replica; -1 = fleet host worker
  Dim hops = 0;       ///< re-dispatches before it was served
  double submitted_at = 0.0;
  double ready_at = 0.0;

  double latency() const { return ready_at - submitted_at; }
};

/// Everything the fleet measured.  Deterministic at any thread count.
struct FleetReport {
  std::vector<ReplicaReport> replicas;
  FleetStats fleet;
  /// Summed replica supervisor counters; fleet-worker SLO host-routes
  /// are folded into slo_host_routed so the counter means the same
  /// thing with and without fleet host workers.
  SupervisorStats supervisor;
  Dim degraded_replicas = 0;
  bool all_fabric_degraded = false;  ///< total-fleet loss (exit nonzero)
  Dim served = 0;            ///< results drained so far
  double span_s = 0.0;       ///< first arrival → last completion
  double throughput_fps = 0.0;
};

/// The scheduler.  Owns its replica sessions; `host_net` (borrowed, may
/// be null when host_workers is 0 and every session keeps its own host
/// fallback) serves the M float workers at `host_seconds_per_image`.
///
/// Two driving modes, not to be mixed: the direct API (submit()/flush(),
/// fixed-size FIFO batches, tags = submission order) for the CLI and
/// chaos tests, or dispatch()/host_route() with caller-chosen tags for
/// the serve front-end.  Both end with drain() + report().
class FleetScheduler {
 public:
  /// One request entering dispatch(): the caller's tag, the payload and
  /// its true arrival time.
  struct Tagged {
    Dim tag = 0;
    Tensor image;
    double arrival = 0.0;
  };

  /// A routing decision (also the SLO estimate for core/serve).
  struct Plan {
    Dim replica = -1;           ///< -1: straight to the host workers
    double expected_done = 0.0; ///< Eq. (3)–(5) completion estimate
    bool probe = false;         ///< recovery probe of a degraded replica
  };

  /// Every session must be fresh, with auto_dispatch off and the
  /// session-level bounded queue off (the fleet owns batch assembly).
  /// Sessions built with host_fallback off (fleet drain mode) require
  /// host workers as the last resort — checked.
  FleetScheduler(FleetConfig config, std::vector<StreamSession> replicas,
                 nn::Net* host_net, double host_seconds_per_image);

  // ---- direct API (single submitter, monotone arrivals) ----
  /// Queues one image; a full batch dispatches at its arrival instant.
  /// Returns the tag (submission order).
  Dim submit(const Tensor& image, double arrival);
  /// Dispatches a partial batch (end of stream); safe to repeat.
  void flush();

  // ---- serve front-end API ----
  /// Where the next batch of `n` images would go at `now`, and when it
  /// would complete.  Pure (no state change); dispatch() re-derives the
  /// same decision.
  Plan plan(Dim n, double now) const;
  /// Routes one batch: submit to the planned replica, drain bounces to
  /// peers (bounded by max_redispatch), host workers as last resort.
  void dispatch(std::vector<Tagged> batch, double now);
  /// Serves one image on the float path without touching the fabric
  /// queue: on a fleet host worker when there are any, else on replica
  /// `replica_hint`'s own host (the pre-fleet behaviour).  Counted once
  /// in slo_host_routed either way.
  Dim host_route(const Tensor& image, double arrival, double not_before,
                 Dim tag, Dim replica_hint);

  /// Removes and returns every finished result, sorted by (ready_at,
  /// tag) — the same tie-break the serve trace uses.
  std::vector<FleetResult> drain();

  /// Counters and health so far (results independent; callable before
  /// or after drain()).
  FleetReport report() const;
  /// Summed replica supervisor counters + fleet-worker host-routes.
  SupervisorStats aggregate_supervisor() const;

  const FleetConfig& config() const { return config_; }
  Dim replica_count() const { return static_cast<Dim>(replicas_.size()); }
  const StreamSession& replica(Dim r) const;
  double replica_health(Dim r) const;
  /// Earliest fpga_busy_until across replicas (serve's dispatch gate).
  double earliest_free() const;
  const FleetStats& stats() const { return stats_; }

 private:
  struct Replica {
    StreamSession session;
    std::vector<Dim> sid_to_tag;  ///< session image id → caller tag
    std::vector<Dim> sid_hops;    ///< session image id → hop count
    double last_submitted = 0.0;  ///< monotone clamp for submit()
    double health = 1.0;
    double spike_ewma = 0.0;
    Dim dispatches = 0;
    Dim served_batches = 0;
    Dim bounced_batches = 0;
    Dim probes = 0;
    Dim readmissions = 0;
    Dim last_probe_batch = 0;  ///< fleet batch count at the last probe
    explicit Replica(StreamSession s) : session(std::move(s)) {}
  };

  Plan plan_route(Dim n, double now,
                  const std::vector<char>* tried) const;
  void update_health(Replica& rep, const SupervisorStats& before,
                     double now, double expected_done, bool served);
  void serve_on_host_workers(std::vector<Tagged> batch, double at,
                             Dim hops);
  FleetResult host_serve_one(const Tensor& image, double arrival,
                             double not_before, Dim tag, Dim hops,
                             ServedBy by);
  void note_result(const FleetResult& result);

  FleetConfig config_;
  std::vector<Replica> replicas_;
  nn::Net* host_net_ = nullptr;
  double host_seconds_per_image_ = 0.0;
  std::vector<double> host_free_;      ///< per-worker busy horizon
  std::vector<FleetResult> host_results_;

  // direct-API state
  std::vector<Tagged> pending_;
  Dim next_tag_ = 0;
  double last_arrival_ = 0.0;

  FleetStats stats_;
  Dim batches_seen_ = 0;  ///< probe cadence clock (== stats_.batches)
  // span accounting over drained results
  bool any_result_ = false;
  double first_submit_ = 0.0;
  double last_ready_ = 0.0;
  Dim served_count_ = 0;
};

// ------------------------------------------------------------- plan file

/// A persisted chaos/fleet scenario ("MPFP" artifact): fleet shape, the
/// seed, the open-loop trace rate/duration and the per-replica fault
/// windows — everything `mpcnn_cli fleet` needs to replay a chaos run
/// bit-identically on another machine.
struct FleetPlanFile {
  Dim replicas = 4;
  Dim host_workers = 1;
  Dim batch_size = 16;
  std::uint64_t seed = 1;
  double rate_hz = 0.0;    ///< 0 = derive from fleet capacity at run time
  double duration_s = 1.0;
  FleetFaultPlan faults;
};

/// Persists the plan as a framed, CRC'd "MPFP" artifact (io/artifact):
/// atomic publish, hostile counts rejected on load.
void save_fleet_plan(const FleetPlanFile& plan, const std::string& path);
FleetPlanFile load_fleet_plan(const std::string& path);
/// True if `path` exists and carries the MPFP magic.
bool is_fleet_plan_file(const std::string& path);

}  // namespace mpcnn::core
