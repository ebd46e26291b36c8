// Streaming front-end to the multi-precision cascade.
//
// MultiPrecisionSystem::run() evaluates a complete dataset; real
// deployments (the paper's live-video motivation) instead push images as
// they arrive.  StreamSession models exactly that: submit images with
// arrival timestamps, and poll results whose `ready_at` times come from
// the same heterogeneous timing model (FPGA batch pipelining + host
// re-inference) the batch simulator uses.
//
// Supervision: the session optionally runs under a FaultInjector (see
// core/fault.hpp).  Every fabric dispatch is then guarded by a watchdog
// whose deadline derives from the Eq. (3)–(5) expected batch time, with
// bounded exponential-backoff retries; persistent faults drive the
// degradation state machine FABRIC_OK → FABRIC_DEGRADED → recovering,
// under which batches are served by host-only float inference (Eq. (1)
// with R_rerun = 1 — throughput collapses, accuracy is preserved).  The
// emulated on-chip weight memory is CRC-scrubbed on a configurable
// cadence and reloaded from the host-held golden copy on mismatch.  A
// bounded submit queue applies an explicit overload policy; every
// supervisor decision is counted in SupervisorStats.
#pragma once

#include <deque>
#include <memory>
#include <vector>

#include "bnn/compile.hpp"
#include "core/dmu.hpp"
#include "core/fault.hpp"
#include "core/integrity/canary.hpp"
#include "finn/dataflow.hpp"
#include "nn/net.hpp"

namespace mpcnn::core {

/// Health of the emulated fabric as seen by the supervisor.
enum class FabricState {
  kOk,         ///< dispatches run on the fabric
  kDegraded,   ///< fabric given up on; host-only serving
  kRecovering, ///< probe dispatch in flight on the fabric
};

/// What to do with new work once the fabric backlog exceeds the bounded
/// queue (Config::queue_capacity batches of headroom).
enum class OverloadPolicy {
  kBlock,       ///< accept and count the backpressure stall (default)
  kDropOldest,  ///< shed the oldest queued image to make room
  kReject,      ///< shed the incoming image
};

/// Which execution path produced a result.
enum class ServedBy {
  kFabric,        ///< BNN answer accepted by the DMU
  kHost,          ///< normal cascade rerun (DMU distrusted the BNN)
  kHostDegraded,  ///< fabric down; full host fallback
  kHostRouted,    ///< deadline scheduler sent it straight to the host
  kNone,          ///< shed before any inference ran
};

/// Outcome class of a result.
enum class ResultStatus {
  kOk,        ///< served by the healthy cascade
  kDegraded,  ///< served while the fabric was down (label still correct)
  kShed,      ///< dropped by the overload policy; label is meaningless
};

/// Everything the supervisor counted.  All counters are cumulative and
/// deterministic for a fixed seed + plan at any thread count.
struct SupervisorStats {
  Dim dispatches = 0;          ///< batches entering dispatch
  Dim fabric_batches = 0;      ///< batches served by the fabric
  Dim degraded_batches = 0;    ///< batches served host-only
  Dim watchdog_timeouts = 0;   ///< fabric attempts that missed the deadline
  Dim retries = 0;             ///< re-dispatch attempts after a timeout
  Dim degraded_entries = 0;    ///< OK→DEGRADED transitions
  Dim recoveries = 0;          ///< DEGRADED→OK transitions (probe succeeded)
  Dim scrub_cycles = 0;        ///< CRC scrub sweeps run
  Dim scrub_repairs = 0;       ///< stages reloaded after a CRC mismatch
  Dim seu_flips = 0;           ///< injected weight/threshold bit flips
  Dim corrupted_inputs = 0;    ///< fabric-side images overwritten by faults
  Dim shed = 0;                ///< results dropped by the overload policy
  Dim blocked = 0;             ///< submissions past the kBlock high-water mark
  // ---- fleet mode (core/fleet; host_fallback off) ----
  Dim drained_batches = 0;   ///< batches parked unserved for the owner
  Dim drained_images = 0;    ///< images inside those batches
  Dim abandoned_hedges = 0;  ///< parks triggered by the give-up budget
                             ///< while retries remained
  // ---- serving front-end (core/serve) ----
  Dim admission_shed = 0;   ///< requests turned away by a tenant token bucket
  Dim slo_shed = 0;         ///< requests shed because Eq.(3)–(5) misses the SLO
  Dim slo_host_routed = 0;  ///< requests host-routed to rescue their SLO
  // ---- SDC defense (core/integrity; DESIGN.md §16) ----
  Dim sdc_detected = 0;   ///< images whose kernel checksums flagged a fault
  Dim sdc_corrected = 0;  ///< detections cleared by a clean fabric re-run
  /// Detected images that reached a result through re-execution (fabric
  /// retry or host escalation) — in kFull mode every detection lands
  /// here, so nothing corrupted is ever served silently.
  Dim sdc_served_after_reexec = 0;
  Dim canary_runs = 0;           ///< golden-book probes replayed
  Dim canary_failures = 0;       ///< probes whose logits deviated
  Dim compute_faults_fired = 0;  ///< injected datapath faults that struck
};

/// One classified image leaving the stream.
struct StreamResult {
  Dim image_id = 0;
  int label = 0;             ///< final cascade label (-1 when shed)
  int bnn_label = 0;         ///< the fabric's answer (-1 when it never ran)
  bool rerun = false;        ///< host re-inference happened
  float confidence = 0.0f;   ///< DMU confidence in the BNN answer
  double submitted_at = 0.0;
  double ready_at = 0.0;     ///< simulated completion time
  ResultStatus status = ResultStatus::kOk;
  ServedBy served_by = ServedBy::kFabric;

  double latency() const { return ready_at - submitted_at; }
};

/// Event-driven cascade session.  Non-owning views of the components;
/// the caller keeps them alive (Workbench does).
class StreamSession {
 public:
  struct Config {
    Dim batch_size = 32;       ///< images per fabric dispatch
    float dmu_threshold = 0.5f;
    // ---- supervisor (active only when a FaultInjector is attached) ----
    /// Watchdog deadline = factor × the Eq. (3)–(5) expected batch time.
    double watchdog_factor = 3.0;
    /// Fabric re-dispatches after a timeout before degrading.  The first
    /// backoff is half the expected batch time and doubles per retry.
    int max_retries = 2;
    /// Dispatches between CRC scrubs of the fabric weight memory
    /// (0 = scrubbing off).
    Dim scrub_interval = 0;
    // ---- SDC defense (core/integrity; DESIGN.md §16) ----
    /// ABFT checksum verification of every kernel call made on behalf of
    /// a batch slot.  kSample verifies a deterministic 1-in-8 subset
    /// (integrity::ScopeOptions::sample_period); kFull everything.
    /// Detections trigger verified re-execution (fabric retry, then host
    /// float escalation).
    integrity::IntegrityMode integrity = integrity::IntegrityMode::kOff;
    /// Dispatches between canary golden-book replays (0 = canaries off).
    /// Canaries also run after any scrub repair and on recovery probes.
    Dim canary_interval = 0;
    /// Probes auto-built at construction when canary_interval > 0 and no
    /// book is attached.
    Dim canary_count = 4;
    // ---- bounded submit queue (active with or without faults) ----
    /// Fabric backlog bound, in batches of headroom (0 = unbounded).
    Dim queue_capacity = 0;
    OverloadPolicy overload = OverloadPolicy::kBlock;
    /// Dispatch automatically once `batch_size` images are queued.  The
    /// serving front-end (core/serve) turns this off and drives batch
    /// assembly itself through flush_at().
    bool auto_dispatch = true;
    // ---- fleet mode (core/fleet) ----
    /// When off, a dispatch the supervisor gives up on (degradation, a
    /// failed recovery probe, or the give-up budget below) parks the
    /// batch as unserved work for take_unserved() instead of serving it
    /// on this session's own host fallback — the fleet scheduler then
    /// re-dispatches it to a healthy peer.
    bool host_fallback = true;
    /// Hedged re-dispatch bound: abandon a fabric batch once the
    /// watchdog + backoff time already burned exceeds `give_up_factor ×`
    /// the Eq. (3)–(5) expected batch seconds, even while retries
    /// remain (0 = only abandon on degradation).  Only meaningful with
    /// host_fallback off.
    double give_up_factor = 0.0;
  };

  /// One image of a batch the supervisor gave up on (host_fallback off):
  /// the owner re-dispatches it elsewhere.
  struct UnservedWork {
    Dim id = 0;            ///< this session's image id
    Tensor image;
    double arrival = 0.0;
    double abandoned_at = 0.0;  ///< simulated instant the fabric gave up
  };

  /// `injector` is optional; when non-null the session copies the
  /// compiled network into an emulated on-chip memory that faults mutate
  /// and the CRC scrubber repairs (the caller keeps the injector alive).
  StreamSession(const bnn::CompiledBnn& bnn_net,
                const finn::FinnDesign& design, nn::Net& host_net,
                double host_seconds_per_image, const Dmu& dmu,
                Config config, const FaultInjector* injector = nullptr);

  /// Queues one image (NCHW, batch 1).  `arrival_time` must be
  /// monotonically non-decreasing (checked).  A full batch dispatches
  /// automatically.  Returns the image id.
  Dim submit(const Tensor& image, double arrival_time);

  /// Dispatches a partial batch immediately (end of stream / deadline).
  /// A no-op when nothing is queued, so repeated flushes are safe.
  void flush();

  /// Dispatches the queued batch at simulated time `now` (clamped to the
  /// last accepted arrival, so the dispatch instant never precedes a
  /// queued image).  The serving front-end uses this to fire a batching
  /// window whose deadline lies after the last arrival it coalesced.
  void flush_at(double now);

  /// Serves one image directly on the host float path, bypassing the
  /// fabric queue entirely: the deadline-aware scheduler routes requests
  /// here when the Eq. (3)–(5) expected fabric completion would miss
  /// their SLO.  Starts once the host is free and not before
  /// `not_before`; counted in SupervisorStats::slo_host_routed.  Returns
  /// the image id.
  Dim host_route(const Tensor& image, double arrival_time,
                 double not_before);

  /// Eq. (3)–(5) expected fabric seconds for a batch of `n` images; a
  /// hot pipeline pays only the steady-state interval per image, a cold
  /// one the full ramp-up.  The serving front-end uses this estimate for
  /// deadline-aware admission.
  double expected_batch_seconds(Dim n, bool pipeline_hot) const;

  const Config& config() const { return config_; }

  /// Removes and returns every result finished so far, ordered by
  /// completion time.
  std::vector<StreamResult> drain();

  /// Removes and returns the batches the supervisor parked unserved
  /// (host_fallback off), in submission order.  Empty in host-fallback
  /// mode.
  std::vector<UnservedWork> take_unserved();

  /// Replaces the canary golden book (e.g. one loaded from an `MPGB`
  /// artifact).  Throws when the book's model CRC does not match this
  /// session's golden network — stale probes would flag a healthy
  /// fabric.
  void attach_canary_book(integrity::CanaryBook book);

  /// Runs one CRC scrub cycle of the emulated on-chip weight memory
  /// immediately (outside the scrub_interval cadence) and returns the
  /// number of stages repaired.  The fleet scheduler calls this before a
  /// recovery probe so a re-admitted replica starts from clean weights.
  /// No-op (returns 0) without a fault injector.
  Dim scrub_now();

  /// Images accepted so far.
  Dim submitted() const { return next_id_; }
  /// Results produced so far (drained or not; shed results count).
  Dim completed() const { return completed_; }
  /// Simulated time the fabric is busy until.
  double fpga_busy_until() const { return fpga_free_; }
  /// Simulated time the host is busy until.
  double host_busy_until() const { return host_free_; }

  /// Supervisor state and counters (degradation, scrubs, shed, …).
  FabricState fabric_state() const { return state_; }
  const SupervisorStats& stats() const { return stats_; }

 private:
  struct Pending {
    Dim id;
    Tensor image;
    double arrival;
  };

  void dispatch(double now);
  void serve_on_host(double give_up_at, double host_multiplier);
  void park_unserved(double abandoned_at);
  void shed(const Pending& pending);
  /// Host float prediction, ABFT-guarded when Config::integrity is on
  /// (serial-inline so the thread-local scope covers every kernel; one
  /// verified re-run on detection).
  int host_predict(const Tensor& image);
  /// Replays the golden book against the fabric under attempt-`attempt`
  /// fault arming; returns the number of deviating probes.
  Dim run_canary_probes(Dim dispatch, int attempt);
  const bnn::CompiledBnn& active_bnn() const {
    return fabric_ ? *fabric_ : bnn_;
  }

  const bnn::CompiledBnn& bnn_;
  const finn::FinnDesign& design_;
  nn::Net& host_;
  double host_seconds_per_image_;
  const Dmu& dmu_;
  Config config_;

  // Fault-injection state: the emulated on-chip parameter memory (a
  // mutable copy of bnn_), its golden CRC book and the injector.
  const FaultInjector* injector_ = nullptr;
  std::unique_ptr<bnn::CompiledBnn> fabric_;
  WeightCrcBook crc_;
  std::unique_ptr<integrity::CanaryBook> canary_book_;
  bool canary_pending_ = false;  ///< health gate owed after a scrub repair
  Dim host_calls_ = 0;  ///< serial ordinal feeding host-scope tokens

  std::deque<Pending> batch_;
  std::vector<StreamResult> ready_;
  std::vector<UnservedWork> unserved_;
  Dim next_id_ = 0;
  Dim completed_ = 0;
  double fpga_free_ = 0.0;
  double host_free_ = 0.0;
  double last_arrival_ = 0.0;
  FabricState state_ = FabricState::kOk;
  SupervisorStats stats_;
};

}  // namespace mpcnn::core
