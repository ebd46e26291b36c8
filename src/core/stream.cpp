#include "core/stream.hpp"

#include <algorithm>
#include <cmath>

#include "core/threadpool.hpp"
#include "tensor/error.hpp"
#include "tensor/rng.hpp"

namespace mpcnn::core {
namespace {

// First retry backoff as a fraction of the expected batch time; it
// doubles per retry.
constexpr double kBackoffBase = 0.5;

// Integrity-scope sampling token for one (dispatch, slot) inference leg.
std::uint64_t slot_token(std::uint64_t seed, Dim dispatch, Dim slot) {
  std::uint64_t h = mix64(seed ^ 0xAB577B9EULL);
  h = mix64(h ^ static_cast<std::uint64_t>(dispatch));
  return mix64(h ^ (static_cast<std::uint64_t>(slot) * 0x9E37ULL));
}

}  // namespace

StreamSession::StreamSession(const bnn::CompiledBnn& bnn_net,
                             const finn::FinnDesign& design,
                             nn::Net& host_net,
                             double host_seconds_per_image, const Dmu& dmu,
                             Config config, const FaultInjector* injector)
    : bnn_(bnn_net),
      design_(design),
      host_(host_net),
      host_seconds_per_image_(host_seconds_per_image),
      dmu_(dmu),
      config_(config),
      injector_(injector) {
  MPCNN_CHECK(config_.batch_size >= 1, "batch size");
  MPCNN_CHECK(host_seconds_per_image > 0.0, "host latency must be positive");
  MPCNN_CHECK(dmu_.trained(), "DMU must be trained");
  MPCNN_CHECK(config_.watchdog_factor > 0.0,
              "watchdog factor must be positive");
  MPCNN_CHECK(config_.max_retries >= 0, "max_retries must be >= 0");
  MPCNN_CHECK(config_.give_up_factor >= 0.0,
              "give_up_factor must be >= 0");
  MPCNN_CHECK(config_.host_fallback || !config_.auto_dispatch,
              "fleet mode (host_fallback off) requires auto_dispatch off "
              "— the fleet scheduler owns batch assembly");
  MPCNN_CHECK(config_.canary_interval == 0 || config_.canary_count >= 1,
              "canary_count must be >= 1 when canaries are on");
  if (injector_ != nullptr) {
    // Emulated on-chip parameter memory: faults mutate this copy; the
    // golden network and its CRC book stay the repair masters.
    fabric_ = std::make_unique<bnn::CompiledBnn>(bnn_);
    crc_ = crc_book(bnn_);
  }
  if (config_.canary_interval > 0) {
    // Default golden book; attach_canary_book swaps in a persisted one.
    canary_book_ = std::make_unique<integrity::CanaryBook>(
        integrity::make_canary_book(bnn_, config_.canary_count,
                                    injector_ ? injector_->seed() : 0));
  }
}

void StreamSession::attach_canary_book(integrity::CanaryBook book) {
  const std::uint32_t expect = integrity::model_identity_crc(bnn_);
  MPCNN_CHECK(book.model_crc == expect,
              "canary book was recorded against a different model (book crc "
                  << book.model_crc << ", golden crc " << expect << ")");
  canary_book_ = std::make_unique<integrity::CanaryBook>(std::move(book));
}

Dim StreamSession::submit(const Tensor& image, double arrival_time) {
  integrity::check_finite_image(image, "StreamSession::submit");
  MPCNN_CHECK(arrival_time >= last_arrival_,
              "arrival times must be monotone (got "
                  << arrival_time << " after " << last_arrival_ << ")");
  last_arrival_ = arrival_time;
  if (config_.queue_capacity > 0) {
    // Bounded queue: the backlog is how far the fabric's busy horizon
    // runs ahead of this arrival, measured in expected batch times.
    const double headroom =
        design_.seconds_per_batch(config_.batch_size) *
        static_cast<double>(config_.queue_capacity);
    if (fpga_free_ - arrival_time > headroom) {
      switch (config_.overload) {
        case OverloadPolicy::kReject: {
          // The incoming image is turned away before any inference.
          const Pending rejected{next_id_++, image, arrival_time};
          shed(rejected);
          return rejected.id;
        }
        case OverloadPolicy::kDropOldest:
          // Freshness first: the oldest queued image makes room.  With
          // an empty queue the backlog is all in flight — nothing to
          // drop, so the image is accepted.
          if (!batch_.empty()) {
            shed(batch_.front());
            batch_.pop_front();
          }
          break;
        case OverloadPolicy::kBlock:
          // Backpressure is advisory in simulated time: the submission
          // is accepted and the stall the producer would have taken is
          // counted instead.
          ++stats_.blocked;
          break;
      }
    }
  }
  batch_.push_back(Pending{next_id_, image, arrival_time});
  const Dim id = next_id_++;
  if (config_.auto_dispatch &&
      static_cast<Dim>(batch_.size()) >= config_.batch_size) {
    dispatch(arrival_time);
  }
  return id;
}

void StreamSession::flush() { flush_at(last_arrival_); }

void StreamSession::flush_at(double now) {
  if (!batch_.empty()) dispatch(std::max(now, last_arrival_));
}

Dim StreamSession::host_route(const Tensor& image, double arrival_time,
                              double not_before) {
  integrity::check_finite_image(image, "StreamSession::host_route");
  host_.set_training(false);
  const double multiplier =
      injector_ != nullptr
          ? injector_->host_latency_multiplier(stats_.dispatches)
          : 1.0;
  StreamResult result;
  result.image_id = next_id_++;
  result.submitted_at = arrival_time;
  result.bnn_label = -1;  // the fabric never saw this image
  result.confidence = 0.0f;
  result.rerun = false;
  result.status = ResultStatus::kOk;
  result.served_by = ServedBy::kHostRouted;
  const double host_start = std::max(not_before, host_free_);
  const double host_done =
      host_start + host_seconds_per_image_ * multiplier;
  host_free_ = host_done;
  result.label = host_predict(image);
  result.ready_at = host_done;
  ready_.push_back(result);
  ++completed_;
  ++stats_.slo_host_routed;
  return result.image_id;
}

double StreamSession::expected_batch_seconds(Dim n, bool pipeline_hot) const {
  // The Eq. (3)–(5) model: a hot pipeline pays only the steady-state
  // interval per image; a cold one pays the full ramp-up.
  return pipeline_hot
             ? static_cast<double>(n) * design_.steady_seconds_per_image()
             : design_.seconds_per_batch(n);
}

void StreamSession::shed(const Pending& pending) {
  StreamResult result;
  result.image_id = pending.id;
  result.submitted_at = pending.arrival;
  result.ready_at = last_arrival_;  // the instant the policy dropped it
  result.label = -1;
  result.bnn_label = -1;
  result.status = ResultStatus::kShed;
  result.served_by = ServedBy::kNone;
  ready_.push_back(result);
  ++completed_;
  ++stats_.shed;
}

void StreamSession::serve_on_host(double give_up_at, double host_multiplier) {
  // Full host fallback: Eq. (1) with R_rerun = 1 — throughput collapses
  // to the float path, accuracy is the float model's.
  host_.set_training(false);
  const double seconds = host_seconds_per_image_ * host_multiplier;
  for (Pending& pending : batch_) {
    StreamResult result;
    result.image_id = pending.id;
    result.submitted_at = pending.arrival;
    result.bnn_label = -1;  // the fabric never answered
    result.confidence = 0.0f;
    result.rerun = true;
    result.status = ResultStatus::kDegraded;
    result.served_by = ServedBy::kHostDegraded;
    const double host_start = std::max(give_up_at, host_free_);
    const double host_done = host_start + seconds;
    host_free_ = host_done;
    result.label = host_predict(pending.image);
    result.ready_at = host_done;
    ready_.push_back(result);
    ++completed_;
  }
}

void StreamSession::park_unserved(double abandoned_at) {
  // Fleet mode: the fabric gave up on this batch and there is no local
  // host fallback — hand the images back to the owner for re-dispatch
  // to a healthy peer.  The fabric burned its attempt time either way.
  ++stats_.drained_batches;
  for (Pending& pending : batch_) {
    UnservedWork work;
    work.id = pending.id;
    work.image = std::move(pending.image);
    work.arrival = pending.arrival;
    work.abandoned_at = abandoned_at;
    unserved_.push_back(std::move(work));
    ++stats_.drained_images;
  }
  batch_.clear();
}

std::vector<StreamSession::UnservedWork> StreamSession::take_unserved() {
  std::vector<UnservedWork> out;
  out.swap(unserved_);
  return out;
}

Dim StreamSession::scrub_now() {
  if (!fabric_) return 0;
  ++stats_.scrub_cycles;
  const Dim repaired = scrub_weights(*fabric_, bnn_, crc_);
  stats_.scrub_repairs += repaired;
  // A repair means the fabric just ran with corrupted weights: owe the
  // canary health gate a replay before the next batch is trusted.
  if (repaired > 0) canary_pending_ = true;
  return repaired;
}

int StreamSession::host_predict(const Tensor& image) {
  host_.set_training(false);
  if (config_.integrity == integrity::IntegrityMode::kOff) {
    return host_.predict(image).front();
  }
  // ABFT-guarded float path: inline-serial execution keeps every gemm of
  // the prediction under this thread's scope.  The host takes no
  // injected faults, so a detection here is a checksum false alarm or a
  // real host-side upset — either way one verified re-run settles it.
  int label = 0;
  for (int attempt = 0;; ++attempt) {
    std::vector<integrity::Detection> detections;
    integrity::ScopeOptions opts;
    opts.mode = config_.integrity;
    opts.token = slot_token(injector_ ? injector_->seed() : 0,
                            /*dispatch=*/-1, host_calls_);
    opts.attempt = attempt;
    opts.sink = &detections;
    {
      SerialGuard serial;
      integrity::Scope scope(opts);
      label = host_.predict(image).front();
    }
    ++host_calls_;
    if (detections.empty()) {
      if (attempt > 0) ++stats_.sdc_corrected;
      return label;
    }
    ++stats_.sdc_detected;
    if (attempt >= 1) return label;  // surfaced twice: serve, don't loop
  }
}

Dim StreamSession::run_canary_probes(Dim dispatch, int attempt) {
  if (!canary_book_) return 0;
  const bool have_faults =
      injector_ != nullptr && injector_->has_compute_faults();
  Dim failures = 0;
  for (std::size_t i = 0; i < canary_book_->inputs.size(); ++i) {
    // The end-to-end logit compare is the check, so the scope runs mode
    // kOff — it exists to take the armed datapath faults (which fire in
    // any mode) exactly as a batch slot would, from the canary stream so
    // probes never shift the batch fault replay.
    std::vector<integrity::Detection> scrap;
    integrity::ScopeOptions opts;
    opts.mode = integrity::IntegrityMode::kOff;
    opts.token =
        slot_token(injector_ ? injector_->seed() : 0, dispatch,
                   static_cast<Dim>(i)) ^
        0xCA4AULL;
    opts.attempt = attempt;
    if (have_faults) {
      opts.faults =
          injector_->compute_faults(dispatch, static_cast<Dim>(i),
                                    FaultInjector::ComputeStream::kCanary);
    }
    opts.sink = &scrap;
    std::vector<std::int32_t> got;
    {
      SerialGuard serial;
      integrity::Scope scope(opts);
      got = bnn::run_reference(active_bnn(), canary_book_->inputs[i]);
      stats_.compute_faults_fired += scope.faults_fired();
    }
    ++stats_.canary_runs;
    if (got != canary_book_->expected[i]) ++failures;
  }
  stats_.canary_failures += failures;
  return failures;
}

void StreamSession::dispatch(double now) {
  const Dim d = stats_.dispatches++;
  const Dim n = static_cast<Dim>(batch_.size());

  // CRC scrub cycle: verify the emulated on-chip memory against the
  // golden book and reload mismatching stages, before this batch runs.
  if (fabric_ && config_.scrub_interval > 0 &&
      d % config_.scrub_interval == 0) {
    ++stats_.scrub_cycles;
    stats_.scrub_repairs += scrub_weights(*fabric_, bnn_, crc_);
  }
  // SEUs scheduled for this dispatch land before execution (and after
  // the scrub — an upset between scrubs persists until the next sweep).
  if (fabric_ && injector_ != nullptr) {
    stats_.seu_flips += injector_->apply_seu(*fabric_, d);
  }
  const double host_multiplier =
      injector_ != nullptr ? injector_->host_latency_multiplier(d) : 1.0;

  const double fabric_start = std::max(now, fpga_free_);
  const bool pipeline_hot = fpga_free_ > 0.0 && now <= fpga_free_;
  const double expected = expected_batch_seconds(n, pipeline_hot);
  const double deadline = config_.watchdog_factor * expected;

  // Supervisor: decide whether this dispatch runs on the fabric.  Every
  // failed attempt costs a full watchdog deadline plus the exponential
  // backoff before the next try.
  bool use_fabric = true;
  double wasted = 0.0;
  if (injector_ != nullptr) {
    if (state_ == FabricState::kDegraded) {
      if (injector_->fabric_stalled(d)) {
        // The sideband health probe still sees the fault: keep serving
        // from the host without burning a watchdog deadline per batch.
        use_fabric = false;
      } else {
        state_ = FabricState::kRecovering;  // probe with this dispatch
      }
    }
    if (use_fabric) {
      const bool stalled = injector_->fabric_stalled(d);
      const Dim dma_failures =
          stalled ? 0 : injector_->dma_failed_attempts(d);
      for (int attempt = 0;; ++attempt) {
        const bool attempt_fails =
            stalled || attempt < static_cast<int>(dma_failures);
        if (!attempt_fails) break;
        ++stats_.watchdog_timeouts;
        wasted += deadline + std::ldexp(kBackoffBase * expected, attempt);
        if (attempt >= config_.max_retries) {
          // Retry budget exhausted: give up on the fabric for this and
          // subsequent batches until a probe succeeds.
          use_fabric = false;
          ++stats_.degraded_entries;
          state_ = FabricState::kDegraded;
          break;
        }
        if (!config_.host_fallback && config_.give_up_factor > 0.0 &&
            wasted > config_.give_up_factor * expected) {
          // Hedging bound (fleet mode): the batch is stuck past its
          // give-up budget, so abandon it to the fleet for re-dispatch
          // on a peer instead of riding the backoff ladder all the way
          // to degradation.  The fabric itself stays kOk — the fault
          // may be transient.
          use_fabric = false;
          ++stats_.abandoned_hedges;
          break;
        }
        ++stats_.retries;
      }
    }
  }

  // Canary health gate: replay the golden book on cadence, after any
  // scrub repair, and on recovery probes.  End-to-end probes catch what
  // the per-call checksums may not be watching (kOff/kSample) and what
  // weight scrubbing cannot see at all — a persistently broken datapath.
  if (use_fabric && canary_book_ &&
      ((config_.canary_interval > 0 && d % config_.canary_interval == 0) ||
       canary_pending_ || state_ == FabricState::kRecovering)) {
    const Dim probes = static_cast<Dim>(canary_book_->inputs.size());
    double sweeps = 1.0;
    if (run_canary_probes(d, /*attempt=*/0) > 0) {
      // Probes deviate.  First hypothesis: an SEU landed between scrubs
      // — repair the weight memory and retest.
      scrub_now();
      sweeps = 2.0;
      if (run_canary_probes(d, /*attempt=*/1) > 0) {
        // Weights are clean and the probes still deviate: the datapath
        // itself is broken.  Stop trusting the fabric.
        use_fabric = false;
        if (state_ != FabricState::kRecovering) ++stats_.degraded_entries;
        state_ = FabricState::kDegraded;
      }
    }
    canary_pending_ = false;
    // Probe replays occupy the fabric like any other batch.
    wasted += sweeps * design_.seconds_per_batch(probes);
  }

  if (!use_fabric) {
    if (!config_.host_fallback) {
      // Fleet mode: the failed attempts still occupied the fabric; the
      // sideband probe of a degraded fabric (wasted == 0) did not.
      if (wasted > 0.0) fpga_free_ = fabric_start + wasted;
      park_unserved(fabric_start + wasted);
      return;
    }
    ++stats_.degraded_batches;
    serve_on_host(fabric_start + wasted, host_multiplier);
    batch_.clear();
    return;
  }
  if (state_ == FabricState::kRecovering) {
    state_ = FabricState::kOk;
    ++stats_.recoveries;
  }
  ++stats_.fabric_batches;

  // Fabric: the batch enters when the engines are free (plus any time
  // the watchdog burned).  A retried or recovered dispatch ramps up
  // cold — the fault flushed the pipeline.
  const double duration =
      wasted > 0.0 ? design_.seconds_per_batch(n) : expected;
  const double fpga_done = fabric_start + wasted + duration;
  fpga_free_ = fpga_done;

  // BNN leg for the whole batch up front: per-image fan-out through the
  // packed run_reference engine (each image owns its scores slot), before
  // the serial arrival/latency bookkeeping below.  With the SDC defense
  // armed, every slot runs under its own integrity scope — all arming
  // decisions are made serially before the fan-out and every sink is
  // folded serially in slot order after it, and since nested engine
  // parallelism runs inline, a slot's whole inference (and any armed
  // fault) stays on one thread.  That keeps detection replay
  // bit-identical at any thread count.
  const bool have_faults =
      injector_ != nullptr && injector_->has_compute_faults();
  const bool guarded =
      have_faults || config_.integrity != integrity::IntegrityMode::kOff;
  std::vector<std::vector<std::int32_t>> raw_scores(
      static_cast<std::size_t>(n));
  std::vector<Tensor> dma;
  if (injector_ != nullptr) {
    // DMA copies feed the fabric so input corruption never touches the
    // host's originals; the corruption decisions are made serially
    // before the parallel region (determinism at any thread count).
    dma.resize(static_cast<std::size_t>(n));
    for (Dim i = 0; i < n; ++i) {
      dma[static_cast<std::size_t>(i)] =
          batch_[static_cast<std::size_t>(i)].image;
      if (injector_->corrupt_input(dma[static_cast<std::size_t>(i)], d, i)) {
        ++stats_.corrupted_inputs;
      }
    }
  }
  const auto slot_image = [&](Dim i) -> const Tensor& {
    return injector_ != nullptr ? dma[static_cast<std::size_t>(i)]
                                : batch_[static_cast<std::size_t>(i)].image;
  };
  std::vector<integrity::ScopeOptions> opts;
  std::vector<std::vector<integrity::Detection>> sinks;
  std::vector<int> fired;
  if (guarded) {
    opts.resize(static_cast<std::size_t>(n));
    sinks.resize(static_cast<std::size_t>(n));
    fired.assign(static_cast<std::size_t>(n), 0);
    for (Dim i = 0; i < n; ++i) {
      integrity::ScopeOptions& o = opts[static_cast<std::size_t>(i)];
      o.mode = config_.integrity;
      o.token = slot_token(injector_ ? injector_->seed() : 0, d, i);
      if (have_faults) o.faults = injector_->compute_faults(d, i);
      o.sink = &sinks[static_cast<std::size_t>(i)];
    }
  }
  parallel_for(0, n, 1, [&](Dim i0, Dim i1) {
    for (Dim i = i0; i < i1; ++i) {
      if (guarded) {
        integrity::Scope scope(opts[static_cast<std::size_t>(i)]);
        raw_scores[static_cast<std::size_t>(i)] =
            bnn::run_reference(active_bnn(), slot_image(i));
        fired[static_cast<std::size_t>(i)] = scope.faults_fired();
      } else {
        raw_scores[static_cast<std::size_t>(i)] =
            bnn::run_reference(active_bnn(), slot_image(i));
      }
    }
  });

  // Verified re-execution ladder: every slot whose checksums flagged a
  // fault is re-run on the fabric under full verification; a clean
  // re-run replaces its scores (bit-identical to a fault-free pass), a
  // second detection escalates the image to the host float path below.
  std::vector<char> escalate(static_cast<std::size_t>(n), 0);
  std::vector<double> slot_ready(static_cast<std::size_t>(n), fpga_done);
  double reexec_done = fpga_done;
  if (guarded) {
    std::vector<Dim> suspects;
    for (Dim i = 0; i < n; ++i) {
      stats_.compute_faults_fired += fired[static_cast<std::size_t>(i)];
      if (!sinks[static_cast<std::size_t>(i)].empty()) {
        ++stats_.sdc_detected;
        suspects.push_back(i);
      }
    }
    if (!suspects.empty()) {
      // The re-runs occupy the fabric after the batch: one cold batch of
      // the suspect images.
      reexec_done = fpga_done + design_.seconds_per_batch(
                                    static_cast<Dim>(suspects.size()));
      fpga_free_ = reexec_done;
    }
    for (Dim i : suspects) {
      integrity::ScopeOptions ropts = opts[static_cast<std::size_t>(i)];
      ropts.attempt = 1;  // transient armed faults no longer fire
      ropts.mode = integrity::IntegrityMode::kFull;  // audit the retry fully
      std::vector<integrity::Detection> redetect;
      ropts.sink = &redetect;
      std::vector<std::int32_t> scores;
      {
        SerialGuard serial;
        integrity::Scope scope(ropts);
        scores = bnn::run_reference(active_bnn(), slot_image(i));
        stats_.compute_faults_fired += scope.faults_fired();
      }
      if (redetect.empty()) {
        raw_scores[static_cast<std::size_t>(i)] = std::move(scores);
        slot_ready[static_cast<std::size_t>(i)] = reexec_done;
        ++stats_.sdc_corrected;
      } else {
        escalate[static_cast<std::size_t>(i)] = 1;
      }
      ++stats_.sdc_served_after_reexec;
    }
  }

  host_.set_training(false);
  for (std::size_t b = 0; b < batch_.size(); ++b) {
    Pending& pending = batch_[b];
    StreamResult result;
    result.image_id = pending.id;
    result.submitted_at = pending.arrival;
    const std::vector<std::int32_t>& raw = raw_scores[b];
    std::vector<float> scores(raw.begin(), raw.end());
    result.bnn_label = static_cast<int>(std::distance(
        raw.begin(), std::max_element(raw.begin(), raw.end())));
    result.confidence = dmu_.confidence(scores);
    result.rerun = result.confidence < config_.dmu_threshold;
    if (escalate[b]) {
      // The fabric corrupted this image twice: its answer is untrusted
      // regardless of DMU confidence, so the host float path serves it
      // (after the failed fabric retry).
      result.rerun = true;
      const double host_start = std::max(reexec_done, host_free_);
      const double host_done =
          host_start + host_seconds_per_image_ * host_multiplier;
      host_free_ = host_done;
      result.label = host_predict(pending.image);
      result.ready_at = host_done;
      result.served_by = ServedBy::kHost;
    } else if (result.rerun) {
      // Host re-inference starts once the BNN verdict exists and the
      // host is free; runs concurrently with the fabric's next batch.
      const double host_start = std::max(slot_ready[b], host_free_);
      const double host_done =
          host_start + host_seconds_per_image_ * host_multiplier;
      host_free_ = host_done;
      result.label = host_predict(pending.image);
      result.ready_at = host_done;
      result.served_by = ServedBy::kHost;
    } else {
      result.label = result.bnn_label;
      result.ready_at = slot_ready[b];
      result.served_by = ServedBy::kFabric;
    }
    ready_.push_back(result);
    ++completed_;
  }
  batch_.clear();
}

std::vector<StreamResult> StreamSession::drain() {
  // Completion order with the image id as a deterministic tie-break: a
  // fabric batch finishes as one instant, so every non-rerun result of a
  // dispatch (and every shed result sharing a drop instant) carries the
  // same ready_at.  The id makes the key a strict total order; the
  // stable sort is belt-and-braces on top.
  std::stable_sort(ready_.begin(), ready_.end(),
                   [](const StreamResult& a, const StreamResult& b) {
                     if (a.ready_at != b.ready_at) {
                       return a.ready_at < b.ready_at;
                     }
                     return a.image_id < b.image_id;
                   });
  std::vector<StreamResult> out;
  out.swap(ready_);
  return out;
}

}  // namespace mpcnn::core
