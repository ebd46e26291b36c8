// Deterministic fault injection for the heterogeneous cascade.
//
// The deployment target is live video on a Zynq SoC, where the fabric is
// the component that actually fails in the field: DMA transfers stall,
// configuration/weight memory takes single-event upsets (FINN keeps all
// BNN parameters on chip, so a flipped weight word silently corrupts
// every subsequent inference), and the shared host is subject to latency
// spikes from co-tenants.  This header models those failure modes as a
// declarative `FaultPlan` executed by a seeded `FaultInjector`.
//
// Determinism contract: every injection decision is a pure function of
// (seed, dispatch index, window, slot) via a stateless SplitMix64-style
// hash — no generator state, no wall clock.  The same seed + plan
// therefore yields a bit-identical fault sequence regardless of thread
// count or query order, matching the repository-wide reproducibility
// rule (the 1-vs-N determinism tests cover the faulted paths too).
//
// The weight-memory side: `WeightCrcBook` snapshots a CRC-32 per
// compiled stage (packed weight words + thresholds + negate flags — the
// exact contents of the emulated on-chip memory).  `scrub_weights`
// re-computes the CRCs of a fabric copy against the book and reloads any
// mismatching stage from the golden network, the reload-and-retry scrub
// cycle a real FINN deployment would run against DDR-held masters.
#pragma once

#include <cstdint>
#include <vector>

#include "bnn/compile.hpp"
#include "core/integrity/integrity.hpp"
#include "tensor/tensor.hpp"

namespace mpcnn::core {

/// The fault taxonomy (see DESIGN.md §10 for the full semantics table).
/// The last three are *datapath* faults: they corrupt kernel outputs
/// mid-computation (through core/integrity's armed-fault machinery)
/// rather than stored state, and are what the ABFT checksums and canary
/// probes of DESIGN.md §16 exist to catch.
enum class FaultKind {
  kFabricStall,       ///< fabric produces nothing for the whole window
  kDmaError,          ///< transient transfer failure; bounded retries win
  kSeuWeightFlip,     ///< bit flips in packed weight/threshold memory
  kHostLatencySpike,  ///< host reruns slow down by `magnitude`×
  kInputCorruption,   ///< image corrupted on the DMA path into the fabric
  kAccumulatorBitFlip,    ///< datapath: one kernel accumulator bit flips
  kPopcountLaneStuck,     ///< datapath: a popcount lane sticks at one
  kPartialSumCorruption,  ///< datapath: a partial-sum DMA burst is garbled
};

/// One fault episode, expressed in dispatch indices (not wall time) so
/// replay is exact at any thread count and batch cadence.
struct FaultWindow {
  FaultKind kind = FaultKind::kFabricStall;
  Dim first_dispatch = 0;  ///< inclusive
  Dim last_dispatch = 0;   ///< inclusive
  /// Kind-specific knob: kDmaError = failing attempts per dispatch,
  /// kHostLatencySpike = latency multiplier, datapath kinds = number of
  /// re-execution attempts the fault persists for (1 = transient, the
  /// verified fabric re-run comes back clean; >= 2 = persistent, the
  /// supervisor escalates to the host).  Unused otherwise.
  double magnitude = 1.0;
  /// kSeuWeightFlip: bit flips per dispatch in the window.
  /// kInputCorruption and the datapath kinds: struck batch slots per
  /// dispatch (leading slots; canary probes use their own slot space).
  Dim count = 1;

  bool covers(Dim dispatch) const {
    return dispatch >= first_dispatch && dispatch <= last_dispatch;
  }
};

/// A complete scenario: any number of (possibly overlapping) windows.
struct FaultPlan {
  std::vector<FaultWindow> windows;

  bool empty() const { return windows.empty(); }
  FaultPlan& add(FaultWindow window) {
    windows.push_back(window);
    return *this;
  }
};

/// Per-replica fault scenario for a fleet of fabric replicas
/// (core/fleet).  Window dispatch indices stay in each replica's own
/// dispatch space, so one replica's cadence never shifts another's
/// faults.
struct FleetFaultPlan {
  std::vector<FaultPlan> replicas;

  FleetFaultPlan() = default;
  explicit FleetFaultPlan(Dim n)
      : replicas(static_cast<std::size_t>(n)) {}

  bool empty() const;
  /// Appends `window` to replica `r`'s plan (growing the vector to fit).
  FleetFaultPlan& add(Dim r, FaultWindow window);
  /// Correlated "rack" failure burst: the same window lands on every
  /// replica in [first_replica, last_replica] — the top-of-rack switch
  /// dying under all of them at once, not independent per-device noise.
  FleetFaultPlan& rack_burst(Dim first_replica, Dim last_replica,
                             FaultWindow window);
  /// Replica `r`'s plan; an empty plan beyond `replicas.size()`.
  const FaultPlan& plan_for(Dim r) const;
};

/// Derives replica `r`'s injector seed from one fleet seed, so replicas
/// draw independent fault randomness while the whole fleet scenario
/// replays from a single number (SplitMix64 mix, like the injector's
/// own hashing).
std::uint64_t replica_seed(std::uint64_t fleet_seed, Dim r);

/// Seeded, stateless executor of a FaultPlan.  All methods are const and
/// thread-compatible; decisions depend only on (seed, plan, arguments).
class FaultInjector {
 public:
  FaultInjector(std::uint64_t seed, FaultPlan plan);

  std::uint64_t seed() const { return seed_; }
  const FaultPlan& plan() const { return plan_; }

  /// True when a kFabricStall window covers `dispatch`: every fabric
  /// attempt of this dispatch times out (the watchdog fires).
  bool fabric_stalled(Dim dispatch) const;

  /// Number of leading fabric attempts of `dispatch` that fail with a
  /// transient DMA error (0 = clean dispatch).  Attempts beyond this
  /// count succeed, so a bounded retry budget rides the fault out.
  Dim dma_failed_attempts(Dim dispatch) const;

  /// Host slowdown factor for reruns issued by `dispatch` (product of
  /// the active spike windows; 1.0 when none).
  double host_latency_multiplier(Dim dispatch) const;

  /// Applies the SEUs scheduled for `dispatch` to the fabric's on-chip
  /// copy: deterministic bit flips across the packed weight matrices and
  /// threshold words of every compute stage.  Returns the flip count.
  Dim apply_seu(bnn::CompiledBnn& fabric, Dim dispatch) const;

  /// When batch slot `slot` of `dispatch` is scheduled for corruption,
  /// overwrites `image` (the fabric-side DMA copy — the host retains the
  /// original) with deterministic hash noise in [0, 1] and returns true.
  bool corrupt_input(Tensor& image, Dim dispatch, Dim slot) const;

  /// Which inference leg a compute-fault query arms: batch slots and
  /// canary probes draw from separate hash streams so adding canaries
  /// never shifts the batch's fault replay.
  enum class ComputeStream { kBatch, kCanary };

  /// Lowers every datapath FaultWindow covering (`dispatch`, `slot`) to
  /// armed compute faults for a core/integrity Scope.  The target kernel
  /// call, bit positions and lanes all hash from the window identity, so
  /// the same plan strikes the same accumulators at any thread count.
  std::vector<integrity::ArmedComputeFault> compute_faults(
      Dim dispatch, Dim slot,
      ComputeStream stream = ComputeStream::kBatch) const;

  /// True when the plan contains any datapath fault window (the
  /// supervisor then arms integrity scopes even in IntegrityMode::kOff —
  /// an undefended fabric must still take the hit).
  bool has_compute_faults() const;

 private:
  std::uint64_t seed_;
  FaultPlan plan_;
};

/// CRC-32 (IEEE 802.3 polynomial, reflected) over a byte buffer; `seed`
/// chains multi-buffer digests.
std::uint32_t crc32(const void* data, std::size_t bytes,
                    std::uint32_t seed = 0);

/// Digest of one stage's emulated on-chip memory: packed weight words,
/// thresholds and negate flags.
std::uint32_t stage_crc(const bnn::CompiledStage& stage);

/// Golden per-stage digests, computed once at load time.
struct WeightCrcBook {
  std::vector<std::uint32_t> stage_crc;
};

WeightCrcBook crc_book(const bnn::CompiledBnn& net);

/// One scrub cycle: verifies every stage of `fabric` against `book` and
/// reloads mismatching stages from `golden` (the host-held master copy).
/// Returns the number of stages repaired.  `golden` must be the network
/// `book` was computed from.
Dim scrub_weights(bnn::CompiledBnn& fabric, const bnn::CompiledBnn& golden,
                  const WeightCrcBook& book);

}  // namespace mpcnn::core
