#include "core/fault.hpp"

#include <algorithm>
#include <array>

#include "io/artifact.hpp"
#include "tensor/error.hpp"
#include "tensor/rng.hpp"

namespace mpcnn::core {
namespace {

// Per-kind stream tags keep e.g. SEU targeting independent of input
// corruption even when windows share dispatch indices.
constexpr std::uint64_t kSeuTag = 0x5E00A11DULL;
constexpr std::uint64_t kInputTag = 0xC0221137ULL;
constexpr std::uint64_t kComputeBatchTag = 0xC0117A57ULL;
constexpr std::uint64_t kComputeCanaryTag = 0xCA4A21E5ULL;

bool is_compute_kind(FaultKind kind) {
  return kind == FaultKind::kAccumulatorBitFlip ||
         kind == FaultKind::kPopcountLaneStuck ||
         kind == FaultKind::kPartialSumCorruption;
}

integrity::ComputeFaultKind lower_compute_kind(FaultKind kind) {
  switch (kind) {
    case FaultKind::kAccumulatorBitFlip:
      return integrity::ComputeFaultKind::kAccumulatorBitFlip;
    case FaultKind::kPopcountLaneStuck:
      return integrity::ComputeFaultKind::kPopcountLaneStuck;
    default:
      return integrity::ComputeFaultKind::kPartialSumCorruption;
  }
}

// Stages with emulated on-chip parameter memory (pool stages hold none).
bool has_parameters(const bnn::CompiledStage& stage) {
  return stage.kind != bnn::StageKind::kMaxPoolBinary;
}


}  // namespace

bool FleetFaultPlan::empty() const {
  for (const FaultPlan& plan : replicas) {
    if (!plan.empty()) return false;
  }
  return true;
}

FleetFaultPlan& FleetFaultPlan::add(Dim r, FaultWindow window) {
  MPCNN_CHECK(r >= 0, "replica index must be >= 0");
  if (static_cast<std::size_t>(r) >= replicas.size()) {
    replicas.resize(static_cast<std::size_t>(r) + 1);
  }
  replicas[static_cast<std::size_t>(r)].add(window);
  return *this;
}

FleetFaultPlan& FleetFaultPlan::rack_burst(Dim first_replica,
                                           Dim last_replica,
                                           FaultWindow window) {
  MPCNN_CHECK(first_replica >= 0 && last_replica >= first_replica,
              "rack burst [" << first_replica << ", " << last_replica
                             << "] is inverted");
  for (Dim r = first_replica; r <= last_replica; ++r) add(r, window);
  return *this;
}

const FaultPlan& FleetFaultPlan::plan_for(Dim r) const {
  static const FaultPlan kEmpty;
  MPCNN_CHECK(r >= 0, "replica index must be >= 0");
  return static_cast<std::size_t>(r) < replicas.size()
             ? replicas[static_cast<std::size_t>(r)]
             : kEmpty;
}

std::uint64_t replica_seed(std::uint64_t fleet_seed, Dim r) {
  return mix64(fleet_seed, 0xF1EE7000ULL + static_cast<std::uint64_t>(r));
}

FaultInjector::FaultInjector(std::uint64_t seed, FaultPlan plan)
    : seed_(seed), plan_(std::move(plan)) {
  for (const FaultWindow& w : plan_.windows) {
    MPCNN_CHECK(w.last_dispatch >= w.first_dispatch,
                "fault window [" << w.first_dispatch << ", "
                                 << w.last_dispatch << "] is inverted");
    MPCNN_CHECK(w.magnitude >= 0.0, "fault magnitude must be >= 0");
  }
}

bool FaultInjector::fabric_stalled(Dim dispatch) const {
  for (const FaultWindow& w : plan_.windows) {
    if (w.kind == FaultKind::kFabricStall && w.covers(dispatch)) return true;
  }
  return false;
}

Dim FaultInjector::dma_failed_attempts(Dim dispatch) const {
  Dim failed = 0;
  for (const FaultWindow& w : plan_.windows) {
    if (w.kind == FaultKind::kDmaError && w.covers(dispatch)) {
      failed = std::max(failed, static_cast<Dim>(w.magnitude));
    }
  }
  return failed;
}

double FaultInjector::host_latency_multiplier(Dim dispatch) const {
  double multiplier = 1.0;
  for (const FaultWindow& w : plan_.windows) {
    if (w.kind == FaultKind::kHostLatencySpike && w.covers(dispatch)) {
      multiplier *= w.magnitude;
    }
  }
  return multiplier;
}

Dim FaultInjector::apply_seu(bnn::CompiledBnn& fabric, Dim dispatch) const {
  // Target space: every valid weight bit plus every threshold bit of
  // every parameterised stage, linearised.  Flips land uniformly via the
  // per-flip hash, so the same (seed, dispatch) corrupts the same bits
  // in any fabric copy of the same geometry.
  std::int64_t total_bits = 0;
  for (const bnn::CompiledStage& stage : fabric.stages) {
    if (!has_parameters(stage)) continue;
    total_bits += static_cast<std::int64_t>(stage.weights.rows()) *
                  stage.weights.cols();
    total_bits += static_cast<std::int64_t>(stage.thresholds.size()) * 32;
  }
  if (total_bits == 0) return 0;

  Dim flips = 0;
  for (std::size_t wi = 0; wi < plan_.windows.size(); ++wi) {
    const FaultWindow& w = plan_.windows[wi];
    if (w.kind != FaultKind::kSeuWeightFlip || !w.covers(dispatch)) continue;
    for (Dim k = 0; k < w.count; ++k) {
      const std::uint64_t h = mix64(
          mix64(mix64(seed_, kSeuTag), static_cast<std::uint64_t>(dispatch)),
          (static_cast<std::uint64_t>(wi) << 32) |
              static_cast<std::uint64_t>(k));
      std::int64_t target =
          static_cast<std::int64_t>(h % static_cast<std::uint64_t>(total_bits));
      for (bnn::CompiledStage& stage : fabric.stages) {
        if (!has_parameters(stage)) continue;
        const std::int64_t weight_bits =
            static_cast<std::int64_t>(stage.weights.rows()) *
            stage.weights.cols();
        if (target < weight_bits) {
          // The index runs over logical columns, so a (seed, dispatch)
          // flips the same logical weight whatever the stored layout.
          const Dim r = static_cast<Dim>(target / stage.weights.cols());
          const Dim c = bnn::stored_column(
              stage, static_cast<Dim>(target % stage.weights.cols()));
          stage.weights.set(r, c, !stage.weights.get(r, c));
          ++flips;
          break;
        }
        target -= weight_bits;
        const std::int64_t threshold_bits =
            static_cast<std::int64_t>(stage.thresholds.size()) * 32;
        if (target < threshold_bits) {
          const std::size_t word = static_cast<std::size_t>(target / 32);
          const int bit = static_cast<int>(target % 32);
          stage.thresholds[word] = static_cast<std::int32_t>(
              static_cast<std::uint32_t>(stage.thresholds[word]) ^
              (1u << bit));
          ++flips;
          break;
        }
        target -= threshold_bits;
      }
    }
  }
  return flips;
}

bool FaultInjector::corrupt_input(Tensor& image, Dim dispatch,
                                  Dim slot) const {
  bool scheduled = false;
  for (const FaultWindow& w : plan_.windows) {
    if (w.kind == FaultKind::kInputCorruption && w.covers(dispatch) &&
        slot < w.count) {
      scheduled = true;
      break;
    }
  }
  if (!scheduled) return false;
  // Full-frame hash noise in [0, 1]: a torn DMA transfer leaves valid
  // pixel encodings but garbage content, which is exactly the case the
  // DMU is supposed to distrust.
  const std::uint64_t base =
      mix64(mix64(mix64(seed_, kInputTag),
                  static_cast<std::uint64_t>(dispatch)),
            static_cast<std::uint64_t>(slot));
  float* pixels = image.data();
  for (Dim i = 0; i < image.numel(); ++i) {
    const std::uint64_t h = mix64(base, static_cast<std::uint64_t>(i));
    pixels[static_cast<std::size_t>(i)] =
        static_cast<float>(h >> 40) / static_cast<float>(1 << 24);
  }
  return true;
}

std::vector<integrity::ArmedComputeFault> FaultInjector::compute_faults(
    Dim dispatch, Dim slot, ComputeStream stream) const {
  std::vector<integrity::ArmedComputeFault> armed;
  const std::uint64_t tag = stream == ComputeStream::kCanary
                                ? kComputeCanaryTag
                                : kComputeBatchTag;
  for (std::size_t wi = 0; wi < plan_.windows.size(); ++wi) {
    const FaultWindow& w = plan_.windows[wi];
    if (!is_compute_kind(w.kind) || !w.covers(dispatch) || slot >= w.count) {
      continue;
    }
    integrity::ArmedComputeFault f;
    f.kind = lower_compute_kind(w.kind);
    f.seed = mix64(
        mix64(mix64(seed_, tag), static_cast<std::uint64_t>(dispatch)),
        (static_cast<std::uint64_t>(wi) << 32) |
            static_cast<std::uint64_t>(slot));
    // The packed engine makes >= 8 hooked kernel calls per image (5
    // binary convs + 3 dense stages of the CNV topology); targeting the
    // first 6 keeps every armed fault live on any compiled net of that
    // family.
    f.target_call = static_cast<int>(mix64(f.seed, 0x7A96ULL) % 6);
    f.sticky_attempts = std::max(1, static_cast<int>(w.magnitude));
    armed.push_back(f);
  }
  return armed;
}

bool FaultInjector::has_compute_faults() const {
  for (const FaultWindow& w : plan_.windows) {
    if (is_compute_kind(w.kind)) return true;
  }
  return false;
}

std::uint32_t crc32(const void* data, std::size_t bytes, std::uint32_t seed) {
  // One CRC implementation repo-wide: the artifact container's digest
  // (io/artifact) doubles as the on-chip weight-memory digest here.
  return io::crc32(data, bytes, seed);
}

std::uint32_t stage_crc(const bnn::CompiledStage& stage) {
  // Digest exactly what the emulated on-chip memory holds: the packed
  // weight words row by row, the threshold words and the negate flags.
  std::uint32_t c = 0;
  for (Dim r = 0; r < stage.weights.rows(); ++r) {
    c = crc32(stage.weights.row_data(r),
              static_cast<std::size_t>(stage.weights.words_per_row()) *
                  sizeof(std::uint64_t),
              c);
  }
  if (!stage.thresholds.empty()) {
    c = crc32(stage.thresholds.data(),
              stage.thresholds.size() * sizeof(std::int32_t), c);
  }
  if (!stage.negate.empty()) {
    c = crc32(stage.negate.data(), stage.negate.size(), c);
  }
  return c;
}

WeightCrcBook crc_book(const bnn::CompiledBnn& net) {
  WeightCrcBook book;
  book.stage_crc.reserve(net.stages.size());
  for (const bnn::CompiledStage& stage : net.stages) {
    book.stage_crc.push_back(stage_crc(stage));
  }
  return book;
}

Dim scrub_weights(bnn::CompiledBnn& fabric, const bnn::CompiledBnn& golden,
                  const WeightCrcBook& book) {
  MPCNN_CHECK(fabric.stages.size() == golden.stages.size() &&
                  golden.stages.size() == book.stage_crc.size(),
              "scrub: fabric/golden/book stage counts differ ("
                  << fabric.stages.size() << "/" << golden.stages.size()
                  << "/" << book.stage_crc.size() << ")");
  Dim repaired = 0;
  for (std::size_t s = 0; s < fabric.stages.size(); ++s) {
    if (stage_crc(fabric.stages[s]) == book.stage_crc[s]) continue;
    fabric.stages[s] = golden.stages[s];
    MPCNN_CHECK(stage_crc(fabric.stages[s]) == book.stage_crc[s],
                "scrub: golden stage " << s << " fails its own CRC — the "
                "host-held master copy is corrupt");
    ++repaired;
  }
  return repaired;
}

}  // namespace mpcnn::core
