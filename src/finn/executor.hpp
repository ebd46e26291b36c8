// Folded cycle walk of a compiled BNN on the engine model.
//
// Counts every engine's cycles the way the hardware is folded: per output
// position, the P×S weight tile walk — PE p owns output channels
// congruent to p mod P, and each clock cycle consumes S weight columns
// per PE.  The walk computes no activations (bnn::run_reference is the
// functional engine); it derives the count from the compiled stages'
// geometry, independently of the Eq. (3)/(4) closed form in finn::Engine,
// so the tests can hold the performance model to it.
#pragma once

#include <cstdint>
#include <vector>

#include "bnn/compile.hpp"
#include "finn/engine.hpp"

namespace mpcnn::finn {

/// Cycle accounting of one image through the folded engines.
struct ExecutionTrace {
  std::vector<std::int64_t> engine_cycles;  ///< per compute engine
  std::int64_t total_cycles = 0;            ///< Σ engine cycles
  std::int64_t bottleneck_cycles = 0;       ///< max engine cycles
};

/// Engine set matching the compute stages of a compiled net, balanced
/// for the given target II.
std::vector<Engine> engines_for_compiled(const bnn::CompiledBnn& net,
                                         std::int64_t target_cycles,
                                         Dim max_simd = 32);

/// Folded cycle walk over a single-bit compiled net.
class FoldedExecutor {
 public:
  /// `engines` must have one entry per conv/dense stage of `net`, in
  /// order, with valid foldings and geometry matching the compiled
  /// stages.  Throws Error otherwise, and on partially-binarised nets.
  FoldedExecutor(const bnn::CompiledBnn& net,
                 const std::vector<Engine>& engines);

  /// Per-image cycles: positions × row tiles × column tiles per engine.
  const ExecutionTrace& trace() const { return trace_; }

 private:
  ExecutionTrace trace_;
};

}  // namespace mpcnn::finn
