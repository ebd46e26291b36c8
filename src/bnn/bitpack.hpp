// Packed binary vectors and XNOR-popcount kernels.
//
// In the bipolar convention a logical bit 1 encodes the value +1 and a
// bit 0 encodes −1.  The dot product of two bipolar vectors of length n
// is then  2·popcount(xnor(a, b)) − n  — the datapath a FINN engine
// implements in LUTs.
//
// Bit-layout contract: feature maps are channels-last.  Pixel (y, x) of
// an h×w map with C channels holds its channel bits at bit
// (y·w + x)·C + c, and one spare word follows the last pixel so that
// field reads and writes may touch the word after a field.  Conv weight
// rows store taps in the matching order (kh·K + kw)·C + c
// (bnn::tap_column in compile.hpp), so a patch row is K contiguous runs
// of K·C map bits, which the stage kernels read straight from the map
// (bnn/kernels.hpp).  Padding bits — past `cols` in a row's last word,
// and past each run in the kernels' per-run operands — are zero on both
// sides, so XOR cancels them and no correction is needed.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "bnn/kernels.hpp"
#include "core/integrity/integrity.hpp"
#include "tensor/error.hpp"
#include "tensor/shape.hpp"

namespace mpcnn::bnn {

/// Fixed-length packed bit vector.
class BitVector {
 public:
  BitVector() = default;
  explicit BitVector(Dim nbits);

  Dim size() const { return nbits_; }
  Dim words() const { return static_cast<Dim>(words_.size()); }

  /// Per-bit accessors: bounds-checked in debug builds only; release
  /// inner loops should prefer whole-word access via data()/word().
  void set(Dim i, bool v);
  bool get(Dim i) const;

  /// Unchecked word access (debug-asserted) for word-parallel kernels.
  std::uint64_t word(Dim w) const {
    MPCNN_DCHECK(w >= 0 && w < words(), "word index " << w);
    return words_[static_cast<std::size_t>(w)];
  }

  const std::uint64_t* data() const { return words_.data(); }
  std::uint64_t* data() { return words_.data(); }

  /// Number of positions where the two vectors carry the same bit
  /// (XNOR-popcount).  Sizes must match.
  Dim xnor_matches(const BitVector& other) const;

  /// Bipolar dot product: 2·matches − n.
  std::int64_t dot_bipolar(const BitVector& other) const;

  bool operator==(const BitVector& other) const {
    return nbits_ == other.nbits_ && words_ == other.words_;
  }

 private:
  Dim nbits_ = 0;
  std::vector<std::uint64_t> words_;
};

/// Row-major matrix of bits; each row is independently dot-able and
/// starts word-aligned (rows never share a word — parallel writers of
/// distinct rows are race-free).
class BitMatrix {
 public:
  BitMatrix() = default;
  BitMatrix(Dim rows, Dim cols);

  Dim rows() const { return rows_; }
  Dim cols() const { return cols_; }
  Dim words_per_row() const { return words_per_row_; }

  /// Per-bit accessors: bounds-checked in debug builds only.
  void set(Dim r, Dim c, bool v);
  bool get(Dim r, Dim c) const;

  /// Unchecked (debug-asserted) pointer to row r's packed words.
  const std::uint64_t* row_data(Dim r) const {
    MPCNN_DCHECK(r >= 0 && r < rows_, "BitMatrix row " << r);
    return words_.data() + static_cast<std::size_t>(r * words_per_row_);
  }
  std::uint64_t* row_data(Dim r) {
    MPCNN_DCHECK(r >= 0 && r < rows_, "BitMatrix row " << r);
    return words_.data() + static_cast<std::size_t>(r * words_per_row_);
  }

 private:
  Dim rows_ = 0, cols_ = 0, words_per_row_ = 0;
  std::vector<std::uint64_t> words_;
};

/// Sign binarisation used everywhere: value >= 0 maps to bit 1 (+1).
inline bool sign_bit(float v) { return v >= 0.0f; }

/// A's rows in the stage kernels' weight layout (bnn/kernels.hpp) for
/// patch rows of `kernel` runs of run = A.cols()/kernel bits: word
/// kh·wpj + j of row r, bits [64j, 64j + 64) of its run kh with zeros
/// past the run, goes to w[(kh·wpj + j)·cstride + r], wpj = ⌈run/64⌉.
/// w holds kernel·wpj·cstride words; lanes ≥ A.rows() are left alone.
void transpose_runs(const BitMatrix& a, Dim kernel, Dim cstride,
                    std::uint64_t* w);

/// Accumulators of one XNOR product in lane layout: the bipolar dot of
/// A.row(r) and B.row(p) (= cols − 2·mismatches) at acc[p·stride + r].
struct XnorLanes {
  Dim stride = 0;
  std::unique_ptr<std::int32_t[]> acc;

  std::int32_t at(Dim r, Dim p) const { return acc[p * stride + r]; }
};

/// The checked XNOR product behind xnor_gemm and the packed engine's
/// checked stages.  One all-channel accumulator-mode kernel call over
/// the patch rows of `b` computes A's rows as lanes and, when `guard`
/// verifies, core/integrity's checksum rows after them, encoded from the
/// very weight words the kernel reads; xnor_end then fires the call's
/// armed faults and checks every position.  `guard` comes from
/// core::integrity::xnor_begin(); an inactive one yields the plain
/// product.  A's rows hold b.k runs of a patch row each (A.cols() =
/// b.k² · b.c for a conv; xnor_gemm's K = 1 source of 64·wpr-bit pixels
/// pads to A's row words).  Serial, like the rest of the engine: callers
/// fan out over images.
XnorLanes checked_xnor(const BitMatrix& a, const detail::PatchSource& b,
                       core::integrity::XnorGuard& guard);

/// Binary GEMM: C[r·B.rows() + p] = bipolar dot of A.row(r) and B.row(p),
/// the checked product (under this thread's integrity guard) transposed
/// to row-major.  A.cols() must equal B.cols().
void xnor_gemm(const BitMatrix& a, const BitMatrix& b, std::int32_t* c);

}  // namespace mpcnn::bnn
