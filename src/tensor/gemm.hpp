// Single-precision GEMM kernels.
//
// All convolution and dense layers lower to these routines (the same way
// the paper's host network rides on OpenBLAS).  Every matrix is dense
// row-major; C is always M×N and the contraction length is always K:
//   C[M×N] = alpha · op(A) · op(B) + beta · C
// The blocked kernels are parallelised over row tiles of C on the shared
// thread pool (core/threadpool.hpp); each output element is accumulated
// by one thread in a fixed order, so results are bit-reproducible at any
// thread count.
#pragma once

#include <cstdint>

namespace mpcnn {

/// C = alpha·A·B + beta·C with op(A) = A, op(B) = B.
/// A is M×K row-major, B is K×N row-major: A[m*K + k], B[k*N + n].
void gemm(std::int64_t M, std::int64_t N, std::int64_t K, float alpha,
          const float* A, const float* B, float beta, float* C);

/// C = alpha·Aᵀ·B + beta·C with op(A) = Aᵀ.
/// A holds the K×M row-major operand whose transpose is multiplied:
/// op(A)[m][k] = A[k*M + m].  B is K×N row-major, as in gemm().
void gemm_at(std::int64_t M, std::int64_t N, std::int64_t K, float alpha,
             const float* A, const float* B, float beta, float* C);

/// C = alpha·A·Bᵀ + beta·C with op(B) = Bᵀ.
/// B holds the N×K row-major operand whose transpose is multiplied:
/// op(B)[k][n] = B[n*K + k].  A is M×K row-major, as in gemm().
void gemm_bt(std::int64_t M, std::int64_t N, std::int64_t K, float alpha,
             const float* A, const float* B, float beta, float* C);

/// Reference implementation used by tests to validate the blocked kernel.
void gemm_naive(std::int64_t M, std::int64_t N, std::int64_t K, float alpha,
                const float* A, const float* B, float beta, float* C);

}  // namespace mpcnn
