// Link-time interposers for mpcnn_bench_traced.
//
// The traced binary links with `-Wl,--wrap=SYMBOL` for every symbol named
// in an MPCNN_BENCH_SHIM line below (CMakeLists.txt reads the list from
// this file).  The linker then resolves each call to SYMBOL that crosses
// an object file to __wrap_SYMBOL, defined here, which records a span and
// calls the original through __real_SYMBOL.  No program source changes.
//
// Limits: a call from inside the defining translation unit never reaches
// the linker, so it stays invisible (StreamSession::dispatch called from
// submit(), FleetScheduler::dispatch called from submit()/flush(),
// content_hash64 and TileResultCache inside scene_stream.cpp).  Member
// functions are declared as free functions taking the object pointer
// first, which is how the Itanium C++ ABI passes `this`.  When a
// signature changes its mangled name changes too, and the traced link
// fails on the missing __real_ symbol until the line here is updated.
#include "bnn/compile.hpp"
#include "core/dmu.hpp"
#include "core/fleet.hpp"
#include "core/stream.hpp"
#include "data/hd_scene.hpp"
#include "nn/net.hpp"
#include "span.hpp"
#include "tensor/gemm.hpp"

using namespace mpcnn;
using mpcnn_bench::ScopedSpan;
using mpcnn_bench::Site;

// Declares __real_SYMBOL, defines __wrap_SYMBOL as span + forward.
#define MPCNN_BENCH_SHIM(site, symbol, Ret, Params, Args)     \
  Ret real_##site Params __asm__("__real_" symbol);           \
  Ret wrap_##site Params __asm__("__wrap_" symbol);           \
  Ret wrap_##site Params {                                    \
    ScopedSpan span(Site::site);                              \
    return real_##site Args;                                  \
  }

using Scores = std::vector<std::int32_t>;
using BatchScores = std::vector<Scores>;

MPCNN_BENCH_SHIM(kBnnRunReference,
  "_ZN5mpcnn3bnn13run_referenceERKNS0_11CompiledBnnERKNS_6TensorENS0_7BnnExecE",
  Scores, (const bnn::CompiledBnn& net, const Tensor& image, bnn::BnnExec exec),
  (net, image, exec))
MPCNN_BENCH_SHIM(kBnnRunReferenceBatch,
  "_ZN5mpcnn3bnn19run_reference_batchERKNS0_11CompiledBnnERKNS_6TensorENS0_7BnnExecE",
  BatchScores,
  (const bnn::CompiledBnn& net, const Tensor& images, bnn::BnnExec exec),
  (net, images, exec))
MPCNN_BENCH_SHIM(kNnPredict, "_ZN5mpcnn2nn3Net7predictERKNS_6TensorE",
  std::vector<int>, (nn::Net* self, const Tensor& batch), (self, batch))
MPCNN_BENCH_SHIM(kNnForward, "_ZN5mpcnn2nn3Net7forwardERKNS_6TensorE",
  Tensor, (nn::Net* self, const Tensor& in), (self, in))
MPCNN_BENCH_SHIM(kGemm, "_ZN5mpcnn4gemmElllfPKfS1_fPf",
  void, (std::int64_t M, std::int64_t N, std::int64_t K, float alpha,
         const float* A, const float* B, float beta, float* C),
  (M, N, K, alpha, A, B, beta, C))
MPCNN_BENCH_SHIM(kGemmAt, "_ZN5mpcnn7gemm_atElllfPKfS1_fPf",
  void, (std::int64_t M, std::int64_t N, std::int64_t K, float alpha,
         const float* A, const float* B, float beta, float* C),
  (M, N, K, alpha, A, B, beta, C))
MPCNN_BENCH_SHIM(kGemmBt, "_ZN5mpcnn7gemm_btElllfPKfS1_fPf",
  void, (std::int64_t M, std::int64_t N, std::int64_t K, float alpha,
         const float* A, const float* B, float beta, float* C),
  (M, N, K, alpha, A, B, beta, C))
MPCNN_BENCH_SHIM(kDmuConfidence,
  "_ZNK5mpcnn4core3Dmu10confidenceERKSt6vectorIfSaIfEE",
  float, (const core::Dmu* self, const std::vector<float>& scores),
  (self, scores))
MPCNN_BENCH_SHIM(kStreamSubmit,
  "_ZN5mpcnn4core13StreamSession6submitERKNS_6TensorEd",
  Dim, (core::StreamSession* self, const Tensor& image, double arrival),
  (self, image, arrival))
MPCNN_BENCH_SHIM(kStreamFlush, "_ZN5mpcnn4core13StreamSession5flushEv",
  void, (core::StreamSession* self), (self))
MPCNN_BENCH_SHIM(kStreamFlushAt, "_ZN5mpcnn4core13StreamSession8flush_atEd",
  void, (core::StreamSession* self, double now), (self, now))
MPCNN_BENCH_SHIM(kStreamHostRoute,
  "_ZN5mpcnn4core13StreamSession10host_routeERKNS_6TensorEdd",
  Dim, (core::StreamSession* self, const Tensor& image, double arrival,
        double not_before),
  (self, image, arrival, not_before))
MPCNN_BENCH_SHIM(kFleetDispatch,
  "_ZN5mpcnn4core14FleetScheduler8dispatchESt6vectorINS1_6TaggedESaIS3_EEd",
  void, (core::FleetScheduler* self,
         std::vector<core::FleetScheduler::Tagged> batch, double now),
  (self, std::move(batch), now))
MPCNN_BENCH_SHIM(kFleetHostRoute,
  "_ZN5mpcnn4core14FleetScheduler10host_routeERKNS_6TensorEddll",
  Dim, (core::FleetScheduler* self, const Tensor& image, double arrival,
        double not_before, Dim tag, Dim replica_hint),
  (self, image, arrival, not_before, tag, replica_hint))
MPCNN_BENCH_SHIM(kFleetPlan, "_ZNK5mpcnn4core14FleetScheduler4planEld",
  core::FleetScheduler::Plan,
  (const core::FleetScheduler* self, Dim n, double now), (self, n, now))
MPCNN_BENCH_SHIM(kFleetSubmit,
  "_ZN5mpcnn4core14FleetScheduler6submitERKNS_6TensorEd",
  Dim, (core::FleetScheduler* self, const Tensor& image, double arrival),
  (self, image, arrival))
MPCNN_BENCH_SHIM(kFleetFlush, "_ZN5mpcnn4core14FleetScheduler5flushEv",
  void, (core::FleetScheduler* self), (self))
MPCNN_BENCH_SHIM(kDataExtractTile,
  "_ZN5mpcnn4data12extract_tileERKNS_6TensorERKNS0_12TileGeometryE",
  Tensor, (const Tensor& frame, const data::TileGeometry& tile),
  (frame, tile))
