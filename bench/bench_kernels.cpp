// Micro-benchmarks of the compute kernels underneath everything
// (google-benchmark): float GEMM (square, and the batch-1 conv GEMMs of
// the served host models as BM_Gemm/<M>x<N>x<K>), im2col, whole-network
// BNN inference in the packed engine, and one host float image through
// Net::predict (BM_NetPredict/<model>).  Binary products have one
// implementation, the stage lane kernel, timed here through xnor_gemm
// (BM_XnorGemm) and inside whole networks.
// MPCNN_ISA=<level> runs every row at one dispatch level.
//
// The custom main below additionally registers one benchmark per
// supported ISA dispatch level (BM_GemmIsa/<isa>, BM_XnorGemmIsa/<isa>,
// forced via MPCNN_ISA + refresh_isa outside the timed loop) and stamps
// the JSON context with core::cpu_signature(), so BENCH_host.json
// carries directly comparable scalar/sse2/avx2 rows for the regression
// gate in run_all.sh.
#include <benchmark/benchmark.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "bnn/bitpack.hpp"
#include "bnn/compile.hpp"
#include "bnn/topology.hpp"
#include "core/cpu.hpp"
#include "core/threadpool.hpp"
#include "nn/model_zoo.hpp"
#include "tensor/gemm.hpp"
#include "tensor/im2col.hpp"
#include "tensor/rng.hpp"

namespace {

using namespace mpcnn;

// C (M×N) = A (M×K) · B (K×N), beta = 0 as a conv layer calls it.
void gemm_body(Dim m, Dim n, Dim k, benchmark::State& state) {
  Rng rng(1);
  std::vector<float> A(static_cast<std::size_t>(m * k));
  std::vector<float> B(static_cast<std::size_t>(k * n));
  std::vector<float> C(static_cast<std::size_t>(m * n));
  for (auto& v : A) v = static_cast<float>(rng.uniform());
  for (auto& v : B) v = static_cast<float>(rng.uniform());
  for (auto _ : state) {
    gemm(m, n, k, 1.0f, A.data(), B.data(), 0.0f, C.data());
    benchmark::DoNotOptimize(C.data());
  }
  state.counters["GFLOPs"] = benchmark::Counter(
      2.0 * static_cast<double>(m) * n * k,
      benchmark::Counter::kIsIterationInvariantRate,
      benchmark::Counter::kIs1000);
}

void BM_Gemm(benchmark::State& state) {
  const Dim n = state.range(0);
  gemm_body(n, n, n, state);
}
BENCHMARK(BM_Gemm)->Arg(64)->Arg(128)->Arg(256)->Arg(512);

// Threads-vs-GFLOPs sweep: resizes the shared pool per run so the scaling
// curve of the M-tile fan-out lands in BENCH_kernels.json across PRs.
// Results at any width are bit-identical (static chunked partitioning),
// so the sweep measures pure scheduling/packing overhead vs speedup.
void BM_GemmThreads(benchmark::State& state) {
  const Dim n = state.range(0);
  const int threads = static_cast<int>(state.range(1));
  const int prior = core::thread_count();
  core::set_thread_count(threads);
  Rng rng(1);
  std::vector<float> A(static_cast<std::size_t>(n * n));
  std::vector<float> B(static_cast<std::size_t>(n * n));
  std::vector<float> C(static_cast<std::size_t>(n * n));
  for (auto& v : A) v = static_cast<float>(rng.uniform());
  for (auto& v : B) v = static_cast<float>(rng.uniform());
  for (auto _ : state) {
    gemm(n, n, n, 1.0f, A.data(), B.data(), 0.0f, C.data());
    benchmark::DoNotOptimize(C.data());
  }
  state.counters["GFLOPs"] = benchmark::Counter(
      2.0 * static_cast<double>(n) * n * n,
      benchmark::Counter::kIsIterationInvariantRate,
      benchmark::Counter::kIs1000);
  state.counters["threads"] = static_cast<double>(threads);
  core::set_thread_count(prior);
}
// UseRealTime: the submitting thread sleeps while workers compute, so the
// scaling curve only shows up against wall clock, not thread CPU time.
BENCHMARK(BM_GemmThreads)
    ->ArgsProduct({{256, 512}, {1, 2, 4, 8}})
    ->UseRealTime();

void BM_Im2Col(benchmark::State& state) {
  ConvGeometry g{64, 30, 30, 3, 1, 0};
  Rng rng(3);
  std::vector<float> im(static_cast<std::size_t>(g.in_channels * g.in_h *
                                                 g.in_w));
  for (auto& v : im) v = static_cast<float>(rng.uniform());
  std::vector<float> col(static_cast<std::size_t>(g.patch_size() *
                                                  g.positions()));
  for (auto _ : state) {
    im2col(g, im.data(), col.data());
    benchmark::DoNotOptimize(col.data());
  }
}
BENCHMARK(BM_Im2Col);

// Batched lowering: one im2col per image fanned out over the pool, the
// shape conv layers actually run during batched host inference.
void BM_Im2ColBatch(benchmark::State& state) {
  const Dim batch = state.range(0);
  ConvGeometry g{64, 30, 30, 3, 1, 0};
  Rng rng(3);
  const Dim im_per = g.in_channels * g.in_h * g.in_w;
  const Dim col_per = g.patch_size() * g.positions();
  std::vector<float> im(static_cast<std::size_t>(batch * im_per));
  for (auto& v : im) v = static_cast<float>(rng.uniform());
  std::vector<float> col(static_cast<std::size_t>(batch * col_per));
  for (auto _ : state) {
    core::parallel_for(0, batch, 1, [&](Dim n0, Dim n1) {
      for (Dim n = n0; n < n1; ++n) {
        im2col(g, im.data() + n * im_per, col.data() + n * col_per);
      }
    });
    benchmark::DoNotOptimize(col.data());
  }
  state.counters["img/s"] = benchmark::Counter(
      static_cast<double>(batch),
      benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_Im2ColBatch)->Arg(8)->Arg(32)->UseRealTime();

// Blocked binary GEMM at conv-shaped operands: rows = out channels,
// cols = in_ch·K·K patch bits, positions = one 28×28 output map.  GXOP/s
// counts XNOR+popcount as two ops per bit (the FINN convention).
void BM_XnorGemm(benchmark::State& state) {
  const Dim out_ch = state.range(0);
  const Dim in_ch = state.range(1);
  const Dim cols = in_ch * 3 * 3;
  const Dim positions = 28 * 28;
  Rng rng(5);
  bnn::BitMatrix a(out_ch, cols), b(positions, cols);
  for (Dim r = 0; r < out_ch; ++r) {
    for (Dim c = 0; c < cols; ++c) a.set(r, c, rng.bernoulli(0.5));
  }
  for (Dim p = 0; p < positions; ++p) {
    for (Dim c = 0; c < cols; ++c) b.set(p, c, rng.bernoulli(0.5));
  }
  std::vector<std::int32_t> out(
      static_cast<std::size_t>(out_ch * positions));
  for (auto _ : state) {
    bnn::xnor_gemm(a, b, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.counters["GXOP/s"] = benchmark::Counter(
      2.0 * static_cast<double>(out_ch) * cols * positions,
      benchmark::Counter::kIsIterationInvariantRate,
      benchmark::Counter::kIs1000);
}
BENCHMARK(BM_XnorGemm)
    ->ArgsProduct({{64, 128, 256}, {64, 128}})
    ->UseRealTime();

struct BnnFixture {
  bnn::CompiledBnn net;
  Tensor image{Shape{1, 3, 32, 32}};

  BnnFixture() {
    bnn::CnvConfig config;
    config.width = 0.25f;
    nn::Net graph = bnn::make_cnv_net(config);
    Rng rng(7);
    graph.init(rng);
    net = bnn::compile_bnn(graph);
    image.fill_uniform(rng, 0.0f, 1.0f);
  }
};

void BM_BnnReference(benchmark::State& state) {
  static BnnFixture fx;
  for (auto _ : state) {
    benchmark::DoNotOptimize(bnn::run_reference(fx.net, fx.image));
  }
  state.counters["img/s"] = benchmark::Counter(
      1.0, benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_BnnReference);

// One host float image per Net::predict call, as the cascade's host leg
// serves it: Models A and C at core::WorkbenchConfig's default widths
// (0.375 and 0.1875, C without its input dropout), seeded init.
void net_predict_body(char which, benchmark::State& state) {
  nn::ModelOptions options;
  options.width = which == 'A' ? 0.375f : 0.1875f;
  options.input_dropout = 0.0f;
  nn::Net net = nn::make_model(std::string(1, which), options);
  Rng rng(7);
  net.init(rng);
  net.set_training(false);
  Tensor image(Shape{1, 3, 32, 32});
  image.fill_uniform(rng, 0.0f, 1.0f);
  for (auto _ : state) benchmark::DoNotOptimize(net.predict(image));
  state.counters["img/s"] = benchmark::Counter(
      1.0, benchmark::Counter::kIsIterationInvariantRate);
}

// ---- per-ISA dispatch benchmarks --------------------------------------

// Forces one dispatch level for the scope of a benchmark body; the env
// flip and table rebind happen outside the timed loop.
struct IsaScope {
  explicit IsaScope(const std::string& isa) {
    ::setenv("MPCNN_ISA", isa.c_str(), 1);
    core::refresh_isa();
  }
  ~IsaScope() {
    ::unsetenv("MPCNN_ISA");
    core::refresh_isa();
  }
};

void gemm_isa_body(const std::string& isa, benchmark::State& state) {
  IsaScope scope(isa);
  const Dim n = state.range(0);
  const int threads = static_cast<int>(state.range(1));
  const int prior = core::thread_count();
  core::set_thread_count(threads);
  Rng rng(1);
  std::vector<float> A(static_cast<std::size_t>(n * n));
  std::vector<float> B(static_cast<std::size_t>(n * n));
  std::vector<float> C(static_cast<std::size_t>(n * n));
  for (auto& v : A) v = static_cast<float>(rng.uniform());
  for (auto& v : B) v = static_cast<float>(rng.uniform());
  for (auto _ : state) {
    gemm(n, n, n, 1.0f, A.data(), B.data(), 0.0f, C.data());
    benchmark::DoNotOptimize(C.data());
  }
  state.counters["GFLOPs"] = benchmark::Counter(
      2.0 * static_cast<double>(n) * n * n,
      benchmark::Counter::kIsIterationInvariantRate,
      benchmark::Counter::kIs1000);
  state.counters["threads"] = static_cast<double>(threads);
  core::set_thread_count(prior);
}

void xnor_gemm_isa_body(const std::string& isa, benchmark::State& state) {
  IsaScope scope(isa);
  const Dim out_ch = state.range(0);
  const Dim cols = state.range(1) * 3 * 3;
  const Dim positions = 28 * 28;
  Rng rng(5);
  bnn::BitMatrix a(out_ch, cols), b(positions, cols);
  for (Dim r = 0; r < out_ch; ++r) {
    for (Dim c = 0; c < cols; ++c) a.set(r, c, rng.bernoulli(0.5));
  }
  for (Dim p = 0; p < positions; ++p) {
    for (Dim c = 0; c < cols; ++c) b.set(p, c, rng.bernoulli(0.5));
  }
  std::vector<std::int32_t> out(
      static_cast<std::size_t>(out_ch * positions));
  for (auto _ : state) {
    bnn::xnor_gemm(a, b, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.counters["GXOP/s"] = benchmark::Counter(
      2.0 * static_cast<double>(out_ch) * cols * positions,
      benchmark::Counter::kIsIterationInvariantRate,
      benchmark::Counter::kIs1000);
}

// The batch-1 conv GEMMs (out channels × positions × patch) that
// dominate a host image at Workbench widths: Model C's 18-channel 32×32
// and 36-channel 16×16 3×3 convs, and Model A's first 5×5 conv.  A tile
// change shows here per level (MPCNN_ISA) without the end-to-end bench.
void register_conv_gemm_benchmarks() {
  struct ConvGemm {
    Dim m, n, k;
  };
  for (const ConvGemm s : {ConvGemm{18, 1024, 162}, ConvGemm{36, 256, 324},
                           ConvGemm{12, 1024, 75}}) {
    benchmark::RegisterBenchmark(
        ("BM_Gemm/" + std::to_string(s.m) + "x" + std::to_string(s.n) + "x" +
         std::to_string(s.k))
            .c_str(),
        [s](benchmark::State& state) { gemm_body(s.m, s.n, s.k, state); })
        ->UseRealTime();
  }
}

void register_net_benchmarks() {
  for (const char which : {'A', 'C'}) {
    benchmark::RegisterBenchmark(
        (std::string("BM_NetPredict/") + which).c_str(),
        [which](benchmark::State& state) { net_predict_body(which, state); })
        ->UseRealTime();
  }
}

void register_isa_benchmarks() {
  for (const core::Isa level : core::supported_isas()) {
    const std::string isa = core::isa_name(level);
    benchmark::RegisterBenchmark(
        ("BM_GemmIsa/" + isa).c_str(),
        [isa](benchmark::State& state) { gemm_isa_body(isa, state); })
        ->ArgsProduct({{256, 512}, {1, 4}})
        ->UseRealTime();
    benchmark::RegisterBenchmark(
        ("BM_XnorGemmIsa/" + isa).c_str(),
        [isa](benchmark::State& state) {
          xnor_gemm_isa_body(isa, state);
        })
        ->Args({128, 128})
        ->UseRealTime();
  }
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::AddCustomContext("mpcnn_cpu_signature",
                              mpcnn::core::cpu_signature());
  benchmark::Initialize(&argc, argv);
  register_conv_gemm_benchmarks();
  register_net_benchmarks();
  register_isa_benchmarks();
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
