// Throughput of the compiled-BNN packed engine (google-benchmark) on the
// full-width CIFAR-10 CNV, single image and batched.  run_all.sh writes
// the result to BENCH_bnn.json so the engine's img/s is tracked across
// PRs; tests/test_bnn_packed.cpp holds its scores to the generic oracle.
//
// BM_BnnReferencePackedChecked runs the same image under a full ABFT
// scope (core/integrity), the checked path fleet replicas and verified
// re-execution take, so the two rows give the checksum cost per image.
//
// The custom main additionally registers per-ISA dispatch rows, forced
// via MPCNN_ISA + refresh_isa outside the timed loop: the packed engine
// plain and checked (BM_BnnReferencePackedIsa/<isa>,
// BM_BnnReferencePackedCheckedIsa/<isa>, thread-swept
// BM_BnnBatchPackedIsa), and a wide fixed-point byte-conv net
// (BM_BnnFixedConvIsa) that isolates the byte-conv kernel dispatch at a
// wide first-stage shape.
// The JSON context is stamped with core::cpu_signature() for the
// regression gate in run_all.sh.
#include <benchmark/benchmark.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "bnn/compile.hpp"
#include "bnn/topology.hpp"
#include "core/cpu.hpp"
#include "core/integrity/integrity.hpp"
#include "core/threadpool.hpp"
#include "tensor/rng.hpp"

namespace {

using namespace mpcnn;

// CIFAR-10-shaped compiled CNV (3×32×32 in, 10 classes) at the paper's
// full width — the Model A operating point of the reproduction.
struct BnnFixture {
  bnn::CompiledBnn net;
  Tensor image{Shape{1, 3, 32, 32}};
  Tensor batch{Shape{16, 3, 32, 32}};

  BnnFixture() {
    bnn::CnvConfig config;
    config.width = 1.0f;
    nn::Net graph = bnn::make_cnv_net(config);
    Rng rng(7);
    graph.init(rng);
    net = bnn::compile_bnn(graph);
    image.fill_uniform(rng, 0.0f, 1.0f);
    batch.fill_uniform(rng, 0.0f, 1.0f);
  }
};

BnnFixture& fixture() {
  static BnnFixture fx;
  return fx;
}

// A wide 8-bit fixed-point conv (128→256 channels, 1152-byte patches)
// feeding an output dense.  The first stage dominates, so per-ISA rows
// isolate the portable-vs-VPMADDUBSW byte-conv dispatch choice rather
// than whole-net plumbing.
struct ByteConvFixture {
  bnn::CompiledBnn net;
  Tensor image{Shape{1, 128, 16, 16}};

  ByteConvFixture() {
    Rng rng(29);
    net.classes = 10;
    net.input_levels = 255;
    auto stage = [&rng](bnn::StageKind kind, Dim in_ch, Dim in_hw,
                        Dim out_ch, Dim out_hw, Dim kernel, Dim cols,
                        int in_levels) {
      bnn::CompiledStage s;
      s.kind = kind;
      s.in_ch = in_ch;
      s.in_h = s.in_w = in_hw;
      s.out_ch = out_ch;
      s.out_h = s.out_w = out_hw;
      s.kernel = kernel;
      s.in_levels = in_levels;
      s.out_levels = 2;
      s.weights = bnn::BitMatrix(out_ch, cols);
      for (Dim r = 0; r < out_ch; ++r) {
        for (Dim c = 0; c < cols; ++c) {
          s.weights.set(r, c, rng.uniform(0.0, 1.0) < 0.5);
        }
      }
      s.thresholds.resize(static_cast<std::size_t>(out_ch));
      for (auto& t : s.thresholds) {
        t = static_cast<std::int32_t>(rng.uniform(-64.0, 64.0));
      }
      s.negate.resize(static_cast<std::size_t>(out_ch), 0);
      return s;
    };
    net.stages.push_back(stage(bnn::StageKind::kFixedPointConv, 128, 16,
                               256, 14, 3, 128 * 9, 256));
    net.stages.push_back(stage(bnn::StageKind::kOutputDense, 256 * 14 * 14,
                               1, 10, 1, 0, 256 * 14 * 14, 2));
    image.fill_uniform(rng, 0.0f, 1.0f);
  }
};

ByteConvFixture& byte_conv_fixture() {
  static ByteConvFixture fx;
  return fx;
}

void BM_BnnReferencePacked(benchmark::State& state) {
  BnnFixture& fx = fixture();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        bnn::run_reference(fx.net, fx.image, bnn::BnnExec::kPacked));
  }
  state.counters["img/s"] = benchmark::Counter(
      1.0, benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_BnnReferencePacked)->UseRealTime();

// One kFull scope per image, as the stream supervisor arms them; a clean
// image must raise no detection.
void packed_checked_body(benchmark::State& state) {
  BnnFixture& fx = fixture();
  std::vector<core::integrity::Detection> sink;
  core::integrity::ScopeOptions opts;
  opts.mode = core::integrity::IntegrityMode::kFull;
  opts.sink = &sink;
  for (auto _ : state) {
    core::integrity::Scope scope(opts);
    benchmark::DoNotOptimize(
        bnn::run_reference(fx.net, fx.image, bnn::BnnExec::kPacked));
  }
  if (!sink.empty()) state.SkipWithError("checksum mismatch on a clean image");
  state.counters["img/s"] = benchmark::Counter(
      1.0, benchmark::Counter::kIsIterationInvariantRate);
}

void BM_BnnReferencePackedChecked(benchmark::State& state) {
  packed_checked_body(state);
}
BENCHMARK(BM_BnnReferencePackedChecked)->UseRealTime();

// Batched fan-out as core/stream and core/workbench drive it: per-image
// parallelism over the pool on top of the packed per-layer engine.
void BM_BnnReferenceBatchPacked(benchmark::State& state) {
  BnnFixture& fx = fixture();
  const int threads = static_cast<int>(state.range(0));
  const int prior = core::thread_count();
  core::set_thread_count(threads);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        bnn::run_reference_batch(fx.net, fx.batch, bnn::BnnExec::kPacked));
  }
  state.counters["img/s"] = benchmark::Counter(
      static_cast<double>(fx.batch.shape()[0]),
      benchmark::Counter::kIsIterationInvariantRate);
  state.counters["threads"] = static_cast<double>(threads);
  core::set_thread_count(prior);
}
BENCHMARK(BM_BnnReferenceBatchPacked)->Arg(1)->Arg(4)->UseRealTime();

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

void packed_isa_body(const std::string& isa, benchmark::State& state) {
  BnnFixture& fx = fixture();
  IsaScope scope(isa);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        bnn::run_reference(fx.net, fx.image, bnn::BnnExec::kPacked));
  }
  state.counters["img/s"] = benchmark::Counter(
      1.0, benchmark::Counter::kIsIterationInvariantRate);
}

void batch_packed_isa_body(const std::string& isa,
                           benchmark::State& state) {
  BnnFixture& fx = fixture();
  IsaScope scope(isa);
  const int threads = static_cast<int>(state.range(0));
  const int prior = core::thread_count();
  core::set_thread_count(threads);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        bnn::run_reference_batch(fx.net, fx.batch, bnn::BnnExec::kPacked));
  }
  state.counters["img/s"] = benchmark::Counter(
      static_cast<double>(fx.batch.shape()[0]),
      benchmark::Counter::kIsIterationInvariantRate);
  state.counters["threads"] = static_cast<double>(threads);
  core::set_thread_count(prior);
}

void byte_conv_isa_body(const std::string& isa, benchmark::State& state) {
  ByteConvFixture& fx = byte_conv_fixture();
  IsaScope scope(isa);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        bnn::run_reference(fx.net, fx.image, bnn::BnnExec::kPacked));
  }
  state.counters["img/s"] = benchmark::Counter(
      1.0, benchmark::Counter::kIsIterationInvariantRate);
}

void register_isa_benchmarks() {
  for (const core::Isa level : core::supported_isas()) {
    const std::string isa = core::isa_name(level);
    benchmark::RegisterBenchmark(
        ("BM_BnnReferencePackedIsa/" + isa).c_str(),
        [isa](benchmark::State& state) { packed_isa_body(isa, state); })
        ->UseRealTime();
    benchmark::RegisterBenchmark(
        ("BM_BnnReferencePackedCheckedIsa/" + isa).c_str(),
        [isa](benchmark::State& state) {
          IsaScope scope(isa);
          packed_checked_body(state);
        })
        ->UseRealTime();
    benchmark::RegisterBenchmark(
        ("BM_BnnFixedConvIsa/" + isa).c_str(),
        [isa](benchmark::State& state) { byte_conv_isa_body(isa, state); })
        ->UseRealTime();
    benchmark::RegisterBenchmark(
        ("BM_BnnBatchPackedIsa/" + isa).c_str(),
        [isa](benchmark::State& state) {
          batch_packed_isa_body(isa, state);
        })
        ->Arg(1)
        ->Arg(4)
        ->UseRealTime();
  }
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::AddCustomContext("mpcnn_cpu_signature",
                              mpcnn::core::cpu_signature());
  benchmark::Initialize(&argc, argv);
  register_isa_benchmarks();
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
