// ABFT-checksummed kernels, canary self-test probes and verified
// re-execution: the end-to-end silent-data-corruption defense.
#include "core/integrity/integrity.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <filesystem>
#include <limits>
#include <random>
#include <vector>

#include "bnn/bitpack.hpp"
#include "bnn/compile.hpp"
#include "bnn/topology.hpp"
#include "core/fault.hpp"
#include "core/integrity/canary.hpp"
#include "core/stream.hpp"
#include "core/threadpool.hpp"
#include "core/workbench.hpp"
#include "isa_override.hpp"
#include "tensor/gemm.hpp"

namespace mpcnn {
namespace {

using core::integrity::ArmedComputeFault;
using core::integrity::ComputeFaultKind;
using core::integrity::Detection;
using core::integrity::IntegrityMode;
using core::integrity::KernelFamily;
using core::integrity::Scope;
using core::integrity::ScopeOptions;

bnn::CompiledBnn tiny_compiled(std::uint64_t seed) {
  bnn::CnvConfig config;
  config.width = 0.125f;
  nn::Net net = bnn::make_cnv_net(config);
  Rng rng(seed);
  net.init(rng);
  return bnn::compile_bnn(net);
}

core::FaultWindow window(core::FaultKind kind, Dim first, Dim last,
                         double magnitude = 1.0, Dim count = 1) {
  core::FaultWindow w;
  w.kind = kind;
  w.first_dispatch = first;
  w.last_dispatch = last;
  w.magnitude = magnitude;
  w.count = count;
  return w;
}

ScopeOptions full_scope(std::vector<Detection>* sink,
                        std::uint64_t token = 1) {
  ScopeOptions opts;
  opts.mode = IntegrityMode::kFull;
  opts.token = token;
  opts.sink = sink;
  return opts;
}

ArmedComputeFault armed(ComputeFaultKind kind, std::uint64_t seed,
                        int target_call = 0, int sticky = 1) {
  ArmedComputeFault fault;
  fault.kind = kind;
  fault.seed = seed;
  fault.target_call = target_call;
  fault.sticky_attempts = sticky;
  return fault;
}

std::vector<float> random_block(std::size_t n, std::uint32_t seed,
                                float lo = -1.0f, float hi = 1.0f) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<float> dist(lo, hi);
  std::vector<float> block(n);
  for (float& x : block) x = dist(rng);
  return block;
}

bnn::BitMatrix random_bits(Dim rows, Dim cols, std::uint32_t seed) {
  std::mt19937 rng(seed);
  bnn::BitMatrix m(rows, cols);
  for (Dim r = 0; r < rows; ++r) {
    for (Dim c = 0; c < cols; ++c) m.set(r, c, (rng() & 1u) != 0);
  }
  return m;
}

// ------------------------------------------------------ mode plumbing

TEST(IntegrityModeApi, ParseAndNameRoundTrip) {
  using core::integrity::mode_name;
  using core::integrity::parse_mode;
  EXPECT_EQ(parse_mode("off"), IntegrityMode::kOff);
  EXPECT_EQ(parse_mode("sample"), IntegrityMode::kSample);
  EXPECT_EQ(parse_mode("full"), IntegrityMode::kFull);
  EXPECT_STREQ(mode_name(IntegrityMode::kOff), "off");
  EXPECT_STREQ(mode_name(IntegrityMode::kSample), "sample");
  EXPECT_STREQ(mode_name(IntegrityMode::kFull), "full");
  EXPECT_THROW(parse_mode("paranoid"), Error);
}

// ----------------------------------------------------- float gemm ABFT

TEST(GemmAbft, CleanCallsPassAcrossShapesAndLayouts) {
  core::integrity::reset_counters();
  const std::uint64_t before = core::integrity::checks_run();
  std::vector<Detection> sink;

  struct Case {
    Dim m, n, k;
  };
  const Case cases[] = {{1, 1, 1}, {3, 5, 7}, {17, 33, 129}, {32, 16, 64}};
  std::uint32_t seed = 100;
  for (const Case& c : cases) {
    const std::vector<float> a =
        random_block(static_cast<std::size_t>(c.m * c.k), seed++);
    const std::vector<float> b =
        random_block(static_cast<std::size_t>(c.k * c.n), seed++);
    // beta carries an existing C through the checksum epilogue.
    std::vector<float> acc =
        random_block(static_cast<std::size_t>(c.m * c.n), seed++);
    Scope scope(full_scope(&sink, seed));
    gemm(c.m, c.n, c.k, 1.0f, a.data(), b.data(), 0.0f, acc.data());
    gemm(c.m, c.n, c.k, -2.0f, a.data(), b.data(), 0.5f, acc.data());
    gemm_bt(c.m, c.n, c.k, 1.5f, a.data(), b.data(), 1.0f, acc.data());
  }

  // Cancellation-heavy data: every entry is ±1, so column sums hover
  // near zero and the relative-magnitude tolerance has no headroom to
  // hide behind — false alarms would show here first.
  {
    std::mt19937 rng(7);
    std::vector<float> a(24 * 48), b(48 * 24), acc(24 * 24, 0.0f);
    for (float& x : a) x = (rng() & 1u) ? 1.0f : -1.0f;
    for (float& x : b) x = (rng() & 1u) ? 1.0f : -1.0f;
    Scope scope(full_scope(&sink, 77));
    gemm(24, 24, 48, 1.0f, a.data(), b.data(), 0.0f, acc.data());
  }

  EXPECT_TRUE(sink.empty());
  EXPECT_GT(core::integrity::checks_run(), before);
  EXPECT_EQ(core::integrity::checks_failed(), 0u);
}

TEST(GemmAbft, ArmedAccumulatorFlipIsDetectedAndAttemptGated) {
  const Dim m = 24, n = 24, k = 32;
  const std::vector<float> a =
      random_block(static_cast<std::size_t>(m * k), 11);
  const std::vector<float> b =
      random_block(static_cast<std::size_t>(k * n), 12);
  std::vector<float> clean(static_cast<std::size_t>(m * n), 0.0f);
  gemm(m, n, k, 1.0f, a.data(), b.data(), 0.0f, clean.data());

  std::vector<Detection> sink;
  std::vector<float> c(static_cast<std::size_t>(m * n), 0.0f);
  {
    ScopeOptions opts = full_scope(&sink, 5);
    opts.faults.push_back(armed(ComputeFaultKind::kAccumulatorBitFlip, 9));
    Scope scope(opts);
    gemm(m, n, k, 1.0f, a.data(), b.data(), 0.0f, c.data());
    EXPECT_EQ(scope.faults_fired(), 1);
    EXPECT_EQ(scope.calls_seen(), 1);
  }
  ASSERT_FALSE(sink.empty());
  EXPECT_EQ(sink.front().family, KernelFamily::kGemm);
  EXPECT_EQ(sink.front().call_index, 0);
  EXPECT_GT(sink.front().tolerance, 0.0);
  EXPECT_NE(std::memcmp(c.data(), clean.data(), c.size() * sizeof(float)),
            0);

  // The same fault at attempt 1 is spent (sticky_attempts = 1): the
  // verified re-execution runs clean and bit-identical.
  sink.clear();
  std::vector<float> retry(static_cast<std::size_t>(m * n), 0.0f);
  {
    ScopeOptions opts = full_scope(&sink, 5);
    opts.attempt = 1;
    opts.faults.push_back(armed(ComputeFaultKind::kAccumulatorBitFlip, 9));
    Scope scope(opts);
    gemm(m, n, k, 1.0f, a.data(), b.data(), 0.0f, retry.data());
    EXPECT_EQ(scope.faults_fired(), 0);
  }
  EXPECT_TRUE(sink.empty());
  EXPECT_EQ(std::memcmp(retry.data(), clean.data(),
                        retry.size() * sizeof(float)),
            0);
}

TEST(GemmAbft, PartialSumBurstIsDetected) {
  const Dim m = 16, n = 40, k = 24;
  const std::vector<float> a =
      random_block(static_cast<std::size_t>(m * k), 21);
  const std::vector<float> b =
      random_block(static_cast<std::size_t>(k * n), 22);
  std::vector<float> c(static_cast<std::size_t>(m * n), 0.0f);
  std::vector<Detection> sink;
  ScopeOptions opts = full_scope(&sink, 6);
  opts.faults.push_back(
      armed(ComputeFaultKind::kPartialSumCorruption, 303));
  Scope scope(opts);
  gemm(m, n, k, 1.0f, a.data(), b.data(), 0.0f, c.data());
  EXPECT_EQ(scope.faults_fired(), 1);
  EXPECT_FALSE(sink.empty());
}

TEST(GemmAbft, ModeOffTakesTheHitSilently) {
  // An undefended fabric still gets struck — that is the motivating
  // failure: corruption flows through with no detection at all.
  const Dim m = 12, n = 12, k = 16;
  const std::vector<float> a =
      random_block(static_cast<std::size_t>(m * k), 31);
  const std::vector<float> b =
      random_block(static_cast<std::size_t>(k * n), 32);
  std::vector<float> clean(static_cast<std::size_t>(m * n), 0.0f);
  gemm(m, n, k, 1.0f, a.data(), b.data(), 0.0f, clean.data());

  std::vector<Detection> sink;
  std::vector<float> c(static_cast<std::size_t>(m * n), 0.0f);
  ScopeOptions opts;
  opts.mode = IntegrityMode::kOff;
  opts.sink = &sink;
  opts.faults.push_back(armed(ComputeFaultKind::kAccumulatorBitFlip, 1));
  {
    Scope scope(opts);
    gemm(m, n, k, 1.0f, a.data(), b.data(), 0.0f, c.data());
    EXPECT_EQ(scope.faults_fired(), 1);
  }
  EXPECT_TRUE(sink.empty());
  EXPECT_NE(std::memcmp(c.data(), clean.data(), c.size() * sizeof(float)),
            0);
}

// ---------------------------------------------------- xnor gemm ABFT

TEST(XnorAbft, CleanRaggedShapesPass) {
  core::integrity::reset_counters();
  std::vector<Detection> sink;
  const Dim shapes[][3] = {{1, 1, 1}, {8, 64, 5}, {3, 130, 7}, {16, 257, 9}};
  std::uint32_t seed = 500;
  for (const auto& s : shapes) {
    const bnn::BitMatrix a = random_bits(s[0], s[1], seed++);
    const bnn::BitMatrix b = random_bits(s[2], s[1], seed++);
    std::vector<std::int32_t> c(static_cast<std::size_t>(s[0] * s[2]));
    Scope scope(full_scope(&sink, seed));
    bnn::xnor_gemm(a, b, c.data());
  }
  EXPECT_TRUE(sink.empty());
  EXPECT_EQ(core::integrity::checks_failed(), 0u);
}

TEST(XnorAbft, EveryMutatingArmedFaultIsCaughtExactly) {
  const bnn::BitMatrix a = random_bits(12, 130, 900);
  const bnn::BitMatrix b = random_bits(9, 130, 901);
  const ComputeFaultKind kinds[] = {ComputeFaultKind::kAccumulatorBitFlip,
                                    ComputeFaultKind::kPopcountLaneStuck,
                                    ComputeFaultKind::kPartialSumCorruption};
  int fired_total = 0;
  int detected_total = 0;
  for (const ComputeFaultKind kind : kinds) {
    for (std::uint64_t seed = 0; seed < 10; ++seed) {
      std::vector<Detection> sink;
      std::vector<std::int32_t> c(12 * 9);
      ScopeOptions opts = full_scope(&sink, seed + 1);
      opts.faults.push_back(armed(kind, seed));
      Scope scope(opts);
      bnn::xnor_gemm(a, b, c.data());
      if (scope.faults_fired() > 0) {
        ++fired_total;
        // The packed checksum identity is exact: any mutation trips it.
        ASSERT_FALSE(sink.empty())
            << "kind " << static_cast<int>(kind) << " seed " << seed;
        EXPECT_EQ(sink.front().family, KernelFamily::kXnorGemm);
        EXPECT_EQ(sink.front().tolerance, 0.0);
        ++detected_total;
      } else {
        EXPECT_TRUE(sink.empty());
      }
    }
  }
  EXPECT_GE(fired_total, 20);  // near all; lane stuck-at can no-op
  EXPECT_EQ(detected_total, fired_total);
}

// While rows·cols fits in 2^30 the checksum side sums each position's
// data lanes in wrapping 32-bit arithmetic.  A corrupted lane can push
// the exact sum past INT32_MAX; the Detection then reports the wrapped
// value.  Zero bit matrices make every clean lane +cols, so the clean
// sum is rows·cols = 2^24, and seed 244 flips position 0's lane into a
// value that overflows int32 once the other 255 lanes are added.
TEST(XnorAbft, ChecksumSumWrapsAtThirtyTwoBits) {
  const Dim rows = 256, cols = 65536, n = 8;
  const bnn::BitMatrix a(rows, cols);
  const bnn::BitMatrix b(n, cols);
  std::vector<Detection> sink;
  std::vector<std::int32_t> c(static_cast<std::size_t>(rows * n));
  ScopeOptions opts = full_scope(&sink);
  opts.faults.push_back(armed(ComputeFaultKind::kPartialSumCorruption, 244));
  {
    Scope scope(opts);
    bnn::xnor_gemm(a, b, c.data());
  }
  ASSERT_EQ(sink.size(), 1u);
  const Detection& d = sink.front();
  EXPECT_EQ(d.family, KernelFamily::kXnorGemm);
  EXPECT_EQ(d.ref, static_cast<double>(rows * cols));
  ASSERT_GE(d.lane, 0);
  ASSERT_LT(d.lane, n);
  std::int64_t exact = 0;
  for (Dim r = 0; r < rows; ++r) {
    exact += c[static_cast<std::size_t>(r * n + d.lane)];
  }
  ASSERT_GT(exact, std::numeric_limits<std::int32_t>::max())
      << "seed 244's fault does not overflow the int32 sum";
  const auto wrapped =
      static_cast<std::int32_t>(static_cast<std::uint32_t>(exact));
  EXPECT_EQ(d.got, static_cast<double>(wrapped));
  EXPECT_NE(d.got, static_cast<double>(exact));
}

// ------------------------------------------- engine path equivalence

TEST(InstrumentedEngine, CheckedPathMatchesFusedAndScalarOracle) {
  const bnn::CompiledBnn net = tiny_compiled(7);
  Rng rng(71);
  std::vector<Detection> sink;
  for (int i = 0; i < 3; ++i) {
    Tensor image(Shape{1, 3, 32, 32});
    image.fill_uniform(rng, 0.0f, 1.0f);
    const std::vector<std::int32_t> fused = bnn::run_reference(net, image);
    const std::vector<std::int32_t> oracle =
        bnn::run_reference(net, image, bnn::BnnExec::kOracle);
    std::vector<std::int32_t> checked;
    {
      core::SerialGuard serial;
      Scope scope(full_scope(&sink, 900 + static_cast<std::uint64_t>(i)));
      checked = bnn::run_reference(net, image);
      EXPECT_GT(scope.calls_seen(), 0);
    }
    EXPECT_EQ(checked, fused) << i;
    EXPECT_EQ(checked, oracle) << i;
  }
  EXPECT_TRUE(sink.empty());
}

// FNV-64 over the eight little-endian bytes of v.
void fnv_fold(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFFu;
    h *= 0x100000001B3ULL;
  }
}

// Pins which accumulator each armed fault strikes inside the packed
// engine and what every detection says.  Each case arms one fault on
// one hooked call (8 per CNV image) of one image; its scores, fired and
// seen counts and every Detection fold into one digest, recorded from
// an independent implementation of the same contract (a row-major
// accumulator matrix and an AND-popcount plane sweep).  Full scopes
// verify every call, sampled ones about half of them and off scopes
// none, so the digest also pins the unverified calls' accumulators.
TEST(InstrumentedEngine, ArmedFaultReplayIsPinned) {
  bnn::CnvConfig config;
  config.width = 0.25f;
  nn::Net graph = bnn::make_cnv_net(config);
  Rng init(29);
  graph.init(init);
  const bnn::CompiledBnn nets[] = {tiny_compiled(7),
                                   bnn::compile_bnn(graph)};
  Rng rng(83);
  std::vector<Tensor> images;
  for (int i = 0; i < 2; ++i) {
    Tensor image(Shape{1, 3, 32, 32});
    image.fill_uniform(rng, 0.0f, 1.0f);
    images.push_back(image);
  }
  const ComputeFaultKind kinds[] = {ComputeFaultKind::kAccumulatorBitFlip,
                                    ComputeFaultKind::kPopcountLaneStuck,
                                    ComputeFaultKind::kPartialSumCorruption};
  const IntegrityMode modes[] = {IntegrityMode::kFull, IntegrityMode::kSample,
                                 IntegrityMode::kOff};
  for (const std::string& level : isa_test::supported_levels()) {
    isa_test::IsaOverride isa(level);
    std::uint64_t h = 0xCBF29CE484222325ULL;
    int detections = 0;
    for (const bnn::CompiledBnn& net : nets) {
      for (const ComputeFaultKind kind : kinds) {
        for (int call = 0; call < 8; ++call) {
          for (std::uint64_t seed = 0; seed < 2; ++seed) {
            for (const Tensor& image : images) {
              for (const IntegrityMode mode : modes) {
                std::vector<Detection> sink;
                ScopeOptions opts = full_scope(&sink, seed + 3);
                opts.mode = mode;
                opts.sample_period = 2;
                opts.faults.push_back(
                    armed(kind, 17 * static_cast<std::uint64_t>(call) + seed,
                          call));
                std::vector<std::int32_t> scores;
                int fired = 0, seen = 0;
                {
                  Scope scope(opts);
                  scores = bnn::run_reference(net, image);
                  fired = scope.faults_fired();
                  seen = scope.calls_seen();
                }
                for (const std::int32_t s : scores) {
                  fnv_fold(h, static_cast<std::uint64_t>(s));
                }
                fnv_fold(h, static_cast<std::uint64_t>(fired));
                fnv_fold(h, static_cast<std::uint64_t>(seen));
                fnv_fold(h, sink.size());
                for (const Detection& d : sink) {
                  EXPECT_EQ(d.family, KernelFamily::kXnorGemm);
                  fnv_fold(h, static_cast<std::uint64_t>(d.call_index));
                  fnv_fold(h, static_cast<std::uint64_t>(d.lane));
                  fnv_fold(h, static_cast<std::uint64_t>(
                                  static_cast<std::int64_t>(d.got)));
                  fnv_fold(h, static_cast<std::uint64_t>(
                                  static_cast<std::int64_t>(d.ref)));
                }
                detections += static_cast<int>(sink.size());
              }
            }
          }
        }
      }
    }
    EXPECT_GT(detections, 0) << "isa=" << level;
    EXPECT_EQ(h, 0xCBDAFC094E570A34ULL)
        << "isa=" << level << std::hex << " digest 0x" << h;
  }
}

// ------------------------------------------------------- canary book

TEST(CanaryBook, BuildRoundTripAndForeignModelDeviation) {
  namespace ci = core::integrity;
  const bnn::CompiledBnn golden = tiny_compiled(7);
  const ci::CanaryBook book = ci::make_canary_book(golden, 3, 11);
  ASSERT_EQ(book.inputs.size(), 3u);
  ASSERT_EQ(book.expected.size(), 3u);
  EXPECT_EQ(book.model_crc, ci::model_identity_crc(golden));
  // Deterministic rebuild: same (net, count, seed) -> same book.
  const ci::CanaryBook again = ci::make_canary_book(golden, 3, 11);
  EXPECT_EQ(again.expected, book.expected);
  // A healthy fabric replays every probe bit-for-bit.
  EXPECT_EQ(ci::run_canaries(golden, book), 0);
  // A different network deviates (and carries a different identity).
  const bnn::CompiledBnn foreign = tiny_compiled(8);
  EXPECT_NE(ci::model_identity_crc(foreign), book.model_crc);
  EXPECT_GT(ci::run_canaries(foreign, book), 0);

  const std::string path =
      (std::filesystem::temp_directory_path() / "mpcnn_canary_rt.mpgb")
          .string();
  ci::save_canary_book(book, path);
  const ci::CanaryBook loaded = ci::load_canary_book(path);
  EXPECT_EQ(loaded.classes, book.classes);
  EXPECT_EQ(loaded.model_crc, book.model_crc);
  EXPECT_EQ(loaded.expected, book.expected);
  ASSERT_EQ(loaded.inputs.size(), book.inputs.size());
  for (std::size_t i = 0; i < book.inputs.size(); ++i) {
    ASSERT_EQ(loaded.inputs[i].shape(), book.inputs[i].shape()) << i;
    EXPECT_EQ(std::memcmp(loaded.inputs[i].data(), book.inputs[i].data(),
                          static_cast<std::size_t>(book.inputs[i].numel()) *
                              sizeof(float)),
              0)
        << i;
  }
  EXPECT_EQ(ci::run_canaries(golden, loaded), 0);
  std::filesystem::remove(path);
}

TEST(CanaryBook, FiniteImageCheckNamesTheBoundary) {
  Tensor image(Shape{1, 3, 4, 4});
  core::integrity::check_finite_image(image, "unit");  // zeros are fine
  image.data()[5] = std::numeric_limits<float>::quiet_NaN();
  EXPECT_THROW(core::integrity::check_finite_image(image, "unit"), Error);
  image.data()[5] = std::numeric_limits<float>::infinity();
  EXPECT_THROW(core::integrity::check_finite_image(image, "unit"), Error);
}

// ------------------------------------------------- supervised stream

class IntegrityStreamTest : public ::testing::Test {
 protected:
  // Same tiny shared workbench (and cache) as the stream/fault tests.
  static core::Workbench& workbench() {
    static core::Workbench wb([] {
      core::WorkbenchConfig config;
      config.cache_dir =
          (std::filesystem::temp_directory_path() / "mpcnn_tiny_shared")
              .string();
      config.train_size = 300;
      config.test_size = 100;
      config.model_a_width = 0.125f;
      config.model_b_width = 0.125f;
      config.model_c_width = 0.125f;
      config.bnn_width = 0.125f;
      config.float_epochs = 2;
      config.bnn_epochs = 2;
      config.verbose = false;
      return config;
    }());
    return wb;
  }

  struct Run {
    std::vector<core::StreamResult> results;
    core::SupervisorStats stats;
    core::FabricState state = core::FabricState::kOk;
  };

  static Run run_scenario(core::StreamSession::Config config,
                          const core::FaultInjector* injector, Dim images,
                          double interval = 0.0) {
    core::Workbench& wb = workbench();
    core::StreamSession session = wb.make_stream('A', config, injector);
    for (Dim i = 0; i < images; ++i) {
      session.submit(wb.test_set().images.slice_batch(i),
                     static_cast<double>(i) * interval);
    }
    session.flush();
    Run run;
    run.results = session.drain();
    run.stats = session.stats();
    run.state = session.fabric_state();
    return run;
  }

  // drain() orders by completion time and re-executed slots finish
  // late, so cross-run comparisons must match on image_id, not index.
  static std::vector<const core::StreamResult*> by_id(const Run& run) {
    std::vector<const core::StreamResult*> map(run.results.size(), nullptr);
    for (const core::StreamResult& r : run.results) {
      map.at(static_cast<std::size_t>(r.image_id)) = &r;
    }
    return map;
  }

  static void expect_same_stats(const core::SupervisorStats& a,
                                const core::SupervisorStats& b) {
    EXPECT_EQ(a.dispatches, b.dispatches);
    EXPECT_EQ(a.fabric_batches, b.fabric_batches);
    EXPECT_EQ(a.degraded_batches, b.degraded_batches);
    EXPECT_EQ(a.watchdog_timeouts, b.watchdog_timeouts);
    EXPECT_EQ(a.retries, b.retries);
    EXPECT_EQ(a.degraded_entries, b.degraded_entries);
    EXPECT_EQ(a.recoveries, b.recoveries);
    EXPECT_EQ(a.scrub_cycles, b.scrub_cycles);
    EXPECT_EQ(a.scrub_repairs, b.scrub_repairs);
    EXPECT_EQ(a.seu_flips, b.seu_flips);
    EXPECT_EQ(a.shed, b.shed);
    EXPECT_EQ(a.sdc_detected, b.sdc_detected);
    EXPECT_EQ(a.sdc_corrected, b.sdc_corrected);
    EXPECT_EQ(a.sdc_served_after_reexec, b.sdc_served_after_reexec);
    EXPECT_EQ(a.canary_runs, b.canary_runs);
    EXPECT_EQ(a.canary_failures, b.canary_failures);
    EXPECT_EQ(a.compute_faults_fired, b.compute_faults_fired);
  }
};

TEST_F(IntegrityStreamTest, TransientFaultsAreCorrectedBitIdentical) {
  core::StreamSession::Config config;
  config.batch_size = 4;
  config.dmu_threshold = 0.0f;
  config.integrity = IntegrityMode::kFull;
  const Run baseline = run_scenario(config, nullptr, 16);

  core::FaultPlan plan;
  plan.add(window(core::FaultKind::kAccumulatorBitFlip, 0, 3, 1.0, 2));
  core::FaultInjector injector(21, plan);
  const Run faulted = run_scenario(config, &injector, 16);

  ASSERT_EQ(faulted.results.size(), 16u);
  EXPECT_EQ(faulted.state, core::FabricState::kOk);
  // Two struck slots per dispatch, all transient: every strike is
  // detected, every re-execution comes back clean.
  EXPECT_EQ(faulted.stats.compute_faults_fired, 8);
  EXPECT_EQ(faulted.stats.sdc_detected, 8);
  EXPECT_EQ(faulted.stats.sdc_corrected, 8);
  EXPECT_EQ(faulted.stats.sdc_served_after_reexec, 8);
  EXPECT_EQ(faulted.stats.degraded_entries, 0);
  EXPECT_EQ(faulted.stats.fabric_batches, 4);
  const std::vector<const core::StreamResult*> base = by_id(baseline);
  for (const core::StreamResult& r : faulted.results) {
    // Corrected labels are bit-identical to the fault-free run and the
    // batch still serves from the fabric — re-execution only costs time.
    const core::StreamResult* b = base.at(static_cast<std::size_t>(r.image_id));
    ASSERT_NE(b, nullptr) << r.image_id;
    EXPECT_EQ(r.label, b->label) << r.image_id;
    EXPECT_EQ(r.served_by, core::ServedBy::kFabric) << r.image_id;
    EXPECT_GE(r.ready_at, b->ready_at) << r.image_id;
  }
}

TEST_F(IntegrityStreamTest, UndefendedFabricServesCorruptedLabels) {
  core::StreamSession::Config config;
  config.batch_size = 4;
  config.dmu_threshold = 0.0f;
  config.integrity = IntegrityMode::kOff;
  const Run baseline = run_scenario(config, nullptr, 16);

  const std::vector<const core::StreamResult*> base = by_id(baseline);
  // A single pre-threshold bit flip is often absorbed by the binarizing
  // activation, so pile strikes on until a label visibly turns: the
  // point is that with checking off nothing stands between the
  // corruption and the caller.
  int wrong = 0;
  for (std::uint64_t seed = 21; seed < 29 && wrong == 0; ++seed) {
    core::FaultPlan plan;
    for (int w = 0; w < 6; ++w) {
      plan.add(
          window(core::FaultKind::kPartialSumCorruption, 0, 3, 1.0, 4));
      plan.add(window(core::FaultKind::kAccumulatorBitFlip, 0, 3, 1.0, 4));
    }
    core::FaultInjector injector(seed, plan);
    const Run faulted = run_scenario(config, &injector, 16);
    EXPECT_GT(faulted.stats.compute_faults_fired, 0) << seed;
    EXPECT_EQ(faulted.stats.sdc_detected, 0) << seed;
    EXPECT_EQ(faulted.stats.sdc_corrected, 0) << seed;
    for (const core::StreamResult& r : faulted.results) {
      if (r.label != base.at(static_cast<std::size_t>(r.image_id))->label) {
        ++wrong;
      }
    }
  }
  EXPECT_GE(wrong, 1);  // silent corruption reached the caller
}

TEST_F(IntegrityStreamTest, PersistentFaultEscalatesToHostFloat) {
  core::Workbench& wb = workbench();
  core::StreamSession::Config config;
  config.batch_size = 4;
  config.dmu_threshold = 0.0f;
  config.integrity = IntegrityMode::kFull;

  core::FaultPlan plan;
  // magnitude 3 -> the strike survives three attempts: the fabric
  // re-execution fails too and the slot escalates to the host model.
  plan.add(window(core::FaultKind::kAccumulatorBitFlip, 0, 1, 3.0, 1));
  core::FaultInjector injector(33, plan);
  const Run run = run_scenario(config, &injector, 8);

  ASSERT_EQ(run.results.size(), 8u);
  EXPECT_EQ(run.stats.sdc_detected, 2);
  EXPECT_EQ(run.stats.sdc_corrected, 0);
  EXPECT_EQ(run.stats.sdc_served_after_reexec, 2);
  EXPECT_EQ(run.stats.compute_faults_fired, 4);  // attempts 0 and 1, twice

  nn::Net& host = wb.model('A');
  host.set_training(false);
  for (const core::StreamResult& result : run.results) {
    const bool struck = result.image_id == 0 || result.image_id == 4;
    if (struck) {
      EXPECT_EQ(result.served_by, core::ServedBy::kHost) << result.image_id;
      EXPECT_TRUE(result.rerun) << result.image_id;
      const int host_label =
          host.predict(wb.test_set().images.slice_batch(result.image_id))
              .front();
      EXPECT_EQ(result.label, host_label) << result.image_id;
    } else {
      EXPECT_EQ(result.served_by, core::ServedBy::kFabric)
          << result.image_id;
    }
  }
}

TEST_F(IntegrityStreamTest, CanaryProbesCatchStuckLaneAndGateRecovery) {
  core::StreamSession::Config config;
  config.batch_size = 4;
  config.dmu_threshold = 0.0f;
  config.integrity = IntegrityMode::kOff;  // canaries alone carry the day
  config.canary_interval = 1;
  config.canary_count = 2;

  core::FaultPlan plan;
  // A popcount lane stuck for dispatches 1-2, persistent across every
  // re-test (magnitude 99), visible to both canary probes.
  plan.add(window(core::FaultKind::kPopcountLaneStuck, 1, 2, 99.0, 2));
  core::FaultInjector injector(7, plan);
  const Run run = run_scenario(config, &injector, 16);

  ASSERT_EQ(run.results.size(), 16u);
  EXPECT_GT(run.stats.canary_runs, 0);
  EXPECT_GE(run.stats.canary_failures, 2);
  // The gate trips at dispatch 1 (degrade), holds the fabric out at 2,
  // and passes the recovery probe at 3.
  EXPECT_EQ(run.stats.degraded_entries, 1);
  EXPECT_EQ(run.stats.recoveries, 1);
  EXPECT_EQ(run.stats.degraded_batches, 2);
  EXPECT_EQ(run.stats.fabric_batches, 2);
  EXPECT_EQ(run.state, core::FabricState::kOk);
  // The broken-fabric window never serves a fabric label.
  for (const core::StreamResult& result : run.results) {
    const bool windowed = result.image_id >= 4 && result.image_id < 12;
    if (windowed) {
      EXPECT_NE(result.served_by, core::ServedBy::kFabric)
          << result.image_id;
    }
  }
}

TEST_F(IntegrityStreamTest, ScrubAndAbftComposeInOneRun) {
  core::StreamSession::Config config;
  config.batch_size = 4;
  config.dmu_threshold = 0.0f;
  config.integrity = IntegrityMode::kFull;
  config.scrub_interval = 2;
  const Run baseline = run_scenario(config, nullptr, 16);

  core::FaultPlan plan;
  plan.add(window(core::FaultKind::kSeuWeightFlip, 1, 1, 1.0, 12));
  plan.add(window(core::FaultKind::kAccumulatorBitFlip, 0, 3, 1.0, 1));
  core::FaultInjector injector(19, plan);
  const Run run = run_scenario(config, &injector, 16);

  // Memory corruption is the scrubber's (CRC) catch; datapath
  // corruption is the checksum's — one plan exercises both at once.
  EXPECT_EQ(run.stats.seu_flips, 12);
  EXPECT_GE(run.stats.scrub_cycles, 2);
  EXPECT_GE(run.stats.scrub_repairs, 1);
  EXPECT_EQ(run.stats.sdc_detected, 4);
  EXPECT_EQ(run.stats.sdc_corrected, 4);
  EXPECT_EQ(run.state, core::FabricState::kOk);
  const std::vector<const core::StreamResult*> base = by_id(baseline);
  for (const core::StreamResult& r : run.results) {
    // Outside the one dispatch that ran between SEU and scrub, labels
    // are bit-identical to the fault-free run.
    if (r.image_id < 4 || r.image_id >= 8) {
      EXPECT_EQ(r.label, base.at(static_cast<std::size_t>(r.image_id))->label)
          << r.image_id;
    }
  }
}

TEST_F(IntegrityStreamTest, FaultedReplayIsThreadCountInvariant) {
  core::StreamSession::Config config;
  config.batch_size = 4;
  config.dmu_threshold = 0.0f;
  config.integrity = IntegrityMode::kFull;
  config.scrub_interval = 2;
  config.canary_interval = 2;
  config.canary_count = 2;

  core::FaultPlan plan;
  plan.add(window(core::FaultKind::kAccumulatorBitFlip, 0, 2, 1.0, 2));
  plan.add(window(core::FaultKind::kPopcountLaneStuck, 1, 1, 2.0, 2));
  plan.add(window(core::FaultKind::kSeuWeightFlip, 1, 1, 1.0, 6));
  core::FaultInjector injector(27, plan);

  const int prior = core::thread_count();
  core::set_thread_count(1);
  const Run serial = run_scenario(config, &injector, 16, 1e-4);
  core::set_thread_count(4);
  const Run threaded = run_scenario(config, &injector, 16, 1e-4);
  core::set_thread_count(prior);

  expect_same_stats(serial.stats, threaded.stats);
  EXPECT_EQ(serial.state, threaded.state);
  ASSERT_EQ(serial.results.size(), threaded.results.size());
  for (std::size_t i = 0; i < serial.results.size(); ++i) {
    const core::StreamResult& a = serial.results[i];
    const core::StreamResult& b = threaded.results[i];
    EXPECT_EQ(a.image_id, b.image_id) << i;
    EXPECT_EQ(a.label, b.label) << i;
    EXPECT_EQ(a.served_by, b.served_by) << i;
    EXPECT_EQ(a.status, b.status) << i;
    EXPECT_EQ(a.rerun, b.rerun) << i;
    EXPECT_DOUBLE_EQ(a.ready_at, b.ready_at) << i;
  }
}

TEST_F(IntegrityStreamTest, MiniSweepFullModeNeverServesWrongLabels) {
  core::StreamSession::Config config;
  config.batch_size = 4;
  config.dmu_threshold = 0.0f;
  config.integrity = IntegrityMode::kFull;
  const Run baseline = run_scenario(config, nullptr, 16);

  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    core::FaultPlan plan;
    plan.add(window(core::FaultKind::kAccumulatorBitFlip, 0, 3, 1.0, 4));
    plan.add(window(core::FaultKind::kPartialSumCorruption, 0, 3, 1.0, 4));
    plan.add(window(core::FaultKind::kPopcountLaneStuck, 0, 3, 1.0, 4));
    core::FaultInjector injector(seed, plan);
    const Run run = run_scenario(config, &injector, 16);
    EXPECT_GE(run.stats.sdc_detected, 14) << seed;
    EXPECT_EQ(run.stats.sdc_corrected, run.stats.sdc_detected) << seed;
    ASSERT_EQ(run.results.size(), 16u) << seed;
    const std::vector<const core::StreamResult*> base = by_id(baseline);
    for (const core::StreamResult& r : run.results) {
      EXPECT_EQ(r.label, base.at(static_cast<std::size_t>(r.image_id))->label)
          << "seed " << seed << " image " << r.image_id;
    }
  }
}

TEST_F(IntegrityStreamTest, AttachRejectsAForeignBook) {
  namespace ci = core::integrity;
  core::StreamSession::Config config;
  config.batch_size = 4;
  core::StreamSession session =
      workbench().make_stream('A', config, nullptr);
  const ci::CanaryBook foreign =
      ci::make_canary_book(tiny_compiled(123), 2, 5);
  EXPECT_THROW(session.attach_canary_book(foreign), Error);
}

TEST_F(IntegrityStreamTest, NonFiniteInputsAreRejectedAtSubmit) {
  core::StreamSession::Config config;
  config.batch_size = 4;
  core::StreamSession session =
      workbench().make_stream('A', config, nullptr);
  Tensor image = workbench().test_set().images.slice_batch(0);
  image.data()[3] = std::numeric_limits<float>::quiet_NaN();
  EXPECT_THROW(session.submit(image, 0.0), Error);
  image.data()[3] = -std::numeric_limits<float>::infinity();
  EXPECT_THROW(session.submit(image, 0.0), Error);
}

}  // namespace
}  // namespace mpcnn
