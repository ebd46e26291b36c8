// Fault injection, CRC weight scrubbing and the streaming supervisor:
// deterministic replay, graceful degradation and bounded overload.
#include "core/fault.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>

#include "bnn/topology.hpp"
#include "core/stream.hpp"
#include "core/threadpool.hpp"
#include "core/workbench.hpp"

namespace mpcnn {
namespace {

// ------------------------------------------------- injector + CRC units

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

TEST(Crc32, MatchesTheStandardCheckValue) {
  // The IEEE 802.3 CRC-32 of "123456789" is the canonical check value.
  EXPECT_EQ(core::crc32("123456789", 9), 0xCBF43926u);
  // Chaining two halves equals digesting the whole buffer.
  const std::uint32_t half = core::crc32("12345", 5);
  EXPECT_EQ(core::crc32("6789", 4, half), 0xCBF43926u);
}

TEST(FaultInjector, RejectsInvertedWindows) {
  core::FaultPlan plan;
  plan.add(window(core::FaultKind::kFabricStall, 5, 2));
  EXPECT_THROW(core::FaultInjector(1, plan), Error);
}

TEST(FaultInjector, WindowQueriesFollowThePlan) {
  core::FaultPlan plan;
  plan.add(window(core::FaultKind::kFabricStall, 2, 4));
  plan.add(window(core::FaultKind::kDmaError, 6, 6, 2.0));
  plan.add(window(core::FaultKind::kHostLatencySpike, 1, 3, 8.0));
  core::FaultInjector injector(7, plan);
  EXPECT_FALSE(injector.fabric_stalled(1));
  EXPECT_TRUE(injector.fabric_stalled(2));
  EXPECT_TRUE(injector.fabric_stalled(4));
  EXPECT_FALSE(injector.fabric_stalled(5));
  EXPECT_EQ(injector.dma_failed_attempts(5), 0);
  EXPECT_EQ(injector.dma_failed_attempts(6), 2);
  EXPECT_DOUBLE_EQ(injector.host_latency_multiplier(0), 1.0);
  EXPECT_DOUBLE_EQ(injector.host_latency_multiplier(2), 8.0);
}

TEST(FaultInjector, SeuCorruptionIsSeedDeterministic) {
  const bnn::CompiledBnn golden = tiny_compiled(23);
  core::FaultPlan plan;
  plan.add(window(core::FaultKind::kSeuWeightFlip, 0, 0, 1.0, 5));
  core::FaultInjector injector(99, plan);

  bnn::CompiledBnn a = golden;
  bnn::CompiledBnn b = golden;
  EXPECT_EQ(injector.apply_seu(a, 0), 5);
  EXPECT_EQ(injector.apply_seu(b, 0), 5);
  // Identical corruption in both copies: same stage CRCs everywhere.
  for (std::size_t s = 0; s < golden.stages.size(); ++s) {
    EXPECT_EQ(core::stage_crc(a.stages[s]), core::stage_crc(b.stages[s]))
        << "stage " << s;
  }
  // Outside the window nothing is touched.
  bnn::CompiledBnn c = golden;
  EXPECT_EQ(injector.apply_seu(c, 1), 0);
  for (std::size_t s = 0; s < golden.stages.size(); ++s) {
    EXPECT_EQ(core::stage_crc(c.stages[s]),
              core::stage_crc(golden.stages[s]));
  }
}

TEST(WeightScrub, SeuIsCaughtAndRepairedBitIdentical) {
  const bnn::CompiledBnn golden = tiny_compiled(29);
  const core::WeightCrcBook book = core::crc_book(golden);
  Rng rng(31);
  Tensor image(Shape{1, 3, 32, 32});
  image.fill_uniform(rng, 0.0f, 1.0f);
  const std::vector<std::int32_t> clean = bnn::run_reference(golden, image);

  bnn::CompiledBnn fabric = golden;
  core::FaultPlan plan;
  plan.add(window(core::FaultKind::kSeuWeightFlip, 0, 0, 1.0, 16));
  core::FaultInjector injector(5, plan);
  ASSERT_EQ(injector.apply_seu(fabric, 0), 16);

  const Dim repaired = core::scrub_weights(fabric, golden, book);
  EXPECT_GE(repaired, 1);
  // Post-repair execution is bit-identical to the fault-free run, and a
  // second scrub finds nothing left to fix.
  EXPECT_EQ(bnn::run_reference(golden, image),
            bnn::run_reference(fabric, image));
  EXPECT_EQ(bnn::run_reference(fabric, image), clean);
  EXPECT_EQ(core::scrub_weights(fabric, golden, book), 0);
}

// ------------------------------------------------- supervised streaming

class FaultStreamTest : public ::testing::Test {
 protected:
  // Same tiny shared workbench (and cache) as the stream tests.
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

  // Submits `images` test images at fixed cadence through a supervised
  // session and returns everything the supervisor produced.
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
};

void expect_same_stats(const core::SupervisorStats& a,
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
  EXPECT_EQ(a.corrupted_inputs, b.corrupted_inputs);
  EXPECT_EQ(a.shed, b.shed);
  EXPECT_EQ(a.blocked, b.blocked);
  EXPECT_EQ(a.sdc_detected, b.sdc_detected);
  EXPECT_EQ(a.sdc_corrected, b.sdc_corrected);
  EXPECT_EQ(a.sdc_served_after_reexec, b.sdc_served_after_reexec);
  EXPECT_EQ(a.canary_runs, b.canary_runs);
  EXPECT_EQ(a.canary_failures, b.canary_failures);
  EXPECT_EQ(a.compute_faults_fired, b.compute_faults_fired);
}

TEST_F(FaultStreamTest, FabricStallDegradesServesFloatAndRecovers) {
  core::Workbench& wb = workbench();
  core::FaultPlan plan;
  plan.add(window(core::FaultKind::kFabricStall, 1, 2));
  core::FaultInjector injector(11, plan);
  core::StreamSession::Config config;
  config.batch_size = 4;
  config.dmu_threshold = 0.0f;  // healthy dispatches trust the fabric
  config.max_retries = 2;

  const Run run = run_scenario(config, &injector, 16);
  ASSERT_EQ(run.results.size(), 16u);  // no crash, nothing dropped
  EXPECT_EQ(run.state, core::FabricState::kOk);  // recovered

  // Dispatch map: 0 healthy, 1 stalls (degrades after 2 retries),
  // 2 still inside the window, 3 probes successfully.
  EXPECT_EQ(run.stats.dispatches, 4);
  EXPECT_EQ(run.stats.fabric_batches, 2);
  EXPECT_EQ(run.stats.degraded_batches, 2);
  EXPECT_EQ(run.stats.watchdog_timeouts, 3);  // attempts of dispatch 1
  EXPECT_EQ(run.stats.retries, 2);
  EXPECT_EQ(run.stats.degraded_entries, 1);
  EXPECT_EQ(run.stats.recoveries, 1);
  EXPECT_EQ(run.stats.shed, 0);

  nn::Net& host = wb.model('A');
  host.set_training(false);
  for (const core::StreamResult& result : run.results) {
    const Dim id = result.image_id;
    const bool degraded_window = id >= 4 && id < 12;  // dispatches 1–2
    if (degraded_window) {
      EXPECT_EQ(result.status, core::ResultStatus::kDegraded) << id;
      EXPECT_EQ(result.served_by, core::ServedBy::kHostDegraded) << id;
      EXPECT_TRUE(result.rerun) << id;
      EXPECT_EQ(result.bnn_label, -1) << id;
      // Accuracy preserved: the degraded label is the float model's.
      const int host_label =
          host.predict(wb.test_set().images.slice_batch(id)).front();
      EXPECT_EQ(result.label, host_label) << id;
    } else {
      EXPECT_EQ(result.status, core::ResultStatus::kOk) << id;
      EXPECT_EQ(result.served_by, core::ServedBy::kFabric) << id;
    }
  }
}

TEST_F(FaultStreamTest, TransientDmaErrorIsRetriedWithoutDegrading) {
  core::FaultPlan plan;
  plan.add(window(core::FaultKind::kDmaError, 1, 1, 1.0));  // 1 bad attempt
  core::FaultInjector injector(13, plan);
  core::StreamSession::Config config;
  config.batch_size = 4;
  config.dmu_threshold = 0.0f;

  const Run clean = run_scenario(config, nullptr, 8);
  const Run faulted = run_scenario(config, &injector, 8);
  EXPECT_EQ(faulted.stats.watchdog_timeouts, 1);
  EXPECT_EQ(faulted.stats.retries, 1);
  EXPECT_EQ(faulted.stats.degraded_entries, 0);
  EXPECT_EQ(faulted.stats.fabric_batches, 2);
  EXPECT_EQ(faulted.state, core::FabricState::kOk);
  ASSERT_EQ(faulted.results.size(), clean.results.size());
  for (std::size_t i = 0; i < clean.results.size(); ++i) {
    // The retry costs time but not correctness.
    EXPECT_EQ(faulted.results[i].label, clean.results[i].label) << i;
    EXPECT_GE(faulted.results[i].ready_at, clean.results[i].ready_at) << i;
  }
}

TEST_F(FaultStreamTest, SeuIsScrubbedAndLaterBatchesMatchCleanRun) {
  core::FaultPlan plan;
  plan.add(window(core::FaultKind::kSeuWeightFlip, 0, 0, 1.0, 24));
  core::FaultInjector injector(17, plan);
  core::StreamSession::Config config;
  config.batch_size = 4;
  config.dmu_threshold = 0.0f;
  config.scrub_interval = 1;  // scrub before every dispatch

  const Run clean = run_scenario(config, nullptr, 12);
  const Run faulted = run_scenario(config, &injector, 12);
  EXPECT_EQ(faulted.stats.seu_flips, 24);
  EXPECT_EQ(faulted.stats.scrub_cycles, 3);
  // The dispatch-1 scrub catches the upset and reloads from the golden
  // copy; from then on fabric answers are bit-identical to a fault-free
  // run (dispatch 0 ran on corrupted memory — the DMU's problem).
  EXPECT_GE(faulted.stats.scrub_repairs, 1);
  ASSERT_EQ(faulted.results.size(), clean.results.size());
  for (std::size_t i = 0; i < clean.results.size(); ++i) {
    if (faulted.results[i].image_id < 4) continue;  // pre-repair batch
    EXPECT_EQ(faulted.results[i].bnn_label, clean.results[i].bnn_label)
        << "image " << faulted.results[i].image_id;
    EXPECT_FLOAT_EQ(faulted.results[i].confidence,
                    clean.results[i].confidence)
        << "image " << faulted.results[i].image_id;
  }
}

TEST_F(FaultStreamTest, CorruptedInputFallsBackToTheHostOriginal) {
  core::Workbench& wb = workbench();
  core::FaultPlan plan;
  plan.add(window(core::FaultKind::kInputCorruption, 0, 1, 1.0, 2));
  core::FaultInjector injector(19, plan);
  core::StreamSession::Config config;
  config.batch_size = 4;
  config.dmu_threshold = 1.01f;  // every image reruns on the host

  const Run run = run_scenario(config, &injector, 8);
  EXPECT_EQ(run.stats.corrupted_inputs, 4);  // 2 slots × 2 dispatches
  nn::Net& host = wb.model('A');
  host.set_training(false);
  for (const core::StreamResult& result : run.results) {
    // The host reruns the *original* image, so corruption on the DMA
    // path into the fabric never reaches the final label.
    EXPECT_EQ(result.label,
              host.predict(wb.test_set().images.slice_batch(result.image_id))
                  .front())
        << result.image_id;
    EXPECT_EQ(result.served_by, core::ServedBy::kHost);
  }
}

TEST_F(FaultStreamTest, HostLatencySpikeSlowsRerunsOnly) {
  core::FaultPlan plan;
  plan.add(window(core::FaultKind::kHostLatencySpike, 0, 0, 16.0));
  core::FaultInjector injector(23, plan);
  core::StreamSession::Config config;
  config.batch_size = 4;
  config.dmu_threshold = 1.01f;  // all rerun: the spike is on the rerun leg

  const Run clean = run_scenario(config, nullptr, 4);
  const Run spiked = run_scenario(config, &injector, 4);
  ASSERT_EQ(spiked.results.size(), clean.results.size());
  for (std::size_t i = 0; i < clean.results.size(); ++i) {
    EXPECT_EQ(spiked.results[i].label, clean.results[i].label);
    EXPECT_GT(spiked.results[i].ready_at, clean.results[i].ready_at) << i;
  }
}

TEST_F(FaultStreamTest, OverloadPoliciesShedBlockOrRejectExactly) {
  core::Workbench& wb = workbench();
  // A burst at t=0 far beyond one batch of headroom: the fabric backlog
  // grows batch by batch until the bounded queue pushes back.
  const Dim images = 24;
  auto burst = [&](core::OverloadPolicy policy) {
    core::StreamSession::Config config;
    config.batch_size = 4;
    config.dmu_threshold = 0.0f;
    config.queue_capacity = 1;
    config.overload = policy;
    core::StreamSession session = wb.make_stream('A', config, nullptr);
    for (Dim i = 0; i < images; ++i) {
      session.submit(wb.test_set().images.slice_batch(i), 0.0);
    }
    session.flush();
    struct Out {
      std::vector<core::StreamResult> results;
      core::SupervisorStats stats;
    } out{session.drain(), session.stats()};
    return out;
  };

  const auto blocked = burst(core::OverloadPolicy::kBlock);
  EXPECT_EQ(blocked.stats.shed, 0);
  EXPECT_GT(blocked.stats.blocked, 0);
  EXPECT_EQ(blocked.results.size(), static_cast<std::size_t>(images));
  for (const auto& result : blocked.results) {
    EXPECT_NE(result.status, core::ResultStatus::kShed);
  }

  for (const auto policy :
       {core::OverloadPolicy::kDropOldest, core::OverloadPolicy::kReject}) {
    const auto out = burst(policy);
    EXPECT_GT(out.stats.shed, 0);
    EXPECT_EQ(out.stats.blocked, 0);
    // Every submitted image yields exactly one result; shed ones are
    // reported as such, never silently dropped.
    ASSERT_EQ(out.results.size(), static_cast<std::size_t>(images));
    Dim shed_seen = 0;
    for (const auto& result : out.results) {
      if (result.status == core::ResultStatus::kShed) {
        ++shed_seen;
        EXPECT_EQ(result.served_by, core::ServedBy::kNone);
        EXPECT_EQ(result.label, -1);
      }
    }
    EXPECT_EQ(shed_seen, out.stats.shed);
  }
}

TEST_F(FaultStreamTest, FaultedReplayIsBitIdenticalAcrossThreadCounts) {
  // The acceptance bar: a fixed seed + plan yields identical result
  // sequences and identical supervisor counters at 1 and N threads.
  core::FaultPlan plan;
  plan.add(window(core::FaultKind::kSeuWeightFlip, 0, 0, 1.0, 8));
  plan.add(window(core::FaultKind::kFabricStall, 2, 2));
  plan.add(window(core::FaultKind::kDmaError, 4, 4, 1.0));
  plan.add(window(core::FaultKind::kInputCorruption, 1, 1, 1.0, 2));
  plan.add(window(core::FaultKind::kHostLatencySpike, 3, 5, 4.0));
  core::FaultInjector injector(31, plan);
  core::StreamSession::Config config;
  config.batch_size = 4;
  config.dmu_threshold = 0.6f;
  config.scrub_interval = 2;
  config.queue_capacity = 2;
  config.overload = core::OverloadPolicy::kDropOldest;

  const int prior = core::thread_count();
  core::set_thread_count(1);
  const Run serial = run_scenario(config, &injector, 24, 1e-4);
  core::set_thread_count(4);
  const Run threaded = run_scenario(config, &injector, 24, 1e-4);
  core::set_thread_count(prior);

  expect_same_stats(serial.stats, threaded.stats);
  EXPECT_EQ(serial.state, threaded.state);
  ASSERT_EQ(serial.results.size(), threaded.results.size());
  for (std::size_t i = 0; i < serial.results.size(); ++i) {
    const core::StreamResult& a = serial.results[i];
    const core::StreamResult& b = threaded.results[i];
    EXPECT_EQ(a.image_id, b.image_id) << i;
    EXPECT_EQ(a.label, b.label) << i;
    EXPECT_EQ(a.bnn_label, b.bnn_label) << i;
    EXPECT_EQ(a.rerun, b.rerun) << i;
    EXPECT_EQ(a.status, b.status) << i;
    EXPECT_EQ(a.served_by, b.served_by) << i;
    EXPECT_EQ(a.confidence, b.confidence) << i;  // bit-equal floats
    EXPECT_EQ(a.submitted_at, b.submitted_at) << i;
    EXPECT_EQ(a.ready_at, b.ready_at) << i;
  }
}

}  // namespace
}  // namespace mpcnn
