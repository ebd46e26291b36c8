// Sharded multi-fabric fleet scheduler (core/fleet).
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "bnn/topology.hpp"
#include "core/fleet.hpp"
#include "core/serve.hpp"
#include "core/threadpool.hpp"
#include "core/workbench.hpp"
#include "finn/explorer.hpp"

namespace mpcnn {
namespace {

class FleetTest : public ::testing::Test {
 protected:
  // Same shared tiny workbench (and on-disk cache) as the stream tests.
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

  static Tensor image_for(Dim seq) {
    const data::Dataset& set = workbench().test_set();
    return set.images.slice_batch(seq % set.images.shape()[0]);
  }

  /// Steady per-fabric-image seconds of the operating design (see
  /// test_serve.cpp): rates are expressed relative to capacity.
  static double image_seconds(Dim batch) {
    core::StreamSession::Config config;
    config.batch_size = batch;
    config.auto_dispatch = false;
    core::StreamSession session = workbench().make_stream('A', config);
    return session.expected_batch_seconds(batch, true) /
           static_cast<double>(batch);
  }

  static core::FleetScheduler make_fleet(
      core::FleetConfig config, Dim replicas,
      const std::vector<const core::FaultInjector*>& injectors = {}) {
    core::StreamSession::Config session;
    session.dmu_threshold = 0.0f;  // no reruns: exact timing
    return workbench().make_fleet('A', config, replicas, session,
                                  injectors);
  }

  /// One injector per replica from a single fleet seed, like the CLI.
  static std::vector<core::FaultInjector> make_injectors(
      std::uint64_t seed, const core::FleetFaultPlan& plan, Dim replicas) {
    std::vector<core::FaultInjector> injectors;
    injectors.reserve(static_cast<std::size_t>(replicas));
    for (Dim r = 0; r < replicas; ++r) {
      injectors.emplace_back(core::replica_seed(seed, r), plan.plan_for(r));
    }
    return injectors;
  }

  static std::vector<const core::FaultInjector*> pointers(
      const std::vector<core::FaultInjector>& injectors) {
    std::vector<const core::FaultInjector*> out;
    for (const core::FaultInjector& injector : injectors) {
      out.push_back(&injector);
    }
    return out;
  }

  /// Open-loop drive of the direct API: request i carries test image i.
  static std::vector<core::FleetResult> run_open_loop(
      core::FleetScheduler& fleet, const std::vector<double>& arrivals) {
    for (std::size_t i = 0; i < arrivals.size(); ++i) {
      fleet.submit(image_for(static_cast<Dim>(i)), arrivals[i]);
    }
    fleet.flush();
    return fleet.drain();
  }

  /// Every tag in [0, n) served exactly once: nothing lost, nothing
  /// duplicated — the invariant every chaos scenario must keep.
  static void expect_served_exactly_once(
      const std::vector<core::FleetResult>& results, Dim n) {
    std::vector<Dim> seen(static_cast<std::size_t>(n), 0);
    for (const core::FleetResult& r : results) {
      ASSERT_GE(r.tag, 0);
      ASSERT_LT(r.tag, n);
      ++seen[static_cast<std::size_t>(r.tag)];
    }
    for (Dim t = 0; t < n; ++t) {
      EXPECT_EQ(seen[static_cast<std::size_t>(t)], 1) << "tag " << t;
    }
  }

  /// drain() contract: completion order, tags break ties (PR 7 rule).
  static void expect_sorted_by_ready_then_tag(
      const std::vector<core::FleetResult>& results) {
    for (std::size_t i = 1; i < results.size(); ++i) {
      const core::FleetResult& a = results[i - 1];
      const core::FleetResult& b = results[i];
      EXPECT_TRUE(a.ready_at < b.ready_at ||
                  (a.ready_at == b.ready_at && a.tag < b.tag))
          << "result " << i << " out of order";
    }
  }
};

TEST_F(FleetTest, HealthyFleetServesEveryRequestOnFabricExactlyOnce) {
  const Dim batch = 8;
  core::FleetConfig config;
  config.batch_size = batch;
  config.host_workers = 1;
  core::FleetScheduler fleet = make_fleet(config, 4);
  EXPECT_EQ(fleet.replica_count(), 4);

  const double img_s = image_seconds(batch);
  core::TraceConfig trace;
  trace.pattern = core::TracePattern::kSteady;
  trace.rate_hz = 2.0 / img_s;
  trace.duration_s = img_s * 48.0;
  const std::vector<double> arrivals = core::generate_arrivals(trace, 5);
  const std::vector<core::FleetResult> results =
      run_open_loop(fleet, arrivals);

  const Dim n = static_cast<Dim>(arrivals.size());
  ASSERT_EQ(results.size(), arrivals.size());
  expect_served_exactly_once(results, n);
  expect_sorted_by_ready_then_tag(results);
  for (const core::FleetResult& r : results) {
    EXPECT_GE(r.label, 0);
    EXPECT_EQ(r.served_by, core::ServedBy::kFabric);
    EXPECT_EQ(r.status, core::ResultStatus::kOk);
    EXPECT_GE(r.replica, 0);
    EXPECT_EQ(r.hops, 0);
    EXPECT_GE(r.ready_at, r.submitted_at);
  }

  const core::FleetReport report = fleet.report();
  EXPECT_EQ(report.served, n);
  EXPECT_EQ(report.fleet.batches, (n + batch - 1) / batch);
  EXPECT_EQ(report.fleet.dispatches, report.fleet.batches);
  EXPECT_EQ(report.fleet.redispatched_batches, 0);
  EXPECT_EQ(report.fleet.host_fallback_batches, 0);
  EXPECT_EQ(report.fleet.probes, 0);
  EXPECT_EQ(report.degraded_replicas, 0);
  EXPECT_FALSE(report.all_fabric_degraded);
  EXPECT_GT(report.throughput_fps, 0.0);
  Dim spread = 0;
  for (const core::ReplicaReport& rr : report.replicas) {
    EXPECT_EQ(rr.bounced_batches, 0);
    EXPECT_EQ(rr.state, core::FabricState::kOk);
    EXPECT_GT(rr.health, 0.5);
    if (rr.dispatches > 0) ++spread;
  }
  EXPECT_GT(spread, 1);  // the load actually sharded
}

// Satellite: chaos under load.  A live per-replica FaultPlan kills one
// of four replicas permanently mid-stampede; the fleet must drain its
// work to healthy peers (host only as last resort), lose nothing, serve
// nothing twice, produce zero wrong results and keep goodput within the
// (N-1)/N bar of the healthy run.
TEST_F(FleetTest, ChaosKillOneReplicaMidStampedeDrainsToPeers) {
  const Dim batch = 8;
  const double img_s = image_seconds(batch);
  core::TraceConfig trace;
  trace.pattern = core::TracePattern::kStampede;
  trace.rate_hz = 1.6 / img_s;
  trace.duration_s = img_s * 240.0;
  trace.stampede_start_s = img_s * 60.0;
  trace.stampede_duration_s = img_s * 60.0;
  trace.stampede_factor = 2.0;
  const std::vector<double> arrivals = core::generate_arrivals(trace, 21);
  const Dim n = static_cast<Dim>(arrivals.size());

  core::FleetConfig config;
  config.batch_size = batch;
  config.host_workers = 1;
  // Fail-fast supervisor: a fleet has peers to drain to, so burning the
  // full retry ladder on a dead fabric only stretches the tail.
  core::StreamSession::Config session;
  session.dmu_threshold = 0.0f;
  session.watchdog_factor = 2.0;
  session.max_retries = 1;

  core::FleetScheduler healthy =
      workbench().make_fleet('A', config, 4, session);
  const std::vector<core::FleetResult> healthy_results =
      run_open_loop(healthy, arrivals);
  const core::FleetReport healthy_report = healthy.report();

  core::FleetFaultPlan plan;
  core::FaultWindow kill;
  kill.kind = core::FaultKind::kFabricStall;
  kill.first_dispatch = 2;  // mid-trace: replica 1 dies on its 3rd batch
  kill.last_dispatch = Dim{1} << 40;
  plan.add(1, kill);
  const std::vector<core::FaultInjector> injectors =
      make_injectors(909, plan, 4);
  core::FleetScheduler chaos =
      workbench().make_fleet('A', config, 4, session, pointers(injectors));
  const std::vector<core::FleetResult> results =
      run_open_loop(chaos, arrivals);
  const core::FleetReport report = chaos.report();

  ASSERT_EQ(results.size(), arrivals.size());
  expect_served_exactly_once(results, n);
  expect_sorted_by_ready_then_tag(results);

  // Zero wrong results: reruns are off and every peer runs the same
  // compiled BNN, so each label must match the healthy run bit-for-bit.
  std::vector<int> truth(static_cast<std::size_t>(n), -1);
  for (const core::FleetResult& r : healthy_results) {
    truth[static_cast<std::size_t>(r.tag)] = r.label;
  }
  Dim bounced_images = 0;
  for (const core::FleetResult& r : results) {
    EXPECT_EQ(r.label, truth[static_cast<std::size_t>(r.tag)])
        << "tag " << r.tag;
    EXPECT_LE(r.hops, config.max_redispatch + 1);
    if (r.hops > 0) ++bounced_images;
  }
  EXPECT_GE(bounced_images, 1);

  // Exact re-dispatch bookkeeping, and the killed replica wears it.
  const core::ReplicaReport& killed = report.replicas[1];
  EXPECT_EQ(killed.state, core::FabricState::kDegraded);
  EXPECT_GE(killed.bounced_batches, 1);
  EXPECT_EQ(killed.readmissions, 0);
  Dim bounced_total = 0;
  for (const core::ReplicaReport& rr : report.replicas) {
    bounced_total += rr.bounced_batches;
  }
  EXPECT_EQ(report.fleet.redispatched_batches, bounced_total);
  EXPECT_GE(report.fleet.redispatched_images, bounced_images);
  EXPECT_EQ(report.fleet.redispatched_batches,
            report.fleet.dispatches - report.fleet.batches);
  EXPECT_EQ(report.supervisor.drained_batches,
            report.fleet.redispatched_batches);

  // Healthy peers absorbed the drain; the host stayed a last resort.
  EXPECT_EQ(report.fleet.host_fallback_batches, 0);
  EXPECT_EQ(report.degraded_replicas, 1);
  EXPECT_FALSE(report.all_fabric_degraded);

  // Probes kept re-testing the corpse but never re-admitted it.
  EXPECT_GE(report.fleet.probes, 1);
  EXPECT_EQ(report.fleet.probe_successes, 0);
  EXPECT_EQ(report.fleet.readmissions, 0);

  // The goodput bar: three survivors carry the stampede.
  EXPECT_EQ(report.served, n);
  EXPECT_GE(report.throughput_fps, healthy_report.throughput_fps * 0.7);
}

TEST_F(FleetTest, ChaosReplayIsBitIdenticalAcrossThreadCounts) {
  const Dim batch = 4;
  const double img_s = image_seconds(batch);
  core::TraceConfig trace;
  trace.pattern = core::TracePattern::kPoisson;
  trace.rate_hz = 1.2 / img_s;
  trace.duration_s = img_s * 60.0;
  const std::vector<double> arrivals = core::generate_arrivals(trace, 33);

  core::FleetFaultPlan plan;
  plan.add(0, {core::FaultKind::kFabricStall, 1, 3, 1.0, 1});
  plan.add(2, {core::FaultKind::kSeuWeightFlip, 0, 6, 1.0, 2});
  plan.rack_burst(0, 2, {core::FaultKind::kDmaError, 4, 5, 1.0, 1});
  const std::vector<core::FaultInjector> injectors =
      make_injectors(4242, plan, 3);

  core::FleetConfig config;
  config.batch_size = batch;
  config.host_workers = 2;
  config.probe_interval = 2;
  auto run = [&]() {
    core::FleetScheduler fleet = make_fleet(config, 3, pointers(injectors));
    std::vector<core::FleetResult> results =
        run_open_loop(fleet, arrivals);
    return std::make_pair(std::move(results), fleet.report());
  };

  const int prior = core::thread_count();
  core::set_thread_count(1);
  const auto [serial, serial_report] = run();
  core::set_thread_count(4);
  const auto [threaded, threaded_report] = run();
  core::set_thread_count(prior);

  ASSERT_EQ(serial.size(), threaded.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    const core::FleetResult& a = serial[i];
    const core::FleetResult& b = threaded[i];
    EXPECT_EQ(a.tag, b.tag) << i;
    EXPECT_EQ(a.label, b.label) << i;
    EXPECT_EQ(a.bnn_label, b.bnn_label) << i;
    EXPECT_EQ(a.status, b.status) << i;
    EXPECT_EQ(a.served_by, b.served_by) << i;
    EXPECT_EQ(a.replica, b.replica) << i;
    EXPECT_EQ(a.hops, b.hops) << i;
    // Bit-equal simulated times, not just approximately equal.
    EXPECT_EQ(a.submitted_at, b.submitted_at) << i;
    EXPECT_EQ(a.ready_at, b.ready_at) << i;
  }
  EXPECT_EQ(serial_report.served, threaded_report.served);
  EXPECT_EQ(serial_report.span_s, threaded_report.span_s);
  EXPECT_EQ(serial_report.fleet.dispatches,
            threaded_report.fleet.dispatches);
  EXPECT_EQ(serial_report.fleet.redispatched_batches,
            threaded_report.fleet.redispatched_batches);
  EXPECT_EQ(serial_report.fleet.probes, threaded_report.fleet.probes);
  EXPECT_EQ(serial_report.supervisor.seu_flips,
            threaded_report.supervisor.seu_flips);
  EXPECT_EQ(serial_report.supervisor.scrub_repairs,
            threaded_report.supervisor.scrub_repairs);
  ASSERT_EQ(serial_report.replicas.size(), threaded_report.replicas.size());
  for (std::size_t r = 0; r < serial_report.replicas.size(); ++r) {
    EXPECT_EQ(serial_report.replicas[r].health,
              threaded_report.replicas[r].health)
        << "replica " << r;
    EXPECT_EQ(serial_report.replicas[r].spike_ewma,
              threaded_report.replicas[r].spike_ewma)
        << "replica " << r;
    EXPECT_EQ(serial_report.replicas[r].state,
              threaded_report.replicas[r].state)
        << "replica " << r;
  }
}

TEST_F(FleetTest, HedgedRedispatchAbandonsStuckBatchWithinBound) {
  // A transient stall on replica 0's first batches, hedging armed: the
  // batch must abandon after one burned deadline (not ride the backoff
  // ladder into degradation) and get served by the peer.
  core::FleetFaultPlan plan;
  plan.add(0, {core::FaultKind::kFabricStall, 0, 1, 1.0, 1});
  const std::vector<core::FaultInjector> injectors =
      make_injectors(7, plan, 2);

  core::FleetConfig config;
  config.batch_size = 4;
  config.host_workers = 1;
  config.hedge_factor = 1.0;  // give up after ~1 expected batch time
  core::FleetScheduler fleet = make_fleet(config, 2, pointers(injectors));

  const double img_s = image_seconds(4);
  std::vector<double> arrivals;
  for (Dim k = 0; k < 24; ++k) {
    arrivals.push_back(static_cast<double>(k) * img_s);
  }
  const std::vector<core::FleetResult> results =
      run_open_loop(fleet, arrivals);
  const core::FleetReport report = fleet.report();

  expect_served_exactly_once(results, 24);
  EXPECT_GE(report.fleet.hedged_batches, 1);
  EXPECT_GE(report.supervisor.abandoned_hedges, 1);
  // Hedging abandons early precisely so the fabric does NOT degrade.
  EXPECT_EQ(report.replicas[0].state, core::FabricState::kOk);
  EXPECT_EQ(report.degraded_replicas, 0);
  for (const core::FleetResult& r : results) {
    EXPECT_LE(r.hops, config.max_redispatch + 1);
    EXPECT_GE(r.label, 0);
  }
  // The bounce went to the peer fabric, not the host.
  EXPECT_EQ(report.fleet.host_fallback_batches, 0);
  EXPECT_GE(report.fleet.redispatched_batches, 1);
}

TEST_F(FleetTest, RecoveryProbeReadmitsAfterTransientFault) {
  // Replica 0 stalls for its first three dispatches, then recovers; the
  // probe cadence must scrub, re-test and re-admit it at health 0.5.
  core::FleetFaultPlan plan;
  plan.add(0, {core::FaultKind::kFabricStall, 0, 2, 1.0, 1});
  const std::vector<core::FaultInjector> injectors =
      make_injectors(11, plan, 2);

  core::FleetConfig config;
  config.batch_size = 4;
  config.host_workers = 1;
  config.probe_interval = 2;
  core::FleetScheduler fleet = make_fleet(config, 2, pointers(injectors));

  const double img_s = image_seconds(4);
  std::vector<double> arrivals;
  for (Dim k = 0; k < 64; ++k) {
    arrivals.push_back(static_cast<double>(k) * img_s * 0.5);
  }
  const std::vector<core::FleetResult> results =
      run_open_loop(fleet, arrivals);
  const core::FleetReport report = fleet.report();

  expect_served_exactly_once(results, 64);
  EXPECT_GE(report.fleet.probes, 1);
  EXPECT_GE(report.fleet.probe_successes, 1);
  EXPECT_GE(report.fleet.readmissions, 1);
  EXPECT_EQ(report.fleet.readmissions, report.replicas[0].readmissions);
  EXPECT_GE(report.supervisor.recoveries, 1);
  // Back in service: OK state, health restored to at least the
  // re-admission grant (the EWMA then ramps it further up).
  EXPECT_EQ(report.replicas[0].state, core::FabricState::kOk);
  EXPECT_GT(report.replicas[0].health, core::kHealthFloor);
  EXPECT_GT(fleet.replica_health(0), core::kHealthFloor);
  EXPECT_EQ(report.degraded_replicas, 0);
  // After re-admission the replica served real traffic again.
  EXPECT_GT(report.replicas[0].served_batches, 0);
}

// Satellite: total fleet loss.  Every fabric replica degraded → the
// host workers carry everything, and the report raises the flag the
// CLI turns into a nonzero exit.
TEST_F(FleetTest, AllReplicasDegradedFallBackToHostAndRaiseFlag) {
  core::FleetFaultPlan plan;
  plan.rack_burst(0, 1,
                  {core::FaultKind::kFabricStall, 0, Dim{1} << 40, 1.0, 1});
  const std::vector<core::FaultInjector> injectors =
      make_injectors(13, plan, 2);

  core::FleetConfig config;
  config.batch_size = 4;
  config.host_workers = 2;
  core::FleetScheduler fleet = make_fleet(config, 2, pointers(injectors));

  const double img_s = image_seconds(4);
  std::vector<double> arrivals;
  for (Dim k = 0; k < 32; ++k) {
    arrivals.push_back(static_cast<double>(k) * img_s);
  }
  const std::vector<core::FleetResult> results =
      run_open_loop(fleet, arrivals);
  const core::FleetReport report = fleet.report();

  expect_served_exactly_once(results, 32);
  expect_sorted_by_ready_then_tag(results);
  for (const core::FleetResult& r : results) {
    EXPECT_GE(r.label, 0);
    EXPECT_EQ(r.served_by, core::ServedBy::kHostDegraded);
    EXPECT_EQ(r.status, core::ResultStatus::kDegraded);
    EXPECT_EQ(r.replica, -1);
    EXPECT_LE(r.hops, config.max_redispatch + 1);
  }
  EXPECT_EQ(report.degraded_replicas, 2);
  EXPECT_TRUE(report.all_fabric_degraded);
  EXPECT_EQ(report.fleet.host_fallback_batches, report.fleet.batches);
  EXPECT_EQ(report.fleet.host_fallback_images, 32);
  EXPECT_EQ(report.fleet.probe_successes, 0);
  EXPECT_EQ(report.served, 32);
}

// Satellite: host_route racing a drain — with fleet workers the route
// is served by a worker, without them by the hinted replica's own host;
// in both cases exactly once, counted once in slo_host_routed, and
// merged into the (ready_at, tag)-ordered drain.
TEST_F(FleetTest, HostRouteRacingDrainServedExactlyOnceWithWorkers) {
  core::FleetConfig config;
  config.batch_size = 4;
  config.host_workers = 1;
  core::FleetScheduler fleet = make_fleet(config, 2);

  const double img_s = image_seconds(4);
  // Interleave fabric batches with SLO host-routes whose completions
  // land in between the fabric completions.
  Dim routes = 0;
  for (Dim k = 0; k < 24; ++k) {
    const double at = static_cast<double>(k) * img_s;
    fleet.submit(image_for(k), at);
    if (k % 4 == 3) {
      fleet.host_route(image_for(100 + k), at, at, 100 + k,
                       /*replica_hint=*/0);
      ++routes;
    }
  }
  fleet.flush();
  const std::vector<core::FleetResult> results = fleet.drain();

  ASSERT_EQ(results.size(), static_cast<std::size_t>(24 + routes));
  expect_sorted_by_ready_then_tag(results);
  std::vector<Dim> seen(200, 0);
  Dim host_routed = 0;
  for (const core::FleetResult& r : results) {
    ++seen[static_cast<std::size_t>(r.tag)];
    if (r.served_by == core::ServedBy::kHostRouted) {
      ++host_routed;
      EXPECT_GE(r.tag, 100);
      EXPECT_EQ(r.replica, -1);
      EXPECT_EQ(r.status, core::ResultStatus::kOk);
    }
  }
  for (Dim t = 0; t < 24; ++t) EXPECT_EQ(seen[t], 1) << "tag " << t;
  for (Dim k = 3; k < 24; k += 4) EXPECT_EQ(seen[100 + k], 1);
  EXPECT_EQ(host_routed, routes);
  EXPECT_EQ(fleet.stats().host_routed, routes);
  EXPECT_EQ(fleet.aggregate_supervisor().slo_host_routed, routes);
}

TEST_F(FleetTest, HostRouteWithoutWorkersFallsBackToHintedReplica) {
  // No fleet workers: sessions keep their own host fallback (the
  // pre-fleet serve shape) and the hinted replica's host serves the
  // route, counted once in its session slo_host_routed.
  auto make_session = [&]() {
    core::StreamSession::Config session;
    session.batch_size = 4;
    session.auto_dispatch = false;
    session.queue_capacity = 0;
    session.dmu_threshold = 0.0f;
    return workbench().make_stream('A', session);
  };
  std::vector<core::StreamSession> sessions;
  sessions.push_back(make_session());
  sessions.push_back(make_session());
  core::FleetConfig config;
  config.batch_size = 4;
  config.host_workers = 0;
  core::FleetScheduler fleet(config, std::move(sessions), nullptr, 0.0);

  const double img_s = image_seconds(4);
  for (Dim k = 0; k < 16; ++k) {
    const double at = static_cast<double>(k) * img_s;
    fleet.submit(image_for(k), at);
    if (k == 5 || k == 9) {
      fleet.host_route(image_for(100 + k), at, at, 100 + k,
                       /*replica_hint=*/1);
    }
  }
  fleet.flush();
  const std::vector<core::FleetResult> results = fleet.drain();

  ASSERT_EQ(results.size(), 18u);
  expect_sorted_by_ready_then_tag(results);
  std::vector<Dim> seen(200, 0);
  for (const core::FleetResult& r : results) {
    ++seen[static_cast<std::size_t>(r.tag)];
    if (r.tag >= 100) {
      EXPECT_EQ(r.served_by, core::ServedBy::kHostRouted);
      EXPECT_EQ(r.replica, 1);  // served by the hinted replica's host
      EXPECT_GE(r.label, 0);
    }
  }
  for (Dim t = 0; t < 16; ++t) EXPECT_EQ(seen[t], 1) << "tag " << t;
  EXPECT_EQ(seen[105], 1);
  EXPECT_EQ(seen[109], 1);
  EXPECT_EQ(fleet.stats().host_routed, 0);  // no fleet workers involved
  EXPECT_EQ(fleet.aggregate_supervisor().slo_host_routed, 2);
  EXPECT_EQ(fleet.replica(1).stats().slo_host_routed, 2);
}

TEST_F(FleetTest, ServeFrontEndOverFleetSurvivesReplicaKill) {
  const Dim batch = 4;
  const double img_s = image_seconds(batch);

  core::FleetFaultPlan plan;
  plan.add(0, {core::FaultKind::kFabricStall, 1, Dim{1} << 40, 1.0, 1});
  const std::vector<core::FaultInjector> injectors =
      make_injectors(55, plan, 2);

  core::ServeConfig config;
  config.batch_size = batch;
  config.max_wait_s = img_s * 2.0;
  config.session.dmu_threshold = 0.0f;
  core::FleetConfig fleet_config;
  fleet_config.host_workers = 1;
  core::ServeFrontEnd serve = workbench().make_serve_fleet(
      'A', config, {{"solo"}}, fleet_config, 2, pointers(injectors));

  core::TraceConfig trace;
  trace.pattern = core::TracePattern::kSteady;
  trace.rate_hz = 1.0 / img_s;
  trace.duration_s = img_s * 40.0;
  std::vector<std::vector<double>> arrivals{
      core::generate_arrivals(trace, 3)};
  const core::ServeReport report = core::run_trace(
      serve, arrivals,
      [](Dim tenant, Dim seq) { return image_for(tenant * 37 + seq); },
      /*threaded=*/false);

  EXPECT_EQ(report.total.offered, report.total.served);
  EXPECT_EQ(report.replica_count, 2);
  EXPECT_EQ(report.degraded_replicas, 1);
  EXPECT_FALSE(report.all_fabric_degraded);
  EXPECT_EQ(report.fleet.batches, report.batches);
  EXPECT_GE(report.fleet.redispatched_batches, 1);
  for (const core::ServeResult& r : serve.results()) {
    EXPECT_GE(r.label, 0);
    EXPECT_GE(r.ready_at, r.submitted_at);
  }
}

TEST_F(FleetTest, PickFleetRespectsRackBudget) {
  const std::vector<bnn::CnvLayerInfo> layers = bnn::cnv_engine_infos();
  const finn::Device& device = workbench().device();
  finn::ResourceModelConfig resource;
  resource.block_partition = true;
  finn::ExplorerConfig explorer;
  const std::vector<finn::FinnDesign> space =
      finn::design_space(layers, device, resource, explorer, 20);
  ASSERT_FALSE(space.empty());

  const finn::FleetPartition one =
      finn::pick_fleet(space, device.bram_18k, device.luts, 1);
  ASSERT_FALSE(one.replicas.empty());
  EXPECT_LE(one.bram_18k, device.bram_18k);
  EXPECT_LE(one.luts, device.luts);
  EXPECT_GT(one.aggregate_fps, 0.0);

  const finn::FleetPartition rack = finn::pick_fleet(
      space, device.bram_18k * 3, device.luts * 3, 3);
  EXPECT_LE(rack.replicas.size(), 3u);
  EXPECT_LE(rack.bram_18k, device.bram_18k * 3);
  EXPECT_LE(rack.luts, device.luts * 3);
  // A 3-board budget buys at least a 1-board budget's throughput.
  EXPECT_GE(rack.aggregate_fps, one.aggregate_fps);
  for (const std::size_t index : rack.replicas) {
    EXPECT_LT(index, space.size());
  }

  // A budget too small for any design yields an empty partition.
  const finn::FleetPartition dry = finn::pick_fleet(space, 1, 1, 4);
  EXPECT_TRUE(dry.replicas.empty());
  EXPECT_EQ(dry.aggregate_fps, 0.0);
}

TEST_F(FleetTest, RejectsBadConfigurationsAndMisuse) {
  core::FleetConfig config;
  config.batch_size = 4;

  {
    core::FleetConfig bad = config;
    bad.batch_size = 0;
    EXPECT_THROW(make_fleet(bad, 1), Error);
  }
  {
    core::FleetConfig bad = config;
    bad.max_redispatch = -1;
    EXPECT_THROW(make_fleet(bad, 1), Error);
  }
  {
    core::FleetConfig bad = config;
    bad.probe_interval = -1;
    EXPECT_THROW(make_fleet(bad, 1), Error);
  }

  // Sessions must be handed over with auto_dispatch off.
  {
    core::StreamSession::Config session;
    session.batch_size = 4;
    std::vector<core::StreamSession> sessions;
    sessions.push_back(workbench().make_stream('A', session));
    EXPECT_THROW(core::FleetScheduler(config, std::move(sessions),
                                      &workbench().model('A'), 0.01),
                 Error);
  }
  // Drain-mode sessions (host_fallback off) need a host worker.
  {
    core::StreamSession::Config session;
    session.batch_size = 4;
    session.auto_dispatch = false;
    session.host_fallback = false;
    std::vector<core::StreamSession> sessions;
    sessions.push_back(workbench().make_stream('A', session));
    core::FleetConfig no_hosts = config;
    no_hosts.host_workers = 0;
    EXPECT_THROW(core::FleetScheduler(no_hosts, std::move(sessions),
                                      nullptr, 0.0),
                 Error);
  }
  // Host workers need a network and a positive latency.
  {
    core::StreamSession::Config session;
    session.batch_size = 4;
    session.auto_dispatch = false;
    std::vector<core::StreamSession> sessions;
    sessions.push_back(workbench().make_stream('A', session));
    EXPECT_THROW(
        core::FleetScheduler(config, std::move(sessions), nullptr, 0.01),
        Error);
  }

  core::FleetScheduler fleet = make_fleet(config, 2);
  EXPECT_THROW(fleet.replica(2), Error);
  EXPECT_THROW(fleet.replica_health(-1), Error);
  EXPECT_THROW(fleet.dispatch({}, 0.0), Error);
  fleet.submit(image_for(0), 1.0);
  EXPECT_THROW(fleet.submit(image_for(1), 0.5), Error);  // non-monotone
}

// ------------------------------------------------------------ plan file

TEST(FleetPlanFile, RoundTripsThroughTheMpfpArtifact) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "mpcnn_fleet_plan_test";
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "roundtrip.mpfp").string();

  core::FleetPlanFile plan;
  plan.replicas = 4;
  plan.host_workers = 2;
  plan.batch_size = 8;
  plan.seed = 20260808;
  plan.rate_hz = 350.0;
  plan.duration_s = 0.75;
  plan.faults.add(1, {core::FaultKind::kFabricStall, 3, 1 << 20, 1.0, 1});
  plan.faults.add(2, {core::FaultKind::kSeuWeightFlip, 2, 5, 1.0, 3});
  plan.faults.rack_burst(
      0, 3, {core::FaultKind::kHostLatencySpike, 0, 9, 4.0, 1});
  core::save_fleet_plan(plan, path);

  EXPECT_TRUE(core::is_fleet_plan_file(path));
  const core::FleetPlanFile loaded = core::load_fleet_plan(path);
  EXPECT_EQ(loaded.replicas, plan.replicas);
  EXPECT_EQ(loaded.host_workers, plan.host_workers);
  EXPECT_EQ(loaded.batch_size, plan.batch_size);
  EXPECT_EQ(loaded.seed, plan.seed);
  EXPECT_DOUBLE_EQ(loaded.rate_hz, plan.rate_hz);
  EXPECT_DOUBLE_EQ(loaded.duration_s, plan.duration_s);
  ASSERT_EQ(loaded.faults.replicas.size(), plan.faults.replicas.size());
  for (std::size_t r = 0; r < plan.faults.replicas.size(); ++r) {
    const core::FaultPlan& a = plan.faults.replicas[r];
    const core::FaultPlan& b = loaded.faults.replicas[r];
    ASSERT_EQ(a.windows.size(), b.windows.size()) << "replica " << r;
    for (std::size_t w = 0; w < a.windows.size(); ++w) {
      EXPECT_EQ(a.windows[w].kind, b.windows[w].kind);
      EXPECT_EQ(a.windows[w].first_dispatch, b.windows[w].first_dispatch);
      EXPECT_EQ(a.windows[w].last_dispatch, b.windows[w].last_dispatch);
      EXPECT_DOUBLE_EQ(a.windows[w].magnitude, b.windows[w].magnitude);
      EXPECT_EQ(a.windows[w].count, b.windows[w].count);
    }
  }
}

TEST(FleetPlanFile, RejectsCorruptionTruncationAndWrongMagic) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "mpcnn_fleet_plan_test";
  std::filesystem::create_directories(dir);
  const std::string good = (dir / "good.mpfp").string();

  core::FleetPlanFile plan;
  plan.faults.add(0, {core::FaultKind::kDmaError, 0, 4, 2.0, 1});
  core::save_fleet_plan(plan, good);
  const core::FleetPlanFile check = core::load_fleet_plan(good);
  EXPECT_EQ(check.replicas, plan.replicas);

  std::ifstream in(good, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  ASSERT_GT(bytes.size(), 24u);

  {  // a flipped payload bit must fail the CRC
    std::string flipped = bytes;
    flipped[flipped.size() - 9] ^= 0x40;
    const std::string path = (dir / "flipped.mpfp").string();
    std::ofstream(path, std::ios::binary) << flipped;
    EXPECT_THROW(core::load_fleet_plan(path), Error);
  }
  {  // a truncated file must be rejected, not mis-parsed
    const std::string path = (dir / "truncated.mpfp").string();
    std::ofstream(path, std::ios::binary)
        << bytes.substr(0, bytes.size() / 2);
    EXPECT_THROW(core::load_fleet_plan(path), Error);
  }
  {  // a foreign magic is neither sniffed as MPFP nor loadable
    std::string foreign = bytes;
    foreign[0] = 'X';
    const std::string path = (dir / "foreign.mpfp").string();
    std::ofstream(path, std::ios::binary) << foreign;
    EXPECT_FALSE(core::is_fleet_plan_file(path));
    EXPECT_THROW(core::load_fleet_plan(path), Error);
  }
  EXPECT_FALSE(core::is_fleet_plan_file((dir / "missing.mpfp").string()));

  // Hostile counts are rejected before any allocation: a legal header
  // with an absurd replica count must throw, not reserve gigabytes.
  core::FleetPlanFile hostile;
  hostile.replicas = 4096;  // over the load-time bound
  EXPECT_THROW(core::save_fleet_plan(hostile, (dir / "h.mpfp").string()),
               Error);
}

}  // namespace
}  // namespace mpcnn
