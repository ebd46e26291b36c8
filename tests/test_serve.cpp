// Multi-tenant continuous-batching serving front-end (core/serve).
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "core/serve.hpp"
#include "core/threadpool.hpp"
#include "core/workbench.hpp"

namespace mpcnn {
namespace {

// "t0", "t1", …, appended rather than "t" + std::to_string(t), whose
// inlined insert draws a GCC 12 -Wrestrict false positive.
std::string tenant_name(int t) {
  std::string name = "t";
  name += std::to_string(t);
  return name;
}

class ServeTest : public ::testing::Test {
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

  static Tensor image_for(Dim tenant, Dim seq) {
    const data::Dataset& set = workbench().test_set();
    return set.images.slice_batch((tenant * 37 + seq) %
                                  set.images.shape()[0]);
  }

  /// Steady per-fabric-image seconds of the operating design, measured
  /// off a throwaway session so tests can express rates relative to
  /// capacity instead of hard-coding platform timings.
  static double image_seconds(Dim batch) {
    core::StreamSession::Config config;
    config.batch_size = batch;
    config.auto_dispatch = false;
    core::StreamSession session =
        workbench().make_stream('A', config);
    return session.expected_batch_seconds(batch, true) /
           static_cast<double>(batch);
  }

  static core::ServeFrontEnd make_serve(
      core::ServeConfig config, std::vector<core::TenantConfig> tenants,
      Dim pipelines = 1, const core::FaultInjector* injector = nullptr) {
    config.session.dmu_threshold = 0.0f;  // no reruns: exact timing
    return workbench().make_serve('A', std::move(config),
                                  std::move(tenants), pipelines, injector);
  }
};

TEST_F(ServeTest, AllRequestsAccountedAcrossTenants) {
  core::ServeConfig config;
  config.batch_size = 8;
  config.max_wait_s = 0.005;
  core::ServeFrontEnd serve = make_serve(
      config, {{"alpha"}, {"beta"}, {"gamma"}});
  std::vector<std::vector<double>> arrivals(3);
  for (Dim t = 0; t < 3; ++t) {
    for (Dim k = 0; k < 10; ++k) {
      arrivals[static_cast<std::size_t>(t)].push_back(
          static_cast<double>(k) * 0.001 + static_cast<double>(t) * 1e-4);
    }
  }
  const core::ServeReport report =
      run_trace(serve, arrivals, image_for, /*threaded=*/false);

  EXPECT_EQ(report.total.offered, 30);
  EXPECT_EQ(report.total.served, 30);
  EXPECT_EQ(report.total.shed_admission + report.total.shed_overload +
                report.total.shed_slo,
            0);
  ASSERT_EQ(serve.results().size(), 30u);
  for (const core::ServeResult& r : serve.results()) {
    EXPECT_GE(r.label, 0);
    EXPECT_GE(r.ready_at, r.submitted_at);
    EXPECT_GE(r.dispatched_at, r.submitted_at);
    EXPECT_TRUE(r.slo_met);  // no SLO configured: served counts as met
  }
  for (const core::TenantReport& tenant : report.tenants) {
    EXPECT_EQ(tenant.offered, 10);
    EXPECT_EQ(tenant.served, 10);
    EXPECT_EQ(tenant.latency.count, 10);
  }
  EXPECT_GT(report.batches, 0);
  EXPECT_GT(report.throughput_fps, 0.0);
}

TEST_F(ServeTest, PartialBatchDispatchesWhenWindowExpires) {
  core::ServeConfig config;
  config.batch_size = 64;  // never fills
  config.max_wait_s = 0.01;
  core::ServeFrontEnd serve = make_serve(config, {{"solo"}});
  std::vector<std::vector<double>> arrivals{
      {0.0, 0.001, 0.002, 0.003, 0.004}};
  const core::ServeReport report =
      run_trace(serve, arrivals, image_for, /*threaded=*/false);

  // One partial batch, fired at oldest arrival + window.
  EXPECT_EQ(report.batches, 1);
  EXPECT_DOUBLE_EQ(report.mean_batch_fill, 5.0);
  const double expected_ready =
      0.01 + serve.pipeline(0).expected_batch_seconds(5, false);
  for (const core::ServeResult& r : serve.results()) {
    EXPECT_DOUBLE_EQ(r.dispatched_at, 0.01);
    EXPECT_NEAR(r.ready_at, expected_ready, 1e-12);
  }
}

TEST_F(ServeTest, FullBatchDispatchesBeforeWindowExpires) {
  core::ServeConfig config;
  config.batch_size = 4;
  config.max_wait_s = 10.0;  // the window must not be what fires it
  core::ServeFrontEnd serve = make_serve(config, {{"solo"}});
  std::vector<std::vector<double>> arrivals{{0.0, 0.001, 0.002, 0.003}};
  const core::ServeReport report =
      run_trace(serve, arrivals, image_for, /*threaded=*/false);

  EXPECT_EQ(report.batches, 1);
  for (const core::ServeResult& r : serve.results()) {
    EXPECT_DOUBLE_EQ(r.dispatched_at, 0.003);  // the filling arrival
    EXPECT_LT(r.ready_at, 1.0);
  }
}

TEST_F(ServeTest, TokenBucketAdmissionExactCounts) {
  core::ServeConfig config;
  config.batch_size = 4;
  config.max_wait_s = 0.01;
  core::TenantConfig tenant;
  tenant.name = "metered";
  tenant.bucket_rate = 10.0;
  tenant.bucket_burst = 2.0;
  core::ServeFrontEnd serve = make_serve(config, {tenant});

  // Six simultaneous arrivals against a depth-2 bucket: 2 in, 4 out.
  for (Dim k = 0; k < 6; ++k) {
    const core::SubmitStatus status =
        serve.submit(0, image_for(0, k), 0.0);
    EXPECT_EQ(status, k < 2 ? core::SubmitStatus::kAccepted
                            : core::SubmitStatus::kThrottled);
  }
  // 0.5 s later the bucket has refilled (capped at its depth).
  EXPECT_EQ(serve.submit(0, image_for(0, 6), 0.5),
            core::SubmitStatus::kAccepted);

  const core::ServeReport report = serve.finish();
  EXPECT_EQ(report.total.offered, 7);
  EXPECT_EQ(report.total.shed_admission, 4);
  EXPECT_EQ(report.total.served, 3);
  EXPECT_EQ(report.supervisor.admission_shed, 4);
  for (const core::ServeResult& r : serve.results()) {
    if (r.status == core::ServeStatus::kShedAdmission) {
      EXPECT_EQ(r.served_by, core::ServedBy::kNone);
      EXPECT_FALSE(r.slo_met);
    }
  }
}

// Satellite: exact shed/blocked counters for every overload policy with
// requests arriving from multiple tenant threads.
class ServeOverloadTest : public ServeTest,
                          public ::testing::WithParamInterface<
                              core::OverloadPolicy> {};

TEST_P(ServeOverloadTest, ConcurrentTenantsExactCounters) {
  const core::OverloadPolicy policy = GetParam();
  core::ServeConfig config;
  config.batch_size = 1000;   // nothing dispatches during submission…
  config.max_wait_s = 50.0;   // …and no window fires either
  config.queue_capacity = 8;
  config.overload = policy;
  core::ServeFrontEnd serve =
      make_serve(config, {{"t0"}, {"t1"}, {"t2"}, {"t3"}});

  // 4 tenants × 12 requests with globally distinct, interleaved times.
  std::vector<std::vector<double>> arrivals(4);
  for (Dim t = 0; t < 4; ++t) {
    for (Dim k = 0; k < 12; ++k) {
      arrivals[static_cast<std::size_t>(t)].push_back(
          static_cast<double>(k) * 0.001 + static_cast<double>(t) * 1e-4);
    }
  }
  const core::ServeReport report =
      run_trace(serve, arrivals, image_for, /*threaded=*/true);

  EXPECT_EQ(report.total.offered, 48);
  ASSERT_EQ(serve.results().size(), 48u);
  switch (policy) {
    case core::OverloadPolicy::kReject:
    case core::OverloadPolicy::kDropOldest:
      EXPECT_EQ(report.total.shed_overload, 40);
      EXPECT_EQ(report.total.served, 8);
      EXPECT_EQ(report.supervisor.shed, 40);
      EXPECT_EQ(report.supervisor.blocked, 0);
      break;
    case core::OverloadPolicy::kBlock:
      EXPECT_EQ(report.total.shed_overload, 0);
      EXPECT_EQ(report.total.served, 48);
      EXPECT_EQ(report.supervisor.shed, 0);
      EXPECT_EQ(report.supervisor.blocked, 40);
      break;
  }
  if (policy == core::OverloadPolicy::kDropOldest) {
    // Freshness-first: the survivors are exactly the LAST 8 arrivals —
    // the k ∈ {10, 11} wave of every tenant.
    for (const core::ServeResult& r : serve.results()) {
      if (r.status == core::ServeStatus::kOk) {
        EXPECT_GE(r.tenant_seq, 10);
      }
    }
    for (const core::TenantReport& tenant : report.tenants) {
      EXPECT_EQ(tenant.served, 2);
    }
  }
  if (policy == core::OverloadPolicy::kReject) {
    // The first 8 arrivals hold their slots; everything later bounces.
    for (const core::ServeResult& r : serve.results()) {
      if (r.status == core::ServeStatus::kOk) {
        EXPECT_LE(r.tenant_seq, 1);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Policies, ServeOverloadTest,
                         ::testing::Values(core::OverloadPolicy::kBlock,
                                           core::OverloadPolicy::kDropOldest,
                                           core::OverloadPolicy::kReject),
                         [](const auto& info) {
                           switch (info.param) {
                             case core::OverloadPolicy::kBlock:
                               return "Block";
                             case core::OverloadPolicy::kDropOldest:
                               return "DropOldest";
                             default:
                               return "Reject";
                           }
                         });

TEST_F(ServeTest, SloShedAndHostRouteExactCounters) {
  // An SLO far below one batch time: every fabric plan misses it.
  const double batch_s = image_seconds(4) * 4.0;
  core::TenantConfig tenant;
  tenant.name = "tight";
  tenant.slo_s = batch_s * 0.01;
  core::ServeConfig config;
  config.batch_size = 4;
  config.max_wait_s = 0.0;  // dispatch windows fire instantly

  for (const core::SloPolicy policy :
       {core::SloPolicy::kShed, core::SloPolicy::kHostRoute,
        core::SloPolicy::kIgnore}) {
    config.slo_policy = policy;
    core::ServeFrontEnd serve = make_serve(config, {tenant});
    std::vector<std::vector<double>> arrivals{{0.0, 0.0, 0.0, 0.0}};
    const core::ServeReport report =
        run_trace(serve, arrivals, image_for, /*threaded=*/false);

    EXPECT_EQ(report.total.offered, 4);
    switch (policy) {
      case core::SloPolicy::kShed:
        EXPECT_EQ(report.total.shed_slo, 4);
        EXPECT_EQ(report.total.served, 0);
        EXPECT_EQ(report.supervisor.slo_shed, 4);
        break;
      case core::SloPolicy::kHostRoute:
        EXPECT_EQ(report.total.served, 4);
        EXPECT_EQ(report.total.host_routed, 4);
        EXPECT_EQ(report.supervisor.slo_host_routed, 4);
        for (const core::ServeResult& r : serve.results()) {
          EXPECT_EQ(r.served_by, core::ServedBy::kHostRouted);
          EXPECT_GE(r.label, 0);
        }
        break;
      case core::SloPolicy::kIgnore:
        EXPECT_EQ(report.total.served, 4);
        EXPECT_EQ(report.total.host_routed, 0);
        EXPECT_EQ(report.total.slo_met, 0);
        EXPECT_EQ(report.total.slo_missed, 4);
        break;
    }
  }
}

TEST_F(ServeTest, FairnessShieldsWellBehavedTenantsFromStampede) {
  const Dim batch = 8;
  const double img_s = image_seconds(batch);
  const double window = img_s * 2.0;
  const double slo = window + img_s * static_cast<double>(batch) * 6.0;

  core::ServeConfig config;
  config.batch_size = batch;
  config.max_wait_s = window;
  config.slo_policy = core::SloPolicy::kIgnore;  // pure queueing effects

  std::vector<core::TenantConfig> tenants(4);
  for (int t = 0; t < 3; ++t) {
    tenants[static_cast<std::size_t>(t)].name = "good" + std::to_string(t);
    tenants[static_cast<std::size_t>(t)].slo_s = slo;
  }
  tenants[3].name = "stampede";

  // Good tenants at 10% of fabric capacity each; the stampeder offers
  // 3× capacity over the same span — saturating without fairness.
  std::vector<std::vector<double>> arrivals(4);
  const double span = img_s * 400.0;
  for (Dim t = 0; t < 3; ++t) {
    core::TraceConfig trace;
    trace.pattern = core::TracePattern::kSteady;
    trace.rate_hz = 0.1 / img_s;
    trace.duration_s = span;
    arrivals[static_cast<std::size_t>(t)] =
        core::generate_arrivals(trace, 100 + static_cast<std::uint64_t>(t));
  }
  core::TraceConfig burst;
  burst.pattern = core::TracePattern::kSteady;
  burst.rate_hz = 3.0 / img_s;
  burst.duration_s = span;
  arrivals[3] = core::generate_arrivals(burst, 7);

  config.fairness = true;
  core::ServeFrontEnd fair = make_serve(config, tenants);
  const core::ServeReport fair_report =
      run_trace(fair, arrivals, image_for, /*threaded=*/false);

  config.fairness = false;
  core::ServeFrontEnd fifo = make_serve(config, tenants);
  const core::ServeReport fifo_report =
      run_trace(fifo, arrivals, image_for, /*threaded=*/false);

  for (int t = 0; t < 3; ++t) {
    const core::TenantReport& with_wrr =
        fair_report.tenants[static_cast<std::size_t>(t)];
    const core::TenantReport& with_fifo =
        fifo_report.tenants[static_cast<std::size_t>(t)];
    // The acceptance bar: a stampeding tenant cannot push a
    // well-behaved tenant's p99 past its SLO when fairness is on…
    EXPECT_LE(with_wrr.latency.p99_s, slo) << with_wrr.name;
    EXPECT_EQ(with_wrr.slo_missed, 0) << with_wrr.name;
    // …while global FIFO lets the backlog swamp them.
    EXPECT_GT(with_fifo.latency.p99_s, with_wrr.latency.p99_s)
        << with_fifo.name;
  }
  EXPECT_GT(fifo_report.tenants[0].latency.p99_s, slo);
}

TEST_F(ServeTest, ContinuousBatchingBeatsFixedBaselineOnGoodput) {
  const Dim batch = 8;
  const double img_s = image_seconds(batch);
  const double slo = img_s * static_cast<double>(batch) * 8.0;

  std::vector<core::TenantConfig> tenants(4);
  for (int t = 0; t < 4; ++t) {
    tenants[static_cast<std::size_t>(t)].name = tenant_name(t);
    tenants[static_cast<std::size_t>(t)].slo_s = slo;
  }
  // 4 tenants, each at ~45% of capacity: 1.8× saturating in aggregate.
  std::vector<std::vector<double>> arrivals(4);
  for (Dim t = 0; t < 4; ++t) {
    core::TraceConfig trace;
    trace.pattern = core::TracePattern::kPoisson;
    trace.rate_hz = 0.45 / img_s;
    trace.duration_s = img_s * 320.0;
    arrivals[static_cast<std::size_t>(t)] =
        core::generate_arrivals(trace, 500 + static_cast<std::uint64_t>(t));
  }

  core::ServeConfig config;
  config.batch_size = batch;
  config.max_wait_s = img_s * 4.0;
  config.slo_policy = core::SloPolicy::kShed;  // keep the backlog bounded
  core::ServeFrontEnd serve = make_serve(config, tenants);
  const core::ServeReport cb =
      run_trace(serve, arrivals, image_for, /*threaded=*/false);

  core::StreamSession::Config session;
  session.batch_size = batch;
  session.dmu_threshold = 0.0f;
  const core::ServeReport fixed = core::run_fixed_baseline(
      workbench().make_stream('A', session), tenants, arrivals, image_for);

  // Overloaded open-loop baseline: the backlog grows without bound, so
  // late answers dominate and goodput collapses.  Continuous batching
  // sheds hopeless requests instead and keeps the met-SLO rate up, at a
  // p99 (over served requests) no worse than the baseline's.
  EXPECT_GT(cb.total.goodput_fps, fixed.total.goodput_fps * 1.5);
  EXPECT_LE(cb.total.latency.p99_s, fixed.total.latency.p99_s);
  EXPECT_GT(cb.total.slo_met, fixed.total.slo_met);
}

TEST_F(ServeTest, MultiplePipelinesShortenTheRun) {
  const Dim batch = 4;
  const double img_s = image_seconds(batch);
  core::ServeConfig config;
  config.batch_size = batch;
  config.max_wait_s = img_s;
  // One tenant at 2× single-fabric capacity.
  core::TraceConfig trace;
  trace.pattern = core::TracePattern::kSteady;
  trace.rate_hz = 2.0 / img_s;
  trace.duration_s = img_s * 64.0;
  std::vector<std::vector<double>> arrivals{
      core::generate_arrivals(trace, 11)};

  core::ServeFrontEnd one = make_serve(config, {{"solo"}}, 1);
  const core::ServeReport single =
      run_trace(one, arrivals, image_for, /*threaded=*/false);
  core::ServeFrontEnd two = make_serve(config, {{"solo"}}, 2);
  EXPECT_EQ(two.pipeline_count(), 2);
  const core::ServeReport dual =
      run_trace(two, arrivals, image_for, /*threaded=*/false);

  EXPECT_EQ(single.total.served, dual.total.served);
  EXPECT_LT(dual.span_s, single.span_s);
  EXPECT_GT(dual.throughput_fps, single.throughput_fps);
}

TEST_F(ServeTest, DeterministicAcrossThreadCountsAndSubmitters) {
  // Full-feature configuration: faults, fairness, host routing, a
  // bounded queue and admission control, driven by Poisson traces.
  core::FaultPlan plan;
  plan.add({core::FaultKind::kFabricStall, 2, 3, 1.0, 1});
  plan.add({core::FaultKind::kSeuWeightFlip, 1, 6, 1.0, 3});
  plan.add({core::FaultKind::kHostLatencySpike, 0, 8, 2.5, 1});
  const core::FaultInjector injector(2026, plan);

  const Dim batch = 4;
  const double img_s = image_seconds(batch);
  auto build = [&]() {
    core::ServeConfig config;
    config.batch_size = batch;
    config.max_wait_s = img_s * 2.0;
    config.queue_capacity = 24;
    config.overload = core::OverloadPolicy::kDropOldest;
    config.slo_policy = core::SloPolicy::kHostRoute;
    config.session.scrub_interval = 2;
    std::vector<core::TenantConfig> tenants(3);
    for (int t = 0; t < 3; ++t) {
      tenants[static_cast<std::size_t>(t)].name = tenant_name(t);
      tenants[static_cast<std::size_t>(t)].slo_s =
          img_s * static_cast<double>(batch) * 6.0;
      tenants[static_cast<std::size_t>(t)].bucket_rate = 2.0 / img_s;
      tenants[static_cast<std::size_t>(t)].bucket_burst = 4.0;
    }
    return make_serve(config, std::move(tenants), 1, &injector);
  };
  std::vector<std::vector<double>> arrivals(3);
  for (Dim t = 0; t < 3; ++t) {
    core::TraceConfig trace;
    trace.pattern = core::TracePattern::kPoisson;
    trace.rate_hz = 0.8 / img_s;
    trace.duration_s = img_s * 120.0;
    arrivals[static_cast<std::size_t>(t)] =
        core::generate_arrivals(trace, 40 + static_cast<std::uint64_t>(t));
  }

  const int prior = core::thread_count();
  core::set_thread_count(1);
  core::ServeFrontEnd serial = build();
  const core::ServeReport serial_report =
      run_trace(serial, arrivals, image_for, /*threaded=*/false);

  core::set_thread_count(4);
  core::ServeFrontEnd threaded = build();
  const core::ServeReport threaded_report =
      run_trace(threaded, arrivals, image_for, /*threaded=*/true);
  core::set_thread_count(prior);

  ASSERT_EQ(serial.results().size(), threaded.results().size());
  for (std::size_t i = 0; i < serial.results().size(); ++i) {
    const core::ServeResult& a = serial.results()[i];
    const core::ServeResult& b = threaded.results()[i];
    EXPECT_EQ(a.request_id, b.request_id) << i;
    EXPECT_EQ(a.tenant, b.tenant) << i;
    EXPECT_EQ(a.tenant_seq, b.tenant_seq) << i;
    EXPECT_EQ(a.label, b.label) << i;
    EXPECT_EQ(a.rerun, b.rerun) << i;
    EXPECT_EQ(a.served_by, b.served_by) << i;
    EXPECT_EQ(a.status, b.status) << i;
    EXPECT_EQ(a.slo_met, b.slo_met) << i;
    // Bit-equal simulated times, not just approximately equal.
    EXPECT_EQ(a.submitted_at, b.submitted_at) << i;
    EXPECT_EQ(a.dispatched_at, b.dispatched_at) << i;
    EXPECT_EQ(a.ready_at, b.ready_at) << i;
  }
  EXPECT_EQ(serial_report.total.served, threaded_report.total.served);
  EXPECT_EQ(serial_report.total.slo_met, threaded_report.total.slo_met);
  EXPECT_EQ(serial_report.batches, threaded_report.batches);
  EXPECT_EQ(serial_report.supervisor.seu_flips,
            threaded_report.supervisor.seu_flips);
  EXPECT_EQ(serial_report.supervisor.scrub_repairs,
            threaded_report.supervisor.scrub_repairs);
  EXPECT_EQ(serial_report.total.latency.p99_s,
            threaded_report.total.latency.p99_s);
}

TEST_F(ServeTest, RejectsBadConfigurationsAndMisuse) {
  core::ServeConfig config;
  config.batch_size = 4;
  EXPECT_THROW(make_serve(config, {}), Error);  // no tenants

  core::TenantConfig bad;
  bad.weight = 0.0;
  EXPECT_THROW(make_serve(config, {bad}), Error);

  // Sessions must be handed over in serve mode.
  core::StreamSession::Config auto_cfg;
  std::vector<core::StreamSession> sessions;
  sessions.push_back(workbench().make_stream('A', auto_cfg));
  EXPECT_THROW(core::ServeFrontEnd(config, {{"t"}}, std::move(sessions)),
               Error);

  core::ServeFrontEnd serve = make_serve(config, {{"only"}});
  EXPECT_THROW(serve.submit(1, image_for(0, 0), 0.0), Error);
  EXPECT_THROW(serve.results(), Error);  // before finish
  serve.submit(0, image_for(0, 0), 1.0);
  EXPECT_THROW(serve.submit(0, image_for(0, 1), 0.5), Error);
  serve.finish();
  EXPECT_THROW(serve.submit(0, image_for(0, 2), 2.0), Error);
  EXPECT_THROW(serve.finish(), Error);
}

// ------------------------------------------------------------- traces

TEST(ServeTrace, SteadyTraceIsExact) {
  core::TraceConfig config;
  config.pattern = core::TracePattern::kSteady;
  config.rate_hz = 100.0;
  config.start_s = 2.0;
  config.duration_s = 0.5;
  const std::vector<double> arrivals = core::generate_arrivals(config, 1);
  ASSERT_EQ(arrivals.size(), 50u);
  EXPECT_DOUBLE_EQ(arrivals.front(), 2.0);
  EXPECT_DOUBLE_EQ(arrivals[10], 2.0 + 10.0 / 100.0);
}

TEST(ServeTrace, PoissonIsSeedDeterministic) {
  core::TraceConfig config;
  config.rate_hz = 500.0;
  config.duration_s = 2.0;
  const auto a = core::generate_arrivals(config, 7);
  const auto b = core::generate_arrivals(config, 7);
  const auto c = core::generate_arrivals(config, 8);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_NEAR(static_cast<double>(a.size()), 1000.0, 150.0);
  for (std::size_t i = 1; i < a.size(); ++i) {
    EXPECT_GT(a[i], a[i - 1]);
  }
  EXPECT_GE(a.front(), 0.0);
  EXPECT_LT(a.back(), 2.0);
}

TEST(ServeTrace, StampedeWindowRaisesTheRate) {
  core::TraceConfig config;
  config.pattern = core::TracePattern::kStampede;
  config.rate_hz = 200.0;
  config.duration_s = 3.0;
  config.stampede_start_s = 1.0;
  config.stampede_duration_s = 1.0;
  config.stampede_factor = 8.0;
  const auto arrivals = core::generate_arrivals(config, 3);
  Dim before = 0, inside = 0;
  for (double t : arrivals) {
    if (t < 1.0) ++before;
    if (t >= 1.0 && t < 2.0) ++inside;
  }
  EXPECT_GT(inside, before * 4);
}

TEST(ServeTrace, DiurnalRampStaysNonNegativeAndSeeded) {
  core::TraceConfig config;
  config.pattern = core::TracePattern::kDiurnal;
  config.rate_hz = 300.0;
  config.duration_s = 2.0;
  config.diurnal_period_s = 2.0;
  config.diurnal_amplitude = 1.0;
  const auto a = core::generate_arrivals(config, 9);
  EXPECT_EQ(a, core::generate_arrivals(config, 9));
  // First half-period runs above the base rate, second half below.
  Dim first = 0, second = 0;
  for (double t : a) {
    (t < 1.0 ? first : second)++;
  }
  EXPECT_GT(first, second);
}

TEST(ServeTrace, RejectsBadTraceConfigs) {
  core::TraceConfig config;
  config.rate_hz = 0.0;
  EXPECT_THROW(core::generate_arrivals(config, 1), Error);
  config.rate_hz = 100.0;
  config.duration_s = 0.0;
  EXPECT_THROW(core::generate_arrivals(config, 1), Error);
  config.duration_s = 1e9;  // rate × duration blows the trace bound
  EXPECT_THROW(core::generate_arrivals(config, 1), Error);
}

}  // namespace
}  // namespace mpcnn
