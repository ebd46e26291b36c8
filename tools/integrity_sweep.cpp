// Seeded silent-data-corruption sweep over the full SDC defense.
//
// Phase 1 (undefended): with IntegrityMode::kOff a heavy compute-fault
// plan must eventually turn at least one served label wrong — proof
// that the injected corruption is real, not absorbed by the binarizing
// activations.
//
// Phase 2 (defended): for every ISA level this CPU supports × {1, 4}
// worker threads, streams batches under IntegrityMode::kFull while a
// seeded plan strikes every slot with one fault of each datapath kind.
// Gates, all hard:
//   - at least --min-faults faults actually fired across the sweep,
//   - >= 99% of struck slots detected by the ABFT checksums,
//   - zero served labels differing from the fault-free baseline
//     (detections must be *resolved*, bit-identical, not just flagged),
//   - detected slots fully corrected or escalated (served_after_reexec).
//
//   integrity_sweep [--images N] [--seeds N] [--min-faults N] [--cache D]
//
// Exit status 0 only when every gate holds; run_all.sh tees the output
// and greps the PASS line.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "core/cpu.hpp"
#include "core/fault.hpp"
#include "core/stream.hpp"
#include "core/threadpool.hpp"
#include "core/workbench.hpp"

namespace mpcnn {
namespace {

struct Options {
  Dim images = 16;
  std::uint64_t seeds = 4;
  std::int64_t min_faults = 1000;
  std::string cache;
};

core::FaultWindow window(core::FaultKind kind, Dim first, Dim last,
                         double magnitude, Dim count) {
  core::FaultWindow w;
  w.kind = kind;
  w.first_dispatch = first;
  w.last_dispatch = last;
  w.magnitude = magnitude;
  w.count = count;
  return w;
}

core::StreamSession::Config sweep_config(core::integrity::IntegrityMode mode) {
  core::StreamSession::Config config;
  config.batch_size = 4;
  config.dmu_threshold = 0.0f;
  config.integrity = mode;
  return config;
}

std::vector<int> run_labels(core::Workbench& wb,
                            core::StreamSession::Config config,
                            const core::FaultInjector* injector, Dim images,
                            core::SupervisorStats* stats_out) {
  core::StreamSession session = wb.make_stream('A', config, injector);
  for (Dim i = 0; i < images; ++i) {
    session.submit(wb.test_set().images.slice_batch(i), 0.0);
  }
  session.flush();
  std::vector<int> labels(static_cast<std::size_t>(images), -1);
  for (const core::StreamResult& r : session.drain()) {
    labels.at(static_cast<std::size_t>(r.image_id)) = r.label;
  }
  if (stats_out != nullptr) *stats_out = session.stats();
  return labels;
}

int run(const Options& opt) {
  core::WorkbenchConfig wb_config;
  wb_config.cache_dir =
      opt.cache.empty()
          ? (std::filesystem::temp_directory_path() / "mpcnn_tiny_shared")
                .string()
          : opt.cache;
  wb_config.train_size = 300;
  wb_config.test_size = 100;
  wb_config.model_a_width = 0.125f;
  wb_config.model_b_width = 0.125f;
  wb_config.model_c_width = 0.125f;
  wb_config.bnn_width = 0.125f;
  wb_config.float_epochs = 2;
  wb_config.bnn_epochs = 2;
  wb_config.verbose = false;
  core::Workbench wb(wb_config);

  const Dim images = opt.images;
  const Dim batches = (images + 3) / 4;
  const std::vector<int> baseline = run_labels(
      wb, sweep_config(core::integrity::IntegrityMode::kFull), nullptr,
      images, nullptr);

  // ---- phase 1: undefended fabric really serves corruption ----------
  std::int64_t off_wrong = 0;
  std::int64_t off_fired = 0;
  for (std::uint64_t seed = 1; seed <= 16 && off_wrong == 0; ++seed) {
    core::FaultPlan plan;
    for (int w = 0; w < 6; ++w) {
      plan.add(window(core::FaultKind::kPartialSumCorruption, 0, batches - 1,
                      1.0, 4));
      plan.add(window(core::FaultKind::kAccumulatorBitFlip, 0, batches - 1,
                      1.0, 4));
    }
    core::FaultInjector injector(seed, plan);
    core::SupervisorStats stats;
    const std::vector<int> labels =
        run_labels(wb, sweep_config(core::integrity::IntegrityMode::kOff),
                   &injector, images, &stats);
    off_fired += stats.compute_faults_fired;
    if (stats.sdc_detected != 0) {
      std::fprintf(stderr,
                   "integrity_sweep: FAIL: mode off reported detections\n");
      return 1;
    }
    for (std::size_t i = 0; i < labels.size(); ++i) {
      if (labels[i] != baseline[i]) ++off_wrong;
    }
  }
  std::printf("phase off:  faults=%lld wrong_labels=%lld (corruption %s)\n",
              static_cast<long long>(off_fired),
              static_cast<long long>(off_wrong),
              off_wrong > 0 ? "reaches the caller" : "NOT OBSERVED");
  if (off_wrong == 0) {
    std::fprintf(stderr,
                 "integrity_sweep: FAIL: undefended phase never corrupted "
                 "a label — the injected faults are not load-bearing\n");
    return 1;
  }

  // ---- phase 2: full-mode sweep across ISA levels and threads -------
  const std::vector<core::Isa> levels = core::supported_isas();

  std::int64_t total_fired = 0;
  std::int64_t total_struck = 0;
  std::int64_t total_detected = 0;
  std::int64_t total_resolved = 0;
  std::int64_t total_wrong = 0;
  const int prior_threads = core::thread_count();
  for (const core::Isa isa : levels) {
    ::setenv("MPCNN_ISA", core::isa_name(isa), 1);
    core::refresh_isa();
    for (const int threads : {1, 4}) {
      core::set_thread_count(threads);
      std::int64_t combo_fired = 0, combo_struck = 0, combo_detected = 0;
      for (std::uint64_t seed = 1; seed <= opt.seeds; ++seed) {
        core::FaultPlan plan;
        plan.add(window(core::FaultKind::kAccumulatorBitFlip, 0,
                        batches - 1, 1.0, 4));
        plan.add(window(core::FaultKind::kPartialSumCorruption, 0,
                        batches - 1, 1.0, 4));
        plan.add(window(core::FaultKind::kPopcountLaneStuck, 0, batches - 1,
                        1.0, 4));
        core::FaultInjector injector(seed, plan);
        core::SupervisorStats stats;
        const std::vector<int> labels = run_labels(
            wb, sweep_config(core::integrity::IntegrityMode::kFull),
            &injector, images, &stats);
        combo_fired += stats.compute_faults_fired;
        combo_struck += images;  // every slot is covered by the plan
        combo_detected += stats.sdc_detected;
        total_resolved += stats.sdc_served_after_reexec;
        for (std::size_t i = 0; i < labels.size(); ++i) {
          if (labels[i] != baseline[i]) ++total_wrong;
        }
      }
      std::printf(
          "phase full: isa=%-6s threads=%d faults=%lld struck=%lld "
          "detected=%lld\n",
          core::isa_name(isa), threads,
          static_cast<long long>(combo_fired),
          static_cast<long long>(combo_struck),
          static_cast<long long>(combo_detected));
      total_fired += combo_fired;
      total_struck += combo_struck;
      total_detected += combo_detected;
    }
  }
  core::set_thread_count(prior_threads);
  ::unsetenv("MPCNN_ISA");
  core::refresh_isa();

  const double coverage =
      total_struck > 0
          ? static_cast<double>(total_detected) / static_cast<double>(total_struck)
          : 0.0;
  std::printf(
      "sweep: faults=%lld struck_slots=%lld detected=%lld coverage=%.2f%% "
      "wrong_labels=%lld\n",
      static_cast<long long>(total_fired),
      static_cast<long long>(total_struck),
      static_cast<long long>(total_detected), 100.0 * coverage,
      static_cast<long long>(total_wrong));

  bool ok = true;
  if (total_fired < opt.min_faults) {
    std::fprintf(stderr,
                 "integrity_sweep: FAIL: only %lld faults fired (< %lld)\n",
                 static_cast<long long>(total_fired),
                 static_cast<long long>(opt.min_faults));
    ok = false;
  }
  if (coverage < 0.99) {
    std::fprintf(stderr,
                 "integrity_sweep: FAIL: detection coverage %.2f%% < 99%%\n",
                 100.0 * coverage);
    ok = false;
  }
  if (total_wrong != 0) {
    std::fprintf(
        stderr,
        "integrity_sweep: FAIL: %lld silently wrong labels in full mode\n",
        static_cast<long long>(total_wrong));
    ok = false;
  }
  if (total_resolved < total_detected) {
    std::fprintf(stderr,
                 "integrity_sweep: FAIL: %lld detections but only %lld "
                 "resolved\n",
                 static_cast<long long>(total_detected),
                 static_cast<long long>(total_resolved));
    ok = false;
  }
  std::printf("INTEGRITY SWEEP %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace mpcnn

int main(int argc, char** argv) {
  mpcnn::Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--images") {
      opt.images = static_cast<mpcnn::Dim>(std::stoll(value()));
    } else if (arg == "--seeds") {
      opt.seeds = std::stoull(value());
    } else if (arg == "--min-faults") {
      opt.min_faults = std::stoll(value());
    } else if (arg == "--cache") {
      opt.cache = value();
    } else {
      std::fprintf(stderr,
                   "usage: integrity_sweep [--images N] [--seeds N] "
                   "[--min-faults N] [--cache D]\n");
      return 2;
    }
  }
  try {
    return mpcnn::run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "integrity_sweep: fatal: %s\n", e.what());
    return 1;
  }
}
