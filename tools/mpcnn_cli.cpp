// mpcnn command-line interface.
//
//   mpcnn_cli train   [--cache DIR] [--tiny]    train/refresh every model
//                     [--checkpoint-every N] [--resume]
//   mpcnn_cli eval    [--cache DIR] [--model A|B|C|bnn]
//   mpcnn_cli cascade [--cache DIR] [--model A|B|C] [--threshold T]
//                     [--batch N] [--arm]
//   mpcnn_cli export  [--cache DIR] --out FILE  export the compiled BNN
//   mpcnn_cli verify  PATH           integrity-check any mpcnn artifact
//   mpcnn_cli cpuinfo                CPU features, active ISA and kernel
//                                    bindings
//   mpcnn_cli design  [--fps F] [--device zc702|zc706]
//   mpcnn_cli stream  [--cache DIR] [--model A|B|C] [--threshold T]
//                     [--batch N] [--images N] [--seed S] [--faults SPEC]
//                     [--policy block|drop|reject] [--capacity N]
//                     [--scrub N]
//   mpcnn_cli serve   [--cache DIR] [--model A|B|C] [--threshold T]
//                     [--batch N] [--window MS] [--tenants N] [--rate HZ]
//                     [--duration S] [--pattern steady|poisson|diurnal|
//                     stampede] [--slo MS] [--slo-policy route|shed|
//                     ignore] [--capacity N] [--policy block|drop|reject]
//                     [--no-fairness] [--pipelines N] [--admit HZ]
//                     [--burst N] [--seed S] [--faults SPEC] [--scrub N]
//                     [--baseline] [--workload images|scene]
//                     [--replicas N [--hosts M] [--hedge F]
//                     [--probe-interval N]]
//   mpcnn_cli fleet   [--cache DIR] [--model A|B|C] [--threshold T]
//                     [--replicas N] [--hosts M] [--batch N] [--rate HZ]
//                     [--duration S] [--seed S] [--hetero]
//                     [--faults R@SPEC[;R@SPEC...]] [--kill R]
//                     [--kill-at D] [--hedge F] [--probe-interval N]
//                     [--plan FILE] [--save-plan FILE]
//   mpcnn_cli scene   [--cache DIR] [--model A|B|C] [--threshold T]
//                     [--pattern static|pan|motion|cut] [--frames N]
//                     [--height H] [--width W] [--change-rate R]
//                     [--tile N] [--halo N] [--batch N] [--no-cache]
//                     [--cache-capacity N] [--baseline] [--per-frame]
//                     [--save FILE] [--trace FILE] [--seed S]
//
// `train --checkpoint-every N` writes crash-safe checkpoints every N
// optimiser steps; after a kill -9, `train --resume` continues from the
// last-good manifest and reaches bit-identical weights.  `--tiny`
// shrinks the workbench to a seconds-scale configuration (used by the
// kill/resume script test).
//
// `verify` probes the magic, validates the CRC frame and prints a
// format/version/shape summary, exiting nonzero on corruption.
//
// `stream` replays the test set through the supervised streaming session
// and reports the SupervisorStats counters.  SPEC is a comma-separated
// list of fault windows `kind:first:last[:magnitude[:count]]` over
// dispatch indices, with kind one of stall|dma|seu|spike|input, e.g.
// `--faults stall:2:4,seu:0:0:1:3` (see core/fault.hpp).
//
// `serve` drives the multi-tenant continuous-batching front-end
// (core/serve) from seeded open-loop traces — `--tenants` concurrent
// tenants at `--rate` requests/s each (default: fabric-saturating), with
// `--pattern stampede` turning the last tenant into an aggressor — and
// prints per-tenant p50/p95/p99 latency and goodput.  `--baseline`
// replays the identical traces through a fixed-batch StreamSession (no
// window, fairness, admission or SLO handling) for comparison.
//
// `fleet` drives the sharded multi-fabric fleet scheduler (core/fleet):
// N fabric replicas plus M host float workers serving a seeded open-loop
// trace, with health-score routing, peer drain of degraded replicas,
// bounded hedged re-dispatch and CRC-scrub recovery probes.  Per-replica
// chaos comes from `--faults R@SPEC[;...]` (`*@SPEC` is a correlated
// rack burst across every replica) or the `--kill R` shorthand (a
// permanent fabric stall of replica R from dispatch `--kill-at` on);
// `--save-plan`/`--plan` persist and replay whole scenarios as MPFP
// artifacts.  `serve --replicas N` runs the same fleet under the
// multi-tenant front-end.  Both exit 3 with a one-line reason when the
// run ends with every fabric replica FABRIC_DEGRADED.
//
// `scene` streams a synthetic scene trace (data/scene_trace) through the
// tile-streaming pipeline (core/scene_stream): each frame is tiled with
// halo context, unchanged tiles are served from the content-hash result
// cache and only changed tiles enter the cascade, with the DMU deciding
// per-tile escalation to the float path.  `--baseline` reruns the same
// trace uncached (every tile through the fabric every frame) and prints
// the speedup; `--save`/`--trace` persist and replay traces as MPSE
// artifacts.  `serve --workload scene` feeds the multi-tenant front-end
// tile crops from such a trace instead of dataset images.
//
// Everything rides on the shared Workbench cache, so `train` once and
// the other commands are instant.
#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "bnn/export.hpp"
#include "core/cpu.hpp"
#include "core/fault.hpp"
#include "core/integrity/canary.hpp"
#include "core/workbench.hpp"
#include "data/scene_trace.hpp"
#include "finn/explorer.hpp"
#include "io/artifact.hpp"
#include "nn/checkpoint.hpp"
#include "nn/serialize.hpp"

using namespace mpcnn;

namespace {

// Strict numeric parsing of a flag's value: the whole token must parse,
// and a real must also be finite.  The error names the flag and the
// token, e.g. "--fps: expected a number, got '400abc'".
template <typename Int>
Int parse_integer(const std::string& flag, const std::string& token) {
  Int value = 0;
  const char* const end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, value);
  if (ec != std::errc() || ptr != end) {
    throw Error("--" + flag + ": expected an integer, got '" + token + "'");
  }
  return value;
}

template <typename Real>
Real parse_real(const std::string& flag, const std::string& token) {
  Real value = 0;
  const char* const end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, value);
  if (ec != std::errc() || ptr != end || !std::isfinite(value)) {
    throw Error("--" + flag + ": expected a number, got '" + token + "'");
  }
  return value;
}

struct Args {
  std::string command;
  std::map<std::string, std::string> options;
  std::vector<std::string> positional;

  bool has(const std::string& key) const { return options.count(key) > 0; }
  std::string get(const std::string& key, const std::string& fallback) const {
    auto it = options.find(key);
    return it == options.end() ? fallback : it->second;
  }
  /// The flag's value parsed strictly, or `fallback` when it is absent.
  template <typename Int>
  Int integer(const std::string& key, Int fallback) const {
    return has(key) ? parse_integer<Int>(key, options.at(key)) : fallback;
  }
  template <typename Real>
  Real real(const std::string& key, Real fallback) const {
    return has(key) ? parse_real<Real>(key, options.at(key)) : fallback;
  }
};

Args parse(int argc, char** argv) {
  Args args;
  if (argc >= 2) args.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) {
      args.positional.push_back(key);
      continue;
    }
    key = key.substr(2);
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      args.options[key] = argv[++i];
    } else {
      args.options[key] = std::string("1");  // a flag without a value
    }
  }
  return args;
}

core::WorkbenchConfig config_from(const Args& args) {
  core::WorkbenchConfig config;
  config.cache_dir = args.get("cache", "mpcnn_cache");
  if (args.has("tiny")) {
    // Seconds-scale workbench for smoke and kill/resume script tests.
    config.train_size = 300;
    config.test_size = 100;
    config.model_a_width = 0.125f;
    config.model_b_width = 0.125f;
    config.model_c_width = 0.125f;
    config.bnn_width = 0.125f;
    config.float_epochs = 2;
    config.deep_float_epochs = 2;
    config.bnn_epochs = 2;
  }
  config.checkpoint_every = args.integer("checkpoint-every", Dim{0});
  config.resume_training = args.has("resume");
  return config;
}

// --threshold, else the workbench's operating point.
float threshold_from(const Args& args, core::Workbench& wb) {
  return args.has("threshold") ? args.real("threshold", 0.0f)
                               : wb.operating_threshold();
}

int usage() {
  std::fprintf(stderr,
               "usage: mpcnn_cli "
               "<train|eval|cascade|export|verify|cpuinfo|design|stream|"
               "serve|fleet|scene> [options]\n"
               "  train   [--cache DIR] [--tiny] [--checkpoint-every N]\n"
               "          [--resume]\n"
               "  eval    [--cache DIR] [--model A|B|C|bnn]\n"
               "  cascade [--cache DIR] [--model A|B|C] [--threshold T]\n"
               "          [--batch N] [--arm]\n"
               "  export  [--cache DIR] --out FILE\n"
               "  verify  PATH   (any mpcnn artifact; nonzero exit on\n"
               "          corruption)\n"
               "  cpuinfo        (features, MPCNN_ISA override, bound\n"
               "          kernel variants)\n"
               "  design  [--fps F] [--device zc702|zc706]\n"
               "  stream  [--cache DIR] [--model A|B|C] [--threshold T]\n"
               "          [--batch N] [--images N] [--seed S]\n"
               "          [--faults kind:first:last[:mag[:count]],...]\n"
               "          [--policy block|drop|reject] [--capacity N]\n"
               "          [--scrub N] [--integrity off|sample|full]\n"
               "          [--canary N] [--canary-book FILE]\n"
               "          (kinds: stall dma seu spike input\n"
               "                  bitflip lane burst)\n"
               "  serve   [--cache DIR] [--model A|B|C] [--threshold T]\n"
               "          [--batch N] [--window MS] [--tenants N]\n"
               "          [--rate HZ] [--duration S]\n"
               "          [--pattern steady|poisson|diurnal|stampede]\n"
               "          [--slo MS] [--slo-policy route|shed|ignore]\n"
               "          [--capacity N] [--policy block|drop|reject]\n"
               "          [--no-fairness] [--pipelines N] [--admit HZ]\n"
               "          [--burst N] [--seed S] [--faults SPEC]\n"
               "          [--scrub N] [--baseline]\n"
               "          [--workload images|scene [--scene-pattern P]\n"
               "          [--tile N] [--halo N]]\n"
               "          [--replicas N [--hosts M] [--hedge F]\n"
               "          [--probe-interval N]]\n"
               "  fleet   [--cache DIR] [--model A|B|C] [--threshold T]\n"
               "          [--replicas N] [--hosts M] [--batch N]\n"
               "          [--rate HZ] [--duration S] [--seed S]\n"
               "          [--hetero] [--faults R@SPEC[;R@SPEC...]]\n"
               "          [--kill R] [--kill-at D] [--hedge F]\n"
               "          [--probe-interval N] [--plan FILE]\n"
               "          [--save-plan FILE]\n"
               "  scene   [--cache DIR] [--model A|B|C] [--threshold T]\n"
               "          [--pattern static|pan|motion|cut] [--frames N]\n"
               "          [--height H] [--width W] [--change-rate R]\n"
               "          [--tile N] [--halo N] [--batch N] [--no-cache]\n"
               "          [--cache-capacity N] [--baseline] [--per-frame]\n"
               "          [--save FILE] [--trace FILE] [--seed S]\n");
  return 2;
}

// Parses `kind:first:last[:magnitude[:count]]`, comma-separated.
core::FaultPlan parse_fault_plan(const std::string& spec) {
  core::FaultPlan plan;
  std::size_t start = 0;
  while (start < spec.size()) {
    std::size_t end = spec.find(',', start);
    if (end == std::string::npos) end = spec.size();
    const std::string window_spec = spec.substr(start, end - start);
    start = end + 1;
    if (window_spec.empty()) continue;
    std::vector<std::string> fields;
    std::size_t f = 0;
    while (f <= window_spec.size()) {
      std::size_t colon = window_spec.find(':', f);
      if (colon == std::string::npos) colon = window_spec.size();
      fields.push_back(window_spec.substr(f, colon - f));
      f = colon + 1;
    }
    MPCNN_CHECK(fields.size() >= 3 && fields.size() <= 5,
                "fault window '" << window_spec
                                 << "' is not kind:first:last[:mag[:count]]");
    core::FaultWindow window;
    const std::string& kind = fields[0];
    if (kind == "stall") {
      window.kind = core::FaultKind::kFabricStall;
    } else if (kind == "dma") {
      window.kind = core::FaultKind::kDmaError;
    } else if (kind == "seu") {
      window.kind = core::FaultKind::kSeuWeightFlip;
    } else if (kind == "spike") {
      window.kind = core::FaultKind::kHostLatencySpike;
    } else if (kind == "input") {
      window.kind = core::FaultKind::kInputCorruption;
    } else if (kind == "bitflip") {
      window.kind = core::FaultKind::kAccumulatorBitFlip;
    } else if (kind == "lane") {
      window.kind = core::FaultKind::kPopcountLaneStuck;
    } else if (kind == "burst") {
      window.kind = core::FaultKind::kPartialSumCorruption;
    } else {
      MPCNN_CHECK(false, "unknown fault kind '" << kind << "'");
    }
    window.first_dispatch = parse_integer<Dim>("faults", fields[1]);
    window.last_dispatch = parse_integer<Dim>("faults", fields[2]);
    if (fields.size() >= 4) {
      window.magnitude = parse_real<double>("faults", fields[3]);
    }
    if (fields.size() >= 5) {
      window.count = parse_integer<Dim>("faults", fields[4]);
    }
    plan.add(window);
  }
  return plan;
}

int cmd_train(const Args& args) {
  core::Workbench wb(config_from(args));
  std::printf("BNN accuracy:      %.1f%%\n", 100.0 * wb.bnn_accuracy());
  for (char m : {'A', 'B', 'C'}) {
    std::printf("Model %c accuracy:  %.1f%%\n", m,
                100.0 * wb.model_accuracy(m));
  }
  (void)wb.dmu();
  std::printf("DMU trained; operating threshold %.3f\n",
              wb.operating_threshold());
  return 0;
}

int cmd_eval(const Args& args) {
  core::Workbench wb(config_from(args));
  const std::string model = args.get("model", "bnn");
  if (model == "bnn" || model == "BNN") {
    std::printf("BNN: accuracy %.1f%% on %lld test images\n",
                100.0 * wb.bnn_accuracy(),
                static_cast<long long>(wb.test_set().size()));
    const auto perf = wb.operating_design().evaluate(1000);
    std::printf("FINN operating design: %.1f img/s, BRAM %.1f%%\n",
                perf.obtained_fps,
                100.0 * perf.usage.bram_utilisation(wb.device()));
    return 0;
  }
  const char which = model[0];
  std::printf("Model %c: accuracy %.1f%%, measured %.2f img/s "
              "(full-width topology)\n",
              which, 100.0 * wb.model_accuracy(which),
              wb.host_profile(which).images_per_second);
  return 0;
}

int cmd_cascade(const Args& args) {
  core::Workbench wb(config_from(args));
  const char which = args.get("model", "A")[0];
  const Dim batch = args.integer("batch", Dim{100});
  const bool arm = args.has("arm");
  const float threshold = threshold_from(args, wb);
  core::MultiPrecisionSystem system =
      wb.make_system(which, threshold, batch, arm);
  const core::MultiPrecisionReport report = system.run(wb.test_set());
  std::printf("cascade %c&FINN  (threshold %.3f, batch %lld%s)\n", which,
              threshold, static_cast<long long>(batch),
              arm ? ", ARM-calibrated host" : "");
  std::printf("  accuracy:       %.1f%% (BNN alone %.1f%%)\n",
              100.0 * report.system_accuracy, 100.0 * report.bnn_accuracy);
  std::printf("  throughput:     %.2f img/s (host alone %.2f, fabric "
              "%.2f)\n",
              report.images_per_second, report.host_images_per_second,
              report.bnn_images_per_second);
  std::printf("  rerun ratio:    %.1f%% (host-on-subset accuracy %.1f%%)\n",
              100.0 * report.rerun_ratio,
              100.0 * report.host_subset_accuracy);
  std::printf("  analytic:       %.2f img/s (Eq.1), %.1f%% (Eq.2)\n",
              report.analytic_fps, 100.0 * report.analytic_accuracy);
  return 0;
}

int cmd_export(const Args& args) {
  if (!args.has("out")) return usage();
  core::Workbench wb(config_from(args));
  const std::string out = args.get("out", "");
  bnn::save_compiled(wb.compiled_bnn(), out);
  std::printf("compiled BNN written to %s\n", out.c_str());
  const bnn::CompiledBnn check = bnn::load_compiled(out);
  std::printf("verified: %zu stages, %lld classes, %s\n",
              check.stages.size(), static_cast<long long>(check.classes),
              check.fully_binary() ? "fully binary" : "partially binarised");
  return 0;
}

// Integrity check for any mpcnn artifact: container frame first (magic,
// version, declared length, CRC), then a full structural parse of the
// payload through the same hardened loader the runtime uses.  Exit 0
// only when both pass.
int cmd_verify(const Args& args) {
  if (args.positional.size() != 1) return usage();
  const std::string& path = args.positional[0];
  const io::ArtifactInfo info = io::inspect(path);
  std::printf("%s: %s v%u, %llu payload bytes (%llu on disk), %s\n",
              path.c_str(), info.format.c_str(), info.version,
              static_cast<unsigned long long>(info.payload_bytes),
              static_cast<unsigned long long>(info.file_bytes),
              info.crc_ok ? "CRC ok" : "CRC MISMATCH");
  if (!info.crc_ok) {
    std::fprintf(stderr, "error: %s is corrupt (CRC mismatch)\n",
                 path.c_str());
    return 1;
  }
  if (nn::is_net_file(path)) {
    const nn::NetFileSummary summary = nn::summarize_net_file(path);
    std::printf("  %zu state tensors:", summary.shapes.size());
    for (const Shape& shape : summary.shapes) {
      std::printf(" %s", shape.str().c_str());
    }
    std::printf("\n");
  } else if (bnn::is_compiled_file(path)) {
    const bnn::CompiledBnn net = bnn::load_compiled(path);
    std::printf("  %zu stages, %lld classes, %d input levels, %s\n",
                net.stages.size(), static_cast<long long>(net.classes),
                net.input_levels,
                net.fully_binary() ? "fully binary"
                                   : "partially binarised");
  } else if (nn::is_checkpoint_file(path)) {
    const nn::TrainerCheckpoint ck = nn::load_checkpoint_file(path);
    std::printf("  step %lld (epoch %d, item %lld), lr %.5f, "
                "%zu state tensors, %zu optimiser slots, %zu layer RNGs\n",
                static_cast<long long>(ck.global_step), ck.epoch,
                static_cast<long long>(ck.next_item), ck.learning_rate,
                ck.net_state.size(), ck.velocity.size(),
                ck.layer_rngs.size());
  } else if (nn::is_manifest_file(path)) {
    std::printf("  last-good checkpoint: %s\n",
                nn::read_manifest(path).c_str());
  } else if (data::is_scene_trace_file(path)) {
    const data::SceneTrace trace = data::load_scene_trace(path);
    std::printf("  %zu frames of 3x%lldx%lld, pattern %s, seed %llu\n",
                trace.frames.size(),
                static_cast<long long>(trace.height()),
                static_cast<long long>(trace.width()),
                data::scene_pattern_name(trace.pattern),
                static_cast<unsigned long long>(trace.seed));
  } else if (core::is_fleet_plan_file(path)) {
    const core::FleetPlanFile plan = core::load_fleet_plan(path);
    Dim windows = 0;
    for (const core::FaultPlan& fp : plan.faults.replicas) {
      windows += static_cast<Dim>(fp.windows.size());
    }
    std::printf("  %lld replicas + %lld host workers, batch %lld, seed "
                "%llu, %.1f req/s x %.2f s, %lld fault windows\n",
                static_cast<long long>(plan.replicas),
                static_cast<long long>(plan.host_workers),
                static_cast<long long>(plan.batch_size),
                static_cast<unsigned long long>(plan.seed), plan.rate_hz,
                plan.duration_s, static_cast<long long>(windows));
  }
  std::printf("ok\n");
  return 0;
}

// One line per fact, stable `key: value` / `kernel <slot> variant=<v>`
// format so scripts can grep individual rows.
int cmd_cpuinfo(const Args&) {
  const core::CpuFeatures& f = core::cpu_features();
  std::printf(
      "cpu: sse2=%d popcnt=%d avx2=%d fma=%d avx512f=%d avx512bw=%d "
      "avx512vl=%d avx512vpopcntdq=%d avx512vnni=%d\n",
      f.sse2 ? 1 : 0, f.popcnt ? 1 : 0, f.avx2 ? 1 : 0, f.fma ? 1 : 0,
      f.avx512f ? 1 : 0, f.avx512bw ? 1 : 0, f.avx512vl ? 1 : 0,
      f.avx512vpopcntdq ? 1 : 0, f.avx512vnni ? 1 : 0);
  std::printf("levels:");
  for (const core::Isa isa : core::supported_isas()) {
    std::printf(" %s", core::isa_name(isa));
  }
  std::printf("\n");
  const char* forced = std::getenv("MPCNN_ISA");
  if (core::isa_forced() && forced != nullptr) {
    std::printf("isa: %s (override: MPCNN_ISA=%s)\n",
                core::isa_name(core::active_isa()), forced);
  } else {
    std::printf("isa: %s (override: MPCNN_ISA unset)\n",
                core::isa_name(core::active_isa()));
  }
  std::printf("signature: %s\n", core::cpu_signature().c_str());
  for (const core::KernelBinding& b : core::kernel_bindings()) {
    std::printf("kernel %s variant=%s\n", b.slot.c_str(),
                b.variant.c_str());
  }
  return 0;
}

int cmd_stream(const Args& args) {
  core::Workbench wb(config_from(args));
  const char which = args.get("model", "A")[0];
  core::StreamSession::Config config;
  config.batch_size = args.integer("batch", Dim{16});
  config.scrub_interval = args.integer("scrub", Dim{0});
  config.integrity =
      core::integrity::parse_mode(args.get("integrity", "off").c_str());
  config.canary_interval = args.integer("canary", Dim{0});
  config.queue_capacity = args.integer("capacity", Dim{0});
  const std::string policy = args.get("policy", "block");
  if (policy == "drop") {
    config.overload = core::OverloadPolicy::kDropOldest;
  } else if (policy == "reject") {
    config.overload = core::OverloadPolicy::kReject;
  } else {
    MPCNN_CHECK(policy == "block",
                "--policy must be block|drop|reject, got " << policy);
  }

  // --seed feeds the fault injector: the same seed + --faults spec
  // replays a bit-identical fault sequence.
  const std::uint64_t seed = args.integer("seed", std::uint64_t{1});
  const core::FaultPlan plan = parse_fault_plan(args.get("faults", ""));
  const Dim requested_images = args.integer("images", Dim{200});
  // Every option is read before the first call that trains models.
  const float threshold = threshold_from(args, wb);
  config.dmu_threshold = threshold;
  core::FaultInjector injector(seed, plan);
  const bool faulted = !plan.empty() || config.scrub_interval > 0;
  core::StreamSession session =
      wb.make_stream(which, config, faulted ? &injector : nullptr);
  if (args.has("canary-book")) {
    // Persisted golden book (MPGB): load when present, else record the
    // current golden outputs for future sessions of this model.
    const std::string path = args.get("canary-book", "");
    if (std::ifstream(path).good()) {
      session.attach_canary_book(core::integrity::load_canary_book(path));
      std::printf("canary book: loaded %s\n", path.c_str());
    } else {
      const core::integrity::CanaryBook book =
          core::integrity::make_canary_book(wb.compiled_bnn(),
                                            config.canary_count, seed);
      core::integrity::save_canary_book(book, path);
      session.attach_canary_book(book);
      std::printf("canary book: recorded %s (%zu probes)\n", path.c_str(),
                  book.inputs.size());
    }
  }

  const Dim images = std::min<Dim>(requested_images, wb.test_set().size());
  // Arrivals at the fabric's steady-state rate: the stream keeps the
  // pipeline loaded without free idle gaps.
  const double interval = wb.operating_design().steady_seconds_per_image();
  for (Dim i = 0; i < images; ++i) {
    session.submit(wb.test_set().images.slice_batch(i),
                   static_cast<double>(i) * interval);
  }
  session.flush();

  Dim correct = 0, scored = 0, degraded = 0, shed_results = 0, reruns = 0;
  double latency_sum = 0.0;
  for (const core::StreamResult& result : session.drain()) {
    if (result.status == core::ResultStatus::kShed) {
      ++shed_results;
      continue;
    }
    if (result.status == core::ResultStatus::kDegraded) ++degraded;
    if (result.rerun) ++reruns;
    const int truth =
        wb.test_set().labels[static_cast<std::size_t>(result.image_id)];
    if (result.label == truth) ++correct;
    ++scored;
    latency_sum += result.latency();
  }
  const core::SupervisorStats& stats = session.stats();
  std::printf("stream %c&FINN  (threshold %.3f, batch %lld, seed %llu%s)\n",
              which, threshold,
              static_cast<long long>(config.batch_size),
              static_cast<unsigned long long>(seed),
              plan.empty() ? "" : ", faults injected");
  std::printf("  served:         %lld/%lld images (%lld shed), accuracy "
              "%.1f%%\n",
              static_cast<long long>(scored),
              static_cast<long long>(images),
              static_cast<long long>(shed_results),
              100.0 * static_cast<double>(correct) /
                  static_cast<double>(std::max<Dim>(1, scored)));
  std::printf("  mean latency:   %.2f ms (%lld reruns, %lld degraded)\n",
              1e3 * latency_sum / static_cast<double>(std::max<Dim>(1, scored)),
              static_cast<long long>(reruns),
              static_cast<long long>(degraded));
  std::printf("  supervisor:     %lld dispatches (%lld fabric, %lld "
              "degraded), state %s\n",
              static_cast<long long>(stats.dispatches),
              static_cast<long long>(stats.fabric_batches),
              static_cast<long long>(stats.degraded_batches),
              session.fabric_state() == core::FabricState::kOk
                  ? "FABRIC_OK"
                  : "FABRIC_DEGRADED");
  std::printf("  watchdog:       %lld timeouts, %lld retries, %lld "
              "degraded entries, %lld recoveries\n",
              static_cast<long long>(stats.watchdog_timeouts),
              static_cast<long long>(stats.retries),
              static_cast<long long>(stats.degraded_entries),
              static_cast<long long>(stats.recoveries));
  std::printf("  weight memory:  %lld scrub cycles, %lld repairs, %lld "
              "SEU flips injected\n",
              static_cast<long long>(stats.scrub_cycles),
              static_cast<long long>(stats.scrub_repairs),
              static_cast<long long>(stats.seu_flips));
  std::printf("  overload:       %lld shed, %lld blocked, %lld corrupted "
              "inputs\n",
              static_cast<long long>(stats.shed),
              static_cast<long long>(stats.blocked),
              static_cast<long long>(stats.corrupted_inputs));
  std::printf("  sdc defense:    mode %s, %lld detected, %lld corrected, "
              "%lld served after re-exec, %lld faults fired\n",
              core::integrity::mode_name(config.integrity),
              static_cast<long long>(stats.sdc_detected),
              static_cast<long long>(stats.sdc_corrected),
              static_cast<long long>(stats.sdc_served_after_reexec),
              static_cast<long long>(stats.compute_faults_fired));
  std::printf("  canaries:       %lld probes replayed, %lld deviations\n",
              static_cast<long long>(stats.canary_runs),
              static_cast<long long>(stats.canary_failures));
  return 0;
}

data::ScenePattern parse_scene_pattern(const std::string& name) {
  if (name == "static") return data::ScenePattern::kStatic;
  if (name == "pan") return data::ScenePattern::kPan;
  if (name == "motion") return data::ScenePattern::kLocalMotion;
  if (name == "cut") return data::ScenePattern::kSceneCut;
  MPCNN_CHECK(false,
              "scene pattern must be static|pan|motion|cut, got " << name);
  return data::ScenePattern::kStatic;
}

// Trace parameters shared by `scene` and `serve --workload scene`; the
// serve command reads the pattern from `--scene-pattern` because its own
// `--pattern` names the arrival process.
data::SceneTraceConfig scene_trace_config(const Args& args,
                                          const std::string& pattern_key) {
  data::SceneTraceConfig config;
  config.pattern = parse_scene_pattern(args.get(pattern_key, "motion"));
  config.frames = args.integer("frames", Dim{16});
  config.seed = args.integer("seed", std::uint64_t{1});
  config.change_rate = args.real("change-rate", 0.05);
  config.scene.height = args.integer("height", Dim{180});
  config.scene.width = args.integer("width", Dim{320});
  return config;
}

// Parses per-replica fleet faults `R@SPEC[;R@SPEC...]`: each SPEC is
// the cmd_stream window list, addressed to one replica (or `*` for a
// correlated rack burst across all `replicas`).
core::FleetFaultPlan parse_fleet_faults(const std::string& spec,
                                        Dim replicas) {
  core::FleetFaultPlan plan;
  std::size_t start = 0;
  while (start < spec.size()) {
    std::size_t end = spec.find(';', start);
    if (end == std::string::npos) end = spec.size();
    const std::string segment = spec.substr(start, end - start);
    start = end + 1;
    if (segment.empty()) continue;
    const std::size_t at = segment.find('@');
    MPCNN_CHECK(at != std::string::npos,
                "fleet fault segment '" << segment
                                        << "' is not replica@windows");
    const std::string target = segment.substr(0, at);
    const core::FaultPlan windows = parse_fault_plan(segment.substr(at + 1));
    if (target == "*") {
      for (const core::FaultWindow& window : windows.windows) {
        plan.rack_burst(0, replicas - 1, window);
      }
    } else {
      const Dim r = parse_integer<Dim>("faults", target);
      MPCNN_CHECK(r >= 0 && r < replicas,
                  "fault replica " << r << " of " << replicas);
      for (const core::FaultWindow& window : windows.windows) {
        plan.add(r, window);
      }
    }
  }
  return plan;
}

int cmd_fleet(const Args& args) {
  core::Workbench wb(config_from(args));
  const char which = args.get("model", "A")[0];

  // Scenario = plan file (if any) overridden by explicit flags, so a
  // saved chaos run replays exactly and any knob can still be turned.
  core::FleetPlanFile plan;
  if (args.has("plan")) plan = core::load_fleet_plan(args.get("plan", ""));
  plan.replicas = args.integer("replicas", plan.replicas);
  plan.host_workers = args.integer("hosts", plan.host_workers);
  plan.batch_size = args.integer("batch", plan.batch_size);
  plan.seed = args.integer("seed", plan.seed);
  plan.rate_hz = args.real("rate", plan.rate_hz);
  plan.duration_s = args.real("duration", plan.duration_s);
  MPCNN_CHECK(plan.replicas >= 1, "--replicas must be >= 1");
  if (args.has("faults")) {
    plan.faults = parse_fleet_faults(args.get("faults", ""), plan.replicas);
  }
  if (args.has("kill")) {
    // Permanent fabric stall: the replica times out every dispatch from
    // --kill-at on, degrades, and only probes touch it afterwards.
    const Dim victim = args.integer("kill", Dim{0});
    MPCNN_CHECK(victim >= 0 && victim < plan.replicas,
                "--kill replica " << victim << " of " << plan.replicas);
    core::FaultWindow window;
    window.kind = core::FaultKind::kFabricStall;
    window.first_dispatch = args.integer("kill-at", Dim{4});
    window.last_dispatch = Dim{1} << 40;
    plan.faults.add(victim, window);
  }
  if (args.has("save-plan")) {
    const std::string out = args.get("save-plan", "");
    core::save_fleet_plan(plan, out);
    std::printf("fleet plan written to %s\n", out.c_str());
  }

  core::FleetConfig fleet_config;
  fleet_config.batch_size = plan.batch_size;
  fleet_config.host_workers = plan.host_workers;
  fleet_config.hedge_factor = args.real("hedge", 3.0);
  fleet_config.probe_interval = args.integer("probe-interval", Dim{4});

  core::StreamSession::Config session;
  session.dmu_threshold = threshold_from(args, wb);

  std::vector<core::FaultInjector> injectors;
  std::vector<const core::FaultInjector*> injector_ptrs;
  injectors.reserve(static_cast<std::size_t>(plan.replicas));
  for (Dim r = 0; r < plan.replicas; ++r) {
    injectors.emplace_back(core::replica_seed(plan.seed, r),
                           plan.faults.plan_for(r));
    injector_ptrs.push_back(&injectors.back());
  }
  core::FleetScheduler fleet =
      wb.make_fleet(which, fleet_config, plan.replicas, session,
                    injector_ptrs, /*arm_calibrated=*/false,
                    args.has("hetero"));

  // Open-loop trace at the fleet's aggregate steady rate by default.
  const double capacity_hz =
      static_cast<double>(fleet.replica_count()) /
      wb.operating_design().steady_seconds_per_image();
  const double rate = plan.rate_hz > 0.0 ? plan.rate_hz : capacity_hz;
  const Dim images = std::max<Dim>(
      1, static_cast<Dim>(std::min(2e5, rate * plan.duration_s)));
  const data::Dataset& set = wb.test_set();
  for (Dim i = 0; i < images; ++i) {
    fleet.submit(set.images.slice_batch(i % set.size()),
                 static_cast<double>(i) / rate);
  }
  fleet.flush();

  Dim correct = 0, scored = 0, host_served = 0;
  for (const core::FleetResult& result : fleet.drain()) {
    if (result.status == core::ResultStatus::kShed) continue;
    const int truth =
        set.labels[static_cast<std::size_t>(result.tag % set.size())];
    if (result.label == truth) ++correct;
    if (result.replica < 0) ++host_served;
    ++scored;
  }
  const core::FleetReport report = fleet.report();

  std::printf("fleet %c&FINN  (%lld replicas%s + %lld host workers, batch "
              "%lld, %.1f req/s x %.2f s, seed %llu%s)\n",
              which, static_cast<long long>(fleet.replica_count()),
              args.has("hetero") ? " (heterogeneous folds)" : "",
              static_cast<long long>(plan.host_workers),
              static_cast<long long>(plan.batch_size), rate,
              plan.duration_s,
              static_cast<unsigned long long>(plan.seed),
              plan.faults.empty() ? "" : ", faults injected");
  std::printf("  served:      %lld/%lld images (accuracy %.1f%%, %lld on "
              "fleet hosts), goodput %.2f img/s\n",
              static_cast<long long>(scored),
              static_cast<long long>(images),
              100.0 * static_cast<double>(correct) /
                  static_cast<double>(std::max<Dim>(1, scored)),
              static_cast<long long>(host_served),
              report.throughput_fps);
  std::printf("  routing:     %lld batches, %lld dispatches, %lld "
              "re-dispatched (%lld images, %lld hedged), %lld host "
              "fallback batches\n",
              static_cast<long long>(report.fleet.batches),
              static_cast<long long>(report.fleet.dispatches),
              static_cast<long long>(report.fleet.redispatched_batches),
              static_cast<long long>(report.fleet.redispatched_images),
              static_cast<long long>(report.fleet.hedged_batches),
              static_cast<long long>(report.fleet.host_fallback_batches));
  std::printf("  recovery:    %lld probes (%lld succeeded), %lld "
              "readmissions, %lld scrub repairs, %lld degraded at end\n",
              static_cast<long long>(report.fleet.probes),
              static_cast<long long>(report.fleet.probe_successes),
              static_cast<long long>(report.fleet.readmissions),
              static_cast<long long>(report.supervisor.scrub_repairs),
              static_cast<long long>(report.degraded_replicas));
  std::printf("  %7s %6s %6s %7s %6s %7s %7s  %s\n", "replica", "disp",
              "served", "bounced", "probes", "health", "spike", "state");
  for (std::size_t r = 0; r < report.replicas.size(); ++r) {
    const core::ReplicaReport& rep = report.replicas[r];
    std::printf("  %7zu %6lld %6lld %7lld %6lld %7.3f %7.3f  %s\n", r,
                static_cast<long long>(rep.dispatches),
                static_cast<long long>(rep.served_batches),
                static_cast<long long>(rep.bounced_batches),
                static_cast<long long>(rep.probes), rep.health,
                rep.spike_ewma,
                rep.state == core::FabricState::kOk ? "FABRIC_OK"
                : rep.state == core::FabricState::kDegraded
                    ? "FABRIC_DEGRADED"
                    : "FABRIC_RECOVERING");
  }
  if (report.all_fabric_degraded) {
    std::fprintf(stderr,
                 "error: every fabric replica ended FABRIC_DEGRADED — no "
                 "fabric capacity left, host workers carried the tail\n");
    return 3;
  }
  return 0;
}

void print_tenant_row(const core::TenantReport& t) {
  std::printf("  %-10s %6lld %6lld %5lld %5lld %5lld %5lld "
              "%8.2f %8.2f %8.2f %9.2f\n",
              t.name.c_str(), static_cast<long long>(t.offered),
              static_cast<long long>(t.served),
              static_cast<long long>(t.shed_admission),
              static_cast<long long>(t.shed_overload),
              static_cast<long long>(t.shed_slo),
              static_cast<long long>(t.host_routed), 1e3 * t.latency.p50_s,
              1e3 * t.latency.p95_s, 1e3 * t.latency.p99_s, t.goodput_fps);
}

int cmd_serve(const Args& args) {
  core::Workbench wb(config_from(args));
  const char which = args.get("model", "A")[0];

  core::ServeConfig config;
  config.batch_size = args.integer("batch", Dim{16});
  config.max_wait_s = 1e-3 * args.real("window", 5.0);
  config.queue_capacity = args.integer("capacity", Dim{0});
  config.fairness = !args.has("no-fairness");
  config.session.scrub_interval = args.integer("scrub", Dim{0});
  const std::string policy = args.get("policy", "block");
  if (policy == "drop") {
    config.overload = core::OverloadPolicy::kDropOldest;
  } else if (policy == "reject") {
    config.overload = core::OverloadPolicy::kReject;
  } else {
    MPCNN_CHECK(policy == "block",
                "--policy must be block|drop|reject, got " << policy);
  }
  const std::string slo_policy = args.get("slo-policy", "route");
  if (slo_policy == "shed") {
    config.slo_policy = core::SloPolicy::kShed;
  } else if (slo_policy == "ignore") {
    config.slo_policy = core::SloPolicy::kIgnore;
  } else {
    MPCNN_CHECK(slo_policy == "route",
                "--slo-policy must be route|shed|ignore, got "
                    << slo_policy);
  }

  const Dim num_tenants = args.integer("tenants", Dim{4});
  MPCNN_CHECK(num_tenants >= 1, "--tenants must be >= 1");
  const Dim pipelines = args.integer("pipelines", Dim{1});
  const double duration = args.real("duration", 1.0);
  // Default rate: split ~1.2× the fabric's steady throughput across the
  // tenants, so the front-end runs just past saturation.
  const double capacity_hz =
      1.0 / wb.operating_design().steady_seconds_per_image();
  const double rate = args.real(
      "rate", 1.2 * capacity_hz / static_cast<double>(num_tenants));
  const double slo_s = 1e-3 * args.real("slo", 0.0);
  const double admit = args.real("admit", 0.0);
  const double burst = args.real("burst", 4.0);
  const std::uint64_t seed = args.integer("seed", std::uint64_t{1});

  const std::string pattern_name = args.get("pattern", "poisson");
  core::TracePattern pattern = core::TracePattern::kPoisson;
  if (pattern_name == "steady") {
    pattern = core::TracePattern::kSteady;
  } else if (pattern_name == "diurnal") {
    pattern = core::TracePattern::kDiurnal;
  } else if (pattern_name == "stampede") {
    pattern = core::TracePattern::kStampede;
  } else {
    MPCNN_CHECK(pattern_name == "poisson",
                "--pattern must be steady|poisson|diurnal|stampede, got "
                    << pattern_name);
  }

  std::vector<core::TenantConfig> tenants(
      static_cast<std::size_t>(num_tenants));
  std::vector<std::vector<double>> arrivals(
      static_cast<std::size_t>(num_tenants));
  for (Dim t = 0; t < num_tenants; ++t) {
    core::TenantConfig& tenant = tenants[static_cast<std::size_t>(t)];
    tenant.name = "tenant" + std::to_string(t);
    tenant.slo_s = slo_s;
    tenant.bucket_rate = admit;
    tenant.bucket_burst = burst;
    core::TraceConfig trace;
    trace.pattern = pattern == core::TracePattern::kStampede
                        ? core::TracePattern::kPoisson
                        : pattern;
    trace.rate_hz = rate;
    trace.duration_s = duration;
    trace.diurnal_period_s = duration;
    if (pattern == core::TracePattern::kStampede && t == num_tenants - 1) {
      // The last tenant turns aggressor for the middle third of the run.
      tenant.name = "stampede";
      trace.pattern = core::TracePattern::kStampede;
      trace.stampede_start_s = duration / 3.0;
      trace.stampede_duration_s = duration / 3.0;
      trace.stampede_factor = 10.0;
    }
    arrivals[static_cast<std::size_t>(t)] = core::generate_arrivals(
        trace, seed + 0x9E37ULL * static_cast<std::uint64_t>(t));
  }

  const core::FaultPlan plan = parse_fault_plan(args.get("faults", ""));
  core::FaultInjector injector(seed, plan);
  const bool faulted =
      !plan.empty() || config.session.scrub_interval > 0;

  // `--workload scene` serves tile crops of a generated scene trace so
  // request payloads follow scene statistics; the default serves dataset
  // images.  The trace outlives the feed (the lambda holds references).
  const std::string workload = args.get("workload", "images");
  data::SceneTrace scene_trace;
  std::optional<core::SceneTileFeed> feed;
  if (workload == "scene") {
    scene_trace = data::generate_scene_trace(
        wb.objects(), scene_trace_config(args, "scene-pattern"));
    feed.emplace(scene_trace, args.integer("tile", Dim{64}),
                 args.integer("halo", Dim{8}));
  } else {
    MPCNN_CHECK(workload == "images",
                "--workload must be images|scene, got " << workload);
  }
  const data::Dataset& set = wb.test_set();
  const auto image_at = [&](Dim tenant, Dim seq) {
    if (feed) return feed->at(tenant * 31 + seq);
    return set.images.slice_batch((tenant * 31 + seq) % set.size());
  };

  // Fleet-mode options, read with the others before the first call that
  // trains models.
  const Dim replicas = args.integer("replicas", Dim{2});
  core::FleetConfig fleet;
  fleet.host_workers = args.integer("hosts", Dim{1});
  fleet.hedge_factor = args.real("hedge", 3.0);
  fleet.probe_interval = args.integer("probe-interval", Dim{4});
  config.session.dmu_threshold = threshold_from(args, wb);

  core::ServeReport report;
  if (args.has("baseline")) {
    core::StreamSession::Config session = config.session;
    session.batch_size = config.batch_size;
    report = core::run_fixed_baseline(
        wb.make_stream(which, session, faulted ? &injector : nullptr),
        tenants, arrivals, image_at);
    std::printf("serve %c&FINN fixed-batch BASELINE  ", which);
  } else if (args.has("replicas")) {
    // Fleet mode: health-cost routing, peer drain and host-worker last
    // resort behind the same front-end.  The one injector (pure function
    // of the dispatch index) arms every replica identically.
    const std::vector<const core::FaultInjector*> injectors(
        static_cast<std::size_t>(std::max<Dim>(replicas, 0)),
        faulted ? &injector : nullptr);
    core::ServeFrontEnd serve = wb.make_serve_fleet(
        which, config, tenants, fleet, replicas, injectors);
    report = run_trace(serve, arrivals, image_at, /*threaded=*/false);
    std::printf("serve %c&FINN fleet (%lld replicas + %lld hosts)  ",
                which, static_cast<long long>(replicas),
                static_cast<long long>(fleet.host_workers));
  } else {
    core::ServeFrontEnd serve =
        wb.make_serve(which, config, tenants, pipelines,
                      faulted ? &injector : nullptr);
    report = run_trace(serve, arrivals, image_at, /*threaded=*/false);
    std::printf("serve %c&FINN continuous batching  ", which);
  }
  std::printf("(batch %lld, window %.1f ms, %lld tenants x %.1f req/s, "
              "pattern %s, seed %llu%s)\n",
              static_cast<long long>(config.batch_size),
              1e3 * config.max_wait_s,
              static_cast<long long>(num_tenants), rate,
              pattern_name.c_str(),
              static_cast<unsigned long long>(seed),
              plan.empty() ? "" : ", faults injected");
  std::printf("  %-10s %6s %6s %5s %5s %5s %5s %8s %8s %8s %9s\n",
              "tenant", "offer", "serve", "adm-", "ovl-", "slo-", "host",
              "p50ms", "p95ms", "p99ms", "goodput");
  for (const core::TenantReport& tenant : report.tenants) {
    print_tenant_row(tenant);
  }
  print_tenant_row(report.total);
  std::printf("  span %.3f s, throughput %.2f img/s, %lld batches "
              "(mean fill %.1f), fabric %s\n",
              report.span_s, report.throughput_fps,
              static_cast<long long>(report.batches),
              report.mean_batch_fill,
              report.fabric_state == core::FabricState::kOk
                  ? "FABRIC_OK"
                  : "FABRIC_DEGRADED");
  std::printf("  supervisor: %lld dispatches (%lld degraded), %lld "
              "watchdog timeouts, %lld scrub repairs, %lld SEU flips\n",
              static_cast<long long>(report.supervisor.dispatches),
              static_cast<long long>(report.supervisor.degraded_batches),
              static_cast<long long>(report.supervisor.watchdog_timeouts),
              static_cast<long long>(report.supervisor.scrub_repairs),
              static_cast<long long>(report.supervisor.seu_flips));
  std::printf("  shed: %lld admission, %lld overload, %lld slo; %lld "
              "host-routed, %lld blocked\n",
              static_cast<long long>(report.supervisor.admission_shed),
              static_cast<long long>(report.supervisor.shed),
              static_cast<long long>(report.supervisor.slo_shed),
              static_cast<long long>(report.supervisor.slo_host_routed),
              static_cast<long long>(report.supervisor.blocked));
  if (report.replica_count > 0 && report.fleet.dispatches > 0) {
    std::printf("  fleet: %lld re-dispatched batches (%lld hedged), %lld "
                "host fallback, %lld probes, %lld readmissions, %lld/%lld "
                "replicas degraded\n",
                static_cast<long long>(report.fleet.redispatched_batches),
                static_cast<long long>(report.fleet.hedged_batches),
                static_cast<long long>(report.fleet.host_fallback_batches),
                static_cast<long long>(report.fleet.probes),
                static_cast<long long>(report.fleet.readmissions),
                static_cast<long long>(report.degraded_replicas),
                static_cast<long long>(report.replica_count));
  }
  if (report.all_fabric_degraded) {
    std::fprintf(stderr,
                 "error: every fabric replica ended FABRIC_DEGRADED — no "
                 "fabric capacity left, host path carried the tail\n");
    return 3;
  }
  return 0;
}

void print_scene_report(const core::SceneReport& report, bool per_frame) {
  std::printf("  tiles:      %lld/frame (%lld total over %lld frames)\n",
              static_cast<long long>(report.grid_tiles),
              static_cast<long long>(report.stats.tiles),
              static_cast<long long>(report.frames));
  std::printf("  cache:      %lld hits (%.1f%%), %lld misses, %lld "
              "insertions, %lld evictions, %lld collisions\n",
              static_cast<long long>(report.stats.cache_hits),
              100.0 * report.hit_rate,
              static_cast<long long>(report.stats.cache_misses),
              static_cast<long long>(report.stats.cache_insertions),
              static_cast<long long>(report.stats.cache_evictions),
              static_cast<long long>(report.stats.hash_collisions));
  std::printf("  escalated:  %lld tiles (%.1f%%) reran on the host\n",
              static_cast<long long>(report.stats.escalated),
              100.0 * report.escalation_rate);
  std::printf("  timing:     %.2f frames/s effective (%.3f s span), "
              "frame p50/p95/p99 %.2f/%.2f/%.2f ms\n",
              report.effective_fps, report.total_s,
              1e3 * report.frame_latency.p50_s,
              1e3 * report.frame_latency.p95_s,
              1e3 * report.frame_latency.p99_s);
  std::printf("  supervisor: %lld dispatches (%lld fabric, %lld "
              "degraded)\n",
              static_cast<long long>(report.supervisor.dispatches),
              static_cast<long long>(report.supervisor.fabric_batches),
              static_cast<long long>(report.supervisor.degraded_batches));
  if (!per_frame) return;
  std::printf("  %5s %6s %6s %6s %9s\n", "frame", "hits", "miss", "esc",
              "ms");
  for (const core::FrameReport& f : report.per_frame) {
    std::printf("  %5lld %6lld %6lld %6lld %9.2f\n",
                static_cast<long long>(f.frame),
                static_cast<long long>(f.hits),
                static_cast<long long>(f.misses),
                static_cast<long long>(f.escalated),
                1e3 * f.latency_s);
  }
}

int cmd_scene(const Args& args) {
  core::Workbench wb(config_from(args));
  const char which = args.get("model", "A")[0];

  core::SceneStreamSession::Config config;
  config.tile = args.integer("tile", Dim{64});
  config.halo = args.integer("halo", Dim{8});
  config.batch_size = args.integer("batch", Dim{16});
  config.cache_enabled = !args.has("no-cache");
  config.cache_capacity = args.integer("cache-capacity", Dim{4096});

  data::SceneTrace trace;
  if (args.has("trace")) {
    trace = data::load_scene_trace(args.get("trace", ""));
  } else {
    trace = data::generate_scene_trace(wb.objects(),
                                       scene_trace_config(args, "pattern"));
  }
  if (args.has("save")) data::save_scene_trace(trace, args.get("save", ""));
  const float threshold = threshold_from(args, wb);
  config.dmu_threshold = threshold;

  std::printf("scene %c&FINN  (pattern %s, %zu frames of %lldx%lld, tile "
              "%lld halo %lld, cache %s, threshold %.3f, seed %llu)\n",
              which, data::scene_pattern_name(trace.pattern),
              trace.frames.size(),
              static_cast<long long>(trace.height()),
              static_cast<long long>(trace.width()),
              static_cast<long long>(config.tile),
              static_cast<long long>(config.halo),
              config.cache_enabled ? "on" : "off", threshold,
              static_cast<unsigned long long>(trace.seed));

  core::SceneStreamSession session = wb.make_scene(which, config);
  const core::SceneReport report = session.run(trace);
  print_scene_report(report, args.has("per-frame"));

  if (args.has("baseline")) {
    core::SceneStreamSession::Config naive = config;
    naive.cache_enabled = false;
    core::SceneStreamSession baseline = wb.make_scene(which, naive);
    const core::SceneReport base = baseline.run(trace);
    std::printf("baseline (uncached full-frame):\n");
    print_scene_report(base, false);
    std::printf("  speedup:    %.2fx effective fps\n",
                base.effective_fps > 0.0
                    ? report.effective_fps / base.effective_fps
                    : 0.0);
  }
  return 0;
}

int cmd_design(const Args& args) {
  const double fps = args.real("fps", 400.0);
  const finn::Device device = args.get("device", "zc702") == "zc706"
                                  ? finn::zc706()
                                  : finn::zc702();
  finn::ResourceModelConfig resource;
  resource.block_partition = true;
  const auto designs =
      finn::design_space(bnn::cnv_engine_infos(), device, resource,
                         finn::ExplorerConfig{}, 40);
  const std::size_t pick = finn::pick_operating_point(designs, fps);
  const auto perf = designs[pick].evaluate(1000);
  std::printf("%s: pick %lld PEs -> %.1f img/s, BRAM %.1f%%, LUT %.1f%%\n",
              device.name.c_str(),
              static_cast<long long>(designs[pick].total_pe()),
              perf.obtained_fps,
              100.0 * perf.usage.bram_utilisation(device),
              100.0 * perf.usage.lut_utilisation(device));
  for (const auto& engine : designs[pick].engines()) {
    std::printf("  %-22s P=%-3lld S=%lld\n", engine.layer.label.c_str(),
                static_cast<long long>(engine.folding.pe),
                static_cast<long long>(engine.folding.simd));
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  // Every failure path — contract violations and malformed option values
  // (mpcnn::Error) and standard exceptions — exits with a clean one-line
  // message and a nonzero code instead of a terminate.
  try {
    if (args.command == "train") return cmd_train(args);
    if (args.command == "eval") return cmd_eval(args);
    if (args.command == "cascade") return cmd_cascade(args);
    if (args.command == "export") return cmd_export(args);
    if (args.command == "verify") return cmd_verify(args);
    if (args.command == "cpuinfo") return cmd_cpuinfo(args);
    if (args.command == "design") return cmd_design(args);
    if (args.command == "stream") return cmd_stream(args);
    if (args.command == "serve") return cmd_serve(args);
    if (args.command == "fleet") return cmd_fleet(args);
    if (args.command == "scene") return cmd_scene(args);
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return usage();
}
