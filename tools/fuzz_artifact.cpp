// Structure-aware corruption fuzzer for every mpcnn artifact format.
//
// Builds one golden artifact per format (MPCN net weights, MPBN compiled
// BNN, MPCK training checkpoint, MPSE scene trace, MPFP fleet plan,
// MPGB canary golden book), then applies seeded
// random mutations — truncation, extension, single bit flips, and
// multi-byte field overwrites aimed at the frame's magic / version /
// length / payload / CRC regions — and feeds each mutant to the real
// loader.  Every non-identity mutation must be rejected with a clean
// mpcnn::Error: any crash, any foreign exception, and any silent
// acceptance is a fuzzer failure.  The run is deterministic for a given
// seed, so a passing configuration stays reproducible.
//
//   fuzz_artifact [--iterations N] [--seed S] [--dir D] [--keep]
//
// Exit status 0 only when all mutants across all formats were cleanly
// rejected.  Designed to also run under ASan/UBSan (the sanitized tree
// in run_all.sh) so bounded-read violations abort loudly.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "bnn/export.hpp"
#include "core/fleet.hpp"
#include "core/integrity/canary.hpp"
#include "data/scene_trace.hpp"
#include "nn/activations.hpp"
#include "nn/checkpoint.hpp"
#include "nn/conv.hpp"
#include "nn/dense.hpp"
#include "nn/dropout.hpp"
#include "nn/flatten.hpp"
#include "nn/net.hpp"
#include "nn/pool.hpp"
#include "nn/serialize.hpp"
#include "nn/sgd.hpp"
#include "tensor/rng.hpp"

namespace mpcnn {
namespace {

struct Options {
  std::size_t iterations = 1200;  ///< total across all formats
  std::uint64_t seed = 20260806;
  std::string dir = "fuzz_artifact_work";
  bool keep = false;
};

std::vector<unsigned char> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  MPCNN_CHECK(in.good(), "fuzzer cannot read " << path);
  return std::vector<unsigned char>(std::istreambuf_iterator<char>(in),
                                    std::istreambuf_iterator<char>());
}

void write_file(const std::string& path,
                const std::vector<unsigned char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  MPCNN_CHECK(out.good(), "fuzzer cannot write " << path);
}

// ---- golden artifact builders -----------------------------------------

nn::Net make_golden_net() {
  nn::Net net("fuzz", Shape{1, 1, 8, 8});
  net.add<nn::Conv2D>(1, 4, 3, 1, 1);
  net.add<nn::ReLU>();
  net.add<nn::Pool2D>(nn::PoolMode::kMax, 2, 2);
  net.add<nn::Flatten>();
  net.add<nn::Dense>(4 * 4 * 4, 2);
  return net;
}

std::string build_net_golden(const std::string& dir) {
  const std::string path = dir + "/golden_net.mpcn";
  nn::Net net = make_golden_net();
  nn::save_net(net, path);
  return path;
}

bnn::CompiledBnn make_golden_compiled() {
  // Hand-assembled three-stage compiled net: fixed-point conv → binary
  // conv → output dense, with patterned weights so every byte matters.
  bnn::CompiledBnn net;
  net.classes = 4;
  net.input_levels = 255;
  Rng rng(7);
  auto stage = [&rng](bnn::StageKind kind, Dim in_ch, Dim in_hw, Dim out_ch,
                      Dim out_hw, Dim kernel, Dim cols, int levels) {
    bnn::CompiledStage s;
    s.kind = kind;
    s.in_ch = in_ch;
    s.in_h = s.in_w = in_hw;
    s.out_ch = out_ch;
    s.out_h = s.out_w = out_hw;
    s.kernel = kernel;
    s.in_levels = levels;
    s.out_levels = 2;
    s.weights = bnn::BitMatrix(out_ch, cols);
    for (Dim r = 0; r < out_ch; ++r) {
      for (Dim c = 0; c < cols; ++c) {
        s.weights.set(r, c, rng.uniform(0.0, 1.0) < 0.5);
      }
    }
    s.thresholds.resize(static_cast<std::size_t>(out_ch));
    for (auto& t : s.thresholds) {
      t = static_cast<std::int32_t>(rng.uniform(-40.0, 40.0));
    }
    s.negate.resize(static_cast<std::size_t>(out_ch));
    for (auto& n : s.negate) {
      n = rng.uniform(0.0, 1.0) < 0.5 ? 1 : 0;
    }
    return s;
  };
  net.stages.push_back(stage(bnn::StageKind::kFixedPointConv, 1, 8, 8, 6,
                             3, 9, 256));
  net.stages.push_back(
      stage(bnn::StageKind::kBinaryConv, 8, 6, 8, 4, 3, 72, 2));
  // Dense input width = the flattened 8ch × 4×4 binary feature map, so
  // the golden net is actually executable (the canary book records real
  // run_reference logits from it).
  net.stages.push_back(
      stage(bnn::StageKind::kOutputDense, 8 * 4 * 4, 1, 4, 1, 0, 8 * 16, 2));
  return net;
}

std::string build_compiled_golden(const std::string& dir) {
  const std::string path = dir + "/golden_bnn.mpbn";
  bnn::save_compiled(make_golden_compiled(), path);
  return path;
}

std::string build_canary_golden(const std::string& dir) {
  // Golden-output canary book recorded against the hand-assembled
  // compiled net: probe pixels, exact logits, and the model-identity CRC
  // all live in the payload, so mutations strike real fields.
  const std::string path = dir + "/golden_canary.mpgb";
  core::integrity::save_canary_book(
      core::integrity::make_canary_book(make_golden_compiled(), /*count=*/3,
                                        /*seed=*/99),
      path);
  return path;
}

std::string build_checkpoint_golden(const std::string& dir) {
  // A few real optimiser steps on a toy problem so the checkpoint holds
  // genuine momentum slots and a dropout RNG.
  nn::Net net("fuzz_ck", Shape{1, 1, 8, 8});
  net.add<nn::Conv2D>(1, 4, 3, 1, 1);
  net.add<nn::ReLU>();
  net.add<nn::Dropout>(0.3f);
  net.add<nn::Flatten>();
  net.add<nn::Dense>(4 * 8 * 8, 2);

  const std::string ckpt_dir = dir + "/golden_ckpt";
  nn::Trainer::Config tc;
  tc.epochs = 1;
  tc.batch_size = 8;
  tc.seed = 11;
  tc.checkpoint_dir = ckpt_dir;
  tc.checkpoint_every = 2;

  Tensor images(Shape{32, 1, 8, 8});
  Rng rng(3);
  for (Dim i = 0; i < images.numel(); ++i) {
    images.data()[i] = static_cast<float>(rng.uniform(0.0, 1.0));
  }
  std::vector<int> labels(32);
  for (std::size_t i = 0; i < labels.size(); ++i) {
    labels[i] = static_cast<int>(i % 2);
  }
  nn::Trainer(tc).fit(net, images, labels);

  nn::TrainerCheckpoint ck;
  MPCNN_CHECK(nn::load_last_checkpoint(ckpt_dir, &ck),
              "fuzzer training produced no checkpoint");
  return (std::filesystem::path(ckpt_dir) /
          nn::read_manifest(nn::manifest_path(ckpt_dir)))
      .string();
}

std::string build_trace_golden(const std::string& dir) {
  // Small local-motion trace: real header fields plus a few KB of pixel
  // payload, so mutations exercise both.
  data::CifarLikeGenerator objects;
  data::SceneTraceConfig config;
  config.pattern = data::ScenePattern::kLocalMotion;
  config.frames = 4;
  config.max_objects = 2;
  config.seed = 5;
  config.scene.height = 64;
  config.scene.width = 64;
  config.scene.min_object = 32;
  config.scene.max_object = 32;
  const std::string path = dir + "/golden_trace.mpse";
  data::save_scene_trace(data::generate_scene_trace(objects, config), path);
  return path;
}

std::string build_fleet_plan_golden(const std::string& dir) {
  // A real chaos scenario: every window kind, a per-replica kill, a
  // correlated rack burst, so every payload field carries live data.
  core::FleetPlanFile plan;
  plan.replicas = 4;
  plan.host_workers = 2;
  plan.batch_size = 8;
  plan.seed = 77;
  plan.rate_hz = 320.0;
  plan.duration_s = 0.5;
  core::FaultWindow kill;
  kill.kind = core::FaultKind::kFabricStall;
  kill.first_dispatch = 3;
  kill.last_dispatch = 1 << 20;
  plan.faults.add(1, kill);
  core::FaultWindow seu;
  seu.kind = core::FaultKind::kSeuWeightFlip;
  seu.first_dispatch = 2;
  seu.last_dispatch = 5;
  seu.count = 3;
  plan.faults.add(2, seu);
  core::FaultWindow spike;
  spike.kind = core::FaultKind::kHostLatencySpike;
  spike.first_dispatch = 0;
  spike.last_dispatch = 9;
  spike.magnitude = 4.0;
  plan.faults.rack_burst(0, 3, spike);
  const std::string path = dir + "/golden_fleet.mpfp";
  core::save_fleet_plan(plan, path);
  return path;
}

// ---- mutation engine ---------------------------------------------------

// Byte regions of the framed container; payload gets most of the budget.
enum class Region { kMagic, kVersion, kLength, kPayload, kCrc };

Region pick_region(Rng& rng) {
  const double roll = rng.uniform(0.0, 1.0);
  if (roll < 0.10) return Region::kMagic;
  if (roll < 0.20) return Region::kVersion;
  if (roll < 0.35) return Region::kLength;
  if (roll < 0.90) return Region::kPayload;
  return Region::kCrc;
}

std::size_t region_offset(Region region, std::size_t size, Rng& rng) {
  const std::size_t payload = size > 20 ? size - 20 : 0;
  switch (region) {
    case Region::kMagic:
      return static_cast<std::size_t>(rng.uniform(0.0, 4.0));
    case Region::kVersion:
      return 4 + static_cast<std::size_t>(rng.uniform(0.0, 4.0));
    case Region::kLength:
      return 8 + static_cast<std::size_t>(rng.uniform(0.0, 8.0));
    case Region::kPayload:
      if (payload == 0) return 16 < size ? 16 : 0;
      return 16 + static_cast<std::size_t>(
                      rng.uniform(0.0, static_cast<double>(payload)));
    case Region::kCrc:
      return size - 4 + static_cast<std::size_t>(rng.uniform(0.0, 4.0));
  }
  return 0;
}

// One seeded mutation; returns a human tag describing what it did.
std::string mutate(std::vector<unsigned char>* bytes, Rng& rng) {
  const double roll = rng.uniform(0.0, 1.0);
  const std::size_t size = bytes->size();
  if (roll < 0.25) {
    // Truncate anywhere, including to zero bytes.
    const auto cut =
        static_cast<std::size_t>(rng.uniform(0.0, static_cast<double>(size)));
    bytes->resize(cut);
    return "truncate@" + std::to_string(cut);
  }
  if (roll < 0.35) {
    // Append trailing garbage (the frame requires an exact size).
    const auto extra = 1 + static_cast<std::size_t>(rng.uniform(0.0, 64.0));
    for (std::size_t i = 0; i < extra; ++i) {
      bytes->push_back(static_cast<unsigned char>(rng.uniform(0.0, 256.0)));
    }
    return "extend+" + std::to_string(extra);
  }
  if (roll < 0.70) {
    // Single bit flip — the CRC must catch every one of these.
    const std::size_t at = region_offset(pick_region(rng), size, rng);
    const int bit = static_cast<int>(rng.uniform(0.0, 8.0));
    (*bytes)[at] ^= static_cast<unsigned char>(1u << bit);
    return "bitflip@" + std::to_string(at) + "." + std::to_string(bit);
  }
  // Field overwrite: clobber up to 8 bytes of one frame region with
  // random data (models a hostile count/rank/dim/length field).
  const Region region = pick_region(rng);
  const std::size_t at = region_offset(region, size, rng);
  const std::size_t span =
      std::min<std::size_t>(1 + static_cast<std::size_t>(rng.uniform(0.0, 8.0)),
                            size - at);
  for (std::size_t i = 0; i < span; ++i) {
    (*bytes)[at + i] = static_cast<unsigned char>(rng.uniform(0.0, 256.0));
  }
  return "overwrite@" + std::to_string(at) + "x" + std::to_string(span);
}

struct Target {
  const char* name;
  std::string golden_path;
  std::function<void(const std::string&)> load;
};

int fuzz_target(const Target& target, std::size_t iterations,
                std::uint64_t seed, const std::string& dir) {
  const std::vector<unsigned char> golden = read_file(target.golden_path);
  // The pristine artifact must load — otherwise every "rejection" below
  // would be meaningless.
  target.load(target.golden_path);

  const std::string mutant_path =
      dir + "/mutant_" + std::string(target.name) + ".bin";
  Rng rng(seed);
  int failures = 0;
  std::size_t skipped = 0;
  for (std::size_t i = 0; i < iterations; ++i) {
    std::vector<unsigned char> mutant = golden;
    const std::string tag = mutate(&mutant, rng);
    if (mutant.size() == golden.size() &&
        std::memcmp(mutant.data(), golden.data(), mutant.size()) == 0) {
      ++skipped;  // identity mutation (flip of a byte back to itself etc.)
      continue;
    }
    write_file(mutant_path, mutant);
    try {
      target.load(mutant_path);
      std::fprintf(stderr,
                   "FAIL %s #%zu (%s): corrupt artifact loaded silently\n",
                   target.name, i, tag.c_str());
      ++failures;
    } catch (const Error&) {
      // Clean structured rejection — the only acceptable outcome.
    } catch (const std::exception& e) {
      std::fprintf(stderr, "FAIL %s #%zu (%s): foreign exception: %s\n",
                   target.name, i, tag.c_str(), e.what());
      ++failures;
    }
  }
  std::printf("%-10s %zu mutants, %zu identity-skipped, %d failures\n",
              target.name, iterations, skipped, failures);
  return failures;
}

int run(const Options& opt) {
  std::filesystem::create_directories(opt.dir);

  std::vector<Target> targets;
  targets.push_back({"MPCN", build_net_golden(opt.dir),
                     [](const std::string& p) {
                       nn::Net net = make_golden_net();
                       nn::load_net(net, p);
                     }});
  targets.push_back({"MPBN", build_compiled_golden(opt.dir),
                     [](const std::string& p) { bnn::load_compiled(p); }});
  targets.push_back({"MPCK", build_checkpoint_golden(opt.dir),
                     [](const std::string& p) {
                       nn::load_checkpoint_file(p);
                     }});
  targets.push_back({"MPSE", build_trace_golden(opt.dir),
                     [](const std::string& p) {
                       data::load_scene_trace(p);
                     }});
  targets.push_back({"MPFP", build_fleet_plan_golden(opt.dir),
                     [](const std::string& p) {
                       core::load_fleet_plan(p);
                     }});
  targets.push_back({"MPGB", build_canary_golden(opt.dir),
                     [](const std::string& p) {
                       core::integrity::load_canary_book(p);
                     }});

  const std::size_t per_target =
      (opt.iterations + targets.size() - 1) / targets.size();
  int failures = 0;
  for (std::size_t t = 0; t < targets.size(); ++t) {
    failures +=
        fuzz_target(targets[t], per_target, opt.seed + t, opt.dir);
  }

  if (!opt.keep) {
    std::error_code ignored;
    std::filesystem::remove_all(opt.dir, ignored);
  }
  if (failures > 0) {
    std::fprintf(stderr, "fuzz_artifact: %d mutants were NOT rejected\n",
                 failures);
    return 1;
  }
  std::printf("fuzz_artifact: all mutants cleanly rejected\n");
  return 0;
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
    if (arg == "--iterations") {
      opt.iterations = static_cast<std::size_t>(std::stoull(value()));
    } else if (arg == "--seed") {
      opt.seed = std::stoull(value());
    } else if (arg == "--dir") {
      opt.dir = value();
    } else if (arg == "--keep") {
      opt.keep = true;
    } else {
      std::fprintf(stderr,
                   "usage: fuzz_artifact [--iterations N] [--seed S] "
                   "[--dir D] [--keep]\n");
      return 2;
    }
  }
  try {
    return mpcnn::run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fuzz_artifact: fatal: %s\n", e.what());
    return 1;
  }
}
