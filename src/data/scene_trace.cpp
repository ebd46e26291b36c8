#include "data/scene_trace.hpp"

#include <algorithm>
#include <cmath>
#include <set>

#include "io/artifact.hpp"
#include "tensor/error.hpp"

namespace mpcnn::data {
namespace {

constexpr io::ArtifactMagic kSceneTraceMagic{'M', 'P', 'S', 'E'};
constexpr std::uint32_t kSceneTraceVersion = 1;
// Load-time sanity bounds: generous for any real trace, tight enough
// that a hostile header can never drive a huge allocation on its own
// (bounded_count then checks the product against the actual payload).
constexpr Dim kMaxFrames = 1 << 20;
constexpr Dim kMaxExtent = 1 << 16;

float clamp01(float v) { return std::clamp(v, 0.0f, 1.0f); }

// Snap to the u8 pixel grid.  Idempotent, and the exact inverse of the
// byte encoding below — the property the MPSE round-trip contract and
// the "unchanged tiles are bit-equal" contract both rest on.
float quantise(float v) {
  return std::round(clamp01(v) * 255.0f) / 255.0f;
}

void quantise_frame(Tensor& frame) {
  float* p = frame.data();
  for (Dim i = 0; i < frame.numel(); ++i) p[i] = quantise(p[i]);
}

// The per-frame change for kStatic traces: re-noise `count` distinct
// 32-pixel blocks of `frame` (chosen and noised from `rng`), leaving
// every other pixel untouched.
void perturb_blocks(Tensor& frame, Dim count, Rng& rng) {
  const Dim H = frame.shape()[2], W = frame.shape()[3];
  const std::vector<TileGeometry> blocks = tile_grid(H, W, 32, 0);
  const Dim n = static_cast<Dim>(blocks.size());
  count = std::min(count, n);
  std::set<Dim> chosen;
  while (static_cast<Dim>(chosen.size()) < count) {
    chosen.insert(static_cast<Dim>(
        rng.uniform_int(static_cast<std::uint64_t>(n))));
  }
  for (const Dim b : chosen) {
    const TileGeometry& g = blocks[static_cast<std::size_t>(b)];
    for (int c = 0; c < 3; ++c) {
      for (Dim y = g.y; y < g.y + g.h; ++y) {
        for (Dim x = g.x; x < g.x + g.w; ++x) {
          float& v = frame.at4(0, c, y, x);
          v = quantise(v + 0.1f * static_cast<float>(rng.normal()));
        }
      }
    }
  }
}

SceneTrace trace_static(const CifarLikeGenerator& objects,
                        const SceneTraceConfig& config, Rng& rng) {
  SceneTrace trace;
  const SceneGenerator gen(objects, config.scene);
  Tensor base = gen.generate(config.max_objects, rng).frame;
  quantise_frame(base);
  const Dim blocks =
      static_cast<Dim>(tile_grid(config.scene.height, config.scene.width,
                                 32, 0)
                           .size());
  const Dim change = config.change_rate <= 0.0
                         ? 0
                         : std::max<Dim>(
                               1, static_cast<Dim>(std::llround(
                                      config.change_rate *
                                      static_cast<double>(blocks))));
  for (Dim f = 0; f < config.frames; ++f) {
    Tensor frame = base;
    if (f > 0 && change > 0) perturb_blocks(frame, change, rng);
    trace.frames.push_back(std::move(frame));
  }
  return trace;
}

SceneTrace trace_pan(const CifarLikeGenerator& objects,
                     const SceneTraceConfig& config, Rng& rng) {
  // The camera pans across a larger virtual canvas; every frame is a
  // window crop, so (for a nonzero step) every tile changes every frame.
  SceneTrace trace;
  const Dim H = config.scene.height, W = config.scene.width;
  SceneGenerator::Config canvas = config.scene;
  canvas.height = H + config.pan_dy * (config.frames - 1);
  canvas.width = W + config.pan_dx * (config.frames - 1);
  const SceneGenerator gen(objects, canvas);
  Tensor wide = gen.generate(config.max_objects, rng).frame;
  quantise_frame(wide);
  const Dim CH = canvas.height, CW = canvas.width;
  for (Dim f = 0; f < config.frames; ++f) {
    const Dim oy = f * config.pan_dy, ox = f * config.pan_dx;
    Tensor frame(Shape{1, 3, H, W});
    for (int c = 0; c < 3; ++c) {
      const float* src = wide.data() + c * CH * CW;
      for (Dim y = 0; y < H; ++y) {
        float* row = frame.data() + c * H * W + y * W;
        const float* wide_row = src + (oy + y) * CW + ox;
        std::copy(wide_row, wide_row + W, row);
      }
    }
    trace.frames.push_back(std::move(frame));
  }
  return trace;
}

SceneTrace trace_local_motion(const CifarLikeGenerator& objects,
                              const SceneTraceConfig& config, Rng& rng) {
  // Static composite plus one mover redrawn per frame: the mover erases
  // back to the composite (bit-exact), so only tiles its box touches in
  // this or the previous frame differ.
  SceneTrace trace;
  const SceneGenerator gen(objects, config.scene);
  const Dim statics = std::max<Dim>(0, config.max_objects - 1);
  Tensor base = gen.generate(statics, rng).frame;
  quantise_frame(base);

  SceneObject mover;
  mover.label = static_cast<int>(rng.uniform_int(10));
  mover.size = config.scene.min_object;
  Rng item = rng.split();
  const Tensor render = objects.render(mover.label, item);
  const Dim H = config.scene.height, W = config.scene.width;
  Dim x = static_cast<Dim>(
      rng.uniform_int(static_cast<std::uint64_t>(W - mover.size + 1)));
  Dim y = static_cast<Dim>(
      rng.uniform_int(static_cast<std::uint64_t>(H - mover.size + 1)));
  Dim dx = config.motion_step, dy = config.motion_step;
  for (Dim f = 0; f < config.frames; ++f) {
    Tensor frame = base;
    mover.x = x;
    mover.y = y;
    paste_object(frame, render, mover);
    quantise_frame(frame);
    trace.frames.push_back(std::move(frame));
    // Bounce at the borders.
    if (x + dx < 0 || x + dx + mover.size > W) dx = -dx;
    if (y + dy < 0 || y + dy + mover.size > H) dy = -dy;
    x = std::clamp<Dim>(x + dx, 0, W - mover.size);
    y = std::clamp<Dim>(y + dy, 0, H - mover.size);
  }
  return trace;
}

SceneTrace trace_scene_cut(const CifarLikeGenerator& objects,
                           const SceneTraceConfig& config, Rng& rng) {
  SceneTrace trace;
  const SceneGenerator gen(objects, config.scene);
  Tensor current;
  for (Dim f = 0; f < config.frames; ++f) {
    if (f % config.cut_period == 0) {
      current = gen.generate(config.max_objects, rng).frame;
      quantise_frame(current);
    }
    trace.frames.push_back(current);
  }
  return trace;
}

}  // namespace

const char* scene_pattern_name(ScenePattern pattern) {
  switch (pattern) {
    case ScenePattern::kStatic: return "static";
    case ScenePattern::kPan: return "pan";
    case ScenePattern::kLocalMotion: return "local-motion";
    case ScenePattern::kSceneCut: return "scene-cut";
  }
  return "unknown";
}

SceneTrace generate_scene_trace(const CifarLikeGenerator& objects,
                                const SceneTraceConfig& config) {
  MPCNN_CHECK(config.frames >= 1, "trace needs at least one frame");
  MPCNN_CHECK(config.change_rate >= 0.0 && config.change_rate <= 1.0,
              "change_rate must lie in [0, 1]");
  MPCNN_CHECK(config.pan_dx >= 0 && config.pan_dy >= 0,
              "pan steps must be >= 0");
  MPCNN_CHECK(config.motion_step >= 1, "motion_step must be >= 1");
  MPCNN_CHECK(config.cut_period >= 1, "cut_period must be >= 1");
  Rng rng(config.seed);
  SceneTrace trace;
  switch (config.pattern) {
    case ScenePattern::kStatic:
      trace = trace_static(objects, config, rng);
      break;
    case ScenePattern::kPan:
      trace = trace_pan(objects, config, rng);
      break;
    case ScenePattern::kLocalMotion:
      trace = trace_local_motion(objects, config, rng);
      break;
    case ScenePattern::kSceneCut:
      trace = trace_scene_cut(objects, config, rng);
      break;
  }
  trace.pattern = config.pattern;
  trace.seed = config.seed;
  return trace;
}

void save_scene_trace(const SceneTrace& trace, const std::string& path) {
  MPCNN_CHECK(!trace.frames.empty(), "cannot save an empty trace");
  const Dim H = trace.height(), W = trace.width();
  for (const Tensor& frame : trace.frames) {
    MPCNN_CHECK(frame.shape() == Shape({1, 3, H, W}),
                "trace frames must share one geometry");
  }
  io::ArtifactWriter writer(kSceneTraceMagic, kSceneTraceVersion);
  writer.pod<std::uint32_t>(static_cast<std::uint32_t>(trace.pattern));
  writer.pod<std::uint64_t>(trace.seed);
  writer.pod<std::uint64_t>(static_cast<std::uint64_t>(trace.frames.size()));
  writer.pod<std::uint64_t>(static_cast<std::uint64_t>(H));
  writer.pod<std::uint64_t>(static_cast<std::uint64_t>(W));
  std::vector<unsigned char> bytes(static_cast<std::size_t>(3 * H * W));
  for (const Tensor& frame : trace.frames) {
    const float* p = frame.data();
    for (std::size_t i = 0; i < bytes.size(); ++i) {
      bytes[i] = static_cast<unsigned char>(
          std::llround(clamp01(p[i]) * 255.0f));
    }
    writer.bytes(bytes.data(), bytes.size());
  }
  writer.commit(path);
}

SceneTrace load_scene_trace(const std::string& path) {
  io::ArtifactReader reader(path, kSceneTraceMagic, kSceneTraceVersion);
  SceneTrace trace;
  const std::uint32_t pattern = reader.pod<std::uint32_t>();
  MPCNN_CHECK(pattern <= 3,
              path << ": unknown scene pattern " << pattern);
  trace.pattern = static_cast<ScenePattern>(pattern);
  trace.seed = reader.pod<std::uint64_t>();
  const std::uint64_t frames = reader.pod<std::uint64_t>();
  const std::uint64_t height = reader.pod<std::uint64_t>();
  const std::uint64_t width = reader.pod<std::uint64_t>();
  MPCNN_CHECK(frames >= 1 && frames <= static_cast<std::uint64_t>(kMaxFrames),
              path << ": hostile frame count " << frames);
  MPCNN_CHECK(height >= 1 && height <= static_cast<std::uint64_t>(kMaxExtent),
              path << ": hostile frame height " << height);
  MPCNN_CHECK(width >= 1 && width <= static_cast<std::uint64_t>(kMaxExtent),
              path << ": hostile frame width " << width);
  const std::uint64_t per_frame = 3ULL * height * width;
  (void)reader.bounded_count(frames * per_frame, 1, "trace pixels");
  const Dim H = static_cast<Dim>(height), W = static_cast<Dim>(width);
  std::vector<unsigned char> bytes(static_cast<std::size_t>(per_frame));
  for (std::uint64_t f = 0; f < frames; ++f) {
    reader.bytes(bytes.data(), bytes.size());
    Tensor frame(Shape{1, 3, H, W});
    float* p = frame.data();
    for (std::size_t i = 0; i < bytes.size(); ++i) {
      p[i] = static_cast<float>(bytes[i]) / 255.0f;
    }
    trace.frames.push_back(std::move(frame));
  }
  reader.expect_exhausted();
  return trace;
}

bool is_scene_trace_file(const std::string& path) {
  return io::probe_magic(path, kSceneTraceMagic);
}

}  // namespace mpcnn::data
