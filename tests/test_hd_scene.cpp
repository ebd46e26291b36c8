#include "data/hd_scene.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <set>

namespace mpcnn::data {
namespace {

CifarLikeGenerator& objects() {
  static CifarLikeGenerator gen{SyntheticConfig{}};
  return gen;
}

// ---- per-sample oracle for the table-driven resampler -----------------
//
// Every output sample clamps, truncates and weights its own coordinates.
// The table-driven resampler behind the two public functions must stay
// byte-identical to these loops.

float oracle_bilinear(const float* plane, Dim h, Dim w, float y, float x) {
  const float cy = std::clamp(y, 0.0f, static_cast<float>(h - 1));
  const float cx = std::clamp(x, 0.0f, static_cast<float>(w - 1));
  const Dim y0 = static_cast<Dim>(cy);
  const Dim x0 = static_cast<Dim>(cx);
  const Dim y1 = std::min(y0 + 1, h - 1);
  const Dim x1 = std::min(x0 + 1, w - 1);
  const float fy = cy - static_cast<float>(y0);
  const float fx = cx - static_cast<float>(x0);
  const float top = plane[y0 * w + x0] * (1 - fx) + plane[y0 * w + x1] * fx;
  const float bot = plane[y1 * w + x0] * (1 - fx) + plane[y1 * w + x1] * fx;
  return top * (1 - fy) + bot * fy;
}

Tensor oracle_extract_tile(const Tensor& frame, const TileGeometry& tile) {
  const Dim H = frame.shape()[2], W = frame.shape()[3];
  Tensor crop(Shape{1, 3, 32, 32});
  const float scale_y = static_cast<float>(tile.hh) / 32.0f;
  const float scale_x = static_cast<float>(tile.hw) / 32.0f;
  for (int c = 0; c < 3; ++c) {
    const float* plane = frame.data() + c * H * W;
    for (Dim y = 0; y < 32; ++y) {
      for (Dim x = 0; x < 32; ++x) {
        const float sy = static_cast<float>(tile.hy) +
                         (static_cast<float>(y) + 0.5f) * scale_y - 0.5f;
        const float sx = static_cast<float>(tile.hx) +
                         (static_cast<float>(x) + 0.5f) * scale_x - 0.5f;
        crop.at4(0, c, y, x) = oracle_bilinear(plane, H, W, sy, sx);
      }
    }
  }
  return crop;
}

void oracle_paste_object(Tensor& frame, const Tensor& render32,
                         const SceneObject& object) {
  const float scale = 32.0f / static_cast<float>(object.size);
  for (int c = 0; c < 3; ++c) {
    const float* src = render32.data() + c * 32 * 32;
    for (Dim y = 0; y < object.size; ++y) {
      for (Dim x = 0; x < object.size; ++x) {
        const float v = oracle_bilinear(
            src, 32, 32,
            (static_cast<float>(y) + 0.5f) * scale - 0.5f,
            (static_cast<float>(x) + 0.5f) * scale - 0.5f);
        frame.at4(0, c, object.y + y, object.x + x) = v;
      }
    }
  }
}

bool same_bytes(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.numel()) * sizeof(float)) ==
             0;
}

Dim draw(Rng& rng, Dim lo, Dim hi) {  // uniform in [lo, hi]
  return lo + static_cast<Dim>(
                  rng.uniform_int(static_cast<std::uint64_t>(hi - lo + 1)));
}

TEST(SceneGenerator, FrameGeometryAndRange) {
  SceneGenerator::Config config;
  config.height = 180;
  config.width = 320;
  SceneGenerator gen(objects(), config);
  Rng rng(3);
  const Scene scene = gen.generate(5, rng);
  EXPECT_EQ(scene.frame.shape(), Shape({1, 3, 180, 320}));
  EXPECT_GE(scene.frame.min(), 0.0f);
  EXPECT_LE(scene.frame.max(), 1.0f);
  EXPECT_GE(scene.objects.size(), 1u);
  EXPECT_LE(scene.objects.size(), 5u);
}

TEST(SceneGenerator, ObjectsStayInFrameAndDisjoint) {
  SceneGenerator::Config config;
  config.height = 240;
  config.width = 320;
  SceneGenerator gen(objects(), config);
  Rng rng(5);
  const Scene scene = gen.generate(6, rng);
  for (const SceneObject& object : scene.objects) {
    EXPECT_GE(object.x, 0);
    EXPECT_GE(object.y, 0);
    EXPECT_LE(object.x + object.size, 320);
    EXPECT_LE(object.y + object.size, 240);
    EXPECT_GE(object.size, config.min_object);
    EXPECT_LE(object.size, config.max_object);
  }
  for (std::size_t i = 0; i < scene.objects.size(); ++i) {
    for (std::size_t j = i + 1; j < scene.objects.size(); ++j) {
      const SceneObject& a = scene.objects[i];
      const SceneObject& b = scene.objects[j];
      EXPECT_TRUE(a.x + a.size <= b.x || b.x + b.size <= a.x ||
                  a.y + a.size <= b.y || b.y + b.size <= a.y);
    }
  }
}

TEST(SceneGenerator, RejectsTinyFrames) {
  SceneGenerator::Config config;
  config.height = 40;
  config.width = 40;
  EXPECT_THROW(SceneGenerator(objects(), config), Error);
}

// ---- tiling geometry (core/scene_stream rides on these) ---------------

TEST(TileGrid, NonDividingSizesPartitionTheFrame) {
  // 100x130 with tile 32: 4x5 grid with short border tiles.  The
  // coverage rects must partition the frame exactly — every pixel in
  // exactly one tile.
  const auto grid = tile_grid(100, 130, 32, 4);
  ASSERT_EQ(grid.size(), 20u);
  std::vector<int> covered(100 * 130, 0);
  for (const TileGeometry& g : grid) {
    EXPECT_GT(g.w, 0);
    EXPECT_GT(g.h, 0);
    for (Dim y = g.y; y < g.y + g.h; ++y) {
      for (Dim x = g.x; x < g.x + g.w; ++x) {
        ++covered[static_cast<std::size_t>(y * 130 + x)];
      }
    }
  }
  for (const int c : covered) ASSERT_EQ(c, 1);
  // Row-major indexing contract.
  for (std::size_t i = 0; i < grid.size(); ++i) {
    EXPECT_EQ(grid[i].index, static_cast<Dim>(i));
    EXPECT_EQ(grid[i].row, static_cast<Dim>(i) / 5);
    EXPECT_EQ(grid[i].col, static_cast<Dim>(i) % 5);
  }
  // Border tiles are short: last column 130 - 4*32 = 2 wide, last row
  // 100 - 3*32 = 4 tall.
  EXPECT_EQ(grid[4].w, 2);
  EXPECT_EQ(grid[15].h, 4);
}

TEST(TileGrid, HaloClampsAtBordersAndGrowsInterior) {
  const auto grid = tile_grid(96, 96, 32, 8);
  ASSERT_EQ(grid.size(), 9u);
  for (const TileGeometry& g : grid) {
    // The halo rect contains the coverage rect and stays in the frame.
    EXPECT_LE(g.hx, g.x);
    EXPECT_LE(g.hy, g.y);
    EXPECT_GE(g.hx + g.hw, g.x + g.w);
    EXPECT_GE(g.hy + g.hh, g.y + g.h);
    EXPECT_GE(g.hx, 0);
    EXPECT_GE(g.hy, 0);
    EXPECT_LE(g.hx + g.hw, 96);
    EXPECT_LE(g.hy + g.hh, 96);
  }
  // Corner tile: halo clamped on two sides.
  EXPECT_EQ(grid[0].hx, 0);
  EXPECT_EQ(grid[0].hy, 0);
  EXPECT_EQ(grid[0].hw, 40);
  // Centre tile: full halo on all four sides.
  EXPECT_EQ(grid[4].hx, 24);
  EXPECT_EQ(grid[4].hy, 24);
  EXPECT_EQ(grid[4].hw, 48);
  EXPECT_EQ(grid[4].hh, 48);
}

TEST(TileGrid, DegenerateShapes) {
  // 1xN strip.
  const auto strip = tile_grid(32, 640, 64, 8);
  ASSERT_EQ(strip.size(), 10u);
  for (const TileGeometry& g : strip) {
    EXPECT_EQ(g.row, 0);
    EXPECT_EQ(g.h, 32);
    EXPECT_EQ(g.hh, 32);  // halo fully clamped vertically
  }
  // Nx1 column.
  const auto column = tile_grid(640, 32, 64, 8);
  ASSERT_EQ(column.size(), 10u);
  for (const TileGeometry& g : column) EXPECT_EQ(g.col, 0);
  // Single tile covering everything (tile larger than the frame).
  const auto single = tile_grid(64, 48, 128, 16);
  ASSERT_EQ(single.size(), 1u);
  EXPECT_EQ(single[0].w, 48);
  EXPECT_EQ(single[0].h, 64);
  EXPECT_EQ(single[0].hw, 48);
  EXPECT_EQ(single[0].hh, 64);
}

TEST(TileGrid, ValidatesArguments) {
  EXPECT_THROW(tile_grid(64, 64, 4, 0), Error);   // tile too small
  EXPECT_THROW(tile_grid(64, 64, 32, -1), Error); // negative halo
  EXPECT_THROW(tile_grid(0, 64, 32, 0), Error);   // empty frame
  EXPECT_THROW(tile_grid(64, 0, 32, 0), Error);
}

TEST(ExtractTile, ShortBorderTileResamplesCleanly) {
  // The 2-pixel-wide border tile of the 100x130 grid still produces a
  // full 32x32 classifier input within range.
  Tensor frame(Shape{1, 3, 100, 130});
  frame.fill(0.25f);
  const auto grid = tile_grid(100, 130, 32, 4);
  const Tensor tile = extract_tile(frame, grid[4]);  // 2-wide coverage
  EXPECT_EQ(tile.shape(), Shape({1, 3, 32, 32}));
  for (Dim i = 0; i < tile.numel(); ++i) ASSERT_NEAR(tile[i], 0.25f, 1e-6f);
}

TEST(ExtractTile, ResamplersMatchThePerSampleOracleBitForBit) {
  // 300 seeded random frames: every tile of the frame's grid.
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    Rng rng(seed);
    const Dim H = draw(rng, 1, 300), W = draw(rng, 1, 300);
    const Dim tile = draw(rng, 8, 157), halo = draw(rng, 0, 39);
    Tensor frame(Shape{1, 3, H, W});
    frame.fill_uniform(rng, 0.0f, 1.0f);
    for (const TileGeometry& g : tile_grid(H, W, tile, halo)) {
      ASSERT_TRUE(same_bytes(extract_tile(frame, g),
                             oracle_extract_tile(frame, g)))
          << "seed " << seed << ": " << H << "x" << W << " frame, tile "
          << tile << ", halo " << halo << ", tile index " << g.index
          << " (halo rect " << g.hx << "," << g.hy << " " << g.hw << "x"
          << g.hh << ")";
    }
  }
  // paste_object at every object extent the scene generators could ask
  // for, into a random frame at a random in-frame position.
  for (Dim size = 8; size <= 120; ++size) {
    Rng rng(static_cast<std::uint64_t>(size));
    const Dim H = size + draw(rng, 0, 40), W = size + draw(rng, 0, 40);
    Tensor frame(Shape{1, 3, H, W});
    frame.fill_uniform(rng, 0.0f, 1.0f);
    Tensor render(Shape{1, 3, 32, 32});
    render.fill_uniform(rng, 0.0f, 1.0f);
    SceneObject object;
    object.size = size;
    object.x = draw(rng, 0, W - size);
    object.y = draw(rng, 0, H - size);
    Tensor want = frame;
    oracle_paste_object(want, render, object);
    paste_object(frame, render, object);
    ASSERT_TRUE(same_bytes(frame, want))
        << "seed " << size << ": " << H << "x" << W << " frame, object "
        << object.x << "," << object.y << " size " << size;
  }
}

}  // namespace
}  // namespace mpcnn::data
