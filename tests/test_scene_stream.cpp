// Tile-streaming scene pipeline with temporal caching
// (core/scene_stream) and scene traces (data/scene_trace).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>
#include <vector>

#include "core/scene_stream.hpp"
#include "core/threadpool.hpp"
#include "core/workbench.hpp"
#include "data/scene_trace.hpp"

namespace mpcnn {
namespace {

class SceneTest : public ::testing::Test {
 protected:
  // Same shared tiny workbench (and on-disk cache) as the stream and
  // serve tests.
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

  // Small fast trace geometry: 96x96 frames, 3x3 grid at tile 32.
  static data::SceneTraceConfig trace_config(data::ScenePattern pattern,
                                             std::uint64_t seed = 5) {
    data::SceneTraceConfig config;
    config.pattern = pattern;
    config.frames = 5;
    config.seed = seed;
    config.scene.height = 96;
    config.scene.width = 96;
    config.scene.min_object = 32;
    config.scene.max_object = 48;
    return config;
  }

  static core::SceneStreamSession::Config scene_config() {
    core::SceneStreamSession::Config config;
    config.tile = 32;
    config.halo = 4;
    config.batch_size = 4;
    config.dmu_threshold = 0.5f;
    return config;
  }

  static bool on_u8_grid(float v) {
    return v >= 0.0f && v <= 1.0f &&
           std::abs(v - std::round(v * 255.0f) / 255.0f) < 1e-7f;
  }

  static void expect_bit_identical(const data::SceneTrace& a,
                                   const data::SceneTrace& b) {
    ASSERT_EQ(a.frames.size(), b.frames.size());
    for (std::size_t f = 0; f < a.frames.size(); ++f) {
      ASSERT_EQ(a.frames[f].shape(), b.frames[f].shape());
      ASSERT_EQ(std::memcmp(a.frames[f].data(), b.frames[f].data(),
                            static_cast<std::size_t>(a.frames[f].numel()) *
                                sizeof(float)),
                0)
          << "frame " << f << " differs";
    }
  }
};

// ---- trace generation --------------------------------------------------

TEST_F(SceneTest, TracesAreSeedDeterministicAndQuantised) {
  for (const data::ScenePattern pattern :
       {data::ScenePattern::kStatic, data::ScenePattern::kPan,
        data::ScenePattern::kLocalMotion, data::ScenePattern::kSceneCut}) {
    data::SceneTraceConfig config = trace_config(pattern);
    config.change_rate = 0.2;
    const data::SceneTrace a =
        data::generate_scene_trace(workbench().objects(), config);
    const data::SceneTrace b =
        data::generate_scene_trace(workbench().objects(), config);
    ASSERT_EQ(a.frames.size(), 5u);
    expect_bit_identical(a, b);
    for (const Tensor& frame : a.frames) {
      ASSERT_EQ(frame.shape(), Shape({1, 3, 96, 96}));
      for (Dim i = 0; i < frame.numel(); ++i) {
        ASSERT_TRUE(on_u8_grid(frame[i]))
            << data::scene_pattern_name(pattern) << " off the u8 grid";
      }
    }
  }
}

TEST_F(SceneTest, TracePatternsHaveTheirTemporalShape) {
  // Static at change_rate 0: every frame bit-equal to the first.
  {
    const data::SceneTrace trace = data::generate_scene_trace(
        workbench().objects(), trace_config(data::ScenePattern::kStatic));
    for (std::size_t f = 1; f < trace.frames.size(); ++f) {
      EXPECT_EQ(std::memcmp(trace.frames[0].data(), trace.frames[f].data(),
                            static_cast<std::size_t>(
                                trace.frames[0].numel()) *
                                sizeof(float)),
                0);
    }
  }
  // Pan: consecutive frames differ.
  {
    const data::SceneTrace trace = data::generate_scene_trace(
        workbench().objects(), trace_config(data::ScenePattern::kPan));
    for (std::size_t f = 1; f < trace.frames.size(); ++f) {
      EXPECT_NE(std::memcmp(trace.frames[f - 1].data(),
                            trace.frames[f].data(),
                            static_cast<std::size_t>(
                                trace.frames[f].numel()) *
                                sizeof(float)),
                0);
    }
  }
  // Scene cut with period 2 over 5 frames: frames 0==1, 2==3, 0!=2.
  {
    data::SceneTraceConfig config =
        trace_config(data::ScenePattern::kSceneCut);
    config.cut_period = 2;
    const data::SceneTrace trace =
        data::generate_scene_trace(workbench().objects(), config);
    const auto same = [&](std::size_t a, std::size_t b) {
      return std::memcmp(trace.frames[a].data(), trace.frames[b].data(),
                         static_cast<std::size_t>(trace.frames[a].numel()) *
                             sizeof(float)) == 0;
    };
    EXPECT_TRUE(same(0, 1));
    EXPECT_TRUE(same(2, 3));
    EXPECT_FALSE(same(0, 2));
  }
  // Local motion: frames differ, but most pixels match the next frame
  // (only the mover's neighbourhood changes).
  {
    const data::SceneTrace trace = data::generate_scene_trace(
        workbench().objects(),
        trace_config(data::ScenePattern::kLocalMotion));
    Dim unchanged = 0;
    const Dim n = trace.frames[0].numel();
    for (Dim i = 0; i < n; ++i) {
      if (trace.frames[0][i] == trace.frames[1][i]) ++unchanged;
    }
    EXPECT_GT(unchanged, n / 2) << "local motion changed most of the frame";
    EXPECT_LT(unchanged, n) << "local motion changed nothing";
  }
}

TEST_F(SceneTest, TraceRoundTripsThroughMpseBitIdentically) {
  data::SceneTraceConfig config =
      trace_config(data::ScenePattern::kLocalMotion, 9);
  const data::SceneTrace trace =
      data::generate_scene_trace(workbench().objects(), config);
  const std::string path =
      (std::filesystem::temp_directory_path() / "mpcnn_trace_rt.mpse")
          .string();
  data::save_scene_trace(trace, path);
  EXPECT_TRUE(data::is_scene_trace_file(path));
  const data::SceneTrace loaded = data::load_scene_trace(path);
  EXPECT_EQ(loaded.pattern, trace.pattern);
  EXPECT_EQ(loaded.seed, trace.seed);
  expect_bit_identical(trace, loaded);
  std::filesystem::remove(path);
}

TEST_F(SceneTest, CorruptTraceArtifactIsRejected) {
  const data::SceneTrace trace = data::generate_scene_trace(
      workbench().objects(), trace_config(data::ScenePattern::kStatic));
  const std::string path =
      (std::filesystem::temp_directory_path() / "mpcnn_trace_bad.mpse")
          .string();
  data::save_scene_trace(trace, path);
  // Flip one payload byte: the CRC frame must reject the file.
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(64);
    char byte = 0;
    f.seekg(64);
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x20);
    f.seekp(64);
    f.write(&byte, 1);
  }
  EXPECT_THROW(data::load_scene_trace(path), Error);
  std::filesystem::remove(path);
}

TEST_F(SceneTest, TraceGeneratorValidatesConfig) {
  data::SceneTraceConfig config = trace_config(data::ScenePattern::kStatic);
  config.frames = 0;
  EXPECT_THROW(
      data::generate_scene_trace(workbench().objects(), config), Error);
  config = trace_config(data::ScenePattern::kStatic);
  config.change_rate = 1.5;
  EXPECT_THROW(
      data::generate_scene_trace(workbench().objects(), config), Error);
  config = trace_config(data::ScenePattern::kSceneCut);
  config.cut_period = 0;
  EXPECT_THROW(
      data::generate_scene_trace(workbench().objects(), config), Error);
}

// ---- the determinism contract (acceptance test) ------------------------

TEST_F(SceneTest, CachedMatchesUncachedBitIdenticallyAtAnyThreadCount) {
  data::SceneTraceConfig tc =
      trace_config(data::ScenePattern::kLocalMotion, 13);
  const data::SceneTrace trace =
      data::generate_scene_trace(workbench().objects(), tc);

  const auto verdicts_with = [&](bool cache_on) {
    core::SceneStreamSession::Config config = scene_config();
    config.cache_enabled = cache_on;
    core::SceneStreamSession session =
        workbench().make_scene('A', config);
    (void)session.run(trace);
    return session.verdicts();
  };

  const int prior = core::thread_count();
  core::set_thread_count(1);
  const std::vector<core::TileVerdict> cached_1 = verdicts_with(true);
  const std::vector<core::TileVerdict> uncached_1 = verdicts_with(false);
  core::set_thread_count(4);
  const std::vector<core::TileVerdict> cached_4 = verdicts_with(true);
  const std::vector<core::TileVerdict> uncached_4 = verdicts_with(false);
  core::set_thread_count(prior);

  ASSERT_EQ(cached_1.size(), trace.frames.size() * 9u);
  const auto expect_memcmp_equal =
      [&](const std::vector<core::TileVerdict>& a,
          const std::vector<core::TileVerdict>& b, const char* what) {
        ASSERT_EQ(a.size(), b.size()) << what;
        // TileVerdict is a packed 16-byte POD, so memcmp is exact
        // bit-identity over labels, confidences and escalation flags.
        EXPECT_EQ(std::memcmp(a.data(), b.data(),
                              a.size() * sizeof(core::TileVerdict)),
                  0)
            << what;
      };
  expect_memcmp_equal(cached_1, uncached_1, "cached vs uncached, 1 thread");
  expect_memcmp_equal(cached_1, cached_4, "cached, 1 vs 4 threads");
  expect_memcmp_equal(cached_1, uncached_4,
                      "cached(1) vs uncached(4 threads)");
}

// ---- cache behaviour ---------------------------------------------------

TEST_F(SceneTest, StaticTraceHitsEverythingAfterTheFirstFrame) {
  const data::SceneTrace trace = data::generate_scene_trace(
      workbench().objects(), trace_config(data::ScenePattern::kStatic, 3));
  core::SceneStreamSession::Config config = scene_config();
  config.dmu_threshold = 0.0f;  // no reruns: exact timing comparison
  core::SceneStreamSession session = workbench().make_scene('A', config);
  const core::SceneReport cached = session.run(trace);

  // 3x3 grid, 5 frames: frame 0 misses all 9, frames 1..4 hit all 9.
  EXPECT_EQ(cached.grid_tiles, 9);
  EXPECT_EQ(cached.stats.tiles, 45);
  EXPECT_EQ(cached.stats.cache_misses, 9);
  EXPECT_EQ(cached.stats.cache_hits, 36);
  EXPECT_EQ(cached.stats.cache_insertions, 9);
  EXPECT_EQ(cached.stats.cache_evictions, 0);
  EXPECT_EQ(cached.stats.hash_collisions, 0);
  EXPECT_DOUBLE_EQ(cached.hit_rate, 0.8);
  EXPECT_EQ(session.cache_size(), 9);

  // The supervisor saw exactly the miss tiles.
  EXPECT_EQ(cached.supervisor.dispatches,
            (9 + scene_config().batch_size - 1) / scene_config().batch_size);

  // Simulated effective FPS beats the uncached run by >= 3x on this
  // low-change trace (the headline claim; BENCH_scene.json reports the
  // full-size equivalent).
  core::SceneStreamSession::Config naive_config = config;
  naive_config.cache_enabled = false;
  core::SceneStreamSession naive = workbench().make_scene('A', naive_config);
  const core::SceneReport uncached = naive.run(trace);
  EXPECT_EQ(uncached.stats.cache_hits, 0);
  EXPECT_EQ(uncached.stats.cache_misses, 45);
  EXPECT_GT(cached.effective_fps, 3.0 * uncached.effective_fps);
}

TEST_F(SceneTest, LruEvictionKeepsTheCacheBounded) {
  data::SceneTraceConfig tc = trace_config(data::ScenePattern::kSceneCut, 7);
  tc.cut_period = 1;  // fresh scene every frame: nothing ever hits
  const data::SceneTrace trace =
      data::generate_scene_trace(workbench().objects(), tc);
  core::SceneStreamSession::Config config = scene_config();
  config.cache_capacity = 4;  // smaller than the 9-tile grid
  core::SceneStreamSession session = workbench().make_scene('A', config);
  const core::SceneReport report = session.run(trace);
  EXPECT_LE(session.cache_size(), 4);
  EXPECT_EQ(report.stats.cache_insertions, 45);
  EXPECT_EQ(report.stats.cache_evictions, 45 - 4);
  EXPECT_EQ(report.stats.cache_hits, 0);
}

TEST_F(SceneTest, EscalationFollowsTheDmuOnMissesOnly) {
  const data::SceneTrace trace = data::generate_scene_trace(
      workbench().objects(), trace_config(data::ScenePattern::kStatic, 21));
  // A threshold above the sigmoid's range: every miss escalates to the
  // host — and ONLY misses can escalate (hits reuse the cached verdict,
  // escalation flag included).
  core::SceneStreamSession::Config config = scene_config();
  config.dmu_threshold = 1.5f;
  core::SceneStreamSession all = workbench().make_scene('A', config);
  const core::SceneReport all_report = all.run(trace);
  EXPECT_EQ(all_report.stats.escalated, all_report.stats.cache_misses);
  for (std::size_t i = 0; i < all.verdicts().size(); ++i) {
    EXPECT_EQ(all.verdicts()[i].escalated, 1u) << "tile " << i;
  }
  // Threshold 0: the gate always trusts the BNN; nothing escalates.
  config.dmu_threshold = 0.0f;
  core::SceneStreamSession none = workbench().make_scene('A', config);
  const core::SceneReport none_report = none.run(trace);
  EXPECT_EQ(none_report.stats.escalated, 0);
  for (const core::TileVerdict& v : none.verdicts()) {
    EXPECT_EQ(v.escalated, 0u);
    EXPECT_EQ(v.label, v.bnn_label);
  }
}

TEST_F(SceneTest, ModelIdentityPartitionsTheCacheKeySpace) {
  // Different host model or threshold => different model key, so stale
  // results can never cross model boundaries.
  const auto key_of = [&](char which, float threshold) {
    core::SceneStreamSession::Config config = scene_config();
    config.dmu_threshold = threshold;
    return workbench().make_scene(which, config).model_key();
  };
  const std::uint64_t a = key_of('A', 0.5f);
  EXPECT_EQ(a, key_of('A', 0.5f));  // stable across sessions
  EXPECT_NE(a, key_of('B', 0.5f));
  EXPECT_NE(a, key_of('A', 0.75f));
}

TEST_F(SceneTest, FrameGeometryIsLockedPerSession) {
  core::SceneStreamSession session =
      workbench().make_scene('A', scene_config());
  Tensor first(Shape{1, 3, 96, 96});
  first.fill(0.5f);
  (void)session.process_frame(first);
  Tensor other(Shape{1, 3, 64, 96});
  other.fill(0.5f);
  EXPECT_THROW(session.process_frame(other), Error);
  EXPECT_THROW(session.process_frame(Tensor(Shape{1, 1, 96, 96})), Error);
}

TEST_F(SceneTest, ClosedLoopTimingIsMonotoneAndPositive) {
  const data::SceneTrace trace = data::generate_scene_trace(
      workbench().objects(),
      trace_config(data::ScenePattern::kLocalMotion, 17));
  core::SceneStreamSession session =
      workbench().make_scene('A', scene_config());
  const core::SceneReport report = session.run(trace);
  ASSERT_EQ(report.per_frame.size(), 5u);
  double previous_ready = 0.0;
  for (const core::FrameReport& f : report.per_frame) {
    EXPECT_DOUBLE_EQ(f.start_s, previous_ready);  // closed loop
    EXPECT_GT(f.latency_s, 0.0);  // even all-hit frames cost overhead
    EXPECT_GE(f.ready_s, f.start_s);
    previous_ready = f.ready_s;
  }
  EXPECT_GT(report.effective_fps, 0.0);
  // Per-frame latency summary comes from the shared nearest-rank helper.
  EXPECT_EQ(report.frame_latency.count, 5);
  EXPECT_GE(report.frame_latency.p99_s, report.frame_latency.p50_s);
}

TEST_F(SceneTest, ContentHashIsStableAndSensitive) {
  const char bytes[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  const std::uint64_t h = core::content_hash64(bytes, sizeof(bytes));
  EXPECT_EQ(h, core::content_hash64(bytes, sizeof(bytes)));
  char tweaked[8];
  std::memcpy(tweaked, bytes, sizeof(bytes));
  tweaked[3] ^= 1;
  EXPECT_NE(h, core::content_hash64(tweaked, sizeof(tweaked)));
  EXPECT_NE(h, core::content_hash64(bytes, sizeof(bytes) - 1));
  EXPECT_NE(h, core::content_hash64(bytes, sizeof(bytes), 1));  // seed

  // Every length 0..71 crosses the word, tail and four-lane block paths.
  // Each input sits in a buffer of exactly its own size, so a read past
  // the end trips the address sanitizer; the empty input is a null
  // pointer, which must never reach memcpy.  Zero-filled inputs differ
  // only in length, which the hash folds in.
  std::set<std::uint64_t> by_length, zeros_by_length;
  for (std::size_t n = 0; n < 72; ++n) {
    std::vector<unsigned char> buf(n);
    const unsigned char* data = n == 0 ? nullptr : buf.data();
    EXPECT_TRUE(zeros_by_length.insert(core::content_hash64(data, n)).second)
        << n << " zero bytes collide with a shorter run";
    for (std::size_t i = 0; i < n; ++i) {
      buf[i] = static_cast<unsigned char>(i * 37 + 11);
    }
    const std::uint64_t hn = core::content_hash64(data, n);
    EXPECT_EQ(hn, core::content_hash64(data, n)) << "length " << n;
    EXPECT_TRUE(by_length.insert(hn).second)
        << "length " << n << " collides with a shorter prefix";
    for (std::size_t i = 0; i < n; ++i) {
      buf[i] ^= 0x80;
      EXPECT_NE(hn, core::content_hash64(buf.data(), n))
          << "length " << n << ", byte " << i << " flipped";
      buf[i] ^= 0x80;
    }
  }
  EXPECT_EQ(core::content_hash64(nullptr, 0), core::content_hash64(bytes, 0));

  // A classifier input's size: flipping any one of its 98,304 bits moves
  // the hash (guaranteed, not just likely: every step of the hash is a
  // bijection in the word it absorbs).
  std::vector<unsigned char> crop(12288);
  for (std::size_t i = 0; i < crop.size(); ++i) {
    crop[i] = static_cast<unsigned char>((i * 2654435761u) >> 13);
  }
  const std::uint64_t base = core::content_hash64(crop.data(), crop.size());
  EXPECT_NE(base, core::content_hash64(crop.data(), crop.size(), 7));
  for (std::size_t bit = 0; bit < crop.size() * 8; ++bit) {
    crop[bit / 8] ^= static_cast<unsigned char>(1u << (bit % 8));
    const std::uint64_t flipped =
        core::content_hash64(crop.data(), crop.size());
    crop[bit / 8] ^= static_cast<unsigned char>(1u << (bit % 8));
    ASSERT_NE(flipped, base) << "bit " << bit;
  }

  // Golden values (little-endian word loads): a change to the function
  // has to change these on purpose.
  EXPECT_EQ(core::content_hash64(nullptr, 0), 0x077823C6B38AE15CULL);
  EXPECT_EQ(core::content_hash64(bytes, sizeof(bytes)),
            0x3E12E9CCD952126AULL);
  EXPECT_EQ(base, 0x6068B5E7CEAFD1A8ULL);
}

TEST_F(SceneTest, CacheCollisionMissesThenOverwritesTheBucket) {
  // Two different inputs filed under the same three keys: what a 64-bit
  // content-hash collision looks like to the cache.
  Tensor first(Shape{1, 3, 32, 32});
  first.fill(0.25f);
  Tensor second = first;
  second[100] = 0.75f;
  core::TileVerdict a;
  a.label = 3;
  core::TileVerdict b;
  b.label = 7;
  core::SceneStats stats;
  core::TileResultCache cache(4);
  cache.insert(1, 2, 3, first, a, stats);
  ASSERT_EQ(stats.cache_insertions, 1);

  EXPECT_EQ(cache.find(1, 2, 3, second, stats), nullptr);
  EXPECT_EQ(stats.hash_collisions, 1);

  // The miss's verdict overwrites the bucket in place.
  cache.insert(1, 2, 3, second, b, stats);
  EXPECT_EQ(stats.cache_insertions, 1);
  EXPECT_EQ(stats.cache_evictions, 0);
  EXPECT_EQ(cache.size(), 1);

  EXPECT_EQ(cache.find(1, 2, 3, first, stats), nullptr);
  EXPECT_EQ(stats.hash_collisions, 2);
  const core::TileVerdict* hit = cache.find(1, 2, 3, second, stats);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->label, 7);
  EXPECT_EQ(stats.hash_collisions, 2);

  // Capacity 0 stores nothing and so never finds anything.
  core::SceneStats off_stats;
  core::TileResultCache off(0);
  off.insert(1, 2, 3, first, a, off_stats);
  EXPECT_EQ(off.size(), 0);
  EXPECT_EQ(off.find(1, 2, 3, first, off_stats), nullptr);
  EXPECT_EQ(off_stats.cache_insertions, 0);
  EXPECT_EQ(off_stats.hash_collisions, 0);
}

// ---- serve integration -------------------------------------------------

TEST_F(SceneTest, TileFeedFlattensTheTraceDeterministically) {
  const data::SceneTrace trace = data::generate_scene_trace(
      workbench().objects(),
      trace_config(data::ScenePattern::kLocalMotion, 29));
  const core::SceneTileFeed feed(trace, 32, 4);
  EXPECT_EQ(feed.tiles_per_frame(), 9);
  EXPECT_EQ(feed.size(), 45);
  const auto grid = data::tile_grid(96, 96, 32, 4);
  // Index 9 * f + t maps to tile t of frame f.
  for (const Dim index : {Dim{0}, Dim{8}, Dim{9}, Dim{31}}) {
    const Tensor got = feed.at(index);
    ASSERT_EQ(got.shape(), Shape({1, 3, 32, 32}));
    const Tensor want = data::extract_tile(
        trace.frames[static_cast<std::size_t>(index / 9)],
        grid[static_cast<std::size_t>(index % 9)]);
    ASSERT_EQ(std::memcmp(got.data(), want.data(),
                          static_cast<std::size_t>(got.numel()) *
                              sizeof(float)),
              0);
  }
  // Wraps modulo one pass over the trace.
  const Tensor wrapped = feed.at(45 + 3);
  const Tensor direct = feed.at(3);
  EXPECT_EQ(std::memcmp(wrapped.data(), direct.data(),
                        static_cast<std::size_t>(direct.numel()) *
                            sizeof(float)),
            0);
}

}  // namespace
}  // namespace mpcnn
