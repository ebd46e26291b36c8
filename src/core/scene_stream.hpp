// Tile-streaming scene pipeline with content-hash temporal caching.
//
// The cascade pays fabric (and sometimes host) cycles for every window
// of every frame, but streaming scenes are temporally redundant: most
// tiles are bit-identical across consecutive frames, and re-classifying
// them is pure waste.  SceneStreamSession applies the paper's "pay full
// precision only where needed" principle along the time axis:
//
//   frame ── tile_grid ──> per-tile 32×32 crops (halo context)
//                │
//                ├─ cache hit ──────> result served from the tile cache;
//                │                    the fabric never sees the tile
//                └─ cache miss ─────> batched region-of-interest-style
//                                     through the underlying
//                                     StreamSession: BNN on the fabric,
//                                     DMU verdict, float re-inference on
//                                     the host only when the DMU is
//                                     unsure — i.e. a tile escalates to
//                                     full precision only when it is
//                                     both *changed* and *uncertain*.
//
// The cache is a bounded LRU keyed by (tile geometry, content hash,
// model/precision identity).  The content hash (content_hash64 over the
// classifier-input bytes) is only a bucket selector: every entry stores
// the exact input bytes it was computed from and a lookup verifies them
// with memcmp, so a hash collision can cost a rerun but can never serve
// a wrong result.  That makes the determinism contract unconditional:
// cached and uncached runs produce bit-identical per-tile results at any
// thread count (cache bookkeeping is serial in tile order; inference
// goes through the bit-reproducible kernels).
//
// Timing rides on the same Eq. (3)–(5) discrete-event model as the rest
// of core/: fabric batches and host escalations are priced by the
// StreamSession, cache hits cost only the per-tile crop+hash overhead
// (Config::tile_overhead_s), and frames run closed-loop — frame f+1
// starts when frame f completes — so effective FPS measures pipeline
// capacity on the trace.
#pragma once

#include <cstdint>
#include <list>
#include <unordered_map>
#include <vector>

#include "core/pipeline.hpp"
#include "core/stream.hpp"
#include "data/scene_trace.hpp"

namespace mpcnn::core {

/// The cheap content hash behind the tile cache: four independent 64-bit
/// lanes over 8-byte words (xxHash64's round), the tail bytes and the
/// length folded in, finished by mix64.  Nothing stores it; it only
/// selects cache buckets.
std::uint64_t content_hash64(const void* data, std::size_t bytes,
                             std::uint64_t seed = 14695981039346656037ULL);

/// One tile's classification outcome.  Fixed-width fields with no
/// padding, so whole verdict streams can be compared with memcmp (the
/// cached-vs-uncached bit-identity tests do exactly that).
struct TileVerdict {
  std::int32_t label = -1;
  std::int32_t bnn_label = -1;
  float confidence = 0.0f;
  std::uint32_t escalated = 0;  ///< DMU distrusted the BNN; host reran
};
static_assert(sizeof(TileVerdict) == 16, "TileVerdict must be packed");

/// Everything the scene pipeline counted.  Cumulative and deterministic
/// for a fixed trace + config at any thread count.
struct SceneStats {
  Dim frames = 0;           ///< frames processed
  Dim tiles = 0;            ///< tiles processed (frames × grid size)
  Dim cache_hits = 0;       ///< tiles served without touching the fabric
  Dim cache_misses = 0;     ///< tiles sent through the cascade
  Dim cache_insertions = 0; ///< entries added after a miss
  Dim cache_evictions = 0;  ///< LRU entries displaced by the bound
  Dim hash_collisions = 0;  ///< hash matched, stored bytes did not
  Dim escalated = 0;        ///< changed tiles the DMU sent to the host
};

/// Bounded LRU result cache.  Keys combine the tile's halo geometry, the
/// content hash of its classifier input and the model/precision identity
/// of the cascade that produced the result; values carry the verdict
/// plus the exact input bytes for memcmp verification.  All methods are
/// called serially by the session (see determinism note above).
class TileResultCache {
 public:
  /// `capacity` in entries; 0 disables the cache entirely.
  explicit TileResultCache(Dim capacity);

  /// Returns the verdict for a memcmp-verified entry, or nullptr on
  /// miss.  A hash match with differing bytes counts a collision and
  /// misses.  Hits are refreshed to most-recently-used.
  const TileVerdict* find(std::uint64_t geometry_key,
                          std::uint64_t content_key,
                          std::uint64_t model_key, const Tensor& input,
                          SceneStats& stats);

  /// Inserts (or refreshes) an entry, evicting the least-recently-used
  /// entry when full.
  void insert(std::uint64_t geometry_key, std::uint64_t content_key,
              std::uint64_t model_key, const Tensor& input,
              const TileVerdict& verdict, SceneStats& stats);

  Dim size() const { return static_cast<Dim>(entries_.size()); }
  Dim capacity() const { return capacity_; }

 private:
  struct Key {
    std::uint64_t geometry, content, model;
    bool operator==(const Key& o) const {
      return geometry == o.geometry && content == o.content &&
             model == o.model;
    }
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const {
      std::uint64_t h = k.content;
      h = content_hash64(&k.geometry, sizeof(k.geometry), h);
      h = content_hash64(&k.model, sizeof(k.model), h);
      return static_cast<std::size_t>(h);
    }
  };
  struct Entry {
    Key key;
    std::vector<float> input;  ///< exact classifier-input pixels
    TileVerdict verdict;
  };

  Dim capacity_;
  std::list<Entry> entries_;  ///< front = most recently used
  std::unordered_map<Key, std::list<Entry>::iterator, KeyHash> index_;
};

/// Per-frame outcome of the pipeline.
struct FrameReport {
  Dim frame = 0;
  Dim tiles = 0;
  Dim hits = 0;
  Dim misses = 0;
  Dim escalated = 0;
  double start_s = 0.0;    ///< closed-loop frame start (simulated)
  double ready_s = 0.0;    ///< last tile result of the frame
  double latency_s = 0.0;  ///< ready - start
};

/// Aggregate report of a trace run.
struct SceneReport {
  Dim frames = 0;
  Dim grid_tiles = 0;         ///< tiles per frame
  double total_s = 0.0;       ///< simulated span, first start → last ready
  double effective_fps = 0.0; ///< frames / total_s
  double hit_rate = 0.0;        ///< cache_hits / tiles
  double escalation_rate = 0.0; ///< escalated / tiles
  LatencyStats frame_latency;   ///< nearest-rank p50/p95/p99 per frame
  SceneStats stats;
  SupervisorStats supervisor;   ///< underlying StreamSession counters
  std::vector<FrameReport> per_frame;
};

/// The tile-streaming pipeline.  Owns its StreamSession; the referenced
/// components outlive the session (Workbench::make_scene keeps them).
class SceneStreamSession {
 public:
  struct Config {
    Dim tile = 64;              ///< coverage tile extent, pixels
    Dim halo = 8;               ///< context overlap per side, pixels
    Dim batch_size = 16;        ///< fabric-sized miss batches
    float dmu_threshold = 0.5f; ///< escalation gate for changed tiles
    bool cache_enabled = true;
    Dim cache_capacity = 4096;  ///< LRU bound, entries (0 = off)
    /// Emulated host-side cost of cropping + hashing one tile — keeps a
    /// fully-cached frame from taking zero simulated time.
    double tile_overhead_s = 1e-6;
    /// Forwarded to the underlying StreamSession (supervisor knobs).
    StreamSession::Config session;
  };

  SceneStreamSession(const bnn::CompiledBnn& bnn_net,
                     const finn::FinnDesign& design, nn::Net& host_net,
                     double host_seconds_per_image, const Dmu& dmu,
                     Config config,
                     const FaultInjector* injector = nullptr);

  /// Classifies every tile of one frame (NCHW, batch 1; all frames of a
  /// stream must share one geometry — checked).  Closed-loop: the frame
  /// starts at the previous frame's completion time.
  FrameReport process_frame(const Tensor& frame);

  /// Convenience: process every frame of `trace` and return the report.
  SceneReport run(const data::SceneTrace& trace);

  /// Aggregate report over everything processed so far.
  SceneReport report() const;

  /// All per-tile verdicts in deterministic (frame-major, tile-index)
  /// order — the memcmp surface of the bit-identity tests.
  const std::vector<TileVerdict>& verdicts() const { return verdicts_; }

  const SceneStats& stats() const { return stats_; }
  const SupervisorStats& supervisor() const { return session_.stats(); }
  const Config& config() const { return config_; }
  /// Model/precision identity baked into every cache key.
  std::uint64_t model_key() const { return model_key_; }
  Dim cache_size() const { return cache_.size(); }

 private:
  Config config_;
  StreamSession session_;
  TileResultCache cache_;
  std::uint64_t model_key_ = 0;

  Dim frame_h_ = 0, frame_w_ = 0;     ///< fixed by the first frame
  std::vector<data::TileGeometry> grid_;
  std::vector<std::uint64_t> geometry_keys_;

  double clock_ = 0.0;                ///< previous frame's completion
  SceneStats stats_;
  std::vector<TileVerdict> verdicts_;
  std::vector<FrameReport> frames_;
};

/// Flattens a trace into the classifier-input stream the serving load
/// generator (core/serve, bench_serve, `mpcnn_cli serve --workload
/// scene`) feeds its tenants: request `seq` maps to tile (seq mod grid)
/// of frame ((seq / grid) mod frames), so serving payloads follow scene
/// statistics instead of dataset images.
class SceneTileFeed {
 public:
  SceneTileFeed(const data::SceneTrace& trace, Dim tile, Dim halo);

  /// Tile crop for a flattened index (wraps modulo the trace).
  Tensor at(Dim index) const;
  Dim tiles_per_frame() const { return static_cast<Dim>(grid_.size()); }
  /// Flattened size of one pass over the trace.
  Dim size() const {
    return static_cast<Dim>(trace_->frames.size()) * tiles_per_frame();
  }

 private:
  const data::SceneTrace* trace_;
  std::vector<data::TileGeometry> grid_;
};

}  // namespace mpcnn::core
