#include "core/scene_stream.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

#include "tensor/error.hpp"
#include "tensor/rng.hpp"

namespace mpcnn::core {
namespace {

std::uint64_t hash_pod(std::uint64_t h, const void* data,
                       std::size_t bytes) {
  return content_hash64(data, bytes, h);
}

template <class T>
std::uint64_t hash_value(std::uint64_t h, const T& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  return hash_pod(h, &v, sizeof(v));
}

std::uint64_t geometry_key_of(const data::TileGeometry& g, Dim frame_h,
                              Dim frame_w) {
  // Field-by-field (never the raw struct) so padding can't leak in.
  std::uint64_t h = content_hash64(nullptr, 0);
  h = hash_value(h, frame_h);
  h = hash_value(h, frame_w);
  h = hash_value(h, g.index);
  h = hash_value(h, g.hx);
  h = hash_value(h, g.hy);
  h = hash_value(h, g.hw);
  h = hash_value(h, g.hh);
  return h;
}

// Everything that can change what the cascade answers for a given input:
// the compiled BNN bit-for-bit (per-stage golden CRCs), the DMU gate, the
// escalation threshold, and the host float network.  Two sessions share
// cache entries only when all of it matches.
std::uint64_t model_key_of(const bnn::CompiledBnn& bnn_net, nn::Net& host,
                           const Dmu& dmu, float threshold) {
  std::uint64_t h = content_hash64(nullptr, 0);
  const WeightCrcBook book = crc_book(bnn_net);
  for (const std::uint32_t crc : book.stage_crc) h = hash_value(h, crc);
  for (const float w : dmu.weights()) h = hash_value(h, w);
  h = hash_value(h, dmu.bias());
  h = hash_value(h, static_cast<std::uint32_t>(dmu.features()));
  h = hash_value(h, threshold);
  for (nn::Param* p : host.params()) {
    h = hash_pod(h, p->value.data(),
                 static_cast<std::size_t>(p->value.numel()) * sizeof(float));
  }
  return h;
}

StreamSession::Config session_config(
    const SceneStreamSession::Config& config) {
  StreamSession::Config session = config.session;
  session.batch_size = config.batch_size;
  session.dmu_threshold = config.dmu_threshold;
  session.auto_dispatch = true;
  return session;
}

}  // namespace

std::uint64_t content_hash64(const void* data, std::size_t bytes,
                             std::uint64_t seed) {
  // Four independent lanes absorb consecutive 8-byte words with
  // xxHash64's round, so their multiply chains overlap instead of
  // serialising on one accumulator.  Every step below is a bijection of
  // the running state for a fixed word and of the word for a fixed state,
  // and the lanes are merged by addition; so two inputs of one length
  // that differ in a single word (any single-bit flip, say) always hash
  // differently.
  constexpr std::uint64_t kPrime1 = 0x9E3779B185EBCA87ULL;
  constexpr std::uint64_t kPrime2 = 0xC2B2AE3D27D4EB4FULL;
  constexpr std::uint64_t kPrime3 = 0x165667B19E3779F9ULL;
  const auto step = [](std::uint64_t acc, std::uint64_t word) {
    return std::rotl(acc + word * kPrime2, 31) * kPrime1;
  };
  const auto fold = [&](std::uint64_t h, std::uint64_t word) {
    return std::rotl(h ^ step(0, word), 27) * kPrime1 + kPrime3;
  };
  const auto load = [](const unsigned char* p) {
    std::uint64_t word;
    std::memcpy(&word, p, sizeof(word));
    return word;
  };

  const unsigned char* p = static_cast<const unsigned char*>(data);
  std::size_t i = 0;
  std::uint64_t h = seed + kPrime3;
  if (bytes >= 32) {
    std::uint64_t lane[4] = {seed + kPrime1 + kPrime2, seed + kPrime2, seed,
                             seed - kPrime1};
    for (; i + 32 <= bytes; i += 32) {
      for (int l = 0; l < 4; ++l) {
        lane[l] = step(lane[l], load(p + i + 8 * l));
      }
    }
    h = std::rotl(lane[0], 1) + std::rotl(lane[1], 7) +
        std::rotl(lane[2], 12) + std::rotl(lane[3], 18);
  }
  for (; i + 8 <= bytes; i += 8) h = fold(h, load(p + i));
  if (i < bytes) {
    // Tail bytes, zero-padded into one word; the length fold below tells
    // a short tail from one that ends in zero bytes.
    std::uint64_t word = 0;
    std::memcpy(&word, p + i, bytes - i);
    h = fold(h, word);
  }
  return mix64(h, static_cast<std::uint64_t>(bytes));
}

// ------------------------------------------------------ TileResultCache

TileResultCache::TileResultCache(Dim capacity)
    : capacity_(std::max<Dim>(0, capacity)) {}

const TileVerdict* TileResultCache::find(std::uint64_t geometry_key,
                                         std::uint64_t content_key,
                                         std::uint64_t model_key,
                                         const Tensor& input,
                                         SceneStats& stats) {
  const Key key{geometry_key, content_key, model_key};
  const auto it = index_.find(key);
  if (it == index_.end()) return nullptr;
  Entry& entry = *it->second;
  const std::size_t n = static_cast<std::size_t>(input.numel());
  if (entry.input.size() != n ||
      std::memcmp(entry.input.data(), input.data(),
                  n * sizeof(float)) != 0) {
    // Same 64-bit hash, different pixels: the guard that keeps a
    // collision from ever serving a stale verdict.
    ++stats.hash_collisions;
    return nullptr;
  }
  entries_.splice(entries_.begin(), entries_, it->second);
  return &entry.verdict;
}

void TileResultCache::insert(std::uint64_t geometry_key,
                             std::uint64_t content_key,
                             std::uint64_t model_key, const Tensor& input,
                             const TileVerdict& verdict,
                             SceneStats& stats) {
  if (capacity_ == 0) return;
  const Key key{geometry_key, content_key, model_key};
  const auto it = index_.find(key);
  if (it != index_.end()) {
    // Collision bucket being overwritten (or a re-insert): refresh.
    it->second->input.assign(input.data(), input.data() + input.numel());
    it->second->verdict = verdict;
    entries_.splice(entries_.begin(), entries_, it->second);
    return;
  }
  if (static_cast<Dim>(entries_.size()) >= capacity_) {
    index_.erase(entries_.back().key);
    entries_.pop_back();
    ++stats.cache_evictions;
  }
  entries_.push_front(Entry{
      key,
      std::vector<float>(input.data(), input.data() + input.numel()),
      verdict});
  index_[key] = entries_.begin();
  ++stats.cache_insertions;
}

// --------------------------------------------------- SceneStreamSession

SceneStreamSession::SceneStreamSession(const bnn::CompiledBnn& bnn_net,
                                       const finn::FinnDesign& design,
                                       nn::Net& host_net,
                                       double host_seconds_per_image,
                                       const Dmu& dmu, Config config,
                                       const FaultInjector* injector)
    : config_(config),
      session_(bnn_net, design, host_net, host_seconds_per_image, dmu,
               session_config(config), injector),
      cache_(config.cache_enabled ? config.cache_capacity : 0),
      model_key_(
          model_key_of(bnn_net, host_net, dmu, config.dmu_threshold)) {
  MPCNN_CHECK(config_.batch_size >= 1, "batch_size must be >= 1");
  MPCNN_CHECK(config_.tile_overhead_s >= 0.0,
              "tile_overhead_s must be >= 0");
}

FrameReport SceneStreamSession::process_frame(const Tensor& frame) {
  MPCNN_CHECK(frame.shape().rank() == 4 && frame.shape()[0] == 1 &&
                  frame.shape()[1] == 3,
              "frame must be (1, 3, H, W)");
  const Dim H = frame.shape()[2], W = frame.shape()[3];
  if (grid_.empty()) {
    frame_h_ = H;
    frame_w_ = W;
    grid_ = data::tile_grid(H, W, config_.tile, config_.halo);
    geometry_keys_.reserve(grid_.size());
    for (const data::TileGeometry& g : grid_) {
      geometry_keys_.push_back(geometry_key_of(g, H, W));
    }
  }
  MPCNN_CHECK(H == frame_h_ && W == frame_w_,
              "all frames of a stream must share one geometry");

  FrameReport report;
  report.frame = static_cast<Dim>(frames_.size());
  report.tiles = static_cast<Dim>(grid_.size());
  report.start_s = clock_;

  // Serial pass in tile order: crop, hash, consult the cache.  Misses
  // are submitted to the StreamSession (which parallelises the BNN math
  // internally); decisions stay single-threaded, so counters and cache
  // state are deterministic at any thread count.
  const std::size_t base = verdicts_.size();
  verdicts_.resize(base + grid_.size());
  struct Miss {
    std::size_t tile;       // index into grid_ for this frame
    std::uint64_t content;  // content hash of `input` (0 when uncached)
    Tensor input;
  };
  std::vector<Miss> misses;
  const bool cached = config_.cache_enabled && cache_.capacity() > 0;
  for (std::size_t t = 0; t < grid_.size(); ++t) {
    Tensor input = data::extract_tile(frame, grid_[t]);
    std::uint64_t content = 0;
    if (cached) {
      content = content_hash64(
          input.data(),
          static_cast<std::size_t>(input.numel()) * sizeof(float));
      if (const TileVerdict* hit =
              cache_.find(geometry_keys_[t], content, model_key_, input,
                          stats_)) {
        verdicts_[base + t] = *hit;
        ++stats_.cache_hits;
        ++report.hits;
        continue;
      }
    }
    ++stats_.cache_misses;
    ++report.misses;
    misses.push_back(Miss{t, content, std::move(input)});
  }

  // Changed tiles go through the cascade as one ROI-style burst arriving
  // at the frame start; auto-dispatch cuts fabric-sized batches.
  const Dim first_id = session_.submitted();
  for (const Miss& miss : misses) {
    (void)session_.submit(miss.input, clock_);
  }
  session_.flush();
  double last_ready = clock_;
  for (const StreamResult& result : session_.drain()) {
    const Dim offset = result.image_id - first_id;
    MPCNN_CHECK(offset >= 0 &&
                    offset < static_cast<Dim>(misses.size()),
                "stream result outside this frame's submissions");
    const Miss& miss = misses[static_cast<std::size_t>(offset)];
    TileVerdict verdict;
    verdict.label = result.label;
    verdict.bnn_label = result.bnn_label;
    verdict.confidence = result.confidence;
    verdict.escalated = result.rerun ? 1 : 0;
    verdicts_[base + miss.tile] = verdict;
    if (result.rerun) {
      ++stats_.escalated;
      ++report.escalated;
    }
    if (cached) {
      cache_.insert(geometry_keys_[miss.tile], miss.content, model_key_,
                    miss.input, verdict, stats_);
    }
    last_ready = std::max(last_ready, result.ready_at);
  }

  ++stats_.frames;
  stats_.tiles += report.tiles;

  // Closed loop: the frame completes when its slowest tile result lands
  // or when the host finishes cropping+hashing the grid, whichever is
  // later; the next frame starts then.
  const double overhead =
      config_.tile_overhead_s * static_cast<double>(report.tiles);
  report.ready_s = std::max(clock_ + overhead, last_ready);
  report.latency_s = report.ready_s - report.start_s;
  clock_ = report.ready_s;
  frames_.push_back(report);
  return report;
}

SceneReport SceneStreamSession::run(const data::SceneTrace& trace) {
  for (const Tensor& frame : trace.frames) (void)process_frame(frame);
  return report();
}

SceneReport SceneStreamSession::report() const {
  SceneReport report;
  report.frames = static_cast<Dim>(frames_.size());
  report.grid_tiles = static_cast<Dim>(grid_.size());
  report.stats = stats_;
  report.supervisor = session_.stats();
  report.per_frame = frames_;
  std::vector<double> latencies;
  latencies.reserve(frames_.size());
  for (const FrameReport& f : frames_) latencies.push_back(f.latency_s);
  report.frame_latency = summarize_latencies(std::move(latencies));
  if (!frames_.empty()) {
    report.total_s = frames_.back().ready_s - frames_.front().start_s;
    if (report.total_s > 0.0) {
      report.effective_fps =
          static_cast<double>(report.frames) / report.total_s;
    }
  }
  if (stats_.tiles > 0) {
    report.hit_rate = static_cast<double>(stats_.cache_hits) /
                      static_cast<double>(stats_.tiles);
    report.escalation_rate = static_cast<double>(stats_.escalated) /
                             static_cast<double>(stats_.tiles);
  }
  return report;
}

// -------------------------------------------------------- SceneTileFeed

SceneTileFeed::SceneTileFeed(const data::SceneTrace& trace, Dim tile,
                             Dim halo)
    : trace_(&trace),
      grid_(data::tile_grid(trace.height(), trace.width(), tile, halo)) {
  MPCNN_CHECK(!trace.frames.empty(), "feed needs a non-empty trace");
}

Tensor SceneTileFeed::at(Dim index) const {
  MPCNN_CHECK(index >= 0, "feed index must be >= 0");
  const Dim flat = index % size();
  const Dim grid = tiles_per_frame();
  const Dim frame = flat / grid;
  const Dim tile = flat % grid;
  return data::extract_tile(
      trace_->frames[static_cast<std::size_t>(frame)],
      grid_[static_cast<std::size_t>(tile)]);
}

}  // namespace mpcnn::core
