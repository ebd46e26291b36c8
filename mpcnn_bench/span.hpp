// In-memory span recorder for the traced benchmark run.
//
// A span is one call at a layer boundary: which boundary (Site), start,
// end, the enclosing span on the same thread and the recording thread.
// Spans come from two places, both inside this directory: the
// `-Wl,--wrap=` shims in wrap.cpp (calls into the program's libraries)
// and ScopedSpan objects main.cpp places around its own calls
// (ServeFrontEnd::finish, SceneStreamSession::run).  Nothing is
// recorded while tracing is off; the shims then cost one relaxed load.
#pragma once

#include <array>
#include <cstdint>
#include <string>

namespace mpcnn_bench {

/// Every instrumented boundary.  The text before the first '.' of its
/// name (site_name) is the layer the span is charged to.
enum class Site : std::uint8_t {
  kBnnRunReference,
  kBnnRunReferenceBatch,
  kNnPredict,
  kNnForward,
  kGemm,
  kGemmAt,
  kGemmBt,
  kDmuConfidence,
  kStreamSubmit,
  kStreamFlush,
  kStreamFlushAt,
  kStreamHostRoute,
  kFleetDispatch,
  kFleetHostRoute,
  kFleetPlan,
  kFleetSubmit,
  kFleetFlush,
  kDataExtractTile,
  kServeFinish,
  kSceneRun,
  kCount,
};

inline constexpr std::size_t kSiteCount =
    static_cast<std::size_t>(Site::kCount);

/// "layer.function", e.g. "bnn.run_reference".
const char* site_name(Site site);

/// Turns recording on or off for every thread.
void set_tracing(bool on);
bool tracing();

/// Records one span from construction to destruction (no-op while
/// tracing is off at construction).
class ScopedSpan {
 public:
  explicit ScopedSpan(Site site);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  std::int32_t index_ = -1;
};

/// Per-site totals over every recorded span.
struct SiteTotals {
  std::int64_t calls = 0;
  std::int64_t total_ns = 0;  ///< summed span durations
  std::int64_t self_ns = 0;   ///< minus time covered by direct children
  /// Spans with at least one direct child at bnn.run_reference — for a
  /// StreamSession entry point, one per dispatch that ran the fabric.
  std::int64_t with_bnn_child = 0;

  void add(const SiteTotals& o) {
    calls += o.calls;
    total_ns += o.total_ns;
    self_ns += o.self_ns;
    with_bnn_child += o.with_bnn_child;
  }
};

using Summary = std::array<SiteTotals, kSiteCount>;

/// Folds every thread's recorded spans into per-site totals.
Summary summarize();

/// Writes the recorded spans as a Chrome trace-event JSON file
/// (chrome://tracing, Perfetto).  Returns false on I/O failure.
bool write_chrome_trace(const std::string& path);

/// Drops every recorded span (all threads).  Call only while no span is
/// open.
void clear_spans();

}  // namespace mpcnn_bench
