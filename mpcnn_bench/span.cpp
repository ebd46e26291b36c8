#include "span.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <vector>

namespace mpcnn_bench {
namespace {

constexpr std::array<const char*, kSiteCount> kSiteNames = {
    "bnn.run_reference",   "bnn.run_reference_batch",
    "nn.predict",          "nn.forward",
    "gemm.gemm",           "gemm.gemm_at",
    "gemm.gemm_bt",        "dmu.confidence",
    "stream.submit",       "stream.flush",
    "stream.flush_at",     "stream.host_route",
    "fleet.dispatch",      "fleet.host_route",
    "fleet.plan",          "fleet.submit",
    "fleet.flush",         "data.extract_tile",
    "serve.finish",        "scene.run",
};

struct Record {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  ///< index in the same buffer, -1 = root
  Site site = Site::kCount;
};

// One per recording thread.  Only its owner appends; summarize() and
// friends read every buffer while the pool is idle (after parallel_for
// returned, which orders the workers' writes before the read).
struct Buffer {
  std::vector<Record> spans;
  std::vector<std::int32_t> open;  ///< stack of open span indices
  int thread = 0;
};

std::atomic<bool> g_tracing{false};
std::mutex g_buffers_mutex;
std::vector<std::unique_ptr<Buffer>> g_buffers;  // guarded by the mutex

Buffer& local_buffer() {
  thread_local Buffer* const buffer = [] {
    std::lock_guard<std::mutex> lock(g_buffers_mutex);
    g_buffers.push_back(std::make_unique<Buffer>());
    g_buffers.back()->thread = static_cast<int>(g_buffers.size()) - 1;
    return g_buffers.back().get();
  }();
  return *buffer;
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

const char* site_name(Site site) {
  return kSiteNames[static_cast<std::size_t>(site)];
}

void set_tracing(bool on) { g_tracing.store(on, std::memory_order_relaxed); }

bool tracing() { return g_tracing.load(std::memory_order_relaxed); }

ScopedSpan::ScopedSpan(Site site) {
  if (!tracing()) return;
  Buffer& buffer = local_buffer();
  Record record;
  record.site = site;
  record.parent = buffer.open.empty() ? -1 : buffer.open.back();
  index_ = static_cast<std::int32_t>(buffer.spans.size());
  buffer.open.push_back(index_);
  buffer.spans.push_back(record);
  buffer.spans.back().start_ns = now_ns();
}

ScopedSpan::~ScopedSpan() {
  if (index_ < 0) return;
  const std::int64_t end = now_ns();
  Buffer& buffer = local_buffer();
  buffer.spans[static_cast<std::size_t>(index_)].end_ns = end;
  buffer.open.pop_back();
}

Summary summarize() {
  Summary summary{};
  std::lock_guard<std::mutex> lock(g_buffers_mutex);
  for (const std::unique_ptr<Buffer>& buffer : g_buffers) {
    const std::vector<Record>& spans = buffer->spans;
    std::vector<std::int64_t> child_ns(spans.size(), 0);
    std::vector<char> bnn_child(spans.size(), 0);
    for (const Record& r : spans) {
      if (r.parent < 0) continue;
      const std::size_t p = static_cast<std::size_t>(r.parent);
      child_ns[p] += r.end_ns - r.start_ns;
      if (r.site == Site::kBnnRunReference) bnn_child[p] = 1;
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      SiteTotals& t = summary[static_cast<std::size_t>(spans[i].site)];
      const std::int64_t duration = spans[i].end_ns - spans[i].start_ns;
      ++t.calls;
      t.total_ns += duration;
      t.self_ns += duration - child_ns[i];
      t.with_bnn_child += bnn_child[i];
    }
  }
  return summary;
}

bool write_chrome_trace(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
  std::lock_guard<std::mutex> lock(g_buffers_mutex);
  std::int64_t origin = -1;
  for (const std::unique_ptr<Buffer>& buffer : g_buffers) {
    for (const Record& r : buffer->spans) {
      if (origin < 0 || r.start_ns < origin) origin = r.start_ns;
    }
  }
  bool first = true;
  for (const std::unique_ptr<Buffer>& buffer : g_buffers) {
    for (const Record& r : buffer->spans) {
      const std::string name = site_name(r.site);
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                   "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d}",
                   first ? "" : ",", name.c_str(),
                   name.substr(0, name.find('.')).c_str(),
                   1e-3 * static_cast<double>(r.start_ns - origin),
                   1e-3 * static_cast<double>(r.end_ns - r.start_ns),
                   buffer->thread);
      first = false;
    }
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

void clear_spans() {
  std::lock_guard<std::mutex> lock(g_buffers_mutex);
  for (const std::unique_ptr<Buffer>& buffer : g_buffers) {
    buffer->spans.clear();
    buffer->open.clear();
  }
}

}  // namespace mpcnn_bench
