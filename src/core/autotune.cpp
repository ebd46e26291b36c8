#include "core/autotune.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <map>
#include <mutex>
#include <string_view>

#include "core/cpu.hpp"
#include "io/artifact.hpp"
#include "tensor/error.hpp"

namespace mpcnn::core::autotune {
namespace {

constexpr io::ArtifactMagic kTuneMagic{{'M', 'P', 'T', 'U'}};
constexpr std::uint32_t kTuneVersion = 1;
// Hostile-field bounds: a tuning cache is a handful of short records, so
// anything outside these limits is corruption, not a bigger cache.
constexpr std::uint64_t kMaxStringBytes = 4096;
constexpr std::uint64_t kMaxParams = 64;

struct Store {
  std::mutex mu;
  // Key: signature \0 kernel \0 shape_class — one winner per slot.
  std::map<std::string, Entry> entries;
  bool load_attempted = false;
  std::atomic<bool> force_measure{false};
};

Store& store() {
  static Store s;
  return s;
}

std::string entry_key(const Entry& e) {
  std::string k = e.signature;
  k += '\0';
  k += e.kernel;
  k += '\0';
  k += e.shape_class;
  return k;
}

std::string make_key(const std::string& signature, const std::string& kernel,
                     const std::string& shape_class) {
  std::string k = signature;
  k += '\0';
  k += kernel;
  k += '\0';
  k += shape_class;
  return k;
}

void write_string(io::ArtifactWriter& w, const std::string& s) {
  w.pod<std::uint32_t>(static_cast<std::uint32_t>(s.size()));
  w.bytes(s.data(), s.size());
}

std::string read_string(io::ArtifactReader& r, const char* what) {
  const auto len = r.pod<std::uint32_t>();
  MPCNN_CHECK(len <= kMaxStringBytes,
              "tuning cache " << what << " length " << len << " too large");
  std::string s(r.bounded_count(len, 1, what), '\0');
  r.bytes(s.data(), s.size());
  return s;
}

// Loads the cache file into the store exactly once per process (or until
// reset_for_testing()).  Caller holds the store mutex.
void ensure_loaded_locked(Store& s) {
  if (s.load_attempted) return;
  s.load_attempted = true;
  const std::string path = cache_path();
  if (!is_tuning_cache_file(path)) return;
  try {
    for (Entry& e : read_cache_file(path)) {
      s.entries[entry_key(e)] = std::move(e);
    }
  } catch (const Error&) {
    // A corrupt cache must never take the process down — tuned defaults
    // are a perf hint, not state.  `mpcnn_cli verify` diagnoses it.
    s.entries.clear();
  }
}

void save_locked(Store& s, const std::string& path) {
  const std::string sig = cpu_signature();
  io::ArtifactWriter w(kTuneMagic, kTuneVersion);
  write_string(w, sig);
  std::vector<const Entry*> current;
  for (const auto& [key, e] : s.entries) {
    if (e.signature == sig) current.push_back(&e);
  }
  w.pod<std::uint64_t>(static_cast<std::uint64_t>(current.size()));
  for (const Entry* e : current) {
    write_string(w, e->kernel);
    write_string(w, e->shape_class);
    w.pod<std::uint32_t>(static_cast<std::uint32_t>(e->params.size()));
    for (const auto& [name, value] : e->params) {
      write_string(w, name);
      w.pod<std::int64_t>(value);
    }
    w.pod<double>(e->seconds);
  }
  w.commit(path);
}

}  // namespace

Policy policy() {
  const char* env = std::getenv("MPCNN_TUNE");
  if (env == nullptr || env[0] == '\0' ||
      std::string_view(env) == "cache") {
    return Policy::kCacheOnly;
  }
  const std::string v(env);
  if (v == "off") return Policy::kOff;
  if (v == "auto") return Policy::kAuto;
  MPCNN_CHECK(false,
              "MPCNN_TUNE='" << v << "' (expected off, cache or auto)");
  return Policy::kCacheOnly;
}

std::string cache_path() {
  const char* env = std::getenv("MPCNN_TUNE_CACHE");
  if (env != nullptr && env[0] != '\0') return env;
  return "mpcnn_tune.mptu";
}

std::vector<std::int64_t> pick(
    const std::string& kernel, const std::string& shape_class,
    const std::vector<std::string>& names,
    const std::vector<std::vector<std::int64_t>>& candidates,
    const std::function<double(const std::vector<std::int64_t>&)>& measure) {
  MPCNN_CHECK(!candidates.empty(), "autotune::pick with no candidates");
  for (const auto& c : candidates) {
    MPCNN_CHECK(c.size() == names.size(),
                "autotune candidate arity " << c.size() << " vs "
                                            << names.size() << " names");
  }
  const Policy pol = policy();
  if (pol == Policy::kOff) return candidates.front();

  Store& s = store();
  const std::string sig = cpu_signature();
  const std::string key = make_key(sig, kernel, shape_class);
  {
    std::lock_guard<std::mutex> lock(s.mu);
    ensure_loaded_locked(s);
    auto it = s.entries.find(key);
    if (it != s.entries.end() &&
        it->second.params.size() == names.size()) {
      std::vector<std::int64_t> values;
      values.reserve(names.size());
      for (const auto& [name, value] : it->second.params) {
        values.push_back(value);
      }
      return values;
    }
  }

  const bool may_measure =
      pol == Policy::kAuto || s.force_measure.load(std::memory_order_relaxed);
  if (!may_measure || !measure || candidates.size() == 1) {
    return candidates.front();
  }

  // Sweep outside the lock: measure() runs real kernels (and may use the
  // thread pool); only the result insertion needs the mutex.
  std::size_t best = 0;
  double best_seconds = measure(candidates[0]);
  for (std::size_t i = 1; i < candidates.size(); ++i) {
    const double t = measure(candidates[i]);
    if (t < best_seconds) {
      best_seconds = t;
      best = i;
    }
  }
  Entry e;
  e.signature = sig;
  e.kernel = kernel;
  e.shape_class = shape_class;
  for (std::size_t p = 0; p < names.size(); ++p) {
    e.params.emplace_back(names[p], candidates[best][p]);
  }
  e.seconds = best_seconds;
  {
    std::lock_guard<std::mutex> lock(s.mu);
    s.entries[key] = e;
    try {
      save_locked(s, cache_path());
    } catch (const Error&) {
      // Persisting is best-effort: an unwritable directory must not fail
      // the kernel call that triggered tuning.
    }
  }
  return candidates[best];
}

double measure_seconds(const std::function<void()>& fn, int reps) {
  using clock = std::chrono::steady_clock;
  fn();  // warm-up: page in scratch, resolve dispatch
  double best = 0.0;
  for (int i = 0; i < std::max(reps, 1); ++i) {
    const auto t0 = clock::now();
    fn();
    const double dt = std::chrono::duration<double>(clock::now() - t0).count();
    if (i == 0 || dt < best) best = dt;
  }
  return best;
}

std::vector<Entry> entries() {
  Store& s = store();
  std::lock_guard<std::mutex> lock(s.mu);
  ensure_loaded_locked(s);
  const std::string sig = cpu_signature();
  std::vector<Entry> out;
  for (const auto& [key, e] : s.entries) {
    if (e.signature == sig) out.push_back(e);
  }
  std::sort(out.begin(), out.end(), [](const Entry& a, const Entry& b) {
    return a.kernel != b.kernel ? a.kernel < b.kernel
                                : a.shape_class < b.shape_class;
  });
  return out;
}

void save_cache_file(const std::string& path) {
  Store& s = store();
  std::lock_guard<std::mutex> lock(s.mu);
  save_locked(s, path);
}

std::vector<Entry> read_cache_file(const std::string& path) {
  io::ArtifactReader r(path, kTuneMagic, kTuneVersion);
  const std::string sig = read_string(r, "signature");
  const auto count =
      r.bounded_count(r.pod<std::uint64_t>(), 20, "tuning entries");
  std::vector<Entry> loaded;
  loaded.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    Entry e;
    e.signature = sig;
    e.kernel = read_string(r, "kernel name");
    e.shape_class = read_string(r, "shape class");
    const auto nparams = r.pod<std::uint32_t>();
    MPCNN_CHECK(nparams <= kMaxParams,
                "tuning cache entry with " << nparams << " params");
    for (std::uint32_t p = 0; p < nparams; ++p) {
      std::string name = read_string(r, "param name");
      const auto value = r.pod<std::int64_t>();
      e.params.emplace_back(std::move(name), value);
    }
    e.seconds = r.pod<double>();
    loaded.push_back(std::move(e));
  }
  r.expect_exhausted();
  return loaded;
}

void load_cache_file(const std::string& path) {
  std::vector<Entry> loaded = read_cache_file(path);
  Store& s = store();
  std::lock_guard<std::mutex> lock(s.mu);
  s.entries.clear();
  s.load_attempted = true;
  for (Entry& e : loaded) s.entries[entry_key(e)] = std::move(e);
}

bool is_tuning_cache_file(const std::string& path) {
  return io::probe_magic(path, kTuneMagic);
}

namespace {

struct Tuner {
  const char* kernel;
  void (*fn)();
};

std::vector<Tuner>& tuner_registry() {
  static std::vector<Tuner> r;
  return r;
}

std::mutex& tuner_mutex() {
  static std::mutex mu;
  return mu;
}

}  // namespace

bool register_tuner(const char* kernel, void (*fn)()) {
  std::lock_guard<std::mutex> lock(tuner_mutex());
  tuner_registry().push_back({kernel, fn});
  return true;
}

void run_tuners() {
  std::vector<Tuner> tuners;
  {
    std::lock_guard<std::mutex> lock(tuner_mutex());
    tuners = tuner_registry();
  }
  Store& s = store();
  s.force_measure.store(true, std::memory_order_relaxed);
  try {
    for (const Tuner& t : tuners) t.fn();
  } catch (...) {
    s.force_measure.store(false, std::memory_order_relaxed);
    throw;
  }
  s.force_measure.store(false, std::memory_order_relaxed);
}

void reset_for_testing() {
  Store& s = store();
  std::lock_guard<std::mutex> lock(s.mu);
  s.entries.clear();
  s.load_attempted = false;
}

}  // namespace mpcnn::core::autotune
