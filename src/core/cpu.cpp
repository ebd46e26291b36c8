#include "core/cpu.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <mutex>

#include "tensor/error.hpp"

namespace mpcnn::core {
namespace {

CpuFeatures probe_features() {
  CpuFeatures f;
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  __builtin_cpu_init();
  f.sse2 = __builtin_cpu_supports("sse2");
  f.popcnt = __builtin_cpu_supports("popcnt");
  f.avx2 = __builtin_cpu_supports("avx2");
  f.fma = __builtin_cpu_supports("fma");
  f.avx512f = __builtin_cpu_supports("avx512f");
  f.avx512bw = __builtin_cpu_supports("avx512bw");
  f.avx512vl = __builtin_cpu_supports("avx512vl");
  f.avx512vpopcntdq = __builtin_cpu_supports("avx512vpopcntdq");
  f.avx512vnni = __builtin_cpu_supports("avx512vnni");
#endif
  return f;
}

constexpr Isa kLevels[] = {Isa::kScalar, Isa::kSse2, Isa::kAvx2,
                           Isa::kAvx512};

// The features a level's kernels execute, each level on top of the one
// below it.
bool runs_on(Isa isa, const CpuFeatures& f) {
  switch (isa) {
    case Isa::kScalar:
      return true;
    case Isa::kSse2:
      return f.sse2;
    case Isa::kAvx2:
      return f.avx2 && f.popcnt;
    case Isa::kAvx512:
      return runs_on(Isa::kAvx2, f) && f.avx512f && f.avx512bw &&
             f.avx512vl && f.avx512vpopcntdq && f.avx512vnni;
  }
  return false;
}

const char* required_features(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return "nothing";
    case Isa::kSse2:
      return "SSE2";
    case Isa::kAvx2:
      return "AVX2+POPCNT";
    case Isa::kAvx512:
      return "AVX2+POPCNT and AVX-512 F/BW/VL/VPOPCNTDQ/VNNI";
  }
  return "?";
}

Isa resolve_isa() {
  const CpuFeatures& f = cpu_features();
  const char* env = std::getenv("MPCNN_ISA");
  if (env != nullptr && env[0] != '\0') {
    const std::string v(env);
    for (const Isa isa : kLevels) {
      if (v != isa_name(isa)) continue;
      MPCNN_CHECK(runs_on(isa, f),
                  "MPCNN_ISA=" << v << " but the CPU does not report "
                               << required_features(isa));
      return isa;
    }
    MPCNN_CHECK(false, "MPCNN_ISA='"
                           << v << "' (expected scalar, sse2, avx2 or avx512)");
  }
  return supported_isas().back();
}

struct IsaState {
  std::atomic<int> generation{0};
  std::atomic<bool> resolved{false};
  std::atomic<Isa> isa{Isa::kScalar};
  std::mutex mu;
};

IsaState& isa_state() {
  static IsaState s;
  return s;
}

struct SlotEntry {
  const char* slot;
  const char* (*variant)();
};

std::vector<SlotEntry>& slot_registry() {
  static std::vector<SlotEntry> r;
  return r;
}

std::mutex& slot_mutex() {
  static std::mutex mu;
  return mu;
}

}  // namespace

const CpuFeatures& cpu_features() {
  static const CpuFeatures f = probe_features();
  return f;
}

const char* isa_name(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return "scalar";
    case Isa::kSse2:
      return "sse2";
    case Isa::kAvx2:
      return "avx2";
    case Isa::kAvx512:
      return "avx512";
  }
  return "?";
}

std::vector<Isa> supported_isas() {
  std::vector<Isa> levels;
  for (const Isa isa : kLevels) {
    if (runs_on(isa, cpu_features())) levels.push_back(isa);
  }
  return levels;
}

Isa active_isa() {
  IsaState& s = isa_state();
  if (!s.resolved.load(std::memory_order_acquire)) {
    std::lock_guard<std::mutex> lock(s.mu);
    if (!s.resolved.load(std::memory_order_relaxed)) {
      s.isa.store(resolve_isa(), std::memory_order_relaxed);
      s.resolved.store(true, std::memory_order_release);
    }
  }
  return s.isa.load(std::memory_order_relaxed);
}

bool isa_forced() {
  const char* env = std::getenv("MPCNN_ISA");
  return env != nullptr && env[0] != '\0';
}

void refresh_isa() {
  IsaState& s = isa_state();
  std::lock_guard<std::mutex> lock(s.mu);
  const Isa next = resolve_isa();  // throws before any state changes
  s.isa.store(next, std::memory_order_relaxed);
  s.resolved.store(true, std::memory_order_release);
  s.generation.fetch_add(1, std::memory_order_acq_rel);
}

int isa_generation() {
  return isa_state().generation.load(std::memory_order_acquire);
}

std::string cpu_signature() {
  const CpuFeatures& f = cpu_features();
  std::string sig;
#if defined(__x86_64__)
  sig = "x86-64";
#else
  sig = "non-x86";
#endif
  sig += ' ';
  bool any = false;
  const auto add = [&](bool on, const char* name) {
    if (!on) return;
    if (any) sig += '+';
    sig += name;
    any = true;
  };
  add(f.sse2, "sse2");
  add(f.popcnt, "popcnt");
  add(f.avx2, "avx2");
  add(f.fma, "fma");
  add(f.avx512f, "avx512f");
  add(f.avx512bw, "avx512bw");
  add(f.avx512vl, "avx512vl");
  add(f.avx512vpopcntdq, "avx512vpopcntdq");
  add(f.avx512vnni, "avx512vnni");
  if (!any) sig += "none";
  sig += " isa=";
  sig += isa_name(active_isa());
  return sig;
}

bool register_kernel_slot(const char* slot, const char* (*variant)()) {
  std::lock_guard<std::mutex> lock(slot_mutex());
  slot_registry().push_back({slot, variant});
  return true;
}

std::vector<KernelBinding> kernel_bindings() {
  std::vector<SlotEntry> entries;
  {
    std::lock_guard<std::mutex> lock(slot_mutex());
    entries = slot_registry();
  }
  std::vector<KernelBinding> out;
  out.reserve(entries.size());
  for (const SlotEntry& e : entries) out.push_back({e.slot, e.variant()});
  std::sort(out.begin(), out.end(),
            [](const KernelBinding& a, const KernelBinding& b) {
              return a.slot < b.slot;
            });
  return out;
}

}  // namespace mpcnn::core
