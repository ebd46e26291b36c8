// ABFT overhead benchmark: the SDC defense is only deployable if the
// checksum epilogues stay cheap on the hot kernels.
//
// Times the float GEMM family and the packed xnor-GEMM at
// IntegrityMode off / sample / full for every ISA level this CPU
// supports, on the BM_GemmIsa / BM_XnorGemmIsa shapes of
// bench_kernels.  Prints one row per (kernel, isa) and, with
// `--out FILE` (run_all.sh passes BENCH_integrity.json), a JSON report
// with the off-mode throughput and the sample/full overhead fractions —
// tools/bench_gate.py fails the run when full-mode overhead exceeds
// 15%.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "bnn/bitpack.hpp"
#include "core/cpu.hpp"
#include "core/integrity/integrity.hpp"
#include "tensor/gemm.hpp"

using namespace mpcnn;

namespace {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Row {
  std::string name;
  std::string isa;
  double giga_ops = 0.0;       // work per call, in billions of ops
  double off_s = 0.0;          // seconds per call, mode off
  double sample_frac = 0.0;    // overhead vs off
  double full_frac = 0.0;
};

// Overhead measurement: the three modes are timed in interleaved
// rounds (off, sample, full, repeat) so slow machine drift — frequency
// ramps, sibling load — hits every mode equally instead of skewing the
// ratio; each mode keeps its best (least-disturbed) window.
template <typename Fn>
Row measure(const std::string& name, double giga_ops, const Fn& fn,
            double min_window_s) {
  namespace ci = core::integrity;
  Row row;
  row.name = name;
  row.isa = core::isa_name(core::active_isa());
  row.giga_ops = giga_ops;

  ci::set_global_mode(ci::IntegrityMode::kOff);
  fn();  // warm up (binds dispatch tables, faults in pages)
  int iters = 1;
  for (;;) {
    const double t0 = now_s();
    for (int i = 0; i < iters; ++i) fn();
    const double dt = now_s() - t0;
    if (dt >= min_window_s) break;
    iters *= 2;
  }

  const ci::IntegrityMode modes[3] = {ci::IntegrityMode::kOff,
                                      ci::IntegrityMode::kSample,
                                      ci::IntegrityMode::kFull};
  double best[3] = {1e300, 1e300, 1e300};
  for (int rep = 0; rep < 5; ++rep) {
    for (int m = 0; m < 3; ++m) {
      ci::set_global_mode(modes[m]);
      fn();  // settle the new mode before the timed window
      const double t0 = now_s();
      for (int i = 0; i < iters; ++i) fn();
      const double dt = (now_s() - t0) / iters;
      if (dt < best[m]) best[m] = dt;
    }
  }
  ci::set_global_mode(ci::IntegrityMode::kOff);
  row.off_s = best[0];
  row.sample_frac = best[1] / best[0] - 1.0;
  row.full_frac = best[2] / best[0] - 1.0;
  return row;
}

std::vector<float> random_block(std::size_t n, std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<float> dist(-1.0f, 1.0f);
  std::vector<float> block(n);
  for (float& x : block) x = dist(rng);
  return block;
}

bnn::BitMatrix random_bits(Dim rows, Dim cols, std::uint32_t seed) {
  std::mt19937 rng(seed);
  bnn::BitMatrix m(rows, cols);
  for (Dim r = 0; r < rows; ++r) {
    for (Dim c = 0; c < cols; ++c) m.set(r, c, (rng() & 1u) != 0);
  }
  return m;
}

void append_gemm_rows(std::vector<Row>& rows, double min_window_s) {
  for (const Dim n : {256, 512}) {
    const std::vector<float> a =
        random_block(static_cast<std::size_t>(n * n), 1);
    const std::vector<float> b =
        random_block(static_cast<std::size_t>(n * n), 2);
    std::vector<float> c(static_cast<std::size_t>(n * n), 0.0f);
    char name[64];
    std::snprintf(name, sizeof(name), "gemm_%lldx%lldx%lld",
                  static_cast<long long>(n), static_cast<long long>(n),
                  static_cast<long long>(n));
    rows.push_back(measure(
        name, 2.0 * n * n * n / 1e9,
        [&] { gemm(n, n, n, 1.0f, a.data(), b.data(), 0.0f, c.data()); },
        min_window_s));
  }
}

void append_xnor_rows(std::vector<Row>& rows, double min_window_s) {
  // The CNV mid-layer conv shape of BM_XnorGemmIsa: 128 output channels
  // over 1152-bit patches at 784 spatial positions.
  const Dim out_ch = 128, bits = 1152, positions = 784;
  const bnn::BitMatrix w = random_bits(out_ch, bits, 3);
  const bnn::BitMatrix x = random_bits(positions, bits, 4);
  std::vector<std::int32_t> c(
      static_cast<std::size_t>(out_ch * positions));
  rows.push_back(measure(
      "xnor_gemm_128x1152x784", 2.0 * out_ch * bits * positions / 1e9,
      [&] { bnn::xnor_gemm(w, x, c.data()); }, min_window_s));
}

void write_json(const std::vector<Row>& rows, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  MPCNN_CHECK(f != nullptr, "cannot write " << path);
  std::fprintf(f, "{\n  \"context\": {\n");
  std::fprintf(f, "    \"cpu_signature\": \"%s\",\n",
               core::cpu_signature().c_str());
  std::fprintf(f, "    \"suite\": \"integrity\"\n  },\n");
  std::fprintf(f, "  \"scenarios\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(f, "    {\n");
    std::fprintf(f, "      \"name\": \"%s_%s\",\n", r.name.c_str(),
                 r.isa.c_str());
    std::fprintf(f, "      \"kernel\": \"%s\",\n", r.name.c_str());
    std::fprintf(f, "      \"isa\": \"%s\",\n", r.isa.c_str());
    std::fprintf(f, "      \"throughput_gops\": %.3f,\n",
                 r.giga_ops / r.off_s);
    std::fprintf(f, "      \"off_ms\": %.5f,\n", 1e3 * r.off_s);
    std::fprintf(f, "      \"overhead_sample_frac\": %.5f,\n",
                 r.sample_frac);
    std::fprintf(f, "      \"overhead_full_frac\": %.5f\n", r.full_frac);
    std::fprintf(f, "    }%s\n", i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  std::string out;
  double min_window_s = 0.02;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--out" && i + 1 < argc) {
      out = argv[++i];
    } else if (arg == "--quick") {
      min_window_s = 0.005;
    } else {
      std::fprintf(stderr, "usage: bench_integrity [--out FILE] [--quick]\n");
      return 2;
    }
  }

  const std::vector<core::Isa> levels = core::supported_isas();

  std::vector<Row> rows;
  std::printf("%-26s %-6s %12s %10s %10s\n", "kernel", "isa", "off GOP/s",
              "sample", "full");
  for (const core::Isa isa : levels) {
    ::setenv("MPCNN_ISA", core::isa_name(isa), 1);
    core::refresh_isa();
    std::vector<Row> level_rows;
    append_gemm_rows(level_rows, min_window_s);
    append_xnor_rows(level_rows, min_window_s);
    for (const Row& r : level_rows) {
      std::printf("%-26s %-6s %12.2f %9.2f%% %9.2f%%\n", r.name.c_str(),
                  r.isa.c_str(), r.giga_ops / r.off_s, 100.0 * r.sample_frac,
                  100.0 * r.full_frac);
      rows.push_back(r);
    }
  }
  ::unsetenv("MPCNN_ISA");
  core::refresh_isa();

  if (!out.empty()) write_json(rows, out);
  return 0;
}
