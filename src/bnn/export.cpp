#include "bnn/export.hpp"

#include "io/artifact.hpp"

namespace mpcnn::bnn {
namespace {

constexpr io::ArtifactMagic kMagic = {'M', 'P', 'B', 'N'};
constexpr std::uint32_t kVersion = 2;  // v1 predates the frame; unreadable

// Stored words per weight row: the on-disk format packs each row into
// ceil(cols / 64) little-endian words, independent of BitMatrix's
// internal stride.
Dim row_words(Dim cols) { return (cols + 63) / 64; }

}  // namespace

void save_compiled(const CompiledBnn& net, const std::string& path) {
  MPCNN_CHECK(!net.stages.empty() && net.classes > 0,
              "refusing to export an empty compiled net");
  io::ArtifactWriter writer(kMagic, kVersion);
  writer.pod(static_cast<std::int64_t>(net.classes));
  writer.pod(static_cast<std::int32_t>(net.input_levels));
  writer.pod(static_cast<std::uint64_t>(net.stages.size()));
  for (const CompiledStage& stage : net.stages) {
    writer.pod(static_cast<std::uint8_t>(stage.kind));
    for (Dim d : {stage.in_ch, stage.in_h, stage.in_w, stage.out_ch,
                  stage.out_h, stage.out_w, stage.kernel}) {
      writer.pod(static_cast<std::int64_t>(d));
    }
    writer.pod(static_cast<std::int32_t>(stage.in_levels));
    writer.pod(static_cast<std::int32_t>(stage.out_levels));
    // Weights: re-pack row by row so the on-disk format is independent
    // of BitMatrix's internal word stride.  Columns are written in the
    // logical order (c·K + kh)·K + kw of the float graph, not the stored
    // tap order, so version 2 files stay valid whatever layout the
    // engine keeps in memory.
    writer.pod(static_cast<std::int64_t>(stage.weights.rows()));
    writer.pod(static_cast<std::int64_t>(stage.weights.cols()));
    for (Dim r = 0; r < stage.weights.rows(); ++r) {
      std::uint64_t word = 0;
      int used = 0;
      for (Dim c = 0; c < stage.weights.cols(); ++c) {
        if (stage.weights.get(r, stored_column(stage, c))) {
          word |= 1ULL << used;
        }
        if (++used == 64) {
          writer.pod(word);
          word = 0;
          used = 0;
        }
      }
      if (used > 0) writer.pod(word);
    }
    writer.pod(static_cast<std::uint64_t>(stage.thresholds.size()));
    for (std::int32_t t : stage.thresholds) writer.pod(t);
    writer.pod(static_cast<std::uint64_t>(stage.negate.size()));
    for (std::uint8_t n : stage.negate) writer.pod(n);
  }
  writer.commit(path);
}

CompiledBnn load_compiled(const std::string& path) {
  io::ArtifactReader reader(path, kMagic, kVersion);
  CompiledBnn net;
  net.classes = reader.pod<std::int64_t>();
  net.input_levels = reader.pod<std::int32_t>();
  MPCNN_CHECK(net.classes > 0 && net.classes < 4096,
              "implausible class count " << net.classes << " in " << path);
  const auto stages = reader.pod<std::uint64_t>();
  MPCNN_CHECK(stages > 0 && stages < 1024,
              "implausible stage count " << stages << " in " << path);
  net.stages.reserve(reader.bounded_count(stages, 1, "stage"));
  for (std::uint64_t s = 0; s < stages; ++s) {
    CompiledStage stage;
    const auto kind = reader.pod<std::uint8_t>();
    MPCNN_CHECK(kind <= static_cast<std::uint8_t>(StageKind::kOutputDense),
                "bad stage kind " << int(kind) << " in " << path);
    stage.kind = static_cast<StageKind>(kind);
    stage.in_ch = reader.pod<std::int64_t>();
    stage.in_h = reader.pod<std::int64_t>();
    stage.in_w = reader.pod<std::int64_t>();
    stage.out_ch = reader.pod<std::int64_t>();
    stage.out_h = reader.pod<std::int64_t>();
    stage.out_w = reader.pod<std::int64_t>();
    stage.kernel = reader.pod<std::int64_t>();
    stage.in_levels = reader.pod<std::int32_t>();
    stage.out_levels = reader.pod<std::int32_t>();
    MPCNN_CHECK(stage.out_levels >= 2 && stage.out_levels <= 256,
                "bad level count " << stage.out_levels << " in " << path);
    const auto rows = reader.pod<std::int64_t>();
    const auto cols = reader.pod<std::int64_t>();
    MPCNN_CHECK(rows >= 0 && cols >= 0 && rows < (Dim{1} << 20) &&
                    cols < (Dim{1} << 24),
                "implausible weight geometry " << rows << "x" << cols
                                               << " in " << path);
    // The packed rows follow immediately, so the BitMatrix allocation is
    // bounded by bytes actually present — a hostile rows/cols pair that
    // outruns the payload is rejected before any memory is sized off it.
    reader.bounded_count(static_cast<std::uint64_t>(rows),
                         static_cast<std::size_t>(row_words(cols)) *
                             sizeof(std::uint64_t),
                         "weight row");
    // Conv columns are mapped through stored_column, which indexes by
    // the stage's tap geometry: it must cover the columns exactly.
    const bool conv = stage.kind == StageKind::kFixedPointConv ||
                      stage.kind == StageKind::kBinaryConv;
    MPCNN_CHECK(!conv || (stage.kernel >= 1 && stage.kernel <= 64 &&
                          stage.in_ch >= 1 && stage.in_ch <= cols &&
                          cols == stage.in_ch * stage.kernel * stage.kernel),
                "conv weight columns " << cols << " do not match "
                                       << stage.in_ch << "x" << stage.kernel
                                       << "x" << stage.kernel << " taps in "
                                       << path);
    stage.weights = BitMatrix(rows, cols);
    for (Dim r = 0; r < rows; ++r) {
      std::uint64_t word = 0;
      int used = 64;
      for (Dim c = 0; c < cols; ++c) {
        if (used == 64) {
          word = reader.pod<std::uint64_t>();
          used = 0;
        }
        stage.weights.set(r, stored_column(stage, c), (word >> used) & 1ULL);
        ++used;
      }
    }
    const auto n_thresholds = reader.pod<std::uint64_t>();
    stage.thresholds.resize(reader.bounded_count(
        n_thresholds, sizeof(std::int32_t), "threshold"));
    for (auto& t : stage.thresholds) t = reader.pod<std::int32_t>();
    const auto n_negate = reader.pod<std::uint64_t>();
    stage.negate.resize(reader.bounded_count(n_negate, 1, "negate flag"));
    for (auto& n : stage.negate) n = reader.pod<std::uint8_t>();
    net.stages.push_back(std::move(stage));
  }
  reader.expect_exhausted();
  MPCNN_CHECK(net.stages.front().kind == StageKind::kFixedPointConv,
              "compiled net must start with the fixed-point conv");
  MPCNN_CHECK(net.stages.back().kind == StageKind::kOutputDense,
              "compiled net must end with the output dense stage");
  return net;
}

bool is_compiled_file(const std::string& path) {
  return io::probe_magic(path, kMagic);
}

}  // namespace mpcnn::bnn
