// Adversarial tests for the hardened artifact layer (src/io/artifact):
// frame validation, CRC integrity, bounded reads driven by hostile
// header fields, version bounds, and atomic-commit behaviour.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "bnn/export.hpp"
#include "io/artifact.hpp"
#include "nn/checkpoint.hpp"
#include "nn/dense.hpp"
#include "nn/net.hpp"
#include "nn/serialize.hpp"

namespace mpcnn {
namespace {

namespace fs = std::filesystem;

std::vector<unsigned char> slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::vector<unsigned char>(std::istreambuf_iterator<char>(in),
                                    std::istreambuf_iterator<char>());
}

void spit(const std::string& path, const std::vector<unsigned char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

// Recomputes the CRC-32 trailer after a deliberate field patch, so the
// test exercises the *semantic* check (version / length / count / rank /
// dim validation) rather than tripping the checksum first.
void refit_crc(std::vector<unsigned char>* bytes) {
  ASSERT_GE(bytes->size(), 20u);
  const std::uint32_t crc =
      io::crc32(bytes->data(), bytes->size() - 4);
  std::memcpy(bytes->data() + bytes->size() - 4, &crc, 4);
}

template <class T>
void patch(std::vector<unsigned char>* bytes, std::size_t offset, T value) {
  ASSERT_LE(offset + sizeof(T), bytes->size());
  std::memcpy(bytes->data() + offset, &value, sizeof(T));
}

// Expects `fn` to throw a one-line Error that contains `needle`.
template <class Fn>
void expect_error_naming(Fn fn, const std::string& needle,
                         const std::string& what) {
  try {
    fn();
    ADD_FAILURE() << what << ": no error";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find(needle), std::string::npos) << what << ": " << msg;
    EXPECT_EQ(msg.find('\n'), std::string::npos) << what << ": " << msg;
  }
}

// The smallest net with real weights: one Dense layer, ~92-byte file, so
// the exhaustive every-byte / every-bit sweeps stay instant.
nn::Net make_micro_net() {
  nn::Net net("micro", Shape{1, 4});
  net.add<nn::Dense>(4, 2);
  return net;
}

// Makes a net's weights recognisably different from a fresh one, so the
// round-trip test proves the loader actually overwrites them.
void scribble(nn::Net* net, float value) {
  for (auto& layer : net->layers()) {
    for (Tensor* t : layer->state()) {
      for (Dim i = 0; i < t->numel(); ++i) t->data()[i] = value;
    }
  }
}

// Two-stage compiled BNN (fixed-point conv in, output dense out) small
// enough for exhaustive corruption sweeps.
bnn::CompiledBnn make_micro_compiled() {
  bnn::CompiledBnn net;
  net.classes = 2;
  net.input_levels = 255;
  bnn::CompiledStage conv;
  conv.kind = bnn::StageKind::kFixedPointConv;
  conv.in_ch = 1;
  conv.in_h = conv.in_w = 4;
  conv.out_ch = 2;
  conv.out_h = conv.out_w = 2;
  conv.kernel = 3;
  conv.in_levels = 256;
  conv.weights = bnn::BitMatrix(2, 9);
  for (Dim r = 0; r < 2; ++r) {
    for (Dim c = 0; c < 9; ++c) conv.weights.set(r, c, (r + c) % 3 == 0);
  }
  conv.thresholds = {5, -3};
  conv.negate = {0, 1};
  bnn::CompiledStage fc;
  fc.kind = bnn::StageKind::kOutputDense;
  fc.in_ch = 2;
  fc.in_h = fc.in_w = 2;
  fc.out_ch = 2;
  fc.out_h = fc.out_w = 1;
  fc.in_levels = 2;
  fc.weights = bnn::BitMatrix(2, 8);
  for (Dim r = 0; r < 2; ++r) {
    for (Dim c = 0; c < 8; ++c) fc.weights.set(r, c, ((r ^ c) & 1) != 0);
  }
  net.stages.push_back(std::move(conv));
  net.stages.push_back(std::move(fc));
  return net;
}

class ArtifactTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("mpcnn_artifact_" +
            std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
            "_" + ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ignored;
    fs::remove_all(dir_, ignored);
  }

  std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  // Saves the micro net and returns its on-disk bytes.
  std::vector<unsigned char> golden_net(const std::string& name) {
    const nn::Net net = make_micro_net();
    nn::save_net(net, path(name));  // save_net takes const Net&
    return slurp(path(name));
  }

  void expect_load_rejected(const std::vector<unsigned char>& bytes,
                            const std::string& why) {
    const std::string p = path("mutant.bin");
    spit(p, bytes);
    nn::Net net = make_micro_net();
    EXPECT_THROW(nn::load_net(net, p), Error) << why;
  }

  fs::path dir_;
};

TEST_F(ArtifactTest, RoundTripIsBitExact) {
  nn::Net saved_mut = make_micro_net();
  scribble(&saved_mut, 0.3125f);
  const nn::Net& saved = saved_mut;
  nn::save_net(saved, path("net.bin"));  // const overload: satellite 1
  nn::Net loaded = make_micro_net();
  scribble(&loaded, -7.0f);  // must be fully overwritten by the load
  nn::load_net(loaded, path("net.bin"));
  const auto& a = saved.layers();
  const auto& b = loaded.layers();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    auto sa = a[i]->state();
    auto sb = b[i]->state();
    ASSERT_EQ(sa.size(), sb.size());
    for (std::size_t t = 0; t < sa.size(); ++t) {
      ASSERT_EQ(sa[t]->shape(), sb[t]->shape());
      EXPECT_EQ(std::memcmp(sa[t]->data(), sb[t]->data(),
                            static_cast<std::size_t>(sa[t]->numel()) *
                                sizeof(float)),
                0);
    }
  }
}

TEST_F(ArtifactTest, ZeroByteAndTinyFilesAreRejected) {
  expect_load_rejected({}, "zero-byte file");
  expect_load_rejected({'M'}, "one-byte file");
  expect_load_rejected({'M', 'P', 'C', 'N'}, "magic only");
  EXPECT_THROW(io::inspect(path("mutant.bin")), Error);
  EXPECT_THROW(io::inspect(path("does_not_exist.bin")), Error);
}

TEST_F(ArtifactTest, TruncationAtEveryByteIsRejected) {
  const std::vector<unsigned char> golden = golden_net("net.bin");
  for (std::size_t cut = 0; cut < golden.size(); ++cut) {
    std::vector<unsigned char> mutant(golden.begin(),
                                      golden.begin() + cut);
    expect_load_rejected(mutant, "truncated to " + std::to_string(cut));
  }
}

TEST_F(ArtifactTest, EveryBitFlipIsRejected) {
  const std::vector<unsigned char> golden = golden_net("net.bin");
  for (std::size_t at = 0; at < golden.size(); ++at) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<unsigned char> mutant = golden;
      mutant[at] ^= static_cast<unsigned char>(1u << bit);
      expect_load_rejected(mutant, "bit " + std::to_string(bit) + " of byte " +
                                       std::to_string(at));
    }
  }
}

TEST_F(ArtifactTest, TrailingGarbageIsRejected) {
  std::vector<unsigned char> mutant = golden_net("net.bin");
  mutant.push_back(0);
  expect_load_rejected(mutant, "one trailing byte");
}

TEST_F(ArtifactTest, WrongMagicIsRejected) {
  std::vector<unsigned char> mutant = golden_net("net.bin");
  mutant[0] = 'X';
  refit_crc(&mutant);  // CRC valid; only the magic is wrong
  expect_load_rejected(mutant, "wrong magic with valid CRC");

  // The kernel tuning cache is no longer a format.  A file left over from
  // an older build is well framed and CRC-valid, yet inspect() (and so
  // `mpcnn_cli verify`) must reject its magic in one line.
  const io::ArtifactMagic retired = {'M', 'P', 'T', 'U'};
  const std::string name(retired.data(), retired.size());
  io::ArtifactWriter writer(retired, 1);
  writer.pod(std::uint64_t{0});
  writer.commit(path("kernel_tuning_cache.bin"));
  expect_error_naming([&] { io::inspect(path("kernel_tuning_cache.bin")); },
                      "unknown artifact magic '" + name + "'",
                      "inspect " + name);
}

TEST_F(ArtifactTest, FutureVersionIsRejected) {
  std::vector<unsigned char> mutant = golden_net("net.bin");
  patch<std::uint32_t>(&mutant, 4, 99);
  refit_crc(&mutant);
  expect_load_rejected(mutant, "version 99 from the future");
}

TEST_F(ArtifactTest, LyingLengthFieldIsRejected) {
  std::vector<unsigned char> mutant = golden_net("net.bin");
  const auto size = static_cast<std::uint64_t>(mutant.size());
  patch<std::uint64_t>(&mutant, 8, size);  // claims more than is present
  refit_crc(&mutant);
  expect_load_rejected(mutant, "over-declared payload length");
  mutant = golden_net("net.bin");
  patch<std::uint64_t>(&mutant, 8, 0);
  refit_crc(&mutant);
  expect_load_rejected(mutant, "under-declared payload length");
}

TEST_F(ArtifactTest, HostileTensorCountCannotDriveAllocation) {
  // Payload starts at 16 with the u64 tensor count.
  for (std::uint64_t evil :
       {std::uint64_t{3}, std::uint64_t{1} << 32, ~std::uint64_t{0}}) {
    std::vector<unsigned char> mutant = golden_net("net.bin");
    patch<std::uint64_t>(&mutant, 16, evil);
    refit_crc(&mutant);
    expect_load_rejected(mutant, "tensor count " + std::to_string(evil));
  }
}

TEST_F(ArtifactTest, HostileRankIsRejected) {
  // First tensor's u32 rank sits right after the count.
  for (std::uint32_t evil : {std::uint32_t{0}, std::uint32_t{9},
                             std::uint32_t{0xFFFFFFFF}}) {
    std::vector<unsigned char> mutant = golden_net("net.bin");
    patch<std::uint32_t>(&mutant, 24, evil);
    refit_crc(&mutant);
    expect_load_rejected(mutant, "rank " + std::to_string(evil));
  }
}

TEST_F(ArtifactTest, HostileDimsCannotDriveAllocation) {
  // First tensor dim (i64) follows its rank field.
  for (std::int64_t evil :
       {std::int64_t{-5}, std::int64_t{0}, std::int64_t{1} << 60}) {
    std::vector<unsigned char> mutant = golden_net("net.bin");
    patch<std::int64_t>(&mutant, 28, evil);
    refit_crc(&mutant);
    expect_load_rejected(mutant, "dim " + std::to_string(evil));
  }
}

TEST_F(ArtifactTest, UnframedV1FilesAreRejected) {
  // A v1 MPCN/MPBN file is magic + u32 version + bare payload — no
  // length, no CRC.  No loader reads it.
  const auto to_v1 = [](const std::vector<unsigned char>& v2) {
    std::vector<unsigned char> v1(v2.begin(), v2.begin() + 8);
    v1.insert(v1.end(), v2.begin() + 16, v2.end() - 4);
    patch<std::uint32_t>(&v1, 4, 1);
    return v1;
  };
  spit(path("net_v1.bin"), to_v1(golden_net("net.bin")));
  bnn::save_compiled(make_micro_compiled(), path("bnn.bin"));
  spit(path("bnn_v1.bin"), to_v1(slurp(path("bnn.bin"))));

  EXPECT_TRUE(nn::is_net_file(path("net_v1.bin")));
  nn::Net net = make_micro_net();
  expect_error_naming([&] { nn::load_net(net, path("net_v1.bin")); },
                      "version 1", "load_net");
  expect_error_naming([&] { nn::summarize_net_file(path("net_v1.bin")); },
                      "version 1", "summarize_net_file");
  expect_error_naming([&] { io::inspect(path("net_v1.bin")); }, "version 1",
                      "inspect MPCN");
  expect_error_naming([&] { bnn::load_compiled(path("bnn_v1.bin")); },
                      "version 1", "load_compiled");
  expect_error_naming([&] { io::inspect(path("bnn_v1.bin")); }, "version 1",
                      "inspect MPBN");
}

TEST_F(ArtifactTest, VersionZeroIsRejectedForEveryFormat) {
  // A well-framed, CRC-valid empty payload at version 0: inspect() and
  // the reader must agree that no format reads it.
  const io::ArtifactMagic magics[] = {
      {'M', 'P', 'C', 'N'}, {'M', 'P', 'B', 'N'}, {'M', 'P', 'C', 'K'},
      {'M', 'P', 'C', 'M'}, {'M', 'P', 'S', 'E'}, {'M', 'P', 'F', 'P'},
      {'M', 'P', 'G', 'B'}};
  for (const io::ArtifactMagic& magic : magics) {
    const std::string name(magic.data(), magic.size());
    const std::string p = path(name + "_v0.bin");
    io::ArtifactWriter(magic, 0).commit(p);
    expect_error_naming([&] { io::inspect(p); }, "version 0",
                        "inspect " + name);
    expect_error_naming([&] { io::ArtifactReader(p, magic, 99); },
                        "version 0", "reader " + name);
  }
}

TEST_F(ArtifactTest, InspectDiagnosesWithoutThrowingOnBadCrc) {
  const std::vector<unsigned char> golden = golden_net("net.bin");
  io::ArtifactInfo info = io::inspect(path("net.bin"));
  EXPECT_EQ(info.format, "net weights");
  EXPECT_EQ(info.version, 2u);
  EXPECT_TRUE(info.crc_ok);
  EXPECT_EQ(info.file_bytes, golden.size());
  EXPECT_EQ(info.payload_bytes, golden.size() - 20);

  std::vector<unsigned char> mutant = golden;
  mutant[20] ^= 0x40;  // payload corruption, CRC left stale
  spit(path("net.bin"), mutant);
  info = io::inspect(path("net.bin"));  // diagnoses, does not throw
  EXPECT_FALSE(info.crc_ok);
}

TEST_F(ArtifactTest, SuccessfulSaveLeavesNoTempFile) {
  golden_net("net.bin");
  EXPECT_TRUE(fs::exists(path("net.bin")));
  EXPECT_FALSE(fs::exists(path("net.bin.tmp")));
}

TEST_F(ArtifactTest, StaleTempFromAKilledWriterIsHarmless) {
  const std::vector<unsigned char> golden = golden_net("net.bin");
  // A writer killed mid-commit leaves `path.tmp`; the real artifact must
  // stay readable, and the next save must land cleanly over both.
  spit(path("net.bin.tmp"), {0xDE, 0xAD, 0xBE, 0xEF});
  nn::Net net = make_micro_net();
  nn::load_net(net, path("net.bin"));  // untouched by the stale temp
  nn::save_net(net, path("net.bin"));
  EXPECT_FALSE(fs::exists(path("net.bin.tmp")));
  EXPECT_EQ(slurp(path("net.bin")).size(), golden.size());
}

TEST_F(ArtifactTest, FailedCommitLeavesTheOldArtifactIntact) {
  const std::vector<unsigned char> golden = golden_net("net.bin");
  const nn::Net net = make_micro_net();
  // Committing into a missing directory must throw without touching
  // anything else.
  EXPECT_THROW(nn::save_net(net, path("no_such_dir/net.bin")), Error);
  EXPECT_EQ(slurp(path("net.bin")), golden);
}

TEST_F(ArtifactTest, MagicProbesAreFormatExclusive) {
  golden_net("net.bin");
  bnn::save_compiled(make_micro_compiled(), path("bnn.bin"));

  EXPECT_TRUE(nn::is_net_file(path("net.bin")));
  EXPECT_FALSE(nn::is_net_file(path("bnn.bin")));
  EXPECT_TRUE(bnn::is_compiled_file(path("bnn.bin")));
  EXPECT_FALSE(bnn::is_compiled_file(path("net.bin")));
  EXPECT_FALSE(nn::is_checkpoint_file(path("net.bin")));
  EXPECT_FALSE(nn::is_manifest_file(path("net.bin")));
  EXPECT_FALSE(nn::is_net_file(path("missing.bin")));
  spit(path("short.bin"), {'M', 'P'});
  EXPECT_FALSE(nn::is_net_file(path("short.bin")));
}

TEST_F(ArtifactTest, CompiledNetSurvivesRoundTripAndRejectsCorruption) {
  const bnn::CompiledBnn original = make_micro_compiled();
  bnn::save_compiled(original, path("bnn.bin"));
  const bnn::CompiledBnn loaded = bnn::load_compiled(path("bnn.bin"));
  ASSERT_EQ(loaded.stages.size(), original.stages.size());
  EXPECT_EQ(loaded.classes, original.classes);
  for (std::size_t s = 0; s < original.stages.size(); ++s) {
    const auto& a = original.stages[s];
    const auto& b = loaded.stages[s];
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_EQ(a.thresholds, b.thresholds);
    EXPECT_EQ(a.negate, b.negate);
    ASSERT_EQ(a.weights.rows(), b.weights.rows());
    ASSERT_EQ(a.weights.cols(), b.weights.cols());
    for (Dim r = 0; r < a.weights.rows(); ++r) {
      for (Dim c = 0; c < a.weights.cols(); ++c) {
        EXPECT_EQ(a.weights.get(r, c), b.weights.get(r, c));
      }
    }
  }

  const std::vector<unsigned char> golden = slurp(path("bnn.bin"));
  for (std::size_t cut = 0; cut < golden.size(); ++cut) {
    spit(path("mutant.bin"),
         std::vector<unsigned char>(golden.begin(), golden.begin() + cut));
    EXPECT_THROW(bnn::load_compiled(path("mutant.bin")), Error)
        << "truncated to " << cut;
  }
  for (std::size_t at = 0; at < golden.size(); ++at) {
    std::vector<unsigned char> mutant = golden;
    mutant[at] ^= 0x10;
    spit(path("mutant.bin"), mutant);
    EXPECT_THROW(bnn::load_compiled(path("mutant.bin")), Error)
        << "bit flip in byte " << at;
  }
}

TEST_F(ArtifactTest, CompiledNetHostileStageCountIsRejected) {
  bnn::save_compiled(make_micro_compiled(), path("bnn.bin"));
  // Payload: i64 classes @16, i32 input_levels @24, u64 stage count @28.
  for (std::uint64_t evil : {std::uint64_t{0}, std::uint64_t{100000},
                             ~std::uint64_t{0}}) {
    std::vector<unsigned char> mutant = slurp(path("bnn.bin"));
    patch<std::uint64_t>(&mutant, 28, evil);
    refit_crc(&mutant);
    spit(path("mutant.bin"), mutant);
    EXPECT_THROW(bnn::load_compiled(path("mutant.bin")), Error)
        << "stage count " << evil;
  }
}

}  // namespace
}  // namespace mpcnn
