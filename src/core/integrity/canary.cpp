#include "core/integrity/canary.hpp"

#include <cmath>

#include "core/fault.hpp"
#include "io/artifact.hpp"
#include "tensor/error.hpp"
#include "tensor/rng.hpp"

namespace mpcnn::core::integrity {
namespace {

constexpr io::ArtifactMagic kMagic{{'M', 'P', 'G', 'B'}};
constexpr std::uint32_t kVersion = 1;

}  // namespace

std::uint32_t model_identity_crc(const bnn::CompiledBnn& net) {
  std::uint32_t c = 0;
  for (const bnn::CompiledStage& stage : net.stages) {
    const std::uint32_t sc = stage_crc(stage);
    c = crc32(&sc, sizeof(sc), c);
  }
  return c;
}

CanaryBook make_canary_book(const bnn::CompiledBnn& golden, Dim count,
                            std::uint64_t seed) {
  MPCNN_CHECK(count >= 1, "canary book needs at least one probe");
  MPCNN_CHECK(!golden.stages.empty(), "canary book: empty network");
  const bnn::CompiledStage& first = golden.stages.front();
  CanaryBook book;
  book.classes = golden.classes;
  book.model_crc = model_identity_crc(golden);
  book.inputs.reserve(static_cast<std::size_t>(count));
  book.expected.reserve(static_cast<std::size_t>(count));
  for (Dim i = 0; i < count; ++i) {
    Tensor image(Shape{{1, first.in_ch, first.in_h, first.in_w}});
    float* px = image.data();
    const std::uint64_t base = mix64(seed ^ 0xCAAA41ULL) +
                               static_cast<std::uint64_t>(i) * 0x9E37ULL;
    for (Dim j = 0; j < image.numel(); ++j) {
      const std::uint64_t h = mix64(base + static_cast<std::uint64_t>(j));
      // Valid pixel encodings in [0, 1] — the probes exercise the whole
      // datapath the way real frames do.
      px[static_cast<std::size_t>(j)] =
          static_cast<float>(h >> 40) / static_cast<float>(1 << 24);
    }
    book.expected.push_back(bnn::run_reference(golden, image));
    book.inputs.push_back(std::move(image));
  }
  return book;
}

Dim run_canaries(const bnn::CompiledBnn& fabric, const CanaryBook& book) {
  MPCNN_CHECK(book.inputs.size() == book.expected.size(),
              "canary book inputs/expected size mismatch");
  Dim failures = 0;
  for (std::size_t i = 0; i < book.inputs.size(); ++i) {
    if (bnn::run_reference(fabric, book.inputs[i]) != book.expected[i]) {
      ++failures;
    }
  }
  return failures;
}

void save_canary_book(const CanaryBook& book, const std::string& path) {
  io::ArtifactWriter w(kMagic, kVersion);
  w.pod(static_cast<std::uint32_t>(book.model_crc));
  w.pod(static_cast<std::int64_t>(book.classes));
  w.pod(static_cast<std::uint64_t>(book.inputs.size()));
  for (std::size_t i = 0; i < book.inputs.size(); ++i) {
    const Tensor& image = book.inputs[i];
    const Shape& shape = image.shape();
    w.pod(static_cast<std::uint64_t>(shape.rank()));
    for (std::size_t d = 0; d < shape.rank(); ++d) {
      w.pod(static_cast<std::int64_t>(shape[static_cast<std::int64_t>(d)]));
    }
    w.bytes(image.data(),
            static_cast<std::size_t>(image.numel()) * sizeof(float));
    const std::vector<std::int32_t>& logits = book.expected[i];
    w.pod(static_cast<std::uint64_t>(logits.size()));
    w.bytes(logits.data(), logits.size() * sizeof(std::int32_t));
  }
  w.commit(path);
}

CanaryBook load_canary_book(const std::string& path) {
  io::ArtifactReader r(path, kMagic, kVersion);
  CanaryBook book;
  book.model_crc = r.pod<std::uint32_t>();
  book.classes = static_cast<Dim>(r.pod<std::int64_t>());
  MPCNN_CHECK(book.classes >= 1 && book.classes <= 65536,
              "canary book: implausible class count " << book.classes);
  const std::size_t entries =
      r.bounded_count(r.pod<std::uint64_t>(), /*elem_size=*/16, "canaries");
  MPCNN_CHECK(entries >= 1, "canary book: no probes");
  book.inputs.reserve(entries);
  book.expected.reserve(entries);
  for (std::size_t i = 0; i < entries; ++i) {
    const std::size_t rank =
        r.bounded_count(r.pod<std::uint64_t>(), sizeof(std::int64_t), "rank");
    MPCNN_CHECK(rank >= 1 && rank <= 8, "canary book: bad rank " << rank);
    std::vector<Dim> dims(rank);
    std::int64_t numel = 1;
    for (std::size_t d = 0; d < rank; ++d) {
      const std::int64_t v = r.pod<std::int64_t>();
      MPCNN_CHECK(v >= 1 && v <= (1 << 20),
                  "canary book: bad dimension " << v);
      numel *= v;
      MPCNN_CHECK(numel <= (1 << 24), "canary book: probe too large");
      dims[d] = static_cast<Dim>(v);
    }
    r.bounded_count(static_cast<std::uint64_t>(numel), sizeof(float),
                    "probe pixels");
    Tensor image{Shape(std::move(dims))};
    r.bytes(image.data(), static_cast<std::size_t>(numel) * sizeof(float));
    book.inputs.push_back(std::move(image));
    const std::size_t classes = r.bounded_count(
        r.pod<std::uint64_t>(), sizeof(std::int32_t), "logits");
    MPCNN_CHECK(static_cast<Dim>(classes) == book.classes,
                "canary book: probe " << i << " has " << classes
                                      << " logits, header says "
                                      << book.classes);
    std::vector<std::int32_t> logits(classes);
    r.bytes(logits.data(), classes * sizeof(std::int32_t));
    book.expected.push_back(std::move(logits));
  }
  r.expect_exhausted();
  return book;
}

void check_finite_image(const Tensor& image, const char* context) {
  const float* px = image.data();
  const Dim n = image.numel();
  for (Dim i = 0; i < n; ++i) {
    MPCNN_CHECK(std::isfinite(px[static_cast<std::size_t>(i)]),
                context << ": non-finite pixel at element " << i
                        << " (shape " << image.shape().str() << ")");
  }
}

}  // namespace mpcnn::core::integrity
