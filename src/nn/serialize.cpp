#include "nn/serialize.hpp"

#include <cstdint>
#include <vector>

namespace mpcnn::nn {
namespace {

constexpr io::ArtifactMagic kMagic = {'M', 'P', 'C', 'N'};
constexpr std::uint32_t kVersion = 2;  // v1 predates the frame; unreadable
constexpr std::uint32_t kMaxRank = 8;

std::vector<Tensor*> all_state(Net& net) {
  std::vector<Tensor*> state;
  for (auto& layer : net.layers()) {
    for (Tensor* t : layer->state()) state.push_back(t);
  }
  return state;
}

std::vector<const Tensor*> all_state(const Net& net) {
  std::vector<const Tensor*> state;
  for (const auto& layer : net.layers()) {
    for (const Tensor* t : layer->state()) state.push_back(t);
  }
  return state;
}

}  // namespace

void write_tensor(io::ArtifactWriter& writer, const Tensor& tensor) {
  writer.pod(static_cast<std::uint32_t>(tensor.shape().rank()));
  for (Dim d : tensor.shape().dims()) {
    writer.pod(static_cast<std::int64_t>(d));
  }
  writer.bytes(tensor.data(),
               static_cast<std::size_t>(tensor.numel()) * sizeof(float));
}

Shape read_tensor_shape(io::ArtifactReader& reader) {
  const auto rank = reader.pod<std::uint32_t>();
  MPCNN_CHECK(rank >= 1 && rank <= kMaxRank,
              reader.path() << ": implausible tensor rank " << rank);
  std::vector<Dim> dims(rank);
  for (auto& d : dims) d = reader.pod<std::int64_t>();
  // The f32 data follows the dims, so the element count is bounded by
  // what the payload can actually hold — hostile dims cannot size an
  // allocation beyond the file itself.
  const Dim max_elems =
      static_cast<Dim>(reader.remaining() / sizeof(float));
  Dim numel = 1;
  for (Dim d : dims) {
    MPCNN_CHECK(d > 0, reader.path() << ": non-positive tensor dim " << d);
    MPCNN_CHECK(d <= max_elems && numel <= max_elems / d,
                reader.path() << ": tensor dims " << Shape(dims).str()
                              << " exceed the remaining payload");
    numel *= d;
  }
  return Shape(dims);
}

Tensor read_tensor(io::ArtifactReader& reader) {
  Tensor tensor{read_tensor_shape(reader)};
  reader.bytes(tensor.data(),
               static_cast<std::size_t>(tensor.numel()) * sizeof(float));
  return tensor;
}

void save_net(const Net& net, const std::string& path) {
  io::ArtifactWriter writer(kMagic, kVersion);
  const std::vector<const Tensor*> state = all_state(net);
  writer.pod(static_cast<std::uint64_t>(state.size()));
  for (const Tensor* t : state) write_tensor(writer, *t);
  writer.commit(path);
}

void load_net(Net& net, const std::string& path) {
  io::ArtifactReader reader(path, kMagic, kVersion);
  const std::vector<Tensor*> state = all_state(net);
  const auto raw_count = reader.pod<std::uint64_t>();
  // Each tensor costs at least its u32 rank field.
  const std::size_t count =
      reader.bounded_count(raw_count, sizeof(std::uint32_t), "tensor");
  MPCNN_CHECK(count == state.size(), path << " has " << count
                                          << " tensors, net needs "
                                          << state.size());
  for (Tensor* t : state) {
    const Shape shape = read_tensor_shape(reader);
    MPCNN_CHECK(shape == t->shape(),
                "tensor shape mismatch in " << path << ": file "
                                            << shape.str() << " vs net "
                                            << t->shape().str());
    reader.bytes(t->data(),
                 static_cast<std::size_t>(t->numel()) * sizeof(float));
  }
  reader.expect_exhausted();
}

bool is_net_file(const std::string& path) {
  return io::probe_magic(path, kMagic);
}

NetFileSummary summarize_net_file(const std::string& path) {
  io::ArtifactReader reader(path, kMagic, kVersion);
  NetFileSummary summary;
  summary.version = reader.version();
  const auto raw_count = reader.pod<std::uint64_t>();
  const std::size_t count =
      reader.bounded_count(raw_count, sizeof(std::uint32_t), "tensor");
  summary.shapes.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const Shape shape = read_tensor_shape(reader);
    reader.skip(static_cast<std::size_t>(shape.numel()) * sizeof(float));
    summary.shapes.push_back(shape);
  }
  reader.expect_exhausted();
  return summary;
}

}  // namespace mpcnn::nn
