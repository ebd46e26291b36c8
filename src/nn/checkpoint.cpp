#include "nn/checkpoint.hpp"

#include <algorithm>
#include <filesystem>

#include "io/artifact.hpp"
#include "nn/serialize.hpp"

namespace mpcnn::nn {
namespace {

constexpr io::ArtifactMagic kCkptMagic = {'M', 'P', 'C', 'K'};
constexpr io::ArtifactMagic kManifestMagic = {'M', 'P', 'C', 'M'};
constexpr std::uint32_t kVersion = 1;  // framed from the start
constexpr Dim kKeepCheckpoints = 2;

std::vector<Tensor*> net_state(Net& net) {
  std::vector<Tensor*> state;
  for (auto& layer : net.layers()) {
    for (Tensor* t : layer->state()) state.push_back(t);
  }
  return state;
}

std::vector<Rng*> net_rngs(const Net& net) {
  std::vector<Rng*> rngs;
  for (const auto& layer : net.layers()) {
    if (Rng* rng = layer->rng_state()) rngs.push_back(rng);
  }
  return rngs;
}

void write_rng_state(io::ArtifactWriter& w, const Rng::State& s) {
  for (std::uint64_t word : s.words) w.pod(word);
  w.pod(s.cached_normal);
  w.pod(static_cast<std::uint8_t>(s.has_cached_normal ? 1 : 0));
}

Rng::State read_rng_state(io::ArtifactReader& r) {
  Rng::State s;
  for (std::uint64_t& word : s.words) word = r.pod<std::uint64_t>();
  s.cached_normal = r.pod<double>();
  const auto flag = r.pod<std::uint8_t>();
  MPCNN_CHECK(flag <= 1,
              r.path() << ": bad RNG cache flag " << int(flag));
  s.has_cached_normal = flag == 1;
  return s;
}

void write_tensor_list(io::ArtifactWriter& w,
                       const std::vector<Tensor>& tensors) {
  w.pod(static_cast<std::uint64_t>(tensors.size()));
  for (const Tensor& t : tensors) write_tensor(w, t);
}

std::vector<Tensor> read_tensor_list(io::ArtifactReader& r,
                                     const char* what) {
  const auto raw = r.pod<std::uint64_t>();
  // Each tensor costs at least its u32 rank field.
  const std::size_t count =
      r.bounded_count(raw, sizeof(std::uint32_t), what);
  std::vector<Tensor> tensors;
  tensors.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    tensors.push_back(read_tensor(r));
  }
  return tensors;
}

std::string checkpoint_name(std::int64_t step) {
  return "ckpt-" + std::to_string(step) + ".mpck";
}

// Step parsed from "ckpt-<step>.mpck", or -1 for anything else
// (including temp droppings like "ckpt-7.mpck.tmp").
std::int64_t step_of(const std::string& filename) {
  if (filename.rfind("ckpt-", 0) != 0) return -1;
  const std::size_t dot = filename.find(".mpck");
  if (dot == std::string::npos || dot <= 5 || dot + 5 != filename.size())
    return -1;
  const std::string digits = filename.substr(5, dot - 5);
  std::int64_t step = 0;
  for (char c : digits) {
    if (c < '0' || c > '9') return -1;
    step = step * 10 + (c - '0');
  }
  return step;
}

// Removes all but the `keep` newest checkpoints plus any stale temp
// files a killed writer left behind.
void prune(const std::string& dir, Dim keep) {
  std::vector<std::pair<std::int64_t, std::filesystem::path>> ckpts;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.size() > 4 && name.compare(name.size() - 4, 4, ".tmp") == 0) {
      std::error_code ignored;
      std::filesystem::remove(entry.path(), ignored);
      continue;
    }
    const std::int64_t step = step_of(name);
    if (step >= 0) ckpts.emplace_back(step, entry.path());
  }
  std::sort(ckpts.begin(), ckpts.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  for (std::size_t i = static_cast<std::size_t>(keep); i < ckpts.size();
       ++i) {
    std::error_code ignored;
    std::filesystem::remove(ckpts[i].second, ignored);
  }
}

}  // namespace

void capture_checkpoint(const Net& net, const Sgd& sgd,
                        TrainerCheckpoint* ck) {
  ck->sgd_step_count = sgd.step_count();
  ck->velocity = sgd.velocity();
  ck->second = sgd.second_moment();
  ck->layer_rngs.clear();
  for (const Rng* rng : net_rngs(net)) {
    ck->layer_rngs.push_back(rng->state());
  }
  ck->net_state.clear();
  // layers() of a const Net hands back const unique_ptrs whose pointees
  // stay mutable; state() is only read here.
  for (const auto& layer : net.layers()) {
    for (const Tensor* t : layer->state()) ck->net_state.push_back(*t);
  }
}

void apply_checkpoint(const TrainerCheckpoint& ck, Net& net, Sgd& sgd) {
  const std::vector<Tensor*> state = net_state(net);
  MPCNN_CHECK(ck.net_state.size() == state.size(),
              "checkpoint has " << ck.net_state.size()
                                << " state tensors, net needs "
                                << state.size());
  for (std::size_t i = 0; i < state.size(); ++i) {
    MPCNN_CHECK(ck.net_state[i].shape() == state[i]->shape(),
                "checkpoint state tensor " << i << " is "
                                           << ck.net_state[i].shape().str()
                                           << ", net needs "
                                           << state[i]->shape().str());
    *state[i] = ck.net_state[i];
  }
  const std::vector<Rng*> rngs = net_rngs(net);
  MPCNN_CHECK(ck.layer_rngs.size() == rngs.size(),
              "checkpoint has " << ck.layer_rngs.size()
                                << " layer RNGs, net needs "
                                << rngs.size());
  for (std::size_t i = 0; i < rngs.size(); ++i) {
    rngs[i]->set_state(ck.layer_rngs[i]);
  }
  // Optimiser slots must match the net's parameter list exactly.  A
  // count mismatch would make Sgd::step silently reinitialise the slots
  // to zero (losing bit-identity); a shape mismatch would make the Adam
  // branch index second_[i] past its allocation.  A CRC-valid but
  // crafted checkpoint can reach here, so this is a hard Error, not UB.
  const std::vector<Param*> params = net.params();
  MPCNN_CHECK(ck.velocity.size() == params.size() &&
                  ck.second.size() == params.size(),
              "checkpoint has " << ck.velocity.size() << "/"
                                << ck.second.size()
                                << " optimiser slots, net needs "
                                << params.size());
  for (std::size_t i = 0; i < params.size(); ++i) {
    MPCNN_CHECK(ck.velocity[i].same_shape(params[i]->value) &&
                    ck.second[i].same_shape(params[i]->value),
                "checkpoint optimiser slot " << i << " is "
                                             << ck.velocity[i].shape().str()
                                             << "/"
                                             << ck.second[i].shape().str()
                                             << ", param is "
                                             << params[i]->value.shape().str());
  }
  sgd.restore_slots(ck.sgd_step_count, ck.velocity, ck.second);
  sgd.set_learning_rate(ck.learning_rate);
}

std::string manifest_path(const std::string& dir) {
  return (std::filesystem::path(dir) / "manifest.mpcm").string();
}

void save_checkpoint(const std::string& dir, const TrainerCheckpoint& ck) {
  std::filesystem::create_directories(dir);
  const std::string name = checkpoint_name(ck.global_step);

  io::ArtifactWriter w(kCkptMagic, kVersion);
  w.pod(ck.global_step);
  w.pod(ck.epoch);
  w.pod(ck.next_item);
  w.pod(ck.learning_rate);
  w.pod(ck.loss_sum);
  w.pod(ck.batches);
  w.pod(ck.correct);
  w.pod(ck.seen);
  write_rng_state(w, ck.epoch_rng);
  w.pod(ck.sgd_step_count);
  write_tensor_list(w, ck.velocity);
  write_tensor_list(w, ck.second);
  w.pod(static_cast<std::uint64_t>(ck.layer_rngs.size()));
  for (const Rng::State& s : ck.layer_rngs) write_rng_state(w, s);
  write_tensor_list(w, ck.net_state);
  w.commit((std::filesystem::path(dir) / name).string());

  // The checkpoint is durable; only now repoint the last-good manifest.
  // A crash between the two renames leaves the old manifest naming the
  // old (still present, still valid) checkpoint.
  io::ArtifactWriter m(kManifestMagic, kVersion);
  m.pod(ck.global_step);
  m.pod(static_cast<std::uint32_t>(name.size()));
  m.bytes(name.data(), name.size());
  m.commit(manifest_path(dir));

  prune(dir, kKeepCheckpoints);
}

TrainerCheckpoint load_checkpoint_file(const std::string& path) {
  io::ArtifactReader r(path, kCkptMagic, kVersion);
  TrainerCheckpoint ck;
  ck.global_step = r.pod<std::int64_t>();
  ck.epoch = r.pod<std::int32_t>();
  ck.next_item = r.pod<std::int64_t>();
  ck.learning_rate = r.pod<float>();
  ck.loss_sum = r.pod<double>();
  ck.batches = r.pod<std::int64_t>();
  ck.correct = r.pod<std::int64_t>();
  ck.seen = r.pod<std::int64_t>();
  MPCNN_CHECK(ck.global_step >= 0 && ck.epoch >= 0 && ck.next_item >= 0 &&
                  ck.batches >= 0 && ck.correct >= 0 && ck.seen >= 0,
              path << ": negative progress counter");
  ck.epoch_rng = read_rng_state(r);
  ck.sgd_step_count = r.pod<std::int64_t>();
  ck.velocity = read_tensor_list(r, "velocity slot");
  ck.second = read_tensor_list(r, "second-moment slot");
  MPCNN_CHECK(ck.velocity.size() == ck.second.size(),
              path << ": optimiser slot lists disagree ("
                   << ck.velocity.size() << " vs " << ck.second.size()
                   << ")");
  const auto raw_rngs = r.pod<std::uint64_t>();
  const std::size_t n_rngs = r.bounded_count(
      raw_rngs, 4 * sizeof(std::uint64_t) + sizeof(double) + 1,
      "layer RNG");
  ck.layer_rngs.reserve(n_rngs);
  for (std::size_t i = 0; i < n_rngs; ++i) {
    ck.layer_rngs.push_back(read_rng_state(r));
  }
  ck.net_state = read_tensor_list(r, "net state tensor");
  r.expect_exhausted();
  return ck;
}

std::string read_manifest(const std::string& manifest) {
  io::ArtifactReader r(manifest, kManifestMagic, kVersion);
  const auto step = r.pod<std::int64_t>();
  MPCNN_CHECK(step >= 0, manifest << ": negative step");
  const auto raw_len = r.pod<std::uint32_t>();
  const std::size_t len = r.bounded_count(raw_len, 1, "filename byte");
  std::string name(len, '\0');
  r.bytes(name.data(), len);
  r.expect_exhausted();
  MPCNN_CHECK(!name.empty() && name.find('/') == std::string::npos &&
                  name.find('\\') == std::string::npos,
              manifest << ": manifest names an invalid path '" << name
                       << "'");
  return name;
}

bool load_last_checkpoint(const std::string& dir, TrainerCheckpoint* ck) {
  // Preferred path: the last-good manifest names the newest checkpoint.
  const std::string manifest = manifest_path(dir);
  const bool have_manifest = std::filesystem::exists(manifest);
  if (have_manifest) {
    try {
      const std::string name = read_manifest(manifest);
      *ck = load_checkpoint_file(
          (std::filesystem::path(dir) / name).string());
      return true;
    } catch (const Error&) {
      // The manifest is corrupt, or it names a checkpoint that is
      // missing or fails to parse.  kKeepCheckpoints > 1 keeps an older
      // durable checkpoint around for exactly this case — fall back to
      // the newest one that still loads.
    }
  }
  std::vector<std::pair<std::int64_t, std::filesystem::path>> ckpts;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    const std::int64_t step = step_of(entry.path().filename().string());
    if (step >= 0) ckpts.emplace_back(step, entry.path());
  }
  std::sort(ckpts.begin(), ckpts.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  for (const auto& candidate : ckpts) {
    try {
      *ck = load_checkpoint_file(candidate.second.string());
      return true;
    } catch (const Error&) {
      // Corrupt survivor; try the next-newest.
    }
  }
  // A fresh/empty directory means "nothing to resume".  Checkpoint
  // state that exists but all fails to load is a hard error — silently
  // restarting from scratch would mask the corruption.
  MPCNN_CHECK(!have_manifest && ckpts.empty(),
              dir << ": checkpoint state present but no checkpoint loads"
                     " cleanly");
  return false;
}

bool is_checkpoint_file(const std::string& path) {
  return io::probe_magic(path, kCkptMagic);
}

bool is_manifest_file(const std::string& path) {
  return io::probe_magic(path, kManifestMagic);
}

}  // namespace mpcnn::nn
