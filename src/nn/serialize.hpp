// Binary weight serialisation, on the hardened artifact container.
//
// Format "MPCN" (little-endian), version 2:
//   io frame: magic "MPCN", u32 version, u64 payload length, then the
//   payload below, then a CRC-32 trailer over everything before it
//   (see io/artifact.hpp — saves are atomic temp+rename, loads verify
//   the CRC and bound every allocation by the payload size).
//   payload: u64 tensor count, per tensor: u32 rank, i64 dims...,
//   f32 data...
// Version-1 files (magic + version + the same payload, no length/CRC)
// are still read for backward compatibility.
//
// Loading validates shape-for-shape against the destination net, so a
// file trained for one topology cannot be silently loaded into another.
#pragma once

#include <string>
#include <vector>

#include "io/artifact.hpp"
#include "nn/net.hpp"

namespace mpcnn::nn {

/// Writes all layer state of `net` to `path` atomically.  Throws Error
/// on I/O failure; an existing file at `path` survives any failed save.
void save_net(const Net& net, const std::string& path);

/// Reads layer state from `path` into `net`.  Throws Error on
/// corruption (CRC/truncation) or topology mismatch.
void load_net(Net& net, const std::string& path);

/// True if `path` exists and carries the serialisation magic.
bool is_net_file(const std::string& path);

/// Structural facts about a weight file, parsed without a target net
/// (used by `mpcnn_cli verify`).  Throws Error on corruption.
struct NetFileSummary {
  std::uint32_t version = 0;
  std::vector<Shape> shapes;
};
NetFileSummary summarize_net_file(const std::string& path);

/// Shared tensor payload grammar (u32 rank, i64 dims..., f32 data...),
/// reused by the checkpoint format (nn/checkpoint.cpp).
void write_tensor(io::ArtifactWriter& writer, const Tensor& tensor);
/// Reads a tensor's shape header with hostile-field bounds: rank <= 8,
/// positive dims, element data guaranteed to fit the remaining payload.
Shape read_tensor_shape(io::ArtifactReader& reader);
/// Reads a full tensor (shape header + data), allocation bounded.
Tensor read_tensor(io::ArtifactReader& reader);

}  // namespace mpcnn::nn
