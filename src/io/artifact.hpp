// Hardened artifact container shared by every on-disk format.
//
// The deployment story of the paper is a *shipped integer artefact*:
// parameter files are lowered once and then executed forever on the
// device, so a corrupt or torn file must surface as a clean, detected
// error — never undefined behaviour, unbounded allocation or silently
// wrong classifications.  Every mpcnn artifact (trained weights "MPCN",
// compiled networks "MPBN", training checkpoints "MPCK" and their
// manifests "MPCM", scene traces "MPSE", fleet plans "MPFP" and canary
// golden books "MPGB") therefore shares one framed container:
//
//   magic[4]  u32 version  u64 payload_bytes  payload...  u32 crc32
//
// The CRC-32 (IEEE 802.3, reflected — the same digest the fault
// subsystem uses for weight scrubbing) covers magic, version, length and
// payload, so any single bit flip anywhere in the file is detected.  The
// file size must equal header + payload + trailer exactly; truncation
// and trailing garbage are both errors.
//
// Every artifact carries the length field and the CRC.  Each format
// declares the oldest version this build reads; older files — including
// the unframed "MPCN"/"MPBN" version-1 files that predate the frame — are
// rejected with an error naming the version.
//
// Writes are atomic: ArtifactWriter assembles the payload in memory and
// commit() goes write-to-temp → flush → fsync → rename(), so a crash at
// any byte leaves either the previous file or the new one, never a torn
// hybrid.
//
// Readers are bounded: every read is checked against the remaining
// payload, and `bounded_count` rejects hostile count/rank/dim fields
// before anything is allocated, so a 100-byte file can never request a
// multi-gigabyte vector.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "tensor/error.hpp"

namespace mpcnn::io {

using ArtifactMagic = std::array<char, 4>;

/// CRC-32 (IEEE 802.3 polynomial, reflected) over a byte buffer; `seed`
/// chains multi-buffer digests.  core::crc32 delegates here.
std::uint32_t crc32(const void* data, std::size_t bytes,
                    std::uint32_t seed = 0);

/// Accumulates an artifact payload in memory; commit() writes the framed
/// container atomically.  Throws Error on any I/O failure and leaves the
/// destination untouched.
class ArtifactWriter {
 public:
  ArtifactWriter(ArtifactMagic magic, std::uint32_t version);

  void bytes(const void* p, std::size_t n);

  template <class T>
  void pod(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    bytes(&value, sizeof(T));
  }

  std::size_t payload_size() const { return payload_.size(); }

  /// Atomic publish: write `path + ".tmp"`, flush, fsync, rename over
  /// `path`.  A crash mid-commit never clobbers an existing `path`.
  void commit(const std::string& path) const;

 private:
  ArtifactMagic magic_;
  std::uint32_t version_;
  std::vector<unsigned char> payload_;
};

/// Opens and validates a framed artifact, then serves bounded reads from
/// the payload.  The whole file is read into memory up front, so every
/// subsequent allocation decision can be checked against the *actual*
/// number of bytes present.
class ArtifactReader {
 public:
  /// Validates magic, the format's oldest readable version <= version
  /// <= max_version, the declared payload length against the file size,
  /// and the CRC-32 trailer.  Throws Error with a one-line reason on any
  /// mismatch.
  ArtifactReader(const std::string& path, ArtifactMagic magic,
                 std::uint32_t max_version);

  std::uint32_t version() const { return version_; }
  std::size_t remaining() const { return payload_.size() - cursor_; }
  const std::string& path() const { return path_; }

  void bytes(void* p, std::size_t n);

  template <class T>
  T pod() {
    static_assert(std::is_trivially_copyable_v<T>);
    T value{};
    bytes(&value, sizeof(T));
    return value;
  }

  /// Advances the cursor over `n` payload bytes without copying them.
  void skip(std::size_t n);

  /// Validates a count field read from the payload: `n` elements of
  /// `elem_size` bytes each must fit in the remaining payload (so a
  /// hostile count can never drive an allocation beyond the file's own
  /// size).  Returns the count as size_t.
  std::size_t bounded_count(std::uint64_t n, std::size_t elem_size,
                            const char* what);

  /// Requires the cursor to sit exactly at the payload end (no trailing
  /// garbage inside the declared payload).
  void expect_exhausted() const;

 private:
  std::string path_;
  std::uint32_t version_ = 0;
  std::vector<unsigned char> payload_;
  std::size_t cursor_ = 0;
};

/// True if `path` exists and starts with `magic` — the shared probe
/// behind is_net_file / is_compiled_file / is_checkpoint_file.
bool probe_magic(const std::string& path, ArtifactMagic magic);

/// Container-level facts about an artifact, format-agnostic.
struct ArtifactInfo {
  ArtifactMagic magic{};
  std::string format;  ///< human name ("net weights", ...)
  std::uint32_t version = 0;
  bool crc_ok = false;
  std::uint64_t payload_bytes = 0;
  std::uint64_t file_bytes = 0;
};

/// Inspects any known artifact (MPCN/MPBN/MPCK/MPCM/MPSE/MPFP/MPGB)
/// without parsing its payload: magic lookup, version, declared length vs
/// file size, CRC verification.  Throws Error on unknown magic, short
/// files, versions older than the format reads, or length mismatches; a
/// CRC mismatch is reported via `crc_ok = false` so callers can print a
/// diagnosis instead of aborting.
ArtifactInfo inspect(const std::string& path);

}  // namespace mpcnn::io
