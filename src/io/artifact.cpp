#include "io/artifact.hpp"

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <unistd.h>
#define MPCNN_HAVE_FSYNC 1
#endif

namespace mpcnn::io {
namespace {

// Frame geometry: magic[4] + u32 version + u64 payload length, then the
// payload, then the u32 CRC trailer.
constexpr std::size_t kHeaderBytes = 4 + 4 + 8;
constexpr std::size_t kTrailerBytes = 4;

const std::array<std::uint32_t, 256>& crc_table() {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  return table;
}

std::string magic_str(ArtifactMagic magic) {
  return std::string(magic.data(), magic.size());
}

// Makes a completed rename durable: a rename only becomes crash-safe
// once the directory entry itself reaches stable storage.  Best-effort
// (some filesystems reject directory fsync) — the rename is still
// atomic either way, only its ordering against later writes depends on
// this.
void fsync_dir_of(const std::string& path) {
#ifdef MPCNN_HAVE_FSYNC
  const std::filesystem::path parent =
      std::filesystem::path(path).parent_path();
  const std::string dir = parent.empty() ? "." : parent.string();
  const int fd = ::open(dir.c_str(), O_RDONLY);
  if (fd >= 0) {
    ::fsync(fd);
    ::close(fd);
  }
#else
  (void)path;
#endif
}

// The artifact registry: every known format with the oldest version this
// build reads.  MPCN/MPBN v1 predate the frame (no length, no CRC) and
// are rejected like any other unsupported version.
struct KnownFormat {
  ArtifactMagic magic;
  const char* name;
  std::uint32_t oldest_version;
};

constexpr KnownFormat kKnownFormats[] = {
    {{'M', 'P', 'C', 'N'}, "net weights", 2},
    {{'M', 'P', 'B', 'N'}, "compiled BNN", 2},
    {{'M', 'P', 'C', 'K'}, "training checkpoint", 1},
    {{'M', 'P', 'C', 'M'}, "checkpoint manifest", 1},
    {{'M', 'P', 'S', 'E'}, "scene trace", 1},
    {{'M', 'P', 'F', 'P'}, "fleet plan", 1},
    {{'M', 'P', 'G', 'B'}, "canary golden book", 1},
};

const KnownFormat* find_format(ArtifactMagic magic) {
  for (const KnownFormat& f : kKnownFormats) {
    if (f.magic == magic) return &f;
  }
  return nullptr;
}

std::vector<unsigned char> read_whole_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary | std::ios::ate);
  MPCNN_CHECK(is.is_open(), "cannot open " << path);
  const std::streamoff size = is.tellg();
  MPCNN_CHECK(size >= 0, "cannot stat " << path);
  std::vector<unsigned char> bytes(static_cast<std::size_t>(size));
  is.seekg(0);
  if (!bytes.empty()) {
    is.read(reinterpret_cast<char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
    MPCNN_CHECK(is.good(), "read failure on " << path);
  }
  return bytes;
}

template <class T>
T load_pod(const unsigned char* p) {
  T value{};
  std::memcpy(&value, p, sizeof(T));
  return value;
}

// Shared frame parse for ArtifactReader and inspect(): validates magic,
// the format's oldest readable version and the declared length against
// the actual size.  Both CRCs are returned; callers decide what a
// mismatch means.
struct ParsedFrame {
  const KnownFormat* format = nullptr;
  std::uint32_t version = 0;
  std::size_t payload_bytes = 0;
  std::uint32_t stored_crc = 0;
  std::uint32_t computed_crc = 0;
};

ParsedFrame parse_frame(const std::vector<unsigned char>& file,
                        const std::string& path, ArtifactMagic magic) {
  MPCNN_CHECK(file.size() >= 4 + 4,  // magic + version
              path << ": too short to be an artifact (" << file.size()
                   << " bytes)");
  MPCNN_CHECK(std::memcmp(file.data(), magic.data(), magic.size()) == 0,
              "bad magic in " << path << " (want " << magic_str(magic)
                              << ")");
  ParsedFrame frame;
  frame.format = find_format(magic);
  MPCNN_CHECK(frame.format != nullptr,
              path << ": unknown artifact magic '" << magic_str(magic)
                   << "'");
  frame.version = load_pod<std::uint32_t>(file.data() + 4);
  MPCNN_CHECK(frame.version >= frame.format->oldest_version,
              path << ": unsupported " << magic_str(magic) << " version "
                   << frame.version << " (oldest readable is "
                   << frame.format->oldest_version << ")");
  MPCNN_CHECK(file.size() >= kHeaderBytes + kTrailerBytes,
              path << ": truncated header (" << file.size() << " bytes)");
  const auto declared = load_pod<std::uint64_t>(file.data() + 8);
  const std::uint64_t expected_size =
      kHeaderBytes + declared + kTrailerBytes;
  MPCNN_CHECK(
      declared <= file.size() && expected_size == file.size(),
      path << ": declared payload " << declared << " bytes but file holds "
           << file.size() << " (want " << expected_size << ")");
  frame.payload_bytes = static_cast<std::size_t>(declared);
  frame.stored_crc =
      load_pod<std::uint32_t>(file.data() + file.size() - kTrailerBytes);
  frame.computed_crc = crc32(file.data(), file.size() - kTrailerBytes);
  return frame;
}

}  // namespace

std::uint32_t crc32(const void* data, std::size_t bytes,
                    std::uint32_t seed) {
  const auto* p = static_cast<const unsigned char*>(data);
  const auto& table = crc_table();
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (std::size_t i = 0; i < bytes; ++i) {
    c = table[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

ArtifactWriter::ArtifactWriter(ArtifactMagic magic, std::uint32_t version)
    : magic_(magic), version_(version) {}

void ArtifactWriter::bytes(const void* p, std::size_t n) {
  const auto* b = static_cast<const unsigned char*>(p);
  payload_.insert(payload_.end(), b, b + n);
}

void ArtifactWriter::commit(const std::string& path) const {
  const std::string tmp = path + ".tmp";
  {
    std::FILE* f = std::fopen(tmp.c_str(), "wb");
    MPCNN_CHECK(f != nullptr, "cannot open " << tmp << " for writing");
    const std::uint64_t length = payload_.size();
    std::uint32_t crc = crc32(magic_.data(), magic_.size());
    crc = crc32(&version_, sizeof(version_), crc);
    crc = crc32(&length, sizeof(length), crc);
    crc = crc32(payload_.data(), payload_.size(), crc);
    bool ok = std::fwrite(magic_.data(), 1, magic_.size(), f) ==
              magic_.size();
    ok = ok && std::fwrite(&version_, sizeof(version_), 1, f) == 1;
    ok = ok && std::fwrite(&length, sizeof(length), 1, f) == 1;
    ok = ok && (payload_.empty() ||
                std::fwrite(payload_.data(), 1, payload_.size(), f) ==
                    payload_.size());
    ok = ok && std::fwrite(&crc, sizeof(crc), 1, f) == 1;
    ok = ok && std::fflush(f) == 0;
#ifdef MPCNN_HAVE_FSYNC
    // Push the bytes to stable storage before the rename publishes them;
    // otherwise a power cut can leave a fully-renamed but empty file.
    ok = ok && fsync(fileno(f)) == 0;
#endif
    ok = (std::fclose(f) == 0) && ok;
    if (!ok) {
      std::error_code ignored;
      std::filesystem::remove(tmp, ignored);
      MPCNN_CHECK(false, "write failure on " << tmp);
    }
  }
  // Atomic publish: POSIX rename within a directory replaces the target
  // in one step, so `path` is always either the old file or the new one.
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::error_code ignored;
    std::filesystem::remove(tmp, ignored);
    MPCNN_CHECK(false, "rename " << tmp << " -> " << path << ": "
                                 << ec.message());
  }
  // Persist the directory entry too, so the rename — and any
  // write-ordering callers rely on across successive commits (e.g.
  // checkpoint before manifest) — survives a power cut.
  fsync_dir_of(path);
}

ArtifactReader::ArtifactReader(const std::string& path, ArtifactMagic magic,
                               std::uint32_t max_version)
    : path_(path) {
  const std::vector<unsigned char> file = read_whole_file(path);
  const ParsedFrame frame = parse_frame(file, path, magic);
  MPCNN_CHECK(frame.version <= max_version,
              path << ": unsupported " << magic_str(magic) << " version "
                   << frame.version << " (this build reads <= "
                   << max_version << ")");
  MPCNN_CHECK(frame.stored_crc == frame.computed_crc,
              path << ": CRC mismatch (stored " << std::hex
                   << frame.stored_crc << ", computed " << frame.computed_crc
                   << std::dec << ") — file is corrupt");
  version_ = frame.version;
  const auto payload = file.begin() + kHeaderBytes;
  payload_.assign(payload,
                  payload + static_cast<std::ptrdiff_t>(frame.payload_bytes));
}

void ArtifactReader::bytes(void* p, std::size_t n) {
  MPCNN_CHECK(n <= remaining(), path_ << ": truncated payload (need " << n
                                      << " bytes, " << remaining()
                                      << " left)");
  std::memcpy(p, payload_.data() + cursor_, n);
  cursor_ += n;
}

void ArtifactReader::skip(std::size_t n) {
  MPCNN_CHECK(n <= remaining(), path_ << ": truncated payload (need " << n
                                      << " bytes, " << remaining()
                                      << " left)");
  cursor_ += n;
}

std::size_t ArtifactReader::bounded_count(std::uint64_t n,
                                          std::size_t elem_size,
                                          const char* what) {
  // Bound by the bytes actually present: a count whose minimal encoding
  // exceeds the remaining payload is hostile or corrupt either way, and
  // rejecting it here means no allocation is ever sized off a bad field.
  MPCNN_CHECK(elem_size == 0 || n <= remaining() / elem_size,
              path_ << ": " << what << " count " << n
                    << " cannot fit in the remaining " << remaining()
                    << " payload bytes");
  return static_cast<std::size_t>(n);
}

void ArtifactReader::expect_exhausted() const {
  MPCNN_CHECK(cursor_ == payload_.size(),
              path_ << ": " << payload_.size() - cursor_
                    << " trailing bytes after the payload");
}

bool probe_magic(const std::string& path, ArtifactMagic magic) {
  std::ifstream is(path, std::ios::binary);
  if (!is.is_open()) return false;
  char got[4];
  is.read(got, sizeof(got));
  return is.good() && std::memcmp(got, magic.data(), magic.size()) == 0;
}

ArtifactInfo inspect(const std::string& path) {
  const std::vector<unsigned char> file = read_whole_file(path);
  MPCNN_CHECK(file.size() >= 4, path << ": too short to carry a magic ("
                                     << file.size() << " bytes)");
  ArtifactMagic magic;
  std::memcpy(magic.data(), file.data(), magic.size());
  const ParsedFrame frame = parse_frame(file, path, magic);
  ArtifactInfo info;
  info.magic = magic;
  info.format = frame.format->name;
  info.version = frame.version;
  info.crc_ok = frame.stored_crc == frame.computed_crc;
  info.payload_bytes = frame.payload_bytes;
  info.file_bytes = file.size();
  return info;
}

}  // namespace mpcnn::io
