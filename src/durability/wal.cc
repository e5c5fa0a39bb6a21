#include "durability/wal.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include "base/logging.h"

namespace wdl {

namespace {

// A single frame never legitimately approaches this; a length field
// past it is corruption (or a file that is not a WAL at all), and
// treating it as a torn tail keeps recovery from attempting a
// gigabyte-sized allocation on a flipped bit.
constexpr uint64_t kMaxFrameBytes = 1ull << 30;

std::string ErrnoMessage(const char* op, const std::string& path) {
  return std::string(op) + " " + path + ": " + std::strerror(errno);
}

uint32_t ReadU32(const char* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return v;  // files are read on the machine that wrote them
}

void PutU32(std::string* out, uint32_t v) {
  char b[4];
  std::memcpy(b, &v, 4);
  out->append(b, 4);
}

}  // namespace

const char* FsyncPolicyToString(FsyncPolicy policy) {
  switch (policy) {
    case FsyncPolicy::kNever:
      return "never";
    case FsyncPolicy::kBatch:
      return "batch";
    case FsyncPolicy::kAlways:
      return "always";
  }
  return "unknown";
}

Result<FsyncPolicy> ParseFsyncPolicy(std::string_view text) {
  if (text == "never") return FsyncPolicy::kNever;
  if (text == "batch") return FsyncPolicy::kBatch;
  if (text == "always") return FsyncPolicy::kAlways;
  return Status::InvalidArgument("unknown fsync policy '" +
                                 std::string(text) +
                                 "' (expected never|batch|always)");
}

uint32_t Crc32(std::string_view data) {
  // Slicing-by-8: table k advances a byte's contribution by k more
  // bytes, so eight input bytes fold in with eight independent lookups
  // (the byte-at-a-time loop cost 3 ns a byte, on every WAL record).
  static const auto kTables = [] {
    std::array<std::array<uint32_t, 256>, 8> t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[0][i] = c;
    }
    for (uint32_t i = 0; i < 256; ++i) {
      for (size_t k = 1; k < 8; ++k) {
        t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
      }
    }
    return t;
  }();
  const auto& t = kTables;
  const auto* p = reinterpret_cast<const unsigned char*>(data.data());
  size_t n = data.size();
  uint32_t crc = 0xFFFFFFFFu;
  for (; n >= 8; p += 8, n -= 8) {
    const uint32_t lo = crc ^ (p[0] | p[1] << 8 | p[2] << 16 |
                               static_cast<uint32_t>(p[3]) << 24);
    const uint32_t hi =
        p[4] | p[5] << 8 | p[6] << 16 | static_cast<uint32_t>(p[7]) << 24;
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
          t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
          t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; n > 0; --n, ++p) crc = t[0][(crc ^ *p) & 0xFFu] ^ (crc >> 8);
  return crc ^ 0xFFFFFFFFu;
}

Result<std::unique_ptr<WalWriter>> WalWriter::Open(const std::string& path) {
  int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd < 0) {
    return Status::Unavailable(ErrnoMessage("open", path));
  }
  return std::unique_ptr<WalWriter>(new WalWriter(path, fd));
}

WalWriter::~WalWriter() {
  if (fd_ >= 0) ::close(fd_);
}

Status WalWriter::Append(std::string_view payload) {
  std::string frame;
  frame.reserve(8 + payload.size());
  PutU32(&frame, static_cast<uint32_t>(payload.size()));
  PutU32(&frame, Crc32(payload));
  frame.append(payload.data(), payload.size());
  size_t off = 0;
  while (off < frame.size()) {
    ssize_t n = ::write(fd_, frame.data() + off, frame.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Unavailable(ErrnoMessage("write", path_));
    }
    off += static_cast<size_t>(n);
  }
  ++records_;
  bytes_ += frame.size();
  return Status::OK();
}

Status WalWriter::Sync() {
  if (::fsync(fd_) != 0) {
    return Status::Unavailable(ErrnoMessage("fsync", path_));
  }
  return Status::OK();
}

Result<WalReadResult> ReadWalFile(const std::string& path) {
  WalReadResult out;
  Result<std::string> bytes = ReadEntireFile(path);
  if (!bytes.ok()) {
    if (bytes.status().code() == StatusCode::kNotFound) return out;
    return bytes.status();
  }
  const std::string& data = *bytes;
  uint64_t pos = 0;
  while (pos + 8 <= data.size()) {
    uint64_t len = ReadU32(data.data() + pos);
    uint32_t crc = ReadU32(data.data() + pos + 4);
    if (len > kMaxFrameBytes || pos + 8 + len > data.size()) break;
    std::string_view payload(data.data() + pos + 8, len);
    if (Crc32(payload) != crc) break;
    out.offsets.push_back(pos);
    out.payloads.emplace_back(payload);
    pos += 8 + len;
  }
  out.valid_bytes = pos;
  if (pos < data.size()) {
    out.torn_tail = true;
    out.dropped_bytes = data.size() - pos;
  }
  return out;
}

Status TruncateFile(const std::string& path, uint64_t length) {
  if (::truncate(path.c_str(), static_cast<off_t>(length)) != 0) {
    return Status::Unavailable(ErrnoMessage("truncate", path));
  }
  return Status::OK();
}

Result<std::string> ReadEntireFile(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    if (errno == ENOENT) {
      return Status::NotFound("no such file: " + path);
    }
    return Status::Unavailable(ErrnoMessage("open", path));
  }
  std::string out;
  char buf[1 << 16];
  for (;;) {
    ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) continue;
      Status st = Status::Unavailable(ErrnoMessage("read", path));
      ::close(fd);
      return st;
    }
    if (n == 0) break;
    out.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return out;
}

Status SyncDir(const std::string& dir) {
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) {
    return Status::Unavailable(ErrnoMessage("open dir", dir));
  }
  int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) {
    return Status::Unavailable(ErrnoMessage("fsync dir", dir));
  }
  return Status::OK();
}

Status AtomicWriteFile(const std::string& path, std::string_view bytes) {
  const std::string tmp = path + ".tmp";
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::Unavailable(ErrnoMessage("open", tmp));
  }
  size_t off = 0;
  while (off < bytes.size()) {
    ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      Status st = Status::Unavailable(ErrnoMessage("write", tmp));
      ::close(fd);
      return st;
    }
    off += static_cast<size_t>(n);
  }
  if (::fsync(fd) != 0) {
    Status st = Status::Unavailable(ErrnoMessage("fsync", tmp));
    ::close(fd);
    return st;
  }
  ::close(fd);
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    return Status::Unavailable(ErrnoMessage("rename", path));
  }
  size_t slash = path.find_last_of('/');
  return SyncDir(slash == std::string::npos ? "." : path.substr(0, slash));
}

}  // namespace wdl
