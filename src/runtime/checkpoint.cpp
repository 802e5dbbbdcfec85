#include "runtime/checkpoint.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <unordered_set>

#include "common/frame.h"

namespace freerider::runtime {

std::uint64_t CampaignId(std::string_view name, std::uint64_t seed) {
  // FNV-1a over the name, avalanched together with the seed via the
  // same SplitMix64 finalizer the Rng uses (re-implemented here so the
  // runtime layer does not pull in common/rng.h).
  std::uint64_t h = 0xCBF29CE484222325ull;
  for (char c : name) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001B3ull;
  }
  auto mix = [](std::uint64_t z) {
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  };
  return mix(h ^ mix(seed + 0x9E3779B97F4A7C15ull));
}

std::string EncodeCheckpoint(const CheckpointHeader& header,
                             const std::vector<TaskRecord>& records) {
  std::string out;
  std::string payload;
  AppendU32(payload, kCheckpointMagic);
  AppendU32(payload, header.version);
  AppendU64(payload, header.campaign);
  AppendU64(payload, header.points);
  AppendU64(payload, header.trials);
  AppendFrame(out, payload);
  for (const TaskRecord& r : records) {
    payload.clear();
    AppendU64(payload, r.index);
    payload += static_cast<char>(r.state);
    payload += r.payload;
    AppendFrame(out, payload);
  }
  return out;
}

CheckpointDecodeResult DecodeCheckpoint(std::string_view bytes) {
  CheckpointDecodeResult result;
  const ParsedFrame head = ParseFrame(bytes);
  if (head.status != FrameStatus::kFrame) {
    result.error = "missing or corrupt header frame";
    result.dropped_bytes = bytes.size();
    return result;
  }
  ByteReader h(head.payload);
  std::uint32_t magic = 0;
  if (head.payload.size() != 32 || !h.ReadU32(magic) ||
      magic != kCheckpointMagic) {
    result.error = "not a checkpoint (bad magic)";
    result.dropped_bytes = bytes.size();
    return result;
  }
  h.ReadU32(result.header.version);
  h.ReadU64(result.header.campaign);
  h.ReadU64(result.header.points);
  h.ReadU64(result.header.trials);
  if (result.header.version != kCheckpointVersion) {
    result.error = "unsupported checkpoint version";
    result.dropped_bytes = bytes.size();
    return result;
  }
  // Grid bounds: keep points*trials well inside u64 so the index
  // range check below cannot be defeated by overflow.
  if (result.header.points > (1ull << 24) ||
      result.header.trials > (1ull << 24)) {
    result.error = "implausible grid shape";
    result.dropped_bytes = bytes.size();
    return result;
  }
  result.ok = true;
  const std::uint64_t grid_tasks = result.header.points * result.header.trials;

  std::unordered_set<std::uint64_t> seen;
  std::size_t pos = head.size;
  while (pos < bytes.size()) {
    // A torn tail, a corrupt frame, or a CRC-valid frame whose fields
    // are impossible for this grid all end the valid prefix: stop the
    // salvage there rather than guess.
    const ParsedFrame frame = ParseFrame(bytes.substr(pos));
    ByteReader r(frame.payload);
    TaskRecord record;
    std::uint8_t state = 0;
    if (frame.status != FrameStatus::kFrame || !r.ReadU64(record.index) ||
        !r.ReadU8(state) || record.index >= grid_tasks ||
        (state != static_cast<std::uint8_t>(TaskState::kDone) &&
         state != static_cast<std::uint8_t>(TaskState::kQuarantined))) {
      result.salvaged = true;
      result.dropped_bytes = bytes.size() - pos;
      return result;
    }
    pos += frame.size;
    record.state = static_cast<TaskState>(state);
    if (!seen.insert(record.index).second) {
      ++result.duplicates;  // first occurrence wins
      continue;
    }
    record.payload = frame.payload.substr(9);
    result.records.push_back(std::move(record));
    ++result.frames_kept;
  }
  return result;
}

bool WriteFileAtomic(const std::string& path, std::string_view bytes,
                     std::string* error) {
  const std::string tmp = path + ".tmp";
  auto fail = [&](const char* what) {
    if (error != nullptr) {
      *error = std::string(what) + " " + tmp + ": " + std::strerror(errno);
    }
    return false;
  };
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return fail("open");
  std::size_t written = 0;
  while (written < bytes.size()) {
    const ssize_t n =
        ::write(fd, bytes.data() + written, bytes.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      ::unlink(tmp.c_str());
      return fail("write");
    }
    written += static_cast<std::size_t>(n);
  }
  if (::fsync(fd) != 0) {
    ::close(fd);
    ::unlink(tmp.c_str());
    return fail("fsync");
  }
  if (::close(fd) != 0) {
    ::unlink(tmp.c_str());
    return fail("close");
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    return fail("rename");
  }
  return true;
}

bool ReadFileBytes(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  out->assign(std::istreambuf_iterator<char>(in),
              std::istreambuf_iterator<char>());
  return in.good() || in.eof();
}

// -------------------------------------------------- payload helpers

bool PayloadWriter::U64(std::uint64_t v) {
  out_ += std::to_string(v);
  out_ += ' ';
  return true;
}

bool PayloadWriter::F64(double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%a ", v);
  out_ += buf;
  return true;
}

bool PayloadWriter::Str(std::string_view s) {
  out_ += std::to_string(s.size());
  out_ += ':';
  out_.append(s.data(), s.size());
  out_ += ' ';
  return true;
}

bool PayloadReader::U64(std::uint64_t& v) {
  const std::size_t space = data_.find(' ', pos_);
  if (space == std::string_view::npos || space == pos_) return false;
  const std::string token(data_.substr(pos_, space - pos_));
  char* end = nullptr;
  errno = 0;
  const unsigned long long parsed = std::strtoull(token.c_str(), &end, 10);
  if (errno != 0 || end != token.c_str() + token.size()) return false;
  v = parsed;
  pos_ = space + 1;
  return true;
}

bool PayloadReader::Size(std::size_t& v) {
  std::uint64_t u = 0;
  if (!U64(u)) return false;
  v = static_cast<std::size_t>(u);
  return true;
}

bool PayloadReader::Bool(bool& v) {
  std::uint64_t u = 0;
  if (!U64(u) || u > 1) return false;
  v = u == 1;
  return true;
}

bool PayloadReader::U8(std::uint8_t& v) {
  std::uint64_t u = 0;
  if (!U64(u) || u > 255) return false;
  v = static_cast<std::uint8_t>(u);
  return true;
}

bool PayloadReader::Version(std::uint64_t version) {
  std::uint64_t u = 0;
  return U64(u) && u == version;
}

bool PayloadReader::F64(double& v) {
  const std::size_t space = data_.find(' ', pos_);
  if (space == std::string_view::npos || space == pos_) return false;
  const std::string token(data_.substr(pos_, space - pos_));
  char* end = nullptr;
  const double parsed = std::strtod(token.c_str(), &end);
  if (end != token.c_str() + token.size()) return false;
  v = parsed;
  pos_ = space + 1;
  return true;
}

bool PayloadReader::Str(std::string& s) {
  const std::size_t colon = data_.find(':', pos_);
  if (colon == std::string_view::npos || colon == pos_) return false;
  const std::string len_token(data_.substr(pos_, colon - pos_));
  char* end = nullptr;
  errno = 0;
  const unsigned long long len = std::strtoull(len_token.c_str(), &end, 10);
  if (errno != 0 || end != len_token.c_str() + len_token.size()) return false;
  // len + 1 (the bytes and the trailing space) must fit; comparing
  // without adding keeps a length token near 2^64 from wrapping.
  if (len >= data_.size() - colon - 1) return false;
  if (data_[colon + 1 + len] != ' ') return false;
  s.assign(data_.data() + colon + 1, len);
  pos_ = colon + 1 + static_cast<std::size_t>(len) + 1;
  return true;
}

}  // namespace freerider::runtime
