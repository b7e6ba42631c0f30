// Byte-buffer writer/reader pair used by the wire codecs (R2P2 headers, Raft
// messages, kvstore commands). Little-endian fixed-width encoding with
// explicit bounds checks on the read side.
#ifndef SRC_COMMON_BUFFER_H_
#define SRC_COMMON_BUFFER_H_

#include <cstdint>
#include <cstring>
#include <limits>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/status.h"

namespace hovercraft {

class BufferWriter {
 public:
  BufferWriter() = default;
  explicit BufferWriter(size_t reserve) { bytes_.reserve(reserve); }
  // Writes into `storage`'s allocation from the start: its contents are
  // discarded, its capacity is kept and grown to `reserve`.
  BufferWriter(std::vector<uint8_t> storage, size_t reserve) : bytes_(std::move(storage)) {
    bytes_.clear();
    bytes_.reserve(reserve);
  }
  // Writes after `storage`'s existing contents, growing its capacity to
  // `reserve` bytes in total.
  static BufferWriter Extending(std::vector<uint8_t> storage, size_t reserve) {
    BufferWriter w;
    w.bytes_ = std::move(storage);
    w.bytes_.reserve(reserve);
    return w;
  }

  void PutU8(uint8_t v) {
    bytes_.push_back(v);
    Progress();
  }
  void PutU16(uint16_t v) { PutLittleEndian(v); }
  void PutU32(uint32_t v) { PutLittleEndian(v); }
  void PutU64(uint64_t v) { PutLittleEndian(v); }
  void PutI64(int64_t v) { PutLittleEndian(static_cast<uint64_t>(v)); }

  void PutBytes(std::span<const uint8_t> data) {
    bytes_.insert(bytes_.end(), data.begin(), data.end());
    Progress();
  }

  // Length-prefixed (u32) string.
  void PutString(std::string_view s) {
    PutU32(static_cast<uint32_t>(s.size()));
    const auto* p = reinterpret_cast<const uint8_t*>(s.data());
    bytes_.insert(bytes_.end(), p, p + s.size());
    Progress();
  }

  // Optional progress hook: after a Put* leaves size() at or past `at`,
  // `fn(ctx, *this)` runs and returns the next threshold. The snapshot
  // writer installs one to checksum the image while it is still in cache;
  // every other writer pays one compare per Put*.
  using ProgressFn = size_t (*)(void* ctx, const BufferWriter& w);
  void SetProgressHook(size_t at, ProgressFn fn, void* ctx) {
    hook_at_ = at;
    hook_ = fn;
    hook_ctx_ = ctx;
  }
  void ClearProgressHook() { SetProgressHook(kNoHook, nullptr, nullptr); }

  // Overwrites bytes already written at `pos` (length/checksum fields that
  // are only known once the rest of a record is in place).
  void PatchU32(size_t pos, uint32_t v) { PatchLittleEndian(pos, v); }
  void PatchU64(size_t pos, uint64_t v) { PatchLittleEndian(pos, v); }

  size_t size() const { return bytes_.size(); }
  const std::vector<uint8_t>& bytes() const { return bytes_; }
  std::vector<uint8_t> TakeBytes() { return std::move(bytes_); }

 private:
  static constexpr size_t kNoHook = std::numeric_limits<size_t>::max();

  void Progress() {
    if (bytes_.size() >= hook_at_) [[unlikely]] {
      hook_at_ = hook_(hook_ctx_, *this);
    }
  }

  template <typename T>
  void PutLittleEndian(T v) {
    for (size_t i = 0; i < sizeof(T); ++i) {
      bytes_.push_back(static_cast<uint8_t>(v >> (8 * i)));
    }
    Progress();
  }

  template <typename T>
  void PatchLittleEndian(size_t pos, T v) {
    for (size_t i = 0; i < sizeof(T); ++i) {
      bytes_[pos + i] = static_cast<uint8_t>(v >> (8 * i));
    }
  }

  std::vector<uint8_t> bytes_;
  size_t hook_at_ = kNoHook;
  ProgressFn hook_ = nullptr;
  void* hook_ctx_ = nullptr;
};

class BufferReader {
 public:
  explicit BufferReader(std::span<const uint8_t> data) : data_(data) {}

  Status GetU8(uint8_t& out) { return GetLittleEndian(out); }
  Status GetU16(uint16_t& out) { return GetLittleEndian(out); }
  Status GetU32(uint32_t& out) { return GetLittleEndian(out); }
  Status GetU64(uint64_t& out) { return GetLittleEndian(out); }
  Status GetI64(int64_t& out) {
    uint64_t raw = 0;
    Status s = GetLittleEndian(raw);
    out = static_cast<int64_t>(raw);
    return s;
  }

  Status GetBytes(size_t count, std::vector<uint8_t>& out) {
    if (remaining() < count) {
      return OutOfRangeError("buffer underrun");
    }
    out.assign(data_.begin() + static_cast<ptrdiff_t>(pos_),
               data_.begin() + static_cast<ptrdiff_t>(pos_ + count));
    pos_ += count;
    return Status::Ok();
  }

  Status GetString(std::string& out) {
    uint32_t len = 0;
    if (Status s = GetU32(len); !s.ok()) {
      return s;
    }
    if (remaining() < len) {
      return OutOfRangeError("string length exceeds buffer");
    }
    out.assign(reinterpret_cast<const char*>(data_.data() + pos_), len);
    pos_ += len;
    return Status::Ok();
  }

  size_t remaining() const { return data_.size() - pos_; }
  size_t position() const { return pos_; }
  bool AtEnd() const { return pos_ == data_.size(); }

 private:
  template <typename T>
  Status GetLittleEndian(T& out) {
    if (remaining() < sizeof(T)) {
      return OutOfRangeError("buffer underrun");
    }
    T v = 0;
    for (size_t i = 0; i < sizeof(T); ++i) {
      v |= static_cast<T>(data_[pos_ + i]) << (8 * i);
    }
    pos_ += sizeof(T);
    out = v;
    return Status::Ok();
  }

  std::span<const uint8_t> data_;
  size_t pos_ = 0;
};

// FNV-1a 64-bit hash, one byte per multiply. Used for request-body hashes
// (paper section 5, HashRequestBody), the CRC of every WAL record
// (StableStorage) and the kvstore and lock-service state digests. The
// snapshot file, which is megabytes per write, uses the word-parallel
// SnapshotChecksum instead (src/storage/stable_storage.h).
inline uint64_t Fnv1aHash(std::span<const uint8_t> data, uint64_t seed = 0xCBF29CE484222325ull) {
  uint64_t h = seed;
  for (uint8_t b : data) {
    h ^= b;
    h *= 0x100000001B3ull;
  }
  return h;
}

inline uint64_t Fnv1aHash(std::string_view s, uint64_t seed = 0xCBF29CE484222325ull) {
  return Fnv1aHash(std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(s.data()), s.size()),
                   seed);
}

}  // namespace hovercraft

#endif  // SRC_COMMON_BUFFER_H_
