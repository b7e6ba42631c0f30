// Test helpers that put raw bytes on a SimDisk through its deferred-write
// API (src/storage/sim_disk.h), for tests that cut, damage or hand-build
// files byte by byte.
#ifndef TESTS_DISK_TEST_UTIL_H_
#define TESTS_DISK_TEST_UTIL_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/common/buffer.h"
#include "src/storage/sim_disk.h"

namespace hovercraft {

// A deferred record that owns its bytes.
struct BytesRecord {
  std::vector<uint8_t> bytes;
  size_t size() const { return bytes.size(); }
  void operator()(BufferWriter* w) const { w->PutBytes(bytes); }
};

// Appends `bytes` to `file` (created if missing) as one deferred record.
inline void AppendBytes(SimDisk* disk, const std::string& file, std::vector<uint8_t> bytes) {
  const size_t len = bytes.size();
  disk->AppendDeferred(disk->Open(file), len, BytesRecord{std::move(bytes)});
}

// Replaces `file` with exactly `bytes`, durable at once.
inline void ReplaceWithBytes(SimDisk* disk, const std::string& file, std::vector<uint8_t> bytes) {
  disk->Replace(disk->Open(file), [&bytes]() { return BytesRecord{std::move(bytes)}; });
}

}  // namespace hovercraft

#endif  // TESTS_DISK_TEST_UTIL_H_
