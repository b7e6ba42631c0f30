// Byte codec between LogEntry and the opaque WAL entry payload the storage
// layer persists (src/storage/stable_storage.h). Term and replier live in the
// record envelope, not here; everything else a restarted node needs to
// reconstruct the entry — rid, flags, body hash, ack watermark, the request
// payload itself, and any membership config — is encoded by this codec.
#ifndef SRC_RAFT_WAL_CODEC_H_
#define SRC_RAFT_WAL_CODEC_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "src/common/buffer.h"
#include "src/raft/log.h"
#include "src/raft/membership.h"

namespace hovercraft {

// Appends everything of `entry` except term and replier to `w`.
void EncodeWalEntry(const LogEntry& entry, BufferWriter* w);
// The same bytes as a fresh buffer, for callers off the append path.
std::vector<uint8_t> EncodeWalEntry(const LogEntry& entry);
// The exact number of bytes EncodeWalEntry writes for `entry`.
size_t WalEntrySize(const LogEntry& entry);

// EncodeWalEntry, deferred: holds by value the immutable parts of an entry
// its payload encodes (the request and config by pointer, never the body
// bytes; the fields are named as in LogEntry) and writes the same bytes when
// called. The WAL append path hands one to the storage layer, which runs it
// only if the record is ever observed.
struct WalEntryEncoder {
  explicit WalEntryEncoder(const LogEntry& entry);
  void operator()(BufferWriter* w) const;

  RequestId rid;
  uint64_t body_hash;
  uint64_t ack_watermark;
  std::shared_ptr<const RpcRequest> request;
  MembershipConfigPtr config;
  bool noop;
  bool read_only;
};

// Inverse of EncodeWalEntry; leaves out->term and out->replier untouched.
// Returns false on a malformed payload (recovery treats that like a CRC
// failure at a higher layer — it should not happen for CRC-valid records).
bool DecodeWalEntry(std::span<const uint8_t> bytes, LogEntry* out);

// Membership config codec, shared with the server snapshot blob.
void EncodeConfig(const MembershipConfig& config, BufferWriter* w);
inline size_t EncodedConfigSize(const MembershipConfig& config) {
  return 4 + 8 * config.voters.size() + 4 + 8 * config.learners.size();
}
MembershipConfigPtr DecodeConfig(BufferReader* r);  // null on malformed input

}  // namespace hovercraft

#endif  // SRC_RAFT_WAL_CODEC_H_
