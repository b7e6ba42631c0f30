// Replicated client-session table (Raft dissertation section 8 / 6.3): the
// server-side half of exactly-once RPC. For every client the table tracks
//   - the ack watermark: the highest sequence number such that the client has
//     observed replies for ALL sequences at or below it, and
//   - cached replies for executed requests above that watermark.
// A retransmitted write whose rid is already recorded is answered from the
// cache instead of re-executed. The table is never replicated explicitly: it
// is a deterministic function of the applied log prefix (every node records
// the same replies and applies the same watermarks, which ride in the log
// entries), so it stays identical across replicas and only needs to travel
// inside state snapshots for straggler repair and compaction.
#ifndef SRC_CORE_SESSION_TABLE_H_
#define SRC_CORE_SESSION_TABLE_H_

#include <cstdint>
#include <map>

#include "src/common/buffer.h"
#include "src/common/status.h"
#include "src/common/types.h"
#include "src/r2p2/messages.h"
#include "src/r2p2/request_id.h"
#include "src/r2p2/shard.h"

namespace hovercraft {

class SessionTable {
 public:
  // Records the reply for an executed request. Idempotent for a given rid
  // (re-recording overwrites, but callers consult Executed() first). `slot`
  // tags the entry with the shard slot of the key it wrote, so a live shard
  // move can hand exactly the moved range's dedup state to the destination
  // group (SerializeRange / DropRange); kNoShardSlot for unsharded servers
  // and control entries.
  void Record(const RequestId& rid, Body reply, uint32_t slot = kNoShardSlot);

  // True when the request has already been executed: either its reply is
  // still cached, or its sequence sits at or below the client's ack
  // watermark (executed, acknowledged, and GC'd).
  bool Executed(const RequestId& rid) const;

  // The cached reply for an executed request, or null when it was never
  // recorded or has been garbage-collected past the ack watermark. A null
  // return with Executed() true means the client already acknowledged the
  // reply, so no retransmission for it can be outstanding.
  Body CachedReply(const RequestId& rid) const;

  // Raises the client's ack watermark and drops cached replies at or below
  // it. Watermarks are monotone; stale (lower) values are ignored.
  void Acknowledge(HostId client, uint64_t watermark);

  // Snapshot encode/decode. The format is self-delimiting so it can prefix
  // the application state inside one snapshot body.
  void Serialize(BufferWriter* w) const;
  Status Restore(BufferReader* r);
  // Exactly the number of bytes Serialize appends.
  size_t SerializedSize() const;

  // --- Shard-move range handoff (docs/sharding.md). ---
  // SerializeRange emits the cached replies whose slot tag falls in
  // [lo, hi] — the exactly-once state that must travel with the moved keys.
  // Ack watermarks are deliberately NOT transferred: a watermark only rises
  // after the client has resolved every reply at or below it, so any request
  // the destination could still see is either above the watermark (its reply
  // is in the range payload) or genuinely new.
  void SerializeRange(BufferWriter* w, uint32_t lo, uint32_t hi) const;
  // Merges a SerializeRange payload into this table. Entries at or below a
  // client's local ack watermark are dropped (the client already resolved
  // them); existing entries for the same rid are kept (the local copy was
  // recorded by this group's own log and wins).
  Status MergeRange(BufferReader* r);
  // Drops cached replies whose slot tag falls in [lo, hi] — the source
  // group's GC step after a move commits. Sessions left with no replies and
  // a zero watermark are erased entirely (same condition on every replica,
  // so tables stay byte-identical).
  void DropRange(uint32_t lo, uint32_t hi);

  void Clear() { sessions_.clear(); }

  size_t client_count() const { return sessions_.size(); }
  size_t cached_replies() const;
  uint64_t AckWatermark(HostId client) const;

 private:
  struct Cached {
    Body reply;
    uint32_t slot = kNoShardSlot;
  };
  struct ClientSession {
    uint64_t ack_watermark = 0;
    // seq -> reply, only for seq > ack_watermark. Ordered for deterministic
    // serialization (snapshot bytes must be identical across replicas).
    std::map<uint64_t, Cached> replies;
  };

  // Ordered by client id, same determinism requirement as above.
  std::map<HostId, ClientSession> sessions_;
};

}  // namespace hovercraft

#endif  // SRC_CORE_SESSION_TABLE_H_
