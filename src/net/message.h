// Base type for everything that travels over the simulated fabric.
//
// The simulator carries typed message objects end-to-end (the way ns-3 does)
// instead of serializing on the hot path; each message declares the payload
// size it would occupy on the wire, and the wire codecs in src/r2p2 are
// exercised by their own tests and microbenchmarks.
#ifndef SRC_NET_MESSAGE_H_
#define SRC_NET_MESSAGE_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

namespace hovercraft {

// The kind of a Message: one tag per subclass, except that vote requests and
// replies get separate tags for their pre-vote form. Receivers dispatch on
// it with a switch and per-type counters are arrays indexed by it.
enum class MsgType : uint8_t {
  // R2P2 (src/r2p2/messages.h)
  kRequest,
  kResponse,
  kFeedback,
  kNack,
  kNackWrongShard,
  kFcLeader,
  kFcReconcileReq,
  kFcReconcileRep,
  // Raft and the HovercRaft extensions (src/raft/messages.h)
  kAeReq,
  kAeRep,
  kPrevoteReq,
  kVoteReq,
  kPrevoteRep,
  kVoteRep,
  kReadIndexGrant,
  kAggCommit,
  kAggVoteReq,
  kAggVoteRep,
  kSnapshotReq,
  kSnapshotRep,
  kRecoveryReq,
  kRecoveryRep,
  // Transport: a coalesced frame (BatchMsg below)
  kBatch,
};

inline constexpr size_t kMsgTypeCount = static_cast<size_t>(MsgType::kBatch) + 1;

// Stable short name of each type, used for per-type message accounting
// (Table 1), metric names and trace labels.
inline const char* MsgTypeName(MsgType type) {
  static constexpr std::array<const char*, kMsgTypeCount> kNames = {
      "REQUEST",
      "RESPONSE",
      "FEEDBACK",
      "NACK",
      "NACK_WRONG_SHARD",
      "FC_LEADER",
      "FC_RECONCILE_REQ",
      "FC_RECONCILE_REP",
      "AE_REQ",
      "AE_REP",
      "PREVOTE_REQ",
      "VOTE_REQ",
      "PREVOTE_REP",
      "VOTE_REP",
      "READ_INDEX_GRANT",
      "AGG_COMMIT",
      "AGG_VOTE_REQ",
      "AGG_VOTE_REP",
      "SNAPSHOT_REQ",
      "SNAPSHOT_REP",
      "RECOVERY_REQ",
      "RECOVERY_REP",
      "BATCH",
  };
  return kNames[static_cast<size_t>(type)];
}

class Message {
 public:
  virtual ~Message() = default;

  // Bytes of R2P2 payload this message occupies on the wire (headers and
  // framing are accounted separately by the cost model).
  virtual int32_t PayloadBytes() const = 0;

  virtual MsgType type() const = 0;
  const char* Name() const { return MsgTypeName(type()); }
};

using MessagePtr = std::shared_ptr<const Message>;

// A coalesced transport frame: several small logical messages to the same
// destination packed into one physical frame (eRPC-style TX batching, see
// CostModel::tx_batching). Each member costs a small sub-header on the wire;
// counters treat the members as the logical messages and the BatchMsg itself
// as one physical frame. Never constructed unless batching is enabled, and
// never nested.
class BatchMsg final : public Message {
 public:
  // Per-member sub-header: u16 length + u8 type + u8 reserved.
  static constexpr int32_t kPerMessageHeaderBytes = 4;

  explicit BatchMsg(std::vector<MessagePtr> msgs) : msgs_(std::move(msgs)) {
    for (const MessagePtr& m : msgs_) {
      total_ += m->PayloadBytes() + kPerMessageHeaderBytes;
    }
  }

  int32_t PayloadBytes() const override { return total_; }
  MsgType type() const override { return MsgType::kBatch; }

  const std::vector<MessagePtr>& messages() const { return msgs_; }

 private:
  std::vector<MessagePtr> msgs_;
  int32_t total_ = 0;
};

// `msg` as a BatchMsg, or null when it is a single message.
inline const BatchMsg* AsBatch(const Message& msg) {
  return msg.type() == MsgType::kBatch ? static_cast<const BatchMsg*>(&msg) : nullptr;
}

}  // namespace hovercraft

#endif  // SRC_NET_MESSAGE_H_
