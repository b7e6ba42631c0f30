#include "src/raft/wal_codec.h"

#include <utility>

namespace hovercraft {

namespace {
constexpr uint8_t kHasRequest = 1 << 0;
constexpr uint8_t kHasConfig = 1 << 1;
constexpr uint8_t kIsNoop = 1 << 2;
constexpr uint8_t kIsReadOnly = 1 << 3;
// The fixed part: flags, rid, body hash and ack watermark.
constexpr size_t kWalEntryFixedBytes = 1 + 8 + 8 + 8 + 8;
// The request header ahead of its body: policy, attempt, ack, slot, length.
constexpr size_t kWalRequestHeaderBytes = 1 + 4 + 8 + 4 + 4;

// The one encoder behind EncodeWalEntry and WalEntryEncoder; `E` is either.
template <typename E>
void EncodeWalFields(const E& e, BufferWriter* w) {
  uint8_t flags = 0;
  if (e.request != nullptr) {
    flags |= kHasRequest;
  }
  if (e.config != nullptr) {
    flags |= kHasConfig;
  }
  if (e.noop) {
    flags |= kIsNoop;
  }
  if (e.read_only) {
    flags |= kIsReadOnly;
  }
  w->PutU8(flags);
  w->PutI64(static_cast<int64_t>(e.rid.client));
  w->PutU64(e.rid.seq);
  w->PutU64(e.body_hash);
  w->PutU64(e.ack_watermark);
  if (e.request != nullptr) {
    const RpcRequest& req = *e.request;
    w->PutU8(static_cast<uint8_t>(req.policy()));
    w->PutU32(req.attempt());
    w->PutU64(req.ack_watermark());
    w->PutU32(req.shard_slot());
    if (req.body() != nullptr) {
      w->PutU32(static_cast<uint32_t>(req.body()->size()));
      w->PutBytes(*req.body());
    } else {
      w->PutU32(0);
    }
  }
  if (e.config != nullptr) {
    EncodeConfig(*e.config, w);
  }
}

}  // namespace

void EncodeConfig(const MembershipConfig& config, BufferWriter* w) {
  w->PutU32(static_cast<uint32_t>(config.voters.size()));
  for (NodeId v : config.voters) {
    w->PutI64(static_cast<int64_t>(v));
  }
  w->PutU32(static_cast<uint32_t>(config.learners.size()));
  for (NodeId l : config.learners) {
    w->PutI64(static_cast<int64_t>(l));
  }
}

MembershipConfigPtr DecodeConfig(BufferReader* r) {
  uint32_t nv = 0;
  if (!r->GetU32(nv).ok() || nv > 4096) {
    return nullptr;
  }
  std::vector<NodeId> voters;
  voters.reserve(nv);
  for (uint32_t i = 0; i < nv; ++i) {
    int64_t v = 0;
    if (!r->GetI64(v).ok()) {
      return nullptr;
    }
    voters.push_back(static_cast<NodeId>(v));
  }
  uint32_t nl = 0;
  if (!r->GetU32(nl).ok() || nl > 4096) {
    return nullptr;
  }
  std::vector<NodeId> learners;
  learners.reserve(nl);
  for (uint32_t i = 0; i < nl; ++i) {
    int64_t l = 0;
    if (!r->GetI64(l).ok()) {
      return nullptr;
    }
    learners.push_back(static_cast<NodeId>(l));
  }
  return MakeMembershipConfig(std::move(voters), std::move(learners));
}

void EncodeWalEntry(const LogEntry& entry, BufferWriter* w) { EncodeWalFields(entry, w); }

size_t WalEntrySize(const LogEntry& entry) {
  size_t n = kWalEntryFixedBytes;
  if (entry.request != nullptr) {
    const Body& body = entry.request->body();
    n += kWalRequestHeaderBytes + (body != nullptr ? body.size() : 0);
  }
  if (entry.config != nullptr) {
    n += EncodedConfigSize(*entry.config);
  }
  return n;
}

WalEntryEncoder::WalEntryEncoder(const LogEntry& entry)
    : rid(entry.rid),
      body_hash(entry.body_hash),
      ack_watermark(entry.ack_watermark),
      request(entry.request),
      config(entry.config),
      noop(entry.noop),
      read_only(entry.read_only) {}

void WalEntryEncoder::operator()(BufferWriter* w) const { EncodeWalFields(*this, w); }

std::vector<uint8_t> EncodeWalEntry(const LogEntry& entry) {
  BufferWriter w(64);
  EncodeWalEntry(entry, &w);
  return w.TakeBytes();
}

bool DecodeWalEntry(std::span<const uint8_t> bytes, LogEntry* out) {
  BufferReader r(bytes);
  uint8_t flags = 0;
  int64_t client = 0;
  if (!r.GetU8(flags).ok() || !r.GetI64(client).ok() || !r.GetU64(out->rid.seq).ok() ||
      !r.GetU64(out->body_hash).ok() || !r.GetU64(out->ack_watermark).ok()) {
    return false;
  }
  out->rid.client = static_cast<HostId>(client);
  out->noop = (flags & kIsNoop) != 0;
  out->read_only = (flags & kIsReadOnly) != 0;
  if ((flags & kHasRequest) != 0) {
    uint8_t policy = 0;
    uint32_t attempt = 0;
    uint64_t ack = 0;
    uint32_t shard_slot = 0;
    uint32_t body_len = 0;
    if (!r.GetU8(policy).ok() || !r.GetU32(attempt).ok() || !r.GetU64(ack).ok() ||
        !r.GetU32(shard_slot).ok() || !r.GetU32(body_len).ok() || r.remaining() < body_len) {
      return false;
    }
    std::vector<uint8_t> body;
    if (!r.GetBytes(body_len, body).ok()) {
      return false;
    }
    out->request =
        std::make_shared<RpcRequest>(out->rid, static_cast<R2p2Policy>(policy),
                                     MakeBody(std::move(body)), attempt, ack, shard_slot);
  }
  if ((flags & kHasConfig) != 0) {
    out->config = DecodeConfig(&r);
    if (out->config == nullptr) {
      return false;
    }
  }
  return r.AtEnd();
}

}  // namespace hovercraft
