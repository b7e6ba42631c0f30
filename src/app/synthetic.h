// The synthetic microbenchmark service (paper section 7): configurable
// service time, request size, and reply size, with requests tagged read-only
// or read-write by the client.
//
// The client samples the service time (so a request costs the same on every
// replica — required for deterministic behaviour) and encodes it, together
// with the desired reply size, at the front of the request body; the rest of
// the body is padding up to the requested size.
#ifndef SRC_APP_SYNTHETIC_H_
#define SRC_APP_SYNTHETIC_H_

#include <cstdint>
#include <unordered_map>

#include "src/app/state_machine.h"
#include "src/common/status.h"
#include "src/common/types.h"

namespace hovercraft {

struct SyntheticOp {
  TimeNs service_time = 0;
  int32_t reply_bytes = 0;
};

// Minimum body needed to carry the operation header.
constexpr int32_t kSyntheticHeaderBytes = 12;

// Encodes `op` into a body of exactly max(total_bytes, header) bytes.
Body EncodeSyntheticOp(const SyntheticOp& op, int32_t total_bytes);

Result<SyntheticOp> DecodeSyntheticOp(const Body& body);

class SyntheticService final : public StateMachine {
 public:
  ExecResult Execute(const RpcRequest& request) override;
  uint64_t Digest() const override { return digest_; }
  uint64_t ApplyCount() const override { return applied_; }
  Body SnapshotState() const override { return SnapshotBody(*this); }
  Status RestoreState(const Body& snapshot) override;
  void SnapshotTo(SnapshotSink& sink) const override;

 private:
  Body ReplyOfSize(int32_t bytes);

  uint64_t applied_ = 0;
  uint64_t digest_ = 0xCBF29CE484222325ull;
  // Replies are content-free; cache one buffer per size to avoid allocating
  // megabytes per second of zeroes in long runs.
  std::unordered_map<int32_t, Body> reply_cache_;
};

}  // namespace hovercraft

#endif  // SRC_APP_SYNTHETIC_H_
