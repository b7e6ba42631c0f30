// The deterministic application interface.
//
// HovercRaft's promise (paper section 3.1) is that any RPC service with
// deterministic behaviour becomes fault-tolerant with no code changes: the
// SMR layer feeds it totally-ordered requests. A StateMachine implementation
// must satisfy: identical request sequences produce identical state and
// identical replies on every replica (checked by Digest() in tests).
//
// Execution cost is returned as virtual nanoseconds and charged to the
// executing node's app thread — the simulator's substitute for really
// burning CPU (see DESIGN.md, substitution table).
#ifndef SRC_APP_STATE_MACHINE_H_
#define SRC_APP_STATE_MACHINE_H_

#include <cstddef>
#include <cstdint>
#include <memory>

#include "src/common/buffer.h"
#include "src/common/check.h"
#include "src/common/frozen_image.h"
#include "src/common/status.h"
#include "src/common/types.h"
#include "src/r2p2/messages.h"

namespace hovercraft {

struct ExecResult {
  TimeNs service_time = 0;  // app-thread CPU consumed
  Body reply;               // reply body (may be null for empty replies)
};

// Destination of one snapshot image (StateMachine::SnapshotTo). Begin is
// called once with the image's exact size and returns the writer the image
// goes into — for an InstallSnapshot capture, the transfer body's buffer,
// already holding the server's prefix.
class SnapshotSink {
 public:
  virtual BufferWriter* Begin(size_t image_bytes) = 0;

 protected:
  ~SnapshotSink() = default;
};

class StateMachine {
 public:
  virtual ~StateMachine() = default;

  // Executes one request. Called in log order; mutates state for read-write
  // requests. Read-only requests (request.read_only()) must not mutate.
  virtual ExecResult Execute(const RpcRequest& request) = 0;

  // Order-sensitive digest of the current state; equal digests on two
  // replicas imply identical state. Used by the replication tests.
  virtual uint64_t Digest() const = 0;

  // Number of read-write operations applied (convenience for tests).
  virtual uint64_t ApplyCount() const = 0;

  // Serializes the complete state for local snapshots and InstallSnapshot
  // transfers. Restore on a fresh instance must reproduce
  // Digest()/ApplyCount() exactly.
  virtual Body SnapshotState() const = 0;
  virtual Status RestoreState(const Body& snapshot) = 0;

  // Writes the SnapshotState() image straight into `sink`: calls
  // sink.Begin(n) exactly once with the image's exact size n, then writes
  // exactly n bytes into the returned writer. The server's InstallSnapshot
  // capture (ReplicatedServer::CaptureSnapshot) and SnapshotBody (so the
  // default Freeze, SnapshotSize and the genesis image) go through this
  // call; local snapshots are taken by Freeze. The default serializes through
  // SnapshotState() once and copies the bytes, so a wrapper that overrides
  // only SnapshotState() stays correct. An app that overrides SnapshotTo
  // implements SnapshotState() as SnapshotBody(*this); it must not leave
  // SnapshotTo on the default as well, or the two recurse.
  virtual void SnapshotTo(SnapshotSink& sink) const;
  // The exact size n that SnapshotTo announces. The default serializes the
  // image once to measure it; an app that tracks its image size answers in
  // O(1).
  virtual size_t SnapshotSize() const;
  // The SnapshotTo image as of now, as a handle whose bytes are written only
  // if WriteTo is called; later Execute/RestoreState/shard calls do not
  // change them. Every local snapshot the server persists is taken here.
  // The default is eager: it serializes through SnapshotState() at once, so
  // a wrapper that overrides only SnapshotState() stays correct. An app may
  // allow at most one live handle at a time (KvService does); the server
  // destroys the previous one before it takes the next.
  virtual std::unique_ptr<FrozenImage> Freeze();

  // --- Shard-move range handoff (src/shard, docs/sharding.md). A live shard
  // move freezes a slot range at the source group, captures exactly that
  // range, installs it at the destination, and finally drops it from the
  // source. Slots are ShardSlotOf(key) values (src/r2p2/shard.h). The
  // defaults refuse, so only shard-aware applications participate. ---
  virtual Body CaptureRange(uint32_t lo_slot, uint32_t hi_slot) const {
    (void)lo_slot;
    (void)hi_slot;
    return nullptr;
  }
  virtual Status InstallRange(const Body& range) {
    (void)range;
    return FailedPreconditionError("state machine does not support shard moves");
  }
  virtual Status DropRange(uint32_t lo_slot, uint32_t hi_slot) {
    (void)lo_slot;
    (void)hi_slot;
    return FailedPreconditionError("state machine does not support shard moves");
  }
};

// Runs app.SnapshotTo with a sink whose Begin(n) is `begin(n)` (which
// returns the writer), and checks that the app wrote exactly the n bytes it
// announced.
template <typename BeginFn>
void WriteSnapshot(const StateMachine& app, BeginFn&& begin) {
  struct Sink final : SnapshotSink {
    explicit Sink(BeginFn& fn) : begin(fn) {}
    BufferWriter* Begin(size_t image_bytes) override {
      HC_CHECK(writer == nullptr);  // once per image
      writer = begin(image_bytes);
      end = writer->size() + image_bytes;
      return writer;
    }
    BeginFn& begin;
    BufferWriter* writer = nullptr;
    size_t end = 0;
  };
  Sink sink(begin);
  app.SnapshotTo(sink);
  HC_CHECK(sink.writer != nullptr);
  HC_CHECK_EQ(sink.writer->size(), sink.end);
}

// The SnapshotTo image in a heap Body of exactly its size.
Body SnapshotBody(const StateMachine& app);

// An image that is already bytes: holds a reference to `body`, no copy.
std::unique_ptr<FrozenImage> FreezeBody(Body body);

}  // namespace hovercraft

#endif  // SRC_APP_STATE_MACHINE_H_
