// DeferredRecords: the pending records of one SimDisk file — encoders of any
// type, queued in append order and run once, when something first observes
// the file's bytes (src/storage/sim_disk.h).
//
// Each record is a pointer to its type's operations followed by the encoder
// itself, packed back to back into 16 KiB chunks. Queuing a record is one
// placement-new with no allocation of its own, nothing is ever relocated,
// and a record costs its capture plus 8 bytes: a WAL announce record takes
// 24 B and an entry record 104 B, against 29 B and ~115 B once encoded.
#ifndef SRC_STORAGE_DEFERRED_RECORDS_H_
#define SRC_STORAGE_DEFERRED_RECORDS_H_

#include <cstddef>
#include <cstring>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/common/buffer.h"

namespace hovercraft {

class DeferredRecords {
 public:
  DeferredRecords() = default;
  DeferredRecords(const DeferredRecords&) = delete;
  DeferredRecords& operator=(const DeferredRecords&) = delete;
  ~DeferredRecords() { Clear(); }

  bool empty() const { return count_ == 0; }
  size_t size() const { return count_; }

  // Queues `encode`, called once later as encode(BufferWriter*).
  template <typename F>
  void Push(F&& encode) {
    using D = std::decay_t<F>;
    static_assert(std::is_invocable_v<const D&, BufferWriter*>);
    static_assert(alignof(D) <= kAlign, "deferred record capture is over-aligned");
    static_assert(kHeaderBytes + kSlotBytes<D> <= kChunkBytes, "deferred record too large");
    std::byte* slot = Reserve(kHeaderBytes + kSlotBytes<D>);
    const Ops* ops = &kOps<D>;
    std::memcpy(slot, &ops, sizeof(ops));
    ::new (static_cast<void*>(slot + kHeaderBytes)) D(std::forward<F>(encode));
    ++count_;
  }

  // Runs every queued encoder on `w` in queue order, then drops them all.
  void EncodeAllAndClear(BufferWriter* w) {
    ForEach([w](const Ops& ops, void* self) { ops.encode(self, w); });
    Clear();
  }

  // Destroys every queued encoder without running it.
  void Clear() {
    ForEach([](const Ops& ops, void* self) { ops.destroy(self); });
    chunks_.clear();
    count_ = 0;
  }

 private:
  struct Ops {
    void (*encode)(const void* self, BufferWriter* w);
    void (*destroy)(void* self);
    size_t slot_bytes;  // the encoder's size, rounded up to kAlign
  };
  struct Chunk {
    std::unique_ptr<std::byte[]> bytes;
    size_t used = 0;
  };
  static constexpr size_t kAlign = alignof(void*);
  static constexpr size_t kHeaderBytes = sizeof(const Ops*);
  static constexpr size_t kChunkBytes = 16 * 1024;
  template <typename D>
  static constexpr size_t kSlotBytes = (sizeof(D) + kAlign - 1) / kAlign * kAlign;
  template <typename D>
  static constexpr Ops kOps = {
      [](const void* self, BufferWriter* w) { (*std::launder(static_cast<const D*>(self)))(w); },
      [](void* self) { std::launder(static_cast<D*>(self))->~D(); },
      kSlotBytes<D>,
  };

  std::byte* Reserve(size_t bytes) {
    if (chunks_.empty() || kChunkBytes - chunks_.back().used < bytes) {
      chunks_.push_back(Chunk{std::unique_ptr<std::byte[]>(new std::byte[kChunkBytes]), 0});
    }
    Chunk& chunk = chunks_.back();
    std::byte* slot = chunk.bytes.get() + chunk.used;
    chunk.used += bytes;
    return slot;
  }

  template <typename Fn>
  void ForEach(Fn fn) {
    for (Chunk& chunk : chunks_) {
      for (size_t at = 0; at < chunk.used;) {
        const Ops* ops = nullptr;
        std::memcpy(&ops, chunk.bytes.get() + at, sizeof(ops));
        fn(*ops, chunk.bytes.get() + at + kHeaderBytes);
        at += kHeaderBytes + ops->slot_bytes;
      }
    }
  }

  std::vector<Chunk> chunks_;
  size_t count_ = 0;
};

}  // namespace hovercraft

#endif  // SRC_STORAGE_DEFERRED_RECORDS_H_
