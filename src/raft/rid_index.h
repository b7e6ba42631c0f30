// RidIndex: the RaftLog's request-id -> log-index map.
//
// An open-addressing table: linear probing from RequestIdHash's home slot,
// backward-shift deletion (no tombstones, so probe chains never degrade
// under the log's steady append/compact churn), and power-of-two capacity
// that doubles once the table would be three-quarters full. It starts small
// and never shrinks. Log indices are 1-based, so index 0 (kNoLogIndex) marks an empty
// slot. Nothing here allocates per entry: one slot array, grown
// geometrically.
#ifndef SRC_RAFT_RID_INDEX_H_
#define SRC_RAFT_RID_INDEX_H_

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "src/common/types.h"
#include "src/r2p2/request_id.h"

namespace hovercraft {

class RidIndex {
 public:
  static constexpr size_t kInitialCapacity = 16;

  // Log index mapped to `rid`, or kNoLogIndex.
  LogIndex Find(const RequestId& rid) const {
    return size_ == 0 ? kNoLogIndex : slots_[Probe(rid)].idx;
  }

  // Maps `rid` to `idx` (> 0), replacing any earlier mapping.
  void Set(const RequestId& rid, LogIndex idx) {
    if ((size_ + 1) * 4 > slots_.size() * 3) {
      Grow();
    }
    Slot& s = slots_[Probe(rid)];
    if (s.idx == kNoLogIndex) {
      s.rid = rid;
      ++size_;
    }
    s.idx = idx;
  }

  // Removes `rid` only while it still maps to `idx`.
  void EraseIfAt(const RequestId& rid, LogIndex idx) {
    if (size_ == 0) {
      return;
    }
    size_t hole = Probe(rid);
    if (slots_[hole].idx != idx) {  // idx > 0: an empty slot never matches
      return;
    }
    // Backward shift: pull each later member of the probe chain into the
    // hole unless its home slot lies cyclically in (hole, j], where it
    // would become unreachable.
    for (size_t j = (hole + 1) & mask_; slots_[j].idx != kNoLogIndex; j = (j + 1) & mask_) {
      const size_t home = HomeSlot(slots_[j].rid, slots_.size());
      if (((j - home) & mask_) >= ((j - hole) & mask_)) {
        slots_[hole] = slots_[j];
        hole = j;
      }
    }
    slots_[hole] = Slot{};
    --size_;
  }

  // Drops every mapping; keeps the capacity.
  void Clear() {
    if (size_ != 0) {
      std::fill(slots_.begin(), slots_.end(), Slot{});
      size_ = 0;
    }
  }

  size_t size() const { return size_; }
  size_t capacity() const { return slots_.size(); }
  // Slot where the probe for `rid` starts in a table of `capacity` slots.
  static size_t HomeSlot(const RequestId& rid, size_t capacity) {
    return RequestIdHash{}(rid) & (capacity - 1);
  }

 private:
  struct Slot {
    RequestId rid;
    LogIndex idx = kNoLogIndex;
  };

  // The slot holding `rid`, or the empty slot that ends its probe chain (one
  // always exists: the table is at most three-quarters full).
  size_t Probe(const RequestId& rid) const {
    size_t i = HomeSlot(rid, slots_.size());
    while (slots_[i].idx != kNoLogIndex && slots_[i].rid != rid) {
      i = (i + 1) & mask_;
    }
    return i;
  }

  void Grow() {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(old.empty() ? kInitialCapacity : old.size() * 2, Slot{});
    mask_ = slots_.size() - 1;
    for (const Slot& s : old) {
      if (s.idx != kNoLogIndex) {
        slots_[Probe(s.rid)] = s;  // rids are unique: Probe ends at an empty slot
      }
    }
  }

  std::vector<Slot> slots_;
  size_t mask_ = 0;
  size_t size_ = 0;
};

}  // namespace hovercraft

#endif  // SRC_RAFT_RID_INDEX_H_
