#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <memory>
#include <random>
#include <unordered_map>
#include <vector>

#include "src/raft/log.h"
#include "src/raft/rid_index.h"

namespace hovercraft {
namespace {

LogEntry MakeEntry(Term term, HostId client, uint64_t seq, bool read_only = false) {
  LogEntry e;
  e.term = term;
  e.read_only = read_only;
  e.rid = RequestId{client, seq};
  e.request = std::make_shared<RpcRequest>(e.rid, R2p2Policy::kReplicatedReq,
                                           MakeBody(std::vector<uint8_t>(24)));
  return e;
}

LogEntry Noop(Term term) {
  LogEntry e;
  e.term = term;
  e.noop = true;
  return e;
}

TEST(RaftLogTest, EmptyLog) {
  RaftLog log;
  EXPECT_TRUE(log.empty());
  EXPECT_EQ(log.first_index(), 1u);
  EXPECT_EQ(log.last_index(), 0u);
  EXPECT_EQ(log.last_term(), 0u);
  EXPECT_EQ(log.TermAt(0), 0u);
  EXPECT_FALSE(log.Contains(1));
}

TEST(RaftLogTest, AppendAssignsSequentialIndices) {
  RaftLog log;
  EXPECT_EQ(log.Append(MakeEntry(1, 1, 1)), 1u);
  EXPECT_EQ(log.Append(MakeEntry(1, 1, 2)), 2u);
  EXPECT_EQ(log.Append(MakeEntry(2, 1, 3)), 3u);
  EXPECT_EQ(log.last_index(), 3u);
  EXPECT_EQ(log.last_term(), 2u);
  EXPECT_EQ(log.TermAt(1), 1u);
  EXPECT_EQ(log.TermAt(3), 2u);
  EXPECT_TRUE(log.Contains(1));
  EXPECT_TRUE(log.Contains(3));
  EXPECT_FALSE(log.Contains(4));
}

TEST(RaftLogTest, FindRequestByRid) {
  RaftLog log;
  log.Append(MakeEntry(1, 5, 100));
  log.Append(Noop(1));
  log.Append(MakeEntry(1, 5, 101));
  EXPECT_EQ(log.FindRequest(RequestId{5, 100}), 1u);
  EXPECT_EQ(log.FindRequest(RequestId{5, 101}), 3u);
  EXPECT_EQ(log.FindRequest(RequestId{5, 999}), kNoLogIndex);
}

TEST(RaftLogTest, TruncateRemovesSuffixAndRidIndex) {
  RaftLog log;
  log.Append(MakeEntry(1, 1, 1));
  log.Append(MakeEntry(1, 1, 2));
  log.Append(MakeEntry(1, 1, 3));
  log.TruncateFrom(2);
  EXPECT_EQ(log.last_index(), 1u);
  EXPECT_EQ(log.FindRequest(RequestId{1, 2}), kNoLogIndex);
  EXPECT_EQ(log.FindRequest(RequestId{1, 3}), kNoLogIndex);
  EXPECT_EQ(log.FindRequest(RequestId{1, 1}), 1u);
  // Re-append after truncation continues from the new tail.
  EXPECT_EQ(log.Append(MakeEntry(2, 1, 4)), 2u);
  EXPECT_EQ(log.TermAt(2), 2u);
}

TEST(RaftLogTest, CompactPrefixKeepsTailAndBaseTerm) {
  RaftLog log;
  for (uint64_t i = 1; i <= 10; ++i) {
    log.Append(MakeEntry(i <= 5 ? 1 : 2, 1, i));
  }
  log.CompactPrefix(6);
  EXPECT_EQ(log.first_index(), 7u);
  EXPECT_EQ(log.last_index(), 10u);
  EXPECT_EQ(log.base_term(), 2u);   // term of entry 6
  EXPECT_EQ(log.TermAt(6), 2u);     // the compaction point keeps its term
  EXPECT_FALSE(log.Contains(6));
  EXPECT_TRUE(log.Contains(7));
  EXPECT_EQ(log.At(7).rid.seq, 7u);
  // Compacted rids are forgotten.
  EXPECT_EQ(log.FindRequest(RequestId{1, 3}), kNoLogIndex);
  EXPECT_EQ(log.FindRequest(RequestId{1, 8}), 8u);
}

TEST(RaftLogTest, CompactIsIdempotentAndMonotone) {
  RaftLog log;
  for (uint64_t i = 1; i <= 5; ++i) {
    log.Append(MakeEntry(1, 1, i));
  }
  log.CompactPrefix(3);
  log.CompactPrefix(2);  // below the base: no-op
  EXPECT_EQ(log.first_index(), 4u);
  log.CompactPrefix(5);
  EXPECT_EQ(log.first_index(), 6u);
  EXPECT_TRUE(log.empty());
  EXPECT_EQ(log.last_index(), 5u);
  EXPECT_EQ(log.last_term(), 1u);  // falls back to base term
  // Appending after full compaction continues the sequence.
  EXPECT_EQ(log.Append(MakeEntry(2, 1, 6)), 6u);
}

TEST(RaftLogTest, TruncateAfterCompaction) {
  RaftLog log;
  for (uint64_t i = 1; i <= 6; ++i) {
    log.Append(MakeEntry(1, 1, i));
  }
  log.CompactPrefix(2);
  log.TruncateFrom(5);
  EXPECT_EQ(log.last_index(), 4u);
  EXPECT_EQ(log.first_index(), 3u);
  EXPECT_TRUE(log.Contains(3));
  EXPECT_FALSE(log.Contains(5));
}

TEST(RaftLogTest, NoopEntriesHaveNoRid) {
  RaftLog log;
  log.Append(Noop(1));
  EXPECT_EQ(log.At(1).request, nullptr);
  EXPECT_TRUE(log.At(1).noop);
}

// Pins current behaviour without endorsing it. When a rid sits at index i and
// again at a later j (read-only retransmits produce such duplicates), the
// index maps it to j only; truncating j then erases the mapping even though
// i still holds the rid. Changing this would move simulated output (the
// failover workload exercises it), so a fix belongs in its own change.
TEST(RaftLogTest, TruncatingNewerDuplicateForgetsOlderOccurrence) {
  RaftLog log;
  const RequestId rid{5, 100};
  log.Append(MakeEntry(1, 5, 100));
  log.Append(MakeEntry(1, 5, 101));
  log.Append(MakeEntry(1, 5, 100));
  EXPECT_EQ(log.FindRequest(rid), 3u);  // the newest occurrence wins
  log.CompactPrefix(1);                 // erases only a mapping to index 1
  EXPECT_EQ(log.FindRequest(rid), 3u);
  log.TruncateFrom(3);
  EXPECT_EQ(log.At(2).rid.seq, 101u);
  EXPECT_EQ(log.FindRequest(rid), kNoLogIndex);

  RaftLog other;
  other.Append(MakeEntry(1, 5, 100));
  other.Append(MakeEntry(1, 5, 100));
  other.TruncateFrom(2);
  EXPECT_EQ(other.At(1).rid, rid);
  EXPECT_EQ(other.FindRequest(rid), kNoLogIndex);
}

// ---------------------------------------------------------------------------
// RidIndex: the open-addressing rid -> index table behind FindRequest.
// ---------------------------------------------------------------------------

// `n` rids whose probe starts at `slot` in every table of up to `capacity`
// slots (capacity a power of two; slot < capacity).
std::vector<RequestId> RidsWithHome(size_t slot, size_t capacity, size_t n,
                                    HostId client = 1) {
  std::vector<RequestId> out;
  for (uint64_t seq = 1; out.size() < n; ++seq) {
    const RequestId rid{client, seq};
    if (RidIndex::HomeSlot(rid, capacity) == slot) {
      out.push_back(rid);
    }
  }
  return out;
}

TEST(RidIndexTest, DeletionInsideWrappedProbeChain) {
  // Six rids homed at the last slot of the initial 16-slot table wrap into
  // slots 0..4; two more homed at slots 0 and 1 interleave with them.
  const std::vector<RequestId> wrapped =
      RidsWithHome(RidIndex::kInitialCapacity - 1, RidIndex::kInitialCapacity, 6);
  const RequestId at0 = RidsWithHome(0, RidIndex::kInitialCapacity, 1, 2)[0];
  const RequestId at1 = RidsWithHome(1, RidIndex::kInitialCapacity, 1, 3)[0];
  for (size_t victim = 0; victim < wrapped.size() + 2; ++victim) {
    RidIndex index;
    std::unordered_map<RequestId, LogIndex, RequestIdHash> model;
    LogIndex next = 1;
    for (const RequestId& rid : wrapped) {
      index.Set(rid, next);
      model[rid] = next++;
    }
    index.Set(at0, next);
    model[at0] = next++;
    index.Set(at1, next);
    model[at1] = next++;
    ASSERT_EQ(index.capacity(), RidIndex::kInitialCapacity);
    const RequestId gone = victim < wrapped.size() ? wrapped[victim]
                           : victim == wrapped.size() ? at0
                                                      : at1;
    index.EraseIfAt(gone, model[gone] + 1);  // stale index: no-op
    EXPECT_EQ(index.Find(gone), model[gone]);
    index.EraseIfAt(gone, model[gone]);
    model.erase(gone);
    EXPECT_EQ(index.Find(gone), kNoLogIndex);
    EXPECT_EQ(index.size(), model.size());
    for (const auto& [rid, idx] : model) {
      EXPECT_EQ(index.Find(rid), idx) << "victim " << victim << " rid seq " << rid.seq;
    }
  }
}

TEST(RidIndexTest, GrowsThroughSeveralResizesAndKeepsEveryMapping) {
  RidIndex index;
  EXPECT_EQ(index.capacity(), 0u);  // nothing allocated until first use
  EXPECT_EQ(index.Find(RequestId{1, 1}), kNoLogIndex);
  size_t resizes = 0;
  size_t capacity = 0;
  for (uint64_t i = 1; i <= 5000; ++i) {
    index.Set(RequestId{static_cast<HostId>(i % 7), i}, i);
    if (index.capacity() != capacity) {
      ++resizes;
      capacity = index.capacity();
      EXPECT_EQ(capacity & (capacity - 1), 0u);
    }
    EXPECT_LE(index.size() * 4, index.capacity() * 3);
  }
  EXPECT_GE(resizes, 8u);  // 16 -> ... -> 8192
  EXPECT_EQ(index.size(), 5000u);
  for (uint64_t i = 1; i <= 5000; ++i) {
    ASSERT_EQ(index.Find(RequestId{static_cast<HostId>(i % 7), i}), i);
  }
  index.Clear();
  EXPECT_EQ(index.size(), 0u);
  EXPECT_EQ(index.Find(RequestId{1, 7}), kNoLogIndex);
}

TEST(RidIndexTest, RandomOpsOnCollidingRidsMatchReferenceMap) {
  // Every rid homes at the last slot of any table of up to 64 slots, and 48
  // rids never grow the table past 64, so they always share one probe chain
  // that wraps.
  std::vector<RequestId> pool = RidsWithHome(63, 64, 48);
  std::mt19937_64 rng(7);
  RidIndex index;
  std::unordered_map<RequestId, LogIndex, RequestIdHash> model;
  for (int step = 0; step < 20000; ++step) {
    const RequestId& rid = pool[rng() % pool.size()];
    const LogIndex idx = 1 + rng() % 8;
    switch (rng() % 8) {
      case 0:
        if (rng() % 64 == 0) {
          index.Clear();
          model.clear();
        }
        break;
      case 1:
      case 2:
      case 3: {
        index.EraseIfAt(rid, idx);
        auto it = model.find(rid);
        if (it != model.end() && it->second == idx) {
          model.erase(it);
        }
        break;
      }
      default:
        index.Set(rid, idx);
        model[rid] = idx;
    }
    ASSERT_EQ(index.size(), model.size()) << "step " << step;
    for (const RequestId& r : pool) {
      auto it = model.find(r);
      ASSERT_EQ(index.Find(r), it == model.end() ? kNoLogIndex : it->second)
          << "step " << step << " seq " << r.seq;
    }
  }
}

// Reference model: RaftLog's rid bookkeeping rules over a std::unordered_map.
class ReferenceRidLog {
 public:
  void Append(const LogEntry& e) {
    entries_.push_back(e);
    if (!e.noop) {
      index_[e.rid] = base_ + entries_.size();
    }
  }
  void TruncateFrom(LogIndex idx) {
    while (base_ + entries_.size() >= idx) {
      const LogEntry& e = entries_.back();
      if (!e.noop) {
        auto it = index_.find(e.rid);
        if (it != index_.end() && it->second == base_ + entries_.size()) {
          index_.erase(it);
        }
      }
      entries_.pop_back();
    }
  }
  void CompactPrefix(LogIndex idx) {
    while (base_ < idx) {
      const LogEntry& e = entries_.front();
      if (!e.noop) {
        auto it = index_.find(e.rid);
        if (it != index_.end() && it->second == base_ + 1) {
          index_.erase(it);
        }
      }
      entries_.pop_front();
      ++base_;
    }
  }
  void ResetTo(LogIndex idx) {
    entries_.clear();
    index_.clear();
    base_ = idx;
  }
  LogIndex FindRequest(const RequestId& rid) const {
    auto it = index_.find(rid);
    return it == index_.end() ? kNoLogIndex : it->second;
  }

 private:
  LogIndex base_ = 0;
  std::deque<LogEntry> entries_;
  std::unordered_map<RequestId, LogIndex, RequestIdHash> index_;
};

TEST(RaftLogTest, RidIndexMatchesReferenceUnderRandomOps) {
  // Rid sources: fresh rids (drive growth), a pool that shares home slot
  // 1023 — the last slot of every table up to 1024 slots, so its chains
  // wrap — and re-appends of rids already in the log (duplicates).
  const std::vector<RequestId> colliding = RidsWithHome(1023, 1024, 40, /*client=*/9);
  std::mt19937_64 rng(12345);
  RaftLog log;
  ReferenceRidLog ref;
  std::vector<RequestId> seen(colliding.begin(), colliding.end());
  uint64_t fresh_seq = 0;
  size_t max_size = 0;
  auto check = [&](const RequestId& rid, int step) {
    ASSERT_EQ(log.FindRequest(rid), ref.FindRequest(rid))
        << "step " << step << " rid {" << rid.client << "," << rid.seq << "}";
  };
  for (int step = 0; step < 60000; ++step) {
    // Three phases: grow to thousands of live entries, churn at a steady
    // size, then shrink back through compaction and truncation.
    const int phase = step < 20000 ? 0 : step < 45000 ? 1 : 2;
    const uint64_t roll = rng() % 100;
    const uint64_t append_pct = phase == 0 ? 90 : phase == 1 ? 60 : 30;
    const uint64_t truncate_pct = phase == 0 ? 3 : phase == 1 ? 2 : 10;
    const uint64_t compact_pct = phase == 0 ? 2 : phase == 1 ? 3 : 10;
    if (roll < append_pct) {
      LogEntry e;
      e.term = 1;
      const uint64_t kind = rng() % 100;
      if (kind < 5) {
        e.noop = true;
      } else if (kind < 55) {
        e.rid = RequestId{static_cast<HostId>(1 + rng() % 4), ++fresh_seq};
        seen.push_back(e.rid);
      } else if (kind < 80) {
        e.rid = colliding[rng() % colliding.size()];
      } else if (!log.empty()) {
        const LogIndex at = log.first_index() + rng() % log.size();
        e = log.At(at);  // duplicate rid (or noop) of a live entry
      } else {
        e.rid = colliding[0];
      }
      const LogIndex appended = log.Append(e);
      ASSERT_EQ(appended, log.last_index());
      ref.Append(e);
    } else if (roll < append_pct + truncate_pct) {
      if (log.empty()) {
        continue;
      }
      const LogIndex from = log.last_index() + 1 - (1 + rng() % std::min<size_t>(log.size(), 16));
      log.TruncateFrom(from);
      ref.TruncateFrom(from);
    } else if (roll < append_pct + truncate_pct + compact_pct) {
      if (log.empty()) {
        continue;
      }
      const LogIndex to =
          log.first_index() + rng() % std::min<size_t>(log.size(), phase == 2 ? 256 : 32);
      log.CompactPrefix(to);
      ref.CompactPrefix(to);
    } else if (phase > 0 && roll == 99 && rng() % 8 == 0) {
      const LogIndex to = log.last_index() + rng() % 4;
      log.ResetTo(to, 2);
      ref.ResetTo(to);
    } else {
      check(seen[rng() % seen.size()], step);
    }
    max_size = std::max(max_size, log.size());
    for (const RequestId& rid : colliding) {
      check(rid, step);
    }
    for (int k = 0; k < 8; ++k) {
      check(seen[seen.size() - 1 - rng() % std::min<size_t>(seen.size(), 64)], step);
    }
    if (step % 4096 == 0 || step == 19999 || step == 59999) {
      for (const RequestId& rid : seen) {
        check(rid, step);
      }
    }
  }
  // Growth from the initial 16-slot table through at least eight doublings.
  EXPECT_GE(max_size, 4096u);
}

}  // namespace
}  // namespace hovercraft
