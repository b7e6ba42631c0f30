// Unit coverage for the simulated durable-storage layer: SimDisk barrier and
// crash semantics, and StableStorage's WAL framing, recovery rules, and
// corruption handling (docs/durability.md).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/common/buffer.h"
#include "src/common/frozen_image.h"
#include "src/common/types.h"
#include "src/raft/log.h"
#include "src/raft/membership.h"
#include "src/raft/wal_codec.h"
#include "src/sim/simulator.h"
#include "src/storage/fsync_policy.h"
#include "src/storage/sim_disk.h"
#include "src/storage/stable_storage.h"
#include "tests/disk_test_util.h"

namespace hovercraft {
namespace {

std::vector<uint8_t> Bytes(std::initializer_list<uint8_t> b) { return std::vector<uint8_t>(b); }

void Append(SimDisk* disk, const std::string& file, const std::vector<uint8_t>& b) {
  AppendBytes(disk, file, b);
}

// ---------------------------------------------------------------------------
// SimDisk
// ---------------------------------------------------------------------------

TEST(SimDiskTest, ZeroLatencySyncCompletesInlineAndSchedulesNothing) {
  Simulator sim;
  SimDisk disk(&sim, 1, 0);
  Append(&disk, "f", Bytes({1, 2, 3}));
  bool ran = false;
  EXPECT_TRUE(disk.Sync([&]() { ran = true; }, /*coalesce=*/true));
  EXPECT_TRUE(ran);
  EXPECT_EQ(disk.SyncedSize("f"), 3u);
  // Nothing was scheduled: the simulator has no pending events.
  EXPECT_EQ(sim.RunToCompletion(), 0u);
}

TEST(SimDiskTest, PricedSyncCompletesAfterLatency) {
  Simulator sim;
  SimDisk disk(&sim, 1, 500);
  Append(&disk, "f", Bytes({1, 2, 3}));
  TimeNs done_at = -1;
  EXPECT_FALSE(disk.Sync([&]() { done_at = sim.Now(); }, true));
  EXPECT_EQ(disk.SyncedSize("f"), 0u);
  sim.RunToCompletion();
  EXPECT_EQ(done_at, 500);
  EXPECT_EQ(disk.SyncedSize("f"), 3u);
}

TEST(SimDiskTest, CrashDropsUnsyncedSuffixAndPendingCallbacks) {
  Simulator sim;
  SimDisk disk(&sim, 1, 500);
  Append(&disk, "f", Bytes({1, 2, 3, 4}));
  bool ran = false;
  disk.Sync([&]() { ran = true; }, true);
  disk.Crash();
  sim.RunToCompletion();
  EXPECT_FALSE(ran);  // the process died; nothing acks from the grave
  EXPECT_EQ(disk.Size("f"), 0u);
  EXPECT_EQ(disk.stats().bytes_lost, 4u);
}

TEST(SimDiskTest, CrashKeepsSyncedPrefix) {
  Simulator sim;
  SimDisk disk(&sim, 1, 0);
  Append(&disk, "f", Bytes({1, 2}));
  disk.SyncNow();
  Append(&disk, "f", Bytes({3, 4, 5}));
  disk.Crash();
  EXPECT_EQ(disk.Read("f"), Bytes({1, 2}));
}

TEST(SimDiskTest, TornCrashKeepsStrictPrefixOfUnsyncedTail) {
  Simulator sim;
  SimDisk disk(&sim, 7, 0);
  Append(&disk, "f", Bytes({1, 2}));
  disk.SyncNow();
  Append(&disk, "f", Bytes({3, 4, 5, 6}));
  disk.set_next_crash_torn();
  disk.Crash();
  // The synced prefix always survives; at most a strict prefix of the
  // unsynced tail does.
  ASSERT_GE(disk.Size("f"), 2u);
  ASSERT_LT(disk.Size("f"), 6u);
  EXPECT_EQ(disk.Read("f")[0], 1);
  EXPECT_EQ(disk.Read("f")[1], 2);
}

// Regression: a barrier requested while a flush is already in flight must NOT
// ride that flush — its frontier was captured at start and does not cover
// bytes appended since. Riding it acked unsynced entries, which a power
// failure then un-committed (found by the disk-corrupt-entry chaos pair).
TEST(SimDiskTest, CoalescedSyncNeverRidesTheRunningFlush) {
  Simulator sim;
  SimDisk disk(&sim, 1, 500);
  Append(&disk, "f", Bytes({1}));
  disk.Sync(nullptr, true);  // starts the flush; frontier = 1 byte
  Append(&disk, "f", Bytes({2, 3}));
  size_t covered_at_cb = 0;
  disk.Sync([&]() { covered_at_cb = disk.SyncedSize("f"); }, /*coalesce=*/true);
  sim.RunToCompletion();
  EXPECT_EQ(covered_at_cb, 3u);  // the callback's barrier covers both appends
}

TEST(SimDiskTest, GroupCommitCoalescesQueuedBarriers) {
  Simulator sim;
  SimDisk disk(&sim, 1, 500);
  Append(&disk, "f", Bytes({1}));
  disk.Sync(nullptr, true);  // running flush
  int callbacks = 0;
  for (int i = 0; i < 5; ++i) {
    Append(&disk, "f", Bytes({static_cast<uint8_t>(i)}));
    disk.Sync([&]() { ++callbacks; }, /*coalesce=*/true);
  }
  sim.RunToCompletion();
  EXPECT_EQ(callbacks, 5);
  // One running flush + one coalesced group: two priced barriers, not six.
  EXPECT_EQ(disk.stats().syncs, 2u);
}

TEST(SimDiskTest, StallPricesEverySubsequentBarrier) {
  Simulator sim;
  SimDisk disk(&sim, 1, 100);
  disk.set_stall(900);
  Append(&disk, "f", Bytes({1}));
  TimeNs done_at = -1;
  disk.Sync([&]() { done_at = sim.Now(); }, true);
  sim.RunToCompletion();
  EXPECT_EQ(done_at, 1000);
  disk.set_stall(0);
}

TEST(SimDiskTest, FlipByteOnlyTouchesExistingBytes) {
  Simulator sim;
  SimDisk disk(&sim, 1, 0);
  Append(&disk, "f", Bytes({0x00, 0x10}));
  EXPECT_FALSE(disk.FlipByte("missing", 0));
  EXPECT_FALSE(disk.FlipByte("f", 2));
  EXPECT_TRUE(disk.FlipByte("f", 1));
  EXPECT_NE(disk.Read("f")[1], 0x10);
}

// ---------------------------------------------------------------------------
// StableStorage
// ---------------------------------------------------------------------------

std::vector<uint8_t> Payload(uint8_t tag) { return std::vector<uint8_t>(8, tag); }

TEST(StableStorageTest, HardStateAndEntriesRoundTrip) {
  Simulator sim;
  SimDisk disk(&sim, 1, 0);
  StableStorage storage(&disk, FsyncPolicy::kGroupCommit);
  storage.PersistHardState(3, 1);
  for (LogIndex i = 1; i <= 5; ++i) {
    storage.AppendEntry(i, 3, /*replier=*/2, Payload(static_cast<uint8_t>(i)));
  }
  storage.Sync(nullptr);

  StableStorage::Recovery rec = storage.Recover(/*protocol_aware=*/true);
  EXPECT_EQ(rec.term, 3u);
  EXPECT_EQ(rec.voted_for, 1);
  EXPECT_EQ(rec.base_index, 0u);
  ASSERT_EQ(rec.entries.size(), 5u);
  EXPECT_FALSE(rec.suspect);
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(rec.entries[i].idx, i + 1);
    EXPECT_EQ(rec.entries[i].term, 3u);
    EXPECT_EQ(rec.entries[i].replier, 2);
    EXPECT_EQ(rec.entries[i].payload, Payload(static_cast<uint8_t>(i + 1)));
  }
}

TEST(StableStorageTest, CrashLosesUnsyncedEntriesOnly) {
  Simulator sim;
  SimDisk disk(&sim, 1, 500);
  StableStorage storage(&disk, FsyncPolicy::kGroupCommit);
  storage.PersistHardState(1, kInvalidNode);
  storage.AppendEntry(1, 1, 0, Payload(1));
  storage.AppendEntry(2, 1, 0, Payload(2));
  storage.Sync(nullptr);
  sim.RunToCompletion();  // barrier covers entries 1-2
  storage.AppendEntry(3, 1, 0, Payload(3));
  storage.Crash();

  StableStorage::Recovery rec = storage.Recover(true);
  ASSERT_EQ(rec.entries.size(), 2u);
  EXPECT_EQ(rec.entries.back().idx, 2u);
  // Losing an unsynced (hence unacked) suffix is clean, not suspect.
  EXPECT_FALSE(rec.suspect);
  EXPECT_EQ(storage.stats().torn_truncations, 0u);
}

TEST(StableStorageTest, TornTailIsTruncatedWithoutSuspicion) {
  Simulator sim;
  SimDisk disk(&sim, 11, 500);
  StableStorage storage(&disk, FsyncPolicy::kGroupCommit);
  storage.AppendEntry(1, 1, 0, Payload(1));
  storage.Sync(nullptr);
  sim.RunToCompletion();
  storage.AppendEntry(2, 1, 0, Payload(2));
  disk.set_next_crash_torn();
  storage.Crash();

  StableStorage::Recovery rec = storage.Recover(true);
  ASSERT_EQ(rec.entries.size(), 1u);
  EXPECT_FALSE(rec.suspect);
  // A partial record at the physical end is a torn write, not corruption.
  EXPECT_EQ(storage.stats().corrupt_records, 0u);
}

TEST(StableStorageTest, CorruptedCommittedEntryMakesRecoverySuspect) {
  Simulator sim;
  SimDisk disk(&sim, 1, 0);
  StableStorage storage(&disk, FsyncPolicy::kGroupCommit);
  for (LogIndex i = 1; i <= 4; ++i) {
    storage.AppendEntry(i, 1, 0, Payload(static_cast<uint8_t>(i)));
  }
  storage.Sync(nullptr);
  ASSERT_TRUE(storage.CorruptEntry(2));

  StableStorage::Recovery rec = storage.Recover(true);
  // The log is cut at the damage: entries 2-4 are gone even though 3 and 4
  // are intact — contiguity is what replay can vouch for.
  ASSERT_EQ(rec.entries.size(), 1u);
  EXPECT_EQ(rec.entries[0].idx, 1u);
  EXPECT_TRUE(rec.suspect);
  // The floor covers everything that was ever durable, so the node cannot
  // campaign until a leader has re-fed it all four entries.
  EXPECT_GE(rec.suspect_floor, 4u);
  EXPECT_EQ(storage.stats().corrupt_records, 1u);
  EXPECT_EQ(storage.stats().suspect_recoveries, 1u);
}

TEST(StableStorageTest, NaiveRecoveryTruncatesSilently) {
  Simulator sim;
  SimDisk disk(&sim, 1, 0);
  StableStorage storage(&disk, FsyncPolicy::kGroupCommit);
  for (LogIndex i = 1; i <= 4; ++i) {
    storage.AppendEntry(i, 1, 0, Payload(static_cast<uint8_t>(i)));
  }
  storage.Sync(nullptr);
  ASSERT_TRUE(storage.CorruptEntry(2));

  StableStorage::Recovery rec = storage.Recover(/*protocol_aware=*/false);
  ASSERT_EQ(rec.entries.size(), 1u);
  EXPECT_FALSE(rec.suspect);  // the unsafe control: amnesia without the flag
  EXPECT_EQ(storage.stats().suspect_recoveries, 0u);
}

TEST(StableStorageTest, TruncateRecordRewindsReplay) {
  Simulator sim;
  SimDisk disk(&sim, 1, 0);
  StableStorage storage(&disk, FsyncPolicy::kGroupCommit);
  storage.AppendEntry(1, 1, 0, Payload(1));
  storage.AppendEntry(2, 1, 0, Payload(2));
  storage.AppendEntry(3, 1, 0, Payload(3));
  storage.AppendTruncate(2);  // conflict: entries 2-3 were replaced
  storage.AppendEntry(2, 2, 0, Payload(9));
  storage.Sync(nullptr);

  StableStorage::Recovery rec = storage.Recover(true);
  ASSERT_EQ(rec.entries.size(), 2u);
  EXPECT_EQ(rec.entries[1].idx, 2u);
  EXPECT_EQ(rec.entries[1].term, 2u);
  EXPECT_EQ(rec.entries[1].payload, Payload(9));
}

TEST(StableStorageTest, CompactDropsWholeSegmentsBelowBase) {
  Simulator sim;
  SimDisk disk(&sim, 1, 0);
  // Tiny segments force rotation every few records.
  StableStorage storage(&disk, FsyncPolicy::kGroupCommit, /*segment_bytes=*/256);
  for (LogIndex i = 1; i <= 40; ++i) {
    storage.AppendEntry(i, 1, 0, Payload(static_cast<uint8_t>(i)));
  }
  storage.Sync(nullptr);
  ASSERT_GT(disk.List("wal-").size(), 1u);
  storage.AppendCompact(30, 1);
  EXPECT_GT(storage.stats().segments_dropped, 0u);

  StableStorage::Recovery rec = storage.Recover(true);
  EXPECT_EQ(rec.base_index, 30u);
  EXPECT_EQ(rec.base_term, 1u);
  ASSERT_EQ(rec.entries.size(), 10u);
  EXPECT_EQ(rec.entries.front().idx, 31u);
  EXPECT_FALSE(rec.suspect);
}

TEST(StableStorageTest, SnapshotRoundTripsAndSurvivesCrash) {
  Simulator sim;
  SimDisk disk(&sim, 1, 500);
  StableStorage storage(&disk, FsyncPolicy::kGroupCommit);
  storage.SaveSnapshot(12, 2, Payload(7));
  storage.Crash();  // snapshots are synced inline; the crash loses nothing

  StableStorage::Recovery rec = storage.Recover(true);
  ASSERT_TRUE(rec.has_snapshot);
  EXPECT_EQ(rec.snapshot_index, 12u);
  EXPECT_EQ(rec.snapshot_term, 2u);
  EXPECT_EQ(rec.snapshot_payload, Payload(7));
  EXPECT_FALSE(rec.suspect);
}

TEST(StableStorageTest, DamagedSnapshotMarksRecoverySuspect) {
  Simulator sim;
  SimDisk disk(&sim, 1, 0);
  StableStorage storage(&disk, FsyncPolicy::kGroupCommit);
  storage.SaveSnapshot(12, 2, Payload(7));
  ASSERT_TRUE(disk.FlipByte("snapshot", disk.Size("snapshot") - 1));

  StableStorage::Recovery rec = storage.Recover(true);
  EXPECT_FALSE(rec.has_snapshot);
  EXPECT_TRUE(rec.suspect);
}

TEST(StableStorageTest, SyncPerAppendDoesNotCoalesce) {
  Simulator sim;
  SimDisk disk(&sim, 1, 500);
  StableStorage storage(&disk, FsyncPolicy::kSyncPerAppend);
  for (LogIndex i = 1; i <= 3; ++i) {
    storage.AppendEntry(i, 1, 0, Payload(static_cast<uint8_t>(i)));
    storage.Sync(nullptr);
  }
  sim.RunToCompletion();
  EXPECT_EQ(disk.stats().syncs, 3u);  // one priced barrier per append

  SimDisk disk2(&sim, 1, 500);
  StableStorage grouped(&disk2, FsyncPolicy::kGroupCommit);
  for (LogIndex i = 1; i <= 3; ++i) {
    grouped.AppendEntry(i, 1, 0, Payload(static_cast<uint8_t>(i)));
    grouped.Sync(nullptr);
  }
  sim.RunToCompletion();
  EXPECT_EQ(disk2.stats().syncs, 2u);  // running barrier + one coalesced group
}


// ---------------------------------------------------------------------------
// Golden WAL bytes: the on-disk format is pinned byte for byte.
// ---------------------------------------------------------------------------

LogEntry GoldenRequestEntry(Term term, NodeId replier, uint64_t seq, uint8_t fill) {
  LogEntry e;
  e.term = term;
  e.replier = replier;
  e.rid = RequestId{7, seq};
  e.ack_watermark = seq - 1;
  e.request = std::make_shared<RpcRequest>(e.rid, R2p2Policy::kReplicatedReq,
                                           MakeBody(std::vector<uint8_t>(24, fill)),
                                           /*attempt=*/2, /*ack_watermark=*/seq - 1,
                                           /*shard_slot=*/5);
  e.body_hash = HashRequestBody(*e.request);
  return e;
}

LogEntry GoldenConfigNoop(Term term) {
  LogEntry e;
  e.term = term;
  e.noop = true;
  e.config = MakeMembershipConfig({0, 1, 2}, {3});
  return e;
}

// Hard state, a request entry, a config no-op, announce, truncate,
// re-append and compact, in 128-byte segments so the WAL rotates. Entries go
// through WalEntrySize and the deferred WalEntryEncoder (the node's path) or,
// with `via_vector`, through the vector-returning codec and the span overload.
void WriteGoldenSequence(StableStorage* storage, bool via_vector) {
  auto append = [storage, via_vector](LogIndex idx, const LogEntry& e) {
    if (via_vector) {
      storage->AppendEntry(idx, e.term, e.replier, EncodeWalEntry(e));
    } else {
      storage->AppendEntry(idx, e.term, e.replier, WalEntrySize(e), WalEntryEncoder(e));
    }
  };
  storage->PersistHardState(2, 1);
  append(1, GoldenRequestEntry(2, 1, 1, 0xA1));
  append(2, GoldenConfigNoop(2));
  append(3, GoldenRequestEntry(2, kInvalidNode, 2, 0xA3));
  storage->AppendAnnounce(3, 2);
  append(4, GoldenRequestEntry(2, 2, 3, 0xA4));
  storage->AppendTruncate(3);
  storage->PersistHardState(3, 0);
  append(3, GoldenRequestEntry(3, 0, 4, 0xB3));
  append(4, GoldenRequestEntry(3, 0, 5, 0xB4));
  storage->AppendCompact(1, 2);
  storage->Sync(nullptr);
}

std::map<std::string, std::string> WalHex(const SimDisk& disk) {
  std::map<std::string, std::string> out;
  for (const std::string& file : disk.List("wal-")) {
    std::string hex;
    for (uint8_t b : disk.Read(file)) {
      char buf[3];
      std::snprintf(buf, sizeof(buf), "%02x", b);
      hex += buf;
    }
    out[file] = hex;
  }
  return out;
}

// Every segment file the golden sequence leaves behind (segment 1 was
// dropped by the compaction), as written by the original two-pass encoder.
const std::map<std::string, std::string> kGoldenWal = {
    {"wal-00000002",
     "10000000056087beb125f9c5c3000000000000000000000000000000001000000001cfdb3896a0fb"
     "19bc0200000000000000010000000000000061000000025be6b3e0d80aae57020000000000000002"
     "00000000000000ffffffffffffffff06ffffffffffffffff00000000000000000000000000000000"
     "00000000000000000300000000000000000000000100000000000000020000000000000001000000"
     "0300000000000000"},
    {"wal-00000003",
     "10000000056087beb125f9c5c3000000000000000000000000000000001000000001cfdb3896a0fb"
     "19bc020000000000000001000000000000006600000002c30a0ccc7d2220b3030000000000000002"
     "00000000000000ffffffffffffffff01070000000000000002000000000000009d0ba0ecc004812c"
     "0100000000000000010200000001000000000000000500000018000000a3a3a3a3a3a3a3a3a3a3a3"
     "a3a3a3a3a3a3a3a3a3a3a3a3a3"},
    {"wal-00000004",
     "10000000056087beb125f9c5c3000000000000000000000000000000001000000001cfdb3896a0fb"
     "19bc020000000000000001000000000000001000000003134a99414209c98b030000000000000002"
     "0000000000000066000000028a1f6da02dd13f540400000000000000020000000000000002000000"
     "0000000001070000000000000003000000000000006509a4197f4aae8c0200000000000000010200"
     "000002000000000000000500000018000000a4a4a4a4a4a4a4a4a4a4a4a4a4a4a4a4a4a4a4a4a4a4"
     "a4a4"},
    {"wal-00000005",
     "10000000056087beb125f9c5c3000000000000000000000000000000001000000001cfdb3896a0fb"
     "19bc020000000000000001000000000000000800000004107356b1a8d76a3b030000000000000010"
     "00000001efa95e9e5f4a1dec030000000000000000000000000000006600000002555ce1f32a34ed"
     "56030000000000000003000000000000000000000000000000010700000000000000040000000000"
     "0000fd385fde85a5ef3d0300000000000000010200000003000000000000000500000018000000b3"
     "b3b3b3b3b3b3b3b3b3b3b3b3b3b3b3b3b3b3b3b3b3b3b3"},
    {"wal-00000006",
     "10000000056087beb125f9c5c3000000000000000000000000000000001000000001efa95e9e5f4a"
     "1dec030000000000000000000000000000006600000002cdf0c80d88e09292040000000000000003"
     "00000000000000000000000000000001070000000000000005000000000000006550bb1f696da3ae"
     "0400000000000000010200000004000000000000000500000018000000b4b4b4b4b4b4b4b4b4b4b4"
     "b4b4b4b4b4b4b4b4b4b4b4b4b4"},
    {"wal-00000007",
     "1000000005e333b2daff9cb950010000000000000002000000000000001000000001efa95e9e5f4a"
     "1dec030000000000000000000000000000001000000005e333b2daff9cb950010000000000000002"
     "00000000000000"},
};

constexpr size_t kWalRecordHeader = 13;  // u32 len, u8 type, u64 crc

struct WalRecord {
  std::string file;
  size_t offset = 0;
  size_t len = 0;  // payload bytes
  uint8_t type = 0;
  LogIndex idx = 0;  // entry records only
};

std::vector<WalRecord> ParseWal(const SimDisk& disk) {
  std::vector<WalRecord> out;
  for (const std::string& file : disk.List("wal-")) {
    const std::vector<uint8_t>& bytes = disk.Read(file);
    size_t off = 0;
    while (off + kWalRecordHeader <= bytes.size()) {
      BufferReader r(std::span<const uint8_t>(bytes).subspan(off));
      uint32_t len = 0;
      uint8_t type = 0;
      uint64_t crc = 0;
      uint64_t idx = 0;
      EXPECT_TRUE(r.GetU32(len).ok() && r.GetU8(type).ok() && r.GetU64(crc).ok());
      if (type == static_cast<uint8_t>(StableStorage::RecordType::kEntry)) {
        EXPECT_TRUE(r.GetU64(idx).ok());
      }
      out.push_back(WalRecord{file, off, len, type, idx});
      off += kWalRecordHeader + len;
    }
    EXPECT_EQ(off, bytes.size()) << file;
  }
  return out;
}

// Corrupts `idx` and checks the flipped byte lies in the payload of the
// newest entry record for `idx`.
void ExpectCorruptsNewestRecord(StableStorage* storage, SimDisk* disk, LogIndex idx) {
  const std::vector<WalRecord> records = ParseWal(*disk);
  const WalRecord* newest = nullptr;
  for (const WalRecord& rec : records) {
    if (rec.type == static_cast<uint8_t>(StableStorage::RecordType::kEntry) && rec.idx == idx) {
      newest = &rec;
    }
  }
  ASSERT_NE(newest, nullptr);
  const std::vector<uint8_t> before = disk->Read(newest->file);
  ASSERT_TRUE(storage->CorruptEntry(idx));
  const std::vector<uint8_t>& after = disk->Read(newest->file);
  ASSERT_EQ(after.size(), before.size());
  size_t flipped = 0;
  size_t at = 0;
  for (size_t i = 0; i < after.size(); ++i) {
    if (after[i] != before[i]) {
      ++flipped;
      at = i;
    }
  }
  EXPECT_EQ(flipped, 1u);
  EXPECT_GE(at, newest->offset + kWalRecordHeader);
  EXPECT_LT(at, newest->offset + kWalRecordHeader + newest->len);
}

TEST(StableStorageTest, GoldenWalBytes) {
  for (bool via_vector : {false, true}) {
    SCOPED_TRACE(via_vector ? "vector codec" : "deferred encoder");
    Simulator sim;
    SimDisk disk(&sim, 1, 0);
    StableStorage storage(&disk, FsyncPolicy::kGroupCommit, /*segment_bytes=*/128);
    WriteGoldenSequence(&storage, via_vector);
    EXPECT_EQ(WalHex(disk), kGoldenWal);
    EXPECT_EQ(storage.stats().segments_dropped, 1u);
  }
}

TEST(StableStorageTest, CorruptEntryTargetsNewestRecordAcrossRotationAndRecovery) {
  {
    // Straight after the sequence: index 1 is compacted away, index 3 was
    // truncated and re-appended in a later segment.
    Simulator sim;
    SimDisk disk(&sim, 1, 0);
    StableStorage storage(&disk, FsyncPolicy::kGroupCommit, /*segment_bytes=*/128);
    WriteGoldenSequence(&storage, /*via_vector=*/false);
    EXPECT_FALSE(storage.CorruptEntry(1));
    EXPECT_FALSE(storage.CorruptEntry(5));
    ExpectCorruptsNewestRecord(&storage, &disk, 3);
  }
  {
    // After a clean recovery the rebuilt index points at the same records.
    Simulator sim;
    SimDisk disk(&sim, 1, 0);
    StableStorage storage(&disk, FsyncPolicy::kGroupCommit, /*segment_bytes=*/128);
    WriteGoldenSequence(&storage, /*via_vector=*/false);
    StableStorage::Recovery rec = storage.Recover(/*protocol_aware=*/true);
    EXPECT_FALSE(rec.suspect);
    EXPECT_EQ(rec.base_index, 1u);
    ASSERT_EQ(rec.entries.size(), 3u);
    EXPECT_EQ(rec.entries[1].idx, 3u);
    EXPECT_EQ(rec.entries[1].term, 3u);
    EXPECT_EQ(WalHex(disk), kGoldenWal);
    EXPECT_FALSE(storage.CorruptEntry(1));
    ExpectCorruptsNewestRecord(&storage, &disk, 2);
    ExpectCorruptsNewestRecord(&storage, &disk, 4);
    // The damage is found again by the next recovery.
    StableStorage::Recovery again = storage.Recover(true);
    EXPECT_TRUE(again.suspect);
    EXPECT_EQ(storage.stats().corrupt_records, 2u);
  }
}

// ---------------------------------------------------------------------------
// Snapshot file: checksum, corruption detection and golden bytes.
// ---------------------------------------------------------------------------

std::vector<uint8_t> Pattern(size_t n) {
  std::vector<uint8_t> out(n);
  for (size_t i = 0; i < n; ++i) {
    out[i] = static_cast<uint8_t>(i * 37 + 11);
  }
  return out;
}

std::string Hex(std::span<const uint8_t> bytes) {
  std::string hex;
  for (uint8_t b : bytes) {
    char buf[3];
    std::snprintf(buf, sizeof(buf), "%02x", b);
    hex += buf;
  }
  return hex;
}

TEST(SnapshotChecksumTest, KnownAnswerVectors) {
  // Lengths: empty; tail bytes only; one word; three leftover words plus a
  // 7-byte tail; one full four-lane block; a block plus one tail byte; two
  // blocks plus a 5-byte tail.
  const std::pair<size_t, uint64_t> kVectors[] = {
      {0, 0x12A3E42AD9599D1Bull},  {1, 0xE9A519570311C35Aull},  {7, 0x1EBEADAE83839CECull},
      {8, 0x0BF317F59EFD6868ull},  {31, 0xBD987C9879B8B910ull}, {32, 0x9ACF16C7B68BF5DEull},
      {33, 0xD7B6F2E6CC793429ull}, {69, 0x365F5A42BC11DF77ull},
  };
  for (const auto& [len, want] : kVectors) {
    EXPECT_EQ(SnapshotChecksum(Pattern(len)), want) << "length " << len;
  }
}

TEST(SnapshotChecksumTest, EverySingleByteChangeIsDetected) {
  // 1021 bytes: 31 four-lane blocks, 3 leftover words and a 5-byte tail, so
  // every absorption path is covered; every nonzero xor of every byte.
  const std::vector<uint8_t> data = Pattern(1021);
  const uint64_t want = SnapshotChecksum(data);
  std::vector<uint8_t> damaged = data;
  for (size_t i = 0; i < data.size(); ++i) {
    for (int mask = 1; mask < 256; ++mask) {
      damaged[i] = static_cast<uint8_t>(data[i] ^ mask);
      ASSERT_NE(SnapshotChecksum(damaged), want) << "offset " << i << " mask " << mask;
    }
    damaged[i] = data[i];
  }
}

TEST(SnapshotChecksumTest, TopBitFlipsInOneLaneDoNotCancel) {
  // Bit 63 of words 0 and 4 (lane 0 of two consecutive blocks). Without the
  // per-step rotation a difference confined to bit 63 stays there through
  // every multiply, so these two flips would cancel exactly.
  const std::vector<uint8_t> data = Pattern(64);
  std::vector<uint8_t> damaged = data;
  damaged[7] ^= 0x80;
  damaged[39] ^= 0x80;
  EXPECT_NE(SnapshotChecksum(damaged), SnapshotChecksum(data));
}

// Uneven piece lengths: below, at and above the 32-byte block, and larger
// than a 64 KiB fold step.
constexpr size_t kPieces[] = {1, 3, 7, 32, 31, 33, 64, 5, 1000, 70000, 0, 8};

// A frozen image of fixed bytes that writes them in the uneven kPieces
// lengths, and reports how often it was written and when it is destroyed.
class PiecesImage final : public FrozenImage {
 public:
  explicit PiecesImage(std::span<const uint8_t> bytes, int* writes = nullptr,
                       bool* alive = nullptr)
      : bytes_(bytes.begin(), bytes.end()), writes_(writes), alive_(alive) {
    if (alive_ != nullptr) {
      *alive_ = true;
    }
  }
  ~PiecesImage() override {
    if (alive_ != nullptr) {
      *alive_ = false;
    }
  }
  size_t size() const override { return bytes_.size(); }
  void WriteTo(BufferWriter* w) const override {
    const std::span<const uint8_t> bytes(bytes_);
    size_t off = 0;
    for (size_t i = 0; off < bytes.size(); ++i) {
      const size_t n = std::min(kPieces[i % std::size(kPieces)], bytes.size() - off);
      if (n == 1) {
        w->PutU8(bytes[off]);
      } else {
        w->PutBytes(bytes.subspan(off, n));
      }
      off += n;
    }
    if (writes_ != nullptr) {
      ++*writes_;
    }
  }

 private:
  std::vector<uint8_t> bytes_;
  int* writes_;
  bool* alive_;
};

// Saves a snapshot whose payload is `prefix` then a PiecesImage of `image`.
void SaveFrozen(StableStorage* storage, LogIndex idx, Term term, std::span<const uint8_t> prefix,
                std::span<const uint8_t> image, int* writes = nullptr, bool* alive = nullptr) {
  storage->SaveSnapshot(idx, term, std::vector<uint8_t>(prefix.begin(), prefix.end()), [&]() {
    return std::unique_ptr<FrozenImage>(std::make_unique<PiecesImage>(image, writes, alive));
  });
}

TEST(StableStorageTest, AnyFlippedByteOrTruncationDropsTheSnapshot) {
  Simulator sim;
  SimDisk disk(&sim, 1, 0);
  StableStorage storage(&disk, FsyncPolicy::kGroupCommit);
  // The checksum covers everything after its own 8 bytes: a 20-byte header
  // remainder plus 1001 payload bytes = the 1021-byte shape above, so the
  // flips hit the header, all four lanes, the leftover words and the tail.
  const std::vector<uint8_t> payload = Pattern(1001);
  storage.SaveSnapshot(12, 2, payload);
  const std::vector<uint8_t> pristine = disk.Read("snapshot");
  ASSERT_EQ(pristine.size(), 28u + payload.size());
  for (size_t off = 0; off < pristine.size(); ++off) {
    storage.SaveSnapshot(12, 2, payload);
    ASSERT_TRUE(disk.FlipByte("snapshot", off));
    const StableStorage::Recovery rec = storage.Recover(true);
    ASSERT_FALSE(rec.has_snapshot) << "offset " << off;
    ASSERT_TRUE(rec.suspect) << "offset " << off;
  }
  storage.SaveSnapshot(12, 2, payload);
  disk.Truncate("snapshot", pristine.size() - 1);
  StableStorage::Recovery truncated = storage.Recover(true);
  EXPECT_FALSE(truncated.has_snapshot);
  EXPECT_TRUE(truncated.suspect);

  storage.SaveSnapshot(12, 2, payload);
  EXPECT_EQ(disk.Read("snapshot"), pristine);
  StableStorage::Recovery intact = storage.Recover(true);
  ASSERT_TRUE(intact.has_snapshot);
  EXPECT_FALSE(intact.suspect);
  EXPECT_EQ(intact.snapshot_payload, payload);
}

TEST(StableStorageTest, GoldenSnapshotBytes) {
  // [u64 checksum][u64 idx][u64 term][u32 len][payload]. Everything after
  // the checksum is the original layout; a payload given as bytes and one
  // given as a prefix plus a frozen image written in pieces make the same
  // file.
  const std::string kGoldenSnapshot =
      "f9b7579eecd0621f"                                  // checksum
      "0700000000000000" "0300000000000000" "15000000"    // idx, term, len
      "0b30557a9fc4e90e33587da2c7ec11365b80a5caef";       // payload
  const std::vector<uint8_t> payload = Pattern(21);
  for (bool frozen : {false, true}) {
    SCOPED_TRACE(frozen ? "frozen image" : "bytes");
    Simulator sim;
    SimDisk disk(&sim, 1, 0);
    StableStorage storage(&disk, FsyncPolicy::kGroupCommit);
    if (frozen) {
      const std::span<const uint8_t> bytes(payload);
      SaveFrozen(&storage, 7, 3, bytes.first(3), bytes.subspan(3));
    } else {
      storage.SaveSnapshot(7, 3, payload);
    }
    EXPECT_EQ(Hex(disk.Read("snapshot")), kGoldenSnapshot);
    EXPECT_EQ(storage.stats().snapshots_saved, 1u);
    StableStorage::Recovery rec = storage.Recover(true);
    ASSERT_TRUE(rec.has_snapshot);
    EXPECT_EQ(rec.snapshot_index, 7u);
    EXPECT_EQ(rec.snapshot_term, 3u);
    EXPECT_EQ(rec.snapshot_payload, payload);
  }
}

// ---------------------------------------------------------------------------
// Snapshot write path: streamed checksum and the deferred snapshot record.
// ---------------------------------------------------------------------------

uint64_t StreamedChecksum(std::span<const uint8_t> data) {
  SnapshotChecksumStream stream;
  stream.Update({});
  size_t off = 0;
  for (size_t i = 0; off < data.size(); ++i) {
    const size_t n = std::min(kPieces[i % std::size(kPieces)], data.size() - off);
    stream.Update(data.subspan(off, n));
    off += n;
  }
  return stream.Finish();
}

// Every length 0..130, and lengths within 33 bytes of each of the first
// three multiples of 64 KiB; `shift` offsets the second set.
std::vector<size_t> ChecksumTestLengths(size_t shift) {
  std::vector<size_t> lengths;
  for (size_t len = 0; len <= 130; ++len) {
    lengths.push_back(len);
  }
  for (size_t k = 1; k <= 3; ++k) {
    for (size_t d = 0; d <= 66; ++d) {
      lengths.push_back(k * 65536 - shift + d - 33);
    }
  }
  return lengths;
}

TEST(SnapshotChecksumTest, StreamedEqualsOneShotForEveryLengthAndSplit) {
  const std::vector<uint8_t> data = Pattern(3 * 65536 + 64);
  for (size_t len : ChecksumTestLengths(0)) {
    const std::span<const uint8_t> prefix(data.data(), len);
    ASSERT_EQ(StreamedChecksum(prefix), SnapshotChecksum(prefix)) << "length " << len;
  }
}

uint64_t LoadLe64(const std::vector<uint8_t>& b) {
  uint64_t v = 0;
  for (size_t i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(b[i]) << (8 * i);
  }
  return v;
}

// Saves `payload` as a frozen image that writes itself in uneven pieces.
void SnapshotInPieces(StableStorage* storage, LogIndex idx, std::span<const uint8_t> payload) {
  SaveFrozen(storage, idx, 1, {}, payload);
}

TEST(StableStorageTest, SnapshotChecksumFoldedDuringWriteMatchesOneShot) {
  // The file checksum is folded in 64 KiB steps as the payload lands. With a
  // 28-byte header and the checksum starting at byte 8, payloads 20 bytes
  // short of a multiple of 64 KiB put the end of the file on a fold step.
  Simulator sim;
  SimDisk disk(&sim, 1, 0);
  StableStorage storage(&disk, FsyncPolicy::kGroupCommit);
  const std::vector<uint8_t> data = Pattern(3 * 65536 + 64);
  LogIndex idx = 0;
  for (size_t len : ChecksumTestLengths(20)) {
    const std::span<const uint8_t> payload(data.data(), len);
    SnapshotInPieces(&storage, ++idx, payload);
    const std::vector<uint8_t>& file = disk.Read("snapshot");
    ASSERT_EQ(file.size(), 28 + len);
    ASSERT_EQ(LoadLe64(file), SnapshotChecksum(std::span<const uint8_t>(file).subspan(8)))
        << "payload length " << len;
    StableStorage::Recovery rec = storage.Recover(true);
    ASSERT_TRUE(rec.has_snapshot) << "payload length " << len;
    ASSERT_EQ(rec.snapshot_index, idx);
    ASSERT_TRUE(std::equal(rec.snapshot_payload.begin(), rec.snapshot_payload.end(),
                           payload.begin(), payload.end()));
  }
}

TEST(StableStorageTest, ConsecutiveSnapshotsShrinkThenGrowInPlace) {
  // Each snapshot replaces the last whole, whatever their sizes: the file is
  // exactly the new one, fully durable.
  Simulator sim;
  SimDisk disk(&sim, 1, 0);
  StableStorage storage(&disk, FsyncPolicy::kGroupCommit);
  LogIndex idx = 0;
  for (size_t len : {size_t{1} << 20, size_t{10}, size_t{2} << 20}) {
    SCOPED_TRACE(len);
    const std::vector<uint8_t> payload = Pattern(len);
    SnapshotInPieces(&storage, ++idx, payload);
    EXPECT_EQ(disk.Size("snapshot"), 28 + len);
    EXPECT_EQ(disk.SyncedSize("snapshot"), 28 + len);
    StableStorage::Recovery rec = storage.Recover(true);
    ASSERT_TRUE(rec.has_snapshot);
    EXPECT_FALSE(rec.suspect);
    EXPECT_EQ(rec.snapshot_index, idx);
    EXPECT_EQ(rec.snapshot_payload, payload);
  }
  EXPECT_EQ(storage.stats().snapshots_saved, 3u);
}

TEST(StableStorageTest, ReplacedSnapshotIsNeverEncodedAndReleasedBeforeTheNextFreeze) {
  Simulator sim;
  SimDisk disk(&sim, 1, 0);
  StableStorage storage(&disk, FsyncPolicy::kGroupCommit);
  const std::vector<uint8_t> first = Pattern(5000);
  const std::vector<uint8_t> second = Pattern(70);
  int first_writes = 0;
  int second_writes = 0;
  bool first_alive = false;
  bool second_alive = false;
  SaveFrozen(&storage, 1, 1, Bytes({1, 2}), first, &first_writes, &first_alive);
  EXPECT_TRUE(first_alive);
  EXPECT_EQ(disk.Size("snapshot"), 28u + 2 + first.size());
  EXPECT_EQ(disk.SyncedSize("snapshot"), disk.Size("snapshot"));  // durable at once
  bool first_alive_at_freeze = true;
  storage.SaveSnapshot(2, 1, Bytes({3}), [&]() {
    first_alive_at_freeze = first_alive;
    return std::unique_ptr<FrozenImage>(
        std::make_unique<PiecesImage>(second, &second_writes, &second_alive));
  });
  EXPECT_FALSE(first_alive_at_freeze);  // dropped before the next freeze ran
  EXPECT_EQ(first_writes, 0);           // and never encoded
  EXPECT_EQ(second_writes, 0);
  EXPECT_EQ(disk.Size("snapshot"), 28u + 1 + second.size());
  // Counted like any write, at write time.
  EXPECT_EQ(disk.stats().appends, 2u);
  EXPECT_EQ(disk.stats().bytes_written, 28u + 2 + first.size() + 28 + 1 + second.size());

  StableStorage::Recovery rec = storage.Recover(true);
  EXPECT_EQ(second_writes, 1);
  EXPECT_FALSE(second_alive);  // materialized: the image is released
  ASSERT_TRUE(rec.has_snapshot);
  EXPECT_EQ(rec.snapshot_index, 2u);
  std::vector<uint8_t> want = {3};
  want.insert(want.end(), second.begin(), second.end());
  EXPECT_EQ(rec.snapshot_payload, want);
  // A second read sees the same bytes and does not encode again.
  (void)disk.Read("snapshot");
  EXPECT_EQ(second_writes, 1);
}

// Read, FlipByte, Truncate and Crash each produce a frozen snapshot's bytes
// first: the result is the file the same payload makes when given as bytes.
TEST(StableStorageTest, EveryObservationMaterializesTheSameSnapshot) {
  const std::vector<uint8_t> payload = Pattern(3 * 65536 + 5);
  const std::span<const uint8_t> bytes(payload);
  std::vector<uint8_t> eager;
  {
    Simulator sim;
    SimDisk disk(&sim, 1, 0);
    StableStorage storage(&disk, FsyncPolicy::kGroupCommit);
    storage.SaveSnapshot(9, 4, payload);
    eager = disk.Read("snapshot");
  }
  enum class Trigger { kRead, kFlip, kTruncate, kCrash, kTornCrash };
  for (Trigger t : {Trigger::kRead, Trigger::kFlip, Trigger::kTruncate, Trigger::kCrash,
                    Trigger::kTornCrash}) {
    SCOPED_TRACE(static_cast<int>(t));
    Simulator sim;
    SimDisk disk(&sim, 1, 500);
    StableStorage storage(&disk, FsyncPolicy::kGroupCommit);
    int writes = 0;
    SaveFrozen(&storage, 9, 4, bytes.first(100), bytes.subspan(100), &writes);
    std::vector<uint8_t> want = eager;
    switch (t) {
      case Trigger::kRead:
        (void)disk.Read("snapshot");
        break;
      case Trigger::kFlip:
        ASSERT_TRUE(disk.FlipByte("snapshot", 77777));
        want[77777] ^= 0x40;
        break;
      case Trigger::kTruncate:
        disk.Truncate("snapshot", 4000);
        want.resize(4000);
        break;
      case Trigger::kCrash:
      case Trigger::kTornCrash:
        // Synced at once: a crash, torn or not, keeps the whole file.
        if (t == Trigger::kTornCrash) {
          disk.set_next_crash_torn();
        }
        disk.Crash();
        EXPECT_EQ(disk.stats().bytes_lost, 0u);
        break;
    }
    EXPECT_EQ(writes, 1);
    EXPECT_TRUE(disk.Read("snapshot") == want);
    EXPECT_EQ(writes, 1);
  }
}

TEST(SimDiskTest, RewriteLeavesOtherFilesUsable) {
  Simulator sim;
  SimDisk disk(&sim, 1, 0);
  ReplaceWithBytes(&disk, "snapshot", Bytes({1, 2, 3}));
  Append(&disk, "wal-00000001", Bytes({9, 9}));
  ReplaceWithBytes(&disk, "snapshot", Bytes({4, 5}));
  Append(&disk, "wal-00000001", Bytes({8}));
  EXPECT_EQ(disk.Size("wal-00000001"), 3u);
  EXPECT_EQ(disk.SyncedSize("wal-00000001"), 0u);
  EXPECT_EQ(disk.SyncedSize("snapshot"), 2u);
  EXPECT_TRUE(disk.Sync(nullptr, true));
  EXPECT_EQ(disk.Read("snapshot"), Bytes({4, 5}));
  EXPECT_EQ(disk.Read("wal-00000001"), Bytes({9, 9, 8}));
  EXPECT_EQ(disk.SyncedSize("snapshot"), 2u);
  EXPECT_EQ(disk.SyncedSize("wal-00000001"), 3u);
}

}  // namespace
}  // namespace hovercraft
