// Deferred WAL records (docs/durability.md, "WAL write path"): a record's
// bytes are produced only when a read, a fault or recovery first observes its
// file. These tests show that nothing observable depends on when that
// happens: sizes, durability watermarks, crash draws, recovery verdicts and
// the final bytes are the same whether a file was read after every step or
// never, and a segment compacted away is never encoded at all.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include "src/app/kvstore/service.h"
#include "src/common/buffer.h"
#include "src/common/types.h"
#include "src/core/cluster.h"
#include "src/raft/log.h"
#include "src/raft/membership.h"
#include "src/raft/wal_codec.h"
#include "src/sim/serial_resource.h"
#include "src/sim/simulator.h"
#include "src/storage/fsync_policy.h"
#include "src/storage/sim_disk.h"
#include "src/storage/stable_storage.h"

namespace hovercraft {
namespace {

// A random log entry: a noop, a config noop, or a request (read-only or
// not) whose body is null, empty, small or 64 KiB.
LogEntry RandomEntry(std::mt19937_64& rng) {
  LogEntry e;
  e.term = 1 + rng() % 5;
  e.replier = static_cast<NodeId>(rng() % 4) - 1;  // kInvalidNode included
  e.rid = RequestId{static_cast<HostId>(rng() % 100), rng()};
  e.ack_watermark = rng();
  switch (rng() % 4) {
    case 0:
      e.noop = true;
      break;
    case 1:
      e.noop = true;
      e.config = MakeMembershipConfig({0, 1, 2}, rng() % 2 == 0 ? std::vector<NodeId>{}
                                                                  : std::vector<NodeId>{3, 4});
      break;
    default: {
      static constexpr size_t kBodySizes[] = {0, 1, 24, 64 * 1024};
      Body body;
      if (rng() % 5 != 0) {
        body = MakeBody(std::vector<uint8_t>(kBodySizes[rng() % 4], static_cast<uint8_t>(rng())));
      }
      e.read_only = rng() % 3 == 0;
      e.request = std::make_shared<RpcRequest>(
          e.rid, e.read_only ? R2p2Policy::kReplicatedReqRo : R2p2Policy::kReplicatedReq,
          std::move(body), static_cast<uint32_t>(1 + rng() % 3), e.ack_watermark,
          static_cast<uint32_t>(rng() % 64));
      e.body_hash = HashRequestBody(*e.request);
      break;
    }
  }
  return e;
}

TEST(WalCodecTest, WalEntrySizeAndDeferredEncoderMatchEncodeWalEntry) {
  std::mt19937_64 rng(20261019);
  int with_request = 0;
  int with_config = 0;
  for (int i = 0; i < 400; ++i) {
    const LogEntry e = RandomEntry(rng);
    with_request += e.request != nullptr ? 1 : 0;
    with_config += e.config != nullptr ? 1 : 0;
    const std::vector<uint8_t> eager = EncodeWalEntry(e);
    EXPECT_EQ(WalEntrySize(e), eager.size()) << i;
    BufferWriter w;
    const WalEntryEncoder encoder(e);
    encoder(&w);
    EXPECT_EQ(w.bytes(), eager) << i;
  }
  EXPECT_GT(with_request, 100);
  EXPECT_GT(with_config, 50);
}

// One disk plus the WAL on it.
struct Rig {
  explicit Rig(TimeNs sync_latency, size_t segment_bytes = 512, uint64_t seed = 7)
      : disk(&sim, seed, sync_latency),
        storage(&disk, FsyncPolicy::kGroupCommit, segment_bytes) {}
  Simulator sim;
  SimDisk disk;
  StableStorage storage;
};

// What the durability model can see of every file without reading bytes.
std::map<std::string, std::pair<size_t, size_t>> Shape(const SimDisk& disk) {
  std::map<std::string, std::pair<size_t, size_t>> out;
  for (const std::string& file : disk.List("")) {
    out[file] = {disk.Size(file), disk.SyncedSize(file)};
  }
  return out;
}

std::map<std::string, std::vector<uint8_t>> Contents(const SimDisk& disk) {
  std::map<std::string, std::vector<uint8_t>> out;
  for (const std::string& file : disk.List("")) {
    out[file] = disk.Read(file);
  }
  return out;
}

void AppendNodeEntry(StableStorage* storage, LogIndex idx, const LogEntry& e) {
  storage->AppendEntry(idx, e.term, e.replier, WalEntrySize(e), WalEntryEncoder(e));
}

// Drives one seeded random sequence of every record type, syncs, compaction
// and truncation. With `observe`, every file is read after every step.
void RunRandomSequence(Rig* rig, uint64_t seed, bool observe,
                       std::vector<std::map<std::string, std::pair<size_t, size_t>>>* shapes) {
  std::mt19937_64 rng(seed);
  LogIndex next = 1;
  LogIndex base = 0;
  Term term = 1;
  for (int step = 0; step < 600; ++step) {
    const uint64_t op = rng() % 100;
    if (op < 55) {
      // The encoder owns its entry: nothing of it is kept alive here.
      AppendNodeEntry(&rig->storage, next++, RandomEntry(rng));
    } else if (op < 60) {
      rig->storage.AppendEntry(next++, term, 0, std::vector<uint8_t>(rng() % 40, 0x5A));
    } else if (op < 70) {
      if (next > base + 1) {
        rig->storage.AppendAnnounce(base + 1 + rng() % (next - base - 1),
                                    static_cast<NodeId>(rng() % 3));
      }
    } else if (op < 74) {
      term += rng() % 2;
      rig->storage.PersistHardState(term, static_cast<NodeId>(rng() % 3));
    } else if (op < 78) {
      if (next > base + 2) {
        next = base + 2 + rng() % (next - base - 2);
        rig->storage.AppendTruncate(next);
      }
    } else if (op < 83) {
      if (next > base + 2) {
        base += 1 + rng() % (next - base - 2);
        rig->storage.AppendCompact(base, term);
      }
    } else if (op < 95) {
      rig->storage.Sync(nullptr);
    } else {
      rig->sim.RunUntil(rig->sim.Now() + static_cast<TimeNs>(rng() % 400));
    }
    if (observe) {
      (void)Contents(rig->disk);
    }
    shapes->push_back(Shape(rig->disk));
  }
  rig->sim.RunUntil(rig->sim.Now() + 1000);
  shapes->push_back(Shape(rig->disk));
}

TEST(WalDeferredTest, ReadingAfterEveryStepChangesNothingObservable) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE(seed);
    Rig observed(/*sync_latency=*/200);
    Rig deferred(/*sync_latency=*/200);
    std::vector<std::map<std::string, std::pair<size_t, size_t>>> observed_shapes;
    std::vector<std::map<std::string, std::pair<size_t, size_t>>> deferred_shapes;
    RunRandomSequence(&observed, seed, /*observe=*/true, &observed_shapes);
    RunRandomSequence(&deferred, seed, /*observe=*/false, &deferred_shapes);
    EXPECT_EQ(observed_shapes, deferred_shapes);
    EXPECT_GT(deferred.storage.stats().segments_dropped, 0u);  // rotation and compaction ran
    EXPECT_EQ(deferred.disk.records_encoded(), 0u);
    EXPECT_EQ(Contents(observed.disk), Contents(deferred.disk));
    EXPECT_GT(deferred.disk.records_encoded(), 0u);
    const SimDiskStats& a = observed.disk.stats();
    const SimDiskStats& b = deferred.disk.stats();
    EXPECT_EQ(std::tie(a.appends, a.bytes_written, a.syncs, a.coalesced),
              std::tie(b.appends, b.bytes_written, b.syncs, b.coalesced));
    // Recovery reads the same bytes, hence replays the same log.
    const StableStorage::Recovery ra = observed.storage.Recover(true);
    const StableStorage::Recovery rb = deferred.storage.Recover(true);
    EXPECT_EQ(ra.entries.size(), rb.entries.size());
    EXPECT_EQ(ra.base_index, rb.base_index);
    EXPECT_EQ(ra.term, rb.term);
    EXPECT_EQ(ra.suspect, rb.suspect);
  }
}

// A WAL over several segments whose tail is not yet durable: the first 30
// entries are synced by the hard-state record, the last 10 are not.
void WriteUnsyncedTail(Rig* rig) {
  std::mt19937_64 rng(99);
  for (LogIndex i = 1; i <= 30; ++i) {
    AppendNodeEntry(&rig->storage, i, RandomEntry(rng));
  }
  rig->storage.PersistHardState(2, 1);
  for (LogIndex i = 31; i <= 40; ++i) {
    AppendNodeEntry(&rig->storage, i, RandomEntry(rng));
  }
}

// Runs `trigger` on two identical WALs, one of them read before it, and
// expects the same files, sizes and bytes afterwards.
template <typename Trigger>
void ExpectSameWithOrWithoutPriorRead(Trigger trigger) {
  Rig read_first(/*sync_latency=*/0, /*segment_bytes=*/4096);
  Rig untouched(/*sync_latency=*/0, /*segment_bytes=*/4096);
  WriteUnsyncedTail(&read_first);
  WriteUnsyncedTail(&untouched);
  ASSERT_GT(untouched.disk.List("wal-").size(), 2u);
  (void)Contents(read_first.disk);
  EXPECT_EQ(untouched.disk.records_encoded(), 0u);
  trigger(&read_first);
  trigger(&untouched);
  EXPECT_EQ(Shape(read_first.disk), Shape(untouched.disk));
  EXPECT_EQ(Contents(read_first.disk), Contents(untouched.disk));
  EXPECT_EQ(read_first.disk.stats().bytes_lost, untouched.disk.stats().bytes_lost);
}

TEST(WalDeferredTest, PlainCrashKeepsTheSyncedPrefixEitherWay) {
  ExpectSameWithOrWithoutPriorRead([](Rig* rig) {
    const size_t lost_before = rig->disk.stats().bytes_lost;
    rig->storage.Crash();
    EXPECT_GT(rig->disk.stats().bytes_lost, lost_before);  // the unsynced tail went
  });
}

TEST(WalDeferredTest, TornCrashKeepsTheSameTornLengthEitherWay) {
  std::vector<size_t> tails;
  ExpectSameWithOrWithoutPriorRead([&tails](Rig* rig) {
    const std::string tail = rig->disk.List("wal-").back();
    const size_t synced = rig->disk.SyncedSize(tail);
    const size_t size = rig->disk.Size(tail);
    ASSERT_LT(synced, size);
    rig->disk.set_next_crash_torn();
    rig->storage.Crash();
    EXPECT_GE(rig->disk.stats().torn_crashes, 1u);
    EXPECT_GE(rig->disk.Size(tail), synced);
    EXPECT_LT(rig->disk.Size(tail), size);
    tails.push_back(rig->disk.Size(tail));
  });
  ASSERT_EQ(tails.size(), 2u);
  EXPECT_EQ(tails[0], tails[1]);
}

TEST(WalDeferredTest, CorruptEntryThenRecoverFindsTheSameCrcHoleEitherWay) {
  std::vector<std::tuple<bool, size_t, LogIndex, uint64_t>> verdicts;
  ExpectSameWithOrWithoutPriorRead([&verdicts](Rig* rig) {
    rig->storage.PersistHardState(2, 1);  // everything durable
    ASSERT_TRUE(rig->storage.CorruptEntry(12));
    const StableStorage::Recovery rec = rig->storage.Recover(/*protocol_aware=*/true);
    EXPECT_TRUE(rec.suspect);
    EXPECT_EQ(rec.entries.size(), 11u);  // cut at the damaged entry
    verdicts.emplace_back(rec.suspect, rec.entries.size(), rec.suspect_floor,
                          rig->storage.stats().corrupt_records);
  });
  ASSERT_EQ(verdicts.size(), 2u);
  EXPECT_EQ(verdicts[0], verdicts[1]);
  EXPECT_EQ(std::get<3>(verdicts[0]), 1u);
}

TEST(WalDeferredTest, TruncateMidRecordCutsTheSameBytesEitherWay) {
  ExpectSameWithOrWithoutPriorRead([](Rig* rig) {
    const std::string tail = rig->disk.List("wal-").back();
    const size_t size = rig->disk.Size(tail);
    rig->disk.Truncate(tail, size - 7);  // inside the last record
    EXPECT_EQ(rig->disk.Size(tail), size - 7);
    EXPECT_LE(rig->disk.SyncedSize(tail), size - 7);
  });
}

TEST(WalDeferredTest, DeleteDropsTheSameFileEitherWay) {
  ExpectSameWithOrWithoutPriorRead([](Rig* rig) {
    const std::string head = rig->disk.List("wal-").front();
    rig->disk.Delete(head);
    EXPECT_FALSE(rig->disk.Exists(head));
  });
}

TEST(WalDeferredTest, CompactedAwaySegmentsAreNeverEncoded) {
  Rig rig(/*sync_latency=*/0, /*segment_bytes=*/1024);
  std::mt19937_64 rng(5);
  size_t records = 0;
  for (LogIndex i = 1; i <= 200; ++i) {
    AppendNodeEntry(&rig.storage, i, RandomEntry(rng));
    ++records;
    rig.storage.Sync(nullptr);
  }
  rig.storage.AppendCompact(190, 5);
  EXPECT_GT(rig.storage.stats().segments_dropped, 3u);
  EXPECT_EQ(rig.disk.records_encoded(), 0u);  // the dropped segments were never encoded
  (void)Contents(rig.disk);
  EXPECT_GT(rig.disk.records_encoded(), 0u);
  EXPECT_LT(rig.disk.records_encoded(), records / 2);  // only the retained tail was
  const StableStorage::Recovery rec = rig.storage.Recover(/*protocol_aware=*/true);
  EXPECT_FALSE(rec.suspect);
  EXPECT_EQ(rec.base_index, 190u);
  EXPECT_EQ(rec.entries.size(), 10u);
}

// SerialResource::Submit refuses, at compile time, a completion that would
// fall back to the heap; a reply Body alone is nearly the whole budget.
struct OversizedCompletion {
  Body reply;
  RequestId rid;
  void operator()() const {}
};
static_assert(sizeof(Body) + sizeof(RequestId) > Simulator::kInlineCallbackBytes);
static_assert(!Simulator::Callback::kStoresInline<OversizedCompletion>);

// Every replica of a group shares one genesis image; a replica whose app
// does not start from the same state fails the image-size check.
TEST(GenesisImageDeathTest, ReplicaStartingFromADifferentStateFailsTheCheck) {
  EXPECT_DEATH(
      {
        ClusterConfig config;
        config.mode = ClusterMode::kHovercRaft;
        config.nodes = 3;
        int made = 0;
        config.app_factory = [&made]() {
          auto app = std::make_unique<KvService>();
          if (made++ == 1) {
            app->store().Set("k", "v");
          }
          return app;
        };
        Cluster cluster(config);
      },
      "CHECK failed");
}

}  // namespace
}  // namespace hovercraft
