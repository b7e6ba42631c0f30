// Microbenchmarks for the Raft log hot paths (google-benchmark).
#include <benchmark/benchmark.h>

#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "src/app/kvstore/service.h"
#include "src/app/ycsb.h"
#include "src/common/buffer.h"
#include "src/common/random.h"
#include "src/raft/log.h"
#include "src/raft/wal_codec.h"
#include "src/sim/simulator.h"
#include "src/storage/sim_disk.h"
#include "src/storage/stable_storage.h"

namespace hovercraft {
namespace {

LogEntry MakeEntry(uint64_t seq) {
  LogEntry e;
  e.term = 1;
  e.rid = RequestId{1, seq};
  e.request = std::make_shared<RpcRequest>(e.rid, R2p2Policy::kReplicatedReq,
                                           MakeBody(std::vector<uint8_t>(24)));
  return e;
}

void BM_LogAppend(benchmark::State& state) {
  RaftLog log;
  uint64_t seq = 0;
  for (auto _ : state) {
    log.Append(MakeEntry(++seq));
    if (log.size() >= 100'000) {
      state.PauseTiming();
      log.CompactPrefix(log.last_index());
      state.ResumeTiming();
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_LogAppend);

void BM_LogAppendCompactSteadyState(benchmark::State& state) {
  // The shape long benchmark runs exercise: append at the head, compact the
  // tail, bounded working set.
  RaftLog log;
  uint64_t seq = 0;
  for (auto _ : state) {
    log.Append(MakeEntry(++seq));
    if (log.size() > 4096) {
      log.CompactPrefix(log.last_index() - 2048);
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_LogAppendCompactSteadyState);

void BM_LogFindRequest(benchmark::State& state) {
  RaftLog log;
  for (uint64_t i = 1; i <= 10'000; ++i) {
    log.Append(MakeEntry(i));
  }
  uint64_t seq = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(log.FindRequest(RequestId{1, (seq++ % 10'000) + 1}));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_LogFindRequest);

void BM_LogTermAt(benchmark::State& state) {
  RaftLog log;
  for (uint64_t i = 1; i <= 10'000; ++i) {
    log.Append(MakeEntry(i));
  }
  uint64_t idx = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(log.TermAt((idx++ % 10'000) + 1));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_LogTermAt);

// FindRequest at the fig7 log shape: compaction trims the log to 4096
// retained entries, appends grow it back to ~16k live entries, and rids come
// from several clients. The table has been through that churn before timing
// starts. Hits look up live rids; misses look up compacted ones.
constexpr uint64_t kFig7Live = 16'384;
constexpr uint64_t kFig7Retained = 4'096;
constexpr int kFig7Clients = 8;

RequestId Fig7Rid(uint64_t i) {
  return RequestId{static_cast<HostId>(100 + i % kFig7Clients), i / kFig7Clients + 1};
}

RaftLog Fig7Log() {
  RaftLog log;
  LogEntry e;
  e.term = 1;
  uint64_t i = 0;
  for (int round = 0; round < 4; ++round) {
    while (log.size() < kFig7Live) {
      e.rid = Fig7Rid(i++);
      log.Append(e);
    }
    if (round < 3) {
      log.CompactPrefix(log.last_index() - kFig7Retained);
    }
  }
  return log;
}

void BM_LogFindRequestFig7Hit(benchmark::State& state) {
  const RaftLog log = Fig7Log();
  const uint64_t first = log.first_index() - 1;
  uint64_t k = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(log.FindRequest(Fig7Rid(first + k++ % kFig7Live)));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_LogFindRequestFig7Hit);

void BM_LogFindRequestFig7Miss(benchmark::State& state) {
  const RaftLog log = Fig7Log();
  const uint64_t compacted = log.first_index() - 1;
  uint64_t k = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(log.FindRequest(Fig7Rid(k++ % compacted)));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_LogFindRequestFig7Miss);

// One WAL entry record for a 24 B request, through the node's path: the
// record is queued unencoded, and compaction drops old segments (never
// encoded) as the log advances, as in a run that nothing reads the WAL of.
void BM_StableStorageAppendEntry24B(benchmark::State& state) {
  Simulator sim;
  SimDisk disk(&sim, 1, 0);
  StableStorage storage(&disk, FsyncPolicy::kGroupCommit);
  const LogEntry e = MakeEntry(1);
  LogIndex idx = 0;
  for (auto _ : state) {
    ++idx;
    storage.AppendEntry(idx, e.term, e.replier, WalEntrySize(e), WalEntryEncoder(e));
    if (idx % kFig7Live == 0) {
      state.PauseTiming();
      storage.AppendCompact(idx - kFig7Retained, e.term);
      state.ResumeTiming();
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  state.SetBytesProcessed(static_cast<int64_t>(disk.stats().bytes_written));
}
BENCHMARK(BM_StableStorageAppendEntry24B);

// What the pending path moved to observation time: the first Read of one
// full 256 KiB segment of 24 B-request entry records encodes and CRCs every
// record in it. Reported per record (items) and per byte.
void BM_StableStorageMaterializeSegment24B(benchmark::State& state) {
  struct Wal {
    Simulator sim;
    SimDisk disk{&sim, 1, 0};
    StableStorage storage{&disk, FsyncPolicy::kGroupCommit};
  };
  const LogEntry e = MakeEntry(1);
  const std::string segment = "wal-00000001";
  std::unique_ptr<Wal> wal;
  int64_t records = 0;
  int64_t bytes = 0;
  for (auto _ : state) {
    state.PauseTiming();
    wal = std::make_unique<Wal>();  // the previous segment is freed untimed
    LogIndex idx = 0;
    while (wal->disk.Size(segment) < 256 * 1024) {
      ++idx;
      wal->storage.AppendEntry(idx, e.term, e.replier, WalEntrySize(e), WalEntryEncoder(e));
    }
    records += static_cast<int64_t>(idx);
    bytes += static_cast<int64_t>(wal->disk.Size(segment));
    state.ResumeTiming();
    benchmark::DoNotOptimize(wal->disk.Read(segment).data());
  }
  state.SetItemsProcessed(records);
  state.SetBytesProcessed(bytes);
}
BENCHMARK(BM_StableStorageMaterializeSegment24B);

// Snapshot save at the ycsb-e-pp5-80k image size: every 20 ms compaction
// takes a ~21 MiB image per replica. The checksum cases compare the FNV-1a
// the snapshot file used to carry with SnapshotChecksum; the save case is
// one whole StableStorage snapshot, saved and then read, which produces its
// bytes and checksum.
constexpr size_t kYcsbImageBytes = size_t{21} << 20;

// Runs `body` once per benchmark iteration and reports ns per MiB of `bytes`.
template <typename Body>
void TimePerMiB(benchmark::State& state, size_t bytes, Body body) {
  const auto start = std::chrono::steady_clock::now();
  for (auto _ : state) {
    body();
  }
  const std::chrono::duration<double, std::nano> elapsed = std::chrono::steady_clock::now() - start;
  const double mib = static_cast<double>(bytes) / (1 << 20) * static_cast<double>(state.iterations());
  state.counters["ns_per_MiB"] = elapsed.count() / mib;
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(bytes));
}

std::vector<uint8_t> YcsbSizedImage() {
  std::vector<uint8_t> image(kYcsbImageBytes);
  for (size_t i = 0; i < image.size(); ++i) {
    image[i] = static_cast<uint8_t>(i * 131 + (i >> 12));
  }
  return image;
}

void BM_SnapshotChecksumFnv1a21MiB(benchmark::State& state) {
  const std::vector<uint8_t> image = YcsbSizedImage();
  TimePerMiB(state, image.size(), [&]() { benchmark::DoNotOptimize(Fnv1aHash(image)); });
}
BENCHMARK(BM_SnapshotChecksumFnv1a21MiB)->Unit(benchmark::kMillisecond);

void BM_SnapshotChecksum21MiB(benchmark::State& state) {
  const std::vector<uint8_t> image = YcsbSizedImage();
  TimePerMiB(state, image.size(), [&]() { benchmark::DoNotOptimize(SnapshotChecksum(image)); });
}
BENCHMARK(BM_SnapshotChecksum21MiB)->Unit(benchmark::kMillisecond);

void BM_StableStorageSaveSnapshot21MiB(benchmark::State& state) {
  Simulator sim;
  SimDisk disk(&sim, 1, 0);
  StableStorage storage(&disk, FsyncPolicy::kGroupCommit);
  const Body image = MakeBody(YcsbSizedImage());
  LogIndex idx = 0;
  TimePerMiB(state, image.size(), [&]() {
    storage.SaveSnapshot(++idx, 1, std::vector<uint8_t>(), [&]() { return FreezeBody(image); });
    benchmark::DoNotOptimize(disk.Read("snapshot").data());
  });
}
BENCHMARK(BM_StableStorageSaveSnapshot21MiB)->Unit(benchmark::kMillisecond);

// The same save with the real image: a KvService holding the ycsb-e
// preload (2000 conversations x 10 posts of 1 KB, ~21 MiB).
//   SinglePass: the server's path (StateMachine::Freeze), read at once, so
//     the store serializes straight into the file's buffer: what every
//     snapshot cost while snapshots were written eagerly.
//   Freeze: what a compaction interval now costs: the freeze, plus the 80
//     zipf-skewed Rpushes that land before the next one (80 kRPS x 5%
//     inserts x 20 ms), each first touch of a key saving it in the undo log.
//   MaterializeFrozen: what a read, a fault or recovery now pays for that
//     interval's file: the image written from the order capture and the
//     undo log.
//   ViaSnapshotState: the default route a wrapper that overrides only
//     SnapshotState() takes: serialize into a fresh vector, then copy it.
std::unique_ptr<KvService> YcsbPreloadedKv() {
  auto svc = std::make_unique<KvService>();
  Rng rng(1);
  for (const KvCommand& cmd : YcsbEGenerator(YcsbEConfig{}).PreloadCommands(rng)) {
    svc->Apply(cmd);
  }
  return svc;
}

// The ycsb-e inserts of one 20 ms compaction interval at 80 kRPS.
constexpr int kInsertsPerInterval = 80;

// Runs kInsertsPerInterval zipf-skewed YCSB-E inserts (Rpush) on `svc`.
void RunIntervalInserts(KvService* svc, const YcsbEGenerator& inserts, Rng& rng) {
  for (int i = 0; i < kInsertsPerInterval; ++i) {
    svc->Apply(inserts.Next(rng));
  }
}

YcsbEGenerator InsertOnlyYcsb() {
  YcsbEConfig config;
  config.scan_fraction = 0;
  return YcsbEGenerator(config);
}

void BM_KvSnapshotSinglePass21MiB(benchmark::State& state) {
  Simulator sim;
  SimDisk disk(&sim, 1, 0);
  StableStorage storage(&disk, FsyncPolicy::kGroupCommit);
  const std::unique_ptr<KvService> svc = YcsbPreloadedKv();
  LogIndex idx = 0;
  TimePerMiB(state, svc->SnapshotSize(), [&]() {
    storage.SaveSnapshot(++idx, 1, std::vector<uint8_t>(), [&]() { return svc->Freeze(); });
    benchmark::DoNotOptimize(disk.Read("snapshot").data());
    benchmark::ClobberMemory();
  });
}
BENCHMARK(BM_KvSnapshotSinglePass21MiB)->Unit(benchmark::kMillisecond);

void BM_KvFreeze21MiB(benchmark::State& state) {
  Simulator sim;
  SimDisk disk(&sim, 1, 0);
  StableStorage storage(&disk, FsyncPolicy::kGroupCommit);
  const std::unique_ptr<KvService> svc = YcsbPreloadedKv();
  const YcsbEGenerator inserts = InsertOnlyYcsb();
  Rng rng(2);
  LogIndex idx = 0;
  for (auto _ : state) {
    storage.SaveSnapshot(++idx, 1, std::vector<uint8_t>(), [&]() { return svc->Freeze(); });
    RunIntervalInserts(svc.get(), inserts, rng);
  }
  state.counters["records_encoded"] = static_cast<double>(disk.records_encoded());
}
BENCHMARK(BM_KvFreeze21MiB)->Unit(benchmark::kMicrosecond);

void BM_KvMaterializeFrozen21MiB(benchmark::State& state) {
  Simulator sim;
  SimDisk disk(&sim, 1, 0);
  StableStorage storage(&disk, FsyncPolicy::kGroupCommit);
  const std::unique_ptr<KvService> svc = YcsbPreloadedKv();
  const YcsbEGenerator inserts = InsertOnlyYcsb();
  Rng rng(2);
  LogIndex idx = 0;
  const auto start = std::chrono::steady_clock::now();
  std::chrono::duration<double, std::nano> untimed{0};
  size_t bytes = 0;
  for (auto _ : state) {
    state.PauseTiming();
    const auto pause = std::chrono::steady_clock::now();
    storage.SaveSnapshot(++idx, 1, std::vector<uint8_t>(), [&]() { return svc->Freeze(); });
    RunIntervalInserts(svc.get(), inserts, rng);
    bytes += disk.Size("snapshot");
    untimed += std::chrono::steady_clock::now() - pause;
    state.ResumeTiming();
    benchmark::DoNotOptimize(disk.Read("snapshot").data());
    benchmark::ClobberMemory();
  }
  const std::chrono::duration<double, std::nano> elapsed =
      std::chrono::steady_clock::now() - start - untimed;
  state.counters["ns_per_MiB"] = elapsed.count() / (static_cast<double>(bytes) / (1 << 20));
  state.SetBytesProcessed(static_cast<int64_t>(bytes));
}
BENCHMARK(BM_KvMaterializeFrozen21MiB)->Unit(benchmark::kMillisecond);

void BM_KvSnapshotViaSnapshotState21MiB(benchmark::State& state) {
  Simulator sim;
  SimDisk disk(&sim, 1, 0);
  StableStorage storage(&disk, FsyncPolicy::kGroupCommit);
  const std::unique_ptr<KvService> svc = YcsbPreloadedKv();
  LogIndex idx = 0;
  TimePerMiB(state, svc->SnapshotSize(), [&]() {
    const Body image = svc->SnapshotState();
    storage.SaveSnapshot(++idx, 1, std::vector<uint8_t>(image.begin(), image.end()));
    benchmark::DoNotOptimize(disk.Read("snapshot").data());
    benchmark::ClobberMemory();
  });
}
BENCHMARK(BM_KvSnapshotViaSnapshotState21MiB)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace hovercraft

BENCHMARK_MAIN();
