#include "perfbench/replay.h"

#include <algorithm>
#include <memory>
#include <vector>

#include "src/common/check.h"
#include "src/r2p2/messages.h"
#include "src/raft/log.h"
#include "src/raft/wal_codec.h"
#include "src/sim/simulator.h"
#include "src/storage/sim_disk.h"
#include "src/storage/stable_storage.h"

namespace perfbench {
namespace {

using namespace hovercraft;

constexpr int kClients = 8;
constexpr int kSnapshotSaves = 3;

RequestId RidOf(uint64_t i) {
  return RequestId{static_cast<HostId>(1000 + i % kClients), i / kClients + 1};
}

LogEntry EntryOf(uint64_t i, const std::shared_ptr<const RpcRequest>& request) {
  LogEntry e;
  e.term = 1;
  e.replier = 0;
  e.rid = RidOf(i);
  e.request = request;
  e.body_hash = HashRequestBody(*request);
  return e;
}

// Times `fn` under a span named `name` whose argument is the call count.
template <typename F>
int64_t Timed(SpanRecorder* rec, const char* name, uint64_t calls, F&& fn) {
  ScopedSpan span(rec, name, calls);
  const int64_t t0 = HostNowNs();
  fn();
  return HostNowNs() - t0;
}

}  // namespace

ReplayResult ReplayLayers(const ReplayShape& shape, SpanRecorder* rec) {
  HC_CHECK_GT(shape.entries, 0u);
  HC_CHECK_GT(shape.entries_per_compaction, 0u);
  ReplayResult out;
  const uint64_t n = shape.entries;
  const uint64_t batch = shape.entries_per_compaction;

  // One request object per entry, built before any timing starts.
  std::vector<std::shared_ptr<const RpcRequest>> requests;
  requests.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    requests.push_back(std::make_shared<RpcRequest>(
        RidOf(i), R2p2Policy::kReplicatedReq,
        MakeBody(std::vector<uint8_t>(shape.request_bytes, static_cast<uint8_t>(i)))));
  }

  // --- RaftLog: append in compaction-sized batches, compacting down to the
  // retention window after each batch, as the server's compaction timer does.
  {
    RaftLog log;
    int64_t append_ns = 0, compact_ns = 0;
    uint64_t compacted = 0;
    for (uint64_t i = 0; i < n;) {
      const uint64_t stop = std::min(n, i + batch);
      std::vector<LogEntry> pending;
      pending.reserve(stop - i);
      for (uint64_t j = i; j < stop; ++j) {
        pending.push_back(EntryOf(j, requests[j]));
      }
      append_ns += Timed(rec, "raft.RaftLog::Append", stop - i, [&]() {
        for (LogEntry& e : pending) {
          log.Append(std::move(e));
        }
      });
      i = stop;
      if (log.last_index() > shape.retention) {
        const LogIndex target = log.last_index() - shape.retention;
        const LogIndex before = log.first_index();
        compact_ns += Timed(rec, "raft.RaftLog::CompactPrefix", target + 1 - before,
                            [&]() { log.CompactPrefix(target); });
        compacted += log.first_index() - before;
      }
    }
    HC_CHECK_EQ(log.last_index(), n);
    HC_CHECK_EQ(compacted, log.first_index() - 1);
    HC_CHECK_EQ(compacted, n > shape.retention ? n - shape.retention : 0);

    // Look every retained entry up, cycling until `n` lookups are done.
    uint64_t found = 0;
    const LogIndex first = log.first_index();
    const uint64_t retained = log.last_index() - first + 1;
    const int64_t find_ns = Timed(rec, "raft.RaftLog::FindRequest", n, [&]() {
      for (uint64_t k = 0; k < n; ++k) {
        const uint64_t i = first - 1 + k % retained;
        found += log.FindRequest(RidOf(i)) == i + 1 ? 1 : 0;
      }
    });
    HC_CHECK_EQ(found, n);
    out.log_append_ns = static_cast<double>(append_ns) / static_cast<double>(n);
    out.log_compact_ns_per_entry =
        compacted == 0 ? 0 : static_cast<double>(compact_ns) / static_cast<double>(compacted);
    out.log_find_ns = static_cast<double>(find_ns) / static_cast<double>(n);
  }

  // --- StableStorage: the WAL record the node journals per entry.
  {
    Simulator sim;
    SimDisk disk(&sim, 1, 0);
    StableStorage storage(&disk, FsyncPolicy::kGroupCommit);
    const std::vector<uint8_t> payload = EncodeWalEntry(EntryOf(0, requests[0]));
    int64_t wal_ns = 0;
    for (uint64_t i = 0; i < n;) {
      const uint64_t stop = std::min(n, i + batch);
      wal_ns += Timed(rec, "storage.StableStorage::AppendEntry", stop - i, [&]() {
        for (uint64_t j = i; j < stop; ++j) {
          storage.AppendEntry(j + 1, 1, 0, payload);
        }
      });
      i = stop;
    }
    HC_CHECK_EQ(storage.stats().entry_records, n);
    HC_CHECK_GE(disk.stats().bytes_written, n * payload.size());
    out.wal_append_ns = static_cast<double>(wal_ns) / static_cast<double>(n);

    // --- StableStorage::SaveSnapshot at the run's image size.
    const uint64_t before = disk.stats().bytes_written;
    int64_t save_ns = 0;
    for (int k = 0; k < kSnapshotSaves; ++k) {
      std::vector<uint8_t> image(shape.snapshot_bytes, static_cast<uint8_t>(k));
      save_ns += Timed(rec, "storage.StableStorage::SaveSnapshot", 1,
                       [&]() { storage.SaveSnapshot(n, 1, std::move(image)); });
    }
    HC_CHECK_EQ(storage.stats().snapshots_saved, static_cast<uint64_t>(kSnapshotSaves));
    HC_CHECK_GE(disk.stats().bytes_written - before, kSnapshotSaves * shape.snapshot_bytes);
    out.snapshot_save_ms = static_cast<double>(save_ns) / kSnapshotSaves / 1e6;
  }
  return out;
}

}  // namespace perfbench
