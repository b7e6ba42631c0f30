// Layer replay: re-runs the Raft log and WAL calls of a measured run outside
// the simulator, at the shapes that run produced, so their host cost can be
// priced per call. Only public functions of RaftLog and StableStorage are
// called. Every replay checks that it did exactly the work asked for.
#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

#include <cstdint>

#include "perfbench/spans.h"

namespace perfbench {

struct ReplayShape {
  uint64_t entries = 0;                 // log entries appended in the run
  uint64_t entries_per_compaction = 0;  // appended between two compactions
  uint64_t retention = 0;               // entries CompactLog always keeps
  uint64_t request_bytes = 0;           // request body carried by each entry
  uint64_t snapshot_bytes = 0;          // app snapshot image size
};

struct ReplayResult {
  double log_append_ns = 0;              // per RaftLog::Append
  double log_compact_ns_per_entry = 0;   // RaftLog::CompactPrefix per entry dropped
  double log_find_ns = 0;                // per RaftLog::FindRequest
  double wal_append_ns = 0;              // per StableStorage::AppendEntry
  double snapshot_save_ms = 0;           // per StableStorage::SaveSnapshot
};

// Spans go to `rec` (one per batch of calls, the batch size as argument).
ReplayResult ReplayLayers(const ReplayShape& shape, SpanRecorder* rec);

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H_
