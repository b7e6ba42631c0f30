// Simulated durable media for one node.
//
// A SimDisk is a set of named byte files plus a flush engine. Writes land in
// the volatile tail of a file immediately; they only become durable when a
// sync barrier that covers them completes. The flush engine is a serial
// device: one sync is in flight at a time, each costing `sync_latency` (the
// node's RaftOptions::persist_latency) plus any injected stall, so
// sync-per-append queues while group commit coalesces. With a zero effective
// latency a sync completes inline — no simulator event is scheduled — which
// keeps the default persist_latency=0 configurations on exactly the event
// timeline they had before durability was modelled.
//
// Crashing the disk models power loss: the unsynced suffix of every file is
// discarded (torn mode keeps a partial prefix of it — a torn final record)
// and every pending sync callback dies with the process, so nothing can ack
// from the grave. FlipByte models media corruption of already-durable bytes.
//
// Every write is deferred (AppendDeferred, Replace): it declares its exact
// length at write time and produces its bytes only when something first
// observes the file: Read, FlipByte, Truncate or Crash. Until then a file is
// its materialized bytes followed by pending records, and every size,
// durability watermark, flush frontier, crash draw and counter works on that
// logical length, so nothing observable depends on when the bytes were
// produced. A file deleted or replaced before anything observed it never
// produces them (docs/durability.md, "WAL write path" and "Snapshot write
// path").
#ifndef SRC_STORAGE_SIM_DISK_H_
#define SRC_STORAGE_SIM_DISK_H_

#include <cstdint>
#include <deque>
#include <map>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "src/common/types.h"
#include "src/sim/simulator.h"
#include "src/storage/deferred_records.h"

namespace hovercraft {

struct SimDiskStats {
  uint64_t appends = 0;
  uint64_t bytes_written = 0;
  uint64_t syncs = 0;            // completed barriers (inline ones included)
  uint64_t coalesced = 0;        // barriers that piggybacked on a queued flush
  uint64_t crashes = 0;
  uint64_t bytes_lost = 0;       // unsynced bytes dropped by crashes
  uint64_t torn_crashes = 0;     // crashes that left a partial unsynced tail
  uint64_t flips = 0;            // injected corruption events
  uint64_t stall_ns = 0;         // total extra sync latency injected
};

class SimDisk {
 public:
  // The simulator's inline callable: a barrier's completion callback is
  // stored without a heap allocation when its capture fits in 56 bytes.
  using SyncCallback = Simulator::Callback;

  // A file. Callers hold the pointer Open returns as a handle, valid until
  // the file is deleted; only SimDisk reads or writes the fields.
  class File {
   private:
    friend class SimDisk;
    // Materialized bytes, then the pending records, in append order. Both
    // change when a const read materializes the file; the logical content
    // does not.
    mutable std::vector<uint8_t> data;
    mutable DeferredRecords pending;
    size_t length = 0;    // logical length: data plus every pending record
    size_t synced = 0;    // durable watermark: [0, synced) survives a crash
    size_t frontier = 0;  // length captured when the running flush started
  };

  SimDisk(Simulator* sim, uint64_t seed, TimeNs sync_latency)
      : sim_(sim), rng_(seed), sync_latency_(sync_latency) {}
  SimDisk(const SimDisk&) = delete;
  SimDisk& operator=(const SimDisk&) = delete;

  // --- writes ---------------------------------------------------------------
  // Returns `name`'s handle, creating the file (empty) if it does not exist.
  File* Open(const std::string& name) { return &files_[name]; }
  // Queues a record of exactly `len` bytes that encode(BufferWriter* w)
  // appends to w, which then holds the file's bytes before the record, when
  // the file is first observed. Counted as written now. Returns the offset
  // at which the record starts. No lookup by name: the per-record WAL path.
  template <typename Encode>
  size_t AppendDeferred(File* file, size_t len, Encode&& encode) {
    const size_t offset = file->length;
    file->pending.Push(std::forward<Encode>(encode));
    file->length += len;
    ++stats_.appends;
    stats_.bytes_written += len;
    return offset;
  }
  // Atomic replace-and-sync, the simulated write-to-temp + rename idiom used
  // for snapshot files. The old content goes first, pending records
  // unencoded, so whatever they hold is released before `make()` runs;
  // make() then returns the new content as one deferred record, an encoder
  // with size() (its exact length), which is durable at once. Counted as one
  // append of that length.
  template <typename Make>
  void Replace(File* file, Make&& make) {
    file->pending.Clear();
    std::vector<uint8_t>().swap(file->data);  // no buffer held for the new record
    file->length = 0;
    auto encode = make();
    const size_t len = encode.size();
    AppendDeferred(file, len, std::move(encode));
    file->synced = file->length;
  }
  // Truncates `file` to `size` bytes (clamping the durable watermark too).
  void Truncate(const std::string& file, size_t size);
  void Delete(const std::string& file);

  // --- durability -----------------------------------------------------------
  // Requests a whole-device barrier: everything written before the covering
  // flush *starts* is durable when `cb` runs. With `coalesce`, the request
  // piggybacks on an already-queued (not yet started) flush — group commit.
  // Returns true when the barrier completed inline (zero effective latency
  // and an idle device); `cb` has then already run.
  bool Sync(SyncCallback cb, bool coalesce);
  // Synchronous zero-cost barrier: marks everything written so far durable.
  // Used for rare off-data-path records (hard state, snapshot metadata) whose
  // latency the model deliberately does not price (docs/durability.md).
  void SyncNow();

  // --- faults ---------------------------------------------------------------
  // Power loss. Drops the unsynced suffix of every file and aborts pending
  // flush callbacks. In torn mode (one-shot, armed by the nemesis) a random
  // partial prefix of the unsynced tail survives — a torn final record.
  void Crash();
  void set_next_crash_torn() { next_crash_torn_ = true; }
  // Flips one bit of an already-written byte. Returns false when the file is
  // missing or shorter than `offset`.
  bool FlipByte(const std::string& file, size_t offset);
  // Gray-disk injection: every subsequent flush costs `extra` more.
  void set_stall(TimeNs extra) { stall_ = extra; }
  TimeNs stall() const { return stall_; }

  // --- reads ----------------------------------------------------------------
  bool Exists(const std::string& file) const { return files_.count(file) != 0; }
  const std::vector<uint8_t>& Read(const std::string& file) const;
  size_t Size(const std::string& file) const;
  size_t Size(const File* file) const { return file->length; }
  size_t SyncedSize(const std::string& file) const;
  // Sorted names of the files whose name starts with `prefix`.
  std::vector<std::string> List(const std::string& prefix) const;

  const SimDiskStats& stats() const { return stats_; }
  // Deferred records whose bytes were produced (an observation reached
  // them). Not part of SimDiskStats: the metrics registry and everything
  // derived from it are the same whenever the bytes were produced.
  uint64_t records_encoded() const { return records_encoded_; }
  Simulator* sim() const { return sim_; }
  // Barriers waiting for (or holding) the flush engine; the per-node
  // flush-queue depth sampler reads this.
  size_t queue_depth() const { return queue_.size(); }
  // Names the node this disk belongs to, scoping the fsync latency histogram
  // ("node3/storage.fsync_ns").
  void set_node(NodeId node);

 private:
  // One queued barrier; the covered frontier is captured when the flush
  // starts (group-commit semantics), not when it was requested.
  struct FlushOp {
    TimeNs requested = 0;  // for the fsync latency histogram
    std::vector<SyncCallback> callbacks;
  };

  // Request-to-completion barrier latency (queueing included) into the
  // per-node "storage.fsync_ns" histogram; no-op without observability.
  void RecordFsyncLatency(TimeNs latency);

  void StartNextFlush();
  void CompleteFlush();
  void FinishFront();
  void MarkAllSynced();
  // Produces `f`'s pending records, in order, after its bytes.
  void Materialize(const File& f) const;
  // Materializes and cuts `f` to at most `size` bytes.
  void Cut(File& f, size_t size);

  Simulator* sim_;
  std::mt19937_64 rng_;
  TimeNs sync_latency_;
  TimeNs stall_ = 0;
  bool next_crash_torn_ = false;
  NodeId node_ = kInvalidNode;
  std::string fsync_metric_;  // cached histogram name, built on first record

  std::map<std::string, File> files_;
  std::deque<FlushOp> queue_;
  bool flush_running_ = false;
  EventId flush_event_ = kInvalidEvent;

  SimDiskStats stats_;
  mutable uint64_t records_encoded_ = 0;
};

}  // namespace hovercraft

#endif  // SRC_STORAGE_SIM_DISK_H_
