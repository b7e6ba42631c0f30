// StableStorage: the node's durable Raft state on a SimDisk.
//
// Layout (docs/durability.md):
//   wal-<seq>   segmented append-only record log. Record framing is
//               [u32 len][u8 type][u64 crc][payload]; the CRC covers the type
//               byte and the payload. Entry payloads are opaque to this layer
//               (src/raft/wal_codec.h encodes/decodes them); the storage
//               layer keeps only the (index, term, replier) envelope it needs
//               for replay, truncation, and corruption targeting.
//   snapshot    the latest local state snapshot (session table + application
//               state blob), replaced atomically (SimDisk::Replace). Framing
//               is [u64 checksum][u64 idx][u64 term][u32 len][payload]; the
//               checksum (SnapshotChecksum) covers everything after itself.
//
// Every WAL record is appended as a SimDisk deferred record: its exact size
// is known and counted at append time, and its bytes (header, CRC, envelope
// and payload) are produced only when a read, a fault or recovery first
// observes the segment (docs/durability.md, "WAL write path"). A segment
// compacted away before that is never encoded. The snapshot file is one
// deferred record the same way: its payload ends in a frozen app image, and
// a snapshot replaced before anything read it is never encoded ("Snapshot
// write path").
//
// Durability discipline: records land in the volatile tail; Sync() runs a
// barrier priced by persist_latency under the configured FsyncPolicy. Hard
// state (term/vote) and snapshots are synced inline at zero cost — they are
// rare and off the data path; the model prices only the per-entry fsync the
// paper's §2.3 NVM assumption is about.
//
// Recovery replays the WAL with per-record CRC validation:
//   - a framing break at the physical tail is a torn write: the tail is
//     truncated (it was unsynced, hence unacked — safe);
//   - a CRC-bad record (or a framing break with data after it) means durable
//     bytes were lost: the reconstructed log is cut at the damage and the
//     recovery is marked *suspect* — the node must not campaign until its
//     commit index reaches everything it may ever have acknowledged
//     (`suspect_floor`), so an amnesiac replica cannot win an election and
//     un-commit acknowledged data; the missing entries are re-fetched from
//     the leader through the ordinary AppendEntries / InstallSnapshot path.
//   - with protocol-aware recovery disabled (the chaos control), the scan
//     silently truncates at the first bad record and sets no suspect flag —
//     the naive behaviour the defended path exists to avoid.
#ifndef SRC_STORAGE_STABLE_STORAGE_H_
#define SRC_STORAGE_STABLE_STORAGE_H_

#include <concepts>
#include <cstdint>
#include <deque>
#include <memory>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/common/buffer.h"
#include "src/common/frozen_image.h"
#include "src/common/types.h"
#include "src/storage/fsync_policy.h"
#include "src/storage/sim_disk.h"

namespace hovercraft {

// The snapshot file's checksum: four independent xor-multiply-rotate lanes
// (FNV-1a prime) over little-endian 8-byte words, then the lanes, the tail
// bytes and the length folded into one value. Every step is a bijection of
// the word it absorbs, so any single-byte or single-word change is always
// detected. Four chains of one multiply per 8 bytes replace FNV-1a's single
// chain of one multiply per byte (docs/durability.md). WAL records keep
// their FNV-1a CRC. Equal to SnapshotChecksumStream fed `data` in one piece.
uint64_t SnapshotChecksum(std::span<const uint8_t> data);

// SnapshotChecksum over data that arrives in pieces of any length: Update
// absorbs every whole 32-byte block and keeps the rest for the next piece
// or for Finish, so the value is the same however the data was split.
class SnapshotChecksumStream {
 public:
  void Update(std::span<const uint8_t> data);
  uint64_t Finish() const;

 private:
  static constexpr size_t kBlockBytes = 32;  // one 8-byte word per lane
  static constexpr uint64_t kBasis = 0xCBF29CE484222325ull;  // FNV-1a offset basis
  void AbsorbBlocks(const uint8_t* p, size_t blocks);

  // Distinct seeds keep the lanes apart.
  uint64_t lane_[4] = {kBasis, kBasis + 0x9E3779B97F4A7C15ull, kBasis + 0x3C6EF372FE94F82Aull,
                       kBasis + 0xDAA66D2C7DDF743Full};
  uint8_t pending_[kBlockBytes] = {};
  size_t pending_bytes_ = 0;
  uint64_t length_ = 0;
};

struct StorageStats {
  uint64_t entry_records = 0;
  uint64_t meta_records = 0;  // hard-state / announce / truncate / compact
  uint64_t snapshots_saved = 0;
  uint64_t recoveries = 0;
  uint64_t recovered_entries = 0;
  uint64_t torn_truncations = 0;    // torn tails cut during recovery
  uint64_t corrupt_records = 0;     // CRC-failed records found during recovery
  uint64_t suspect_recoveries = 0;  // recoveries that lost durable bytes
  uint64_t segments_dropped = 0;
};

class StableStorage {
 public:
  // WAL record types (framing byte). Values are part of the on-disk format.
  enum class RecordType : uint8_t {
    kHardState = 1,  // u64 term, i64 voted_for
    kEntry = 2,      // u64 idx, u64 term, i64 replier, opaque entry payload
    kAnnounce = 3,   // u64 idx, i64 replier
    kTruncate = 4,   // u64 from
    kCompact = 5,    // u64 base_idx, u64 base_term
  };

  struct RecoveredEntry {
    LogIndex idx = 0;
    Term term = 0;
    NodeId replier = kInvalidNode;
    std::vector<uint8_t> payload;  // wal_codec bytes
  };

  struct Recovery {
    Term term = 0;
    NodeId voted_for = kInvalidNode;
    // Log base after replay (latest durable compaction point).
    LogIndex base_index = 0;
    Term base_term = 0;
    // Contiguous from base_index + 1.
    std::vector<RecoveredEntry> entries;
    // Durable data was discarded: the node may have acknowledged entries it
    // no longer holds and must not campaign until commit >= suspect_floor.
    bool suspect = false;
    LogIndex suspect_floor = 0;
    // Latest local snapshot, if one survived (CRC-validated).
    bool has_snapshot = false;
    LogIndex snapshot_index = 0;
    Term snapshot_term = 0;
    std::vector<uint8_t> snapshot_payload;
  };

  StableStorage(SimDisk* disk, FsyncPolicy policy, size_t segment_bytes = 256 * 1024)
      : disk_(disk), policy_(policy), segment_bytes_(segment_bytes) {}
  StableStorage(const StableStorage&) = delete;
  StableStorage& operator=(const StableStorage&) = delete;

  // --- write path (RaftNode hooks) -----------------------------------------
  // Term/vote change; synced inline (zero cost, see header comment).
  void PersistHardState(Term term, NodeId voted_for);
  // The node's form: `encoder` writes exactly `payload_bytes` of opaque
  // payload behind the header and envelope when the record is materialized,
  // so it must own what it encodes: it outlives the call.
  template <typename Encoder>
    requires std::invocable<const Encoder&, BufferWriter*>
  void AppendEntry(LogIndex idx, Term term, NodeId replier, size_t payload_bytes,
                   Encoder encoder) {
    const size_t offset = AppendRecord<RecordType::kEntry>(
        kEntryEnvelopeBytes + payload_bytes,
        [idx, term, replier, encoder = std::move(encoder)](BufferWriter* w) {
          PutEntryEnvelope(w, idx, term, replier);
          encoder(w);
        });
    NoteEntryAppended(idx, offset);
  }
  // A payload already in bytes: the pending record owns a copy of them.
  void AppendEntry(LogIndex idx, Term term, NodeId replier,
                   std::span<const uint8_t> payload);
  void AppendAnnounce(LogIndex idx, NodeId replier);
  void AppendTruncate(LogIndex from);
  // Logical prefix compaction; drops whole WAL segments that fell below the
  // new base. Callers persist a covering snapshot first.
  void AppendCompact(LogIndex base_idx, Term base_term);
  // Atomically replaces the local snapshot (synced inline); its payload is
  // `prefix` followed by the image `freeze()` returns (null for none). The
  // file is one deferred record: header, prefix and image are written, and
  // the checksum folded over them, only when a read, a fault or recovery
  // first observes it. The previous snapshot goes first, unencoded, so its
  // image is released before freeze() runs: an app that allows one live
  // freeze at a time (KvService) can take the next one there.
  template <typename Freeze>
    requires std::is_invocable_r_v<std::unique_ptr<FrozenImage>, Freeze&>
  void SaveSnapshot(LogIndex idx, Term term, std::vector<uint8_t> prefix, Freeze&& freeze) {
    disk_->Replace(disk_->Open(kSnapshotFile), [&]() {
      return SnapshotRecord(idx, term, std::move(prefix), freeze());
    });
    ++stats_.snapshots_saved;
  }
  // A payload already in bytes: the pending record owns them.
  void SaveSnapshot(LogIndex idx, Term term, std::vector<uint8_t> payload);

  // Durability barrier under the configured policy. Returns true when it
  // completed inline (cb already ran); false when cb runs later, unless the
  // process crashes first — a crash drops pending barriers entirely.
  bool Sync(SimDisk::SyncCallback cb);

  // --- fault hooks ----------------------------------------------------------
  void Crash() { disk_->Crash(); }
  // Flips a byte inside the newest WAL record for `idx` (CRC-detectable).
  bool CorruptEntry(LogIndex idx);

  // --- recovery -------------------------------------------------------------
  // Replays the WAL (see header comment) and re-opens it for appending.
  Recovery Recover(bool protocol_aware);

  FsyncPolicy policy() const { return policy_; }
  void set_policy(FsyncPolicy p) { policy_ = p; }
  // Names the owning node so recovery trace instants and flight-recorder
  // events carry the right scope.
  void set_node(NodeId node) { node_ = node; }
  SimDisk* disk() { return disk_; }
  const StorageStats& stats() const { return stats_; }

 private:
  struct Segment {
    uint64_t seq = 0;
    LogIndex max_entry_idx = 0;
    std::string name;  // file name, formatted once when the segment is made
    SimDisk::File* file = nullptr;  // opened by the segment's first record
  };
  // Where the newest entry record of one index starts; seg_seq 0 marks an
  // index without one (a gap).
  struct EntryLocation {
    uint64_t seg_seq = 0;
    size_t offset = 0;
  };

  static constexpr size_t kRecordHeaderBytes = 4 + 1 + 8;  // len, type, crc
  static constexpr size_t kEntryEnvelopeBytes = 8 + 8 + 8;  // idx, term, replier
  static constexpr char kSnapshotFile[] = "snapshot";

  // The snapshot file's one deferred record: the whole file.
  class SnapshotRecord {
   public:
    SnapshotRecord(LogIndex idx, Term term, std::vector<uint8_t> prefix,
                   std::unique_ptr<FrozenImage> image);
    size_t size() const;
    // Writes the header, the prefix and the image, folding the checksum in
    // 64 KiB steps as the bytes land, then patches the checksum in place.
    void operator()(BufferWriter* w) const;

   private:
    LogIndex idx_;
    Term term_;
    std::vector<uint8_t> prefix_;
    std::unique_ptr<FrozenImage> image_;
  };

  void AddSegment(uint64_t seq);
  // The current segment's file, after rotating to a new segment (with a
  // fresh baseline) when the current one outgrew segment_bytes_.
  SimDisk::File* CurrentFile();
  // Appends a deferred record of type kType to the current segment:
  // `payload(w)` writes exactly `payload_bytes` when the disk materializes
  // it, framed by WriteRecordHeader / SealRecord. Returns its offset.
  template <RecordType kType, typename Payload>
  size_t AppendRecord(size_t payload_bytes, Payload payload) {
    SimDisk::File* file = CurrentFile();
    return disk_->AppendDeferred(file, kRecordHeaderBytes + payload_bytes,
                                 [payload = std::move(payload)](BufferWriter* w) {
                                   const size_t start = WriteRecordHeader(w, kType);
                                   payload(w);
                                   SealRecord(w, start);
                                 });
  }
  // Starts a record at the writer's end with placeholder length and CRC
  // fields; returns where it starts.
  static size_t WriteRecordHeader(BufferWriter* w, RecordType type);
  // Patches the length and CRC of the record starting at `start`, whose
  // payload runs to the writer's end.
  static void SealRecord(BufferWriter* w, size_t start);
  static void PutEntryEnvelope(BufferWriter* w, LogIndex idx, Term term, NodeId replier);
  void NoteEntryAppended(LogIndex idx, size_t offset);
  void WriteHardStateRecord();
  void WriteCompactRecord();
  void WriteBaseline();

  void NoteEntryLocation(LogIndex idx, uint64_t seg_seq, size_t offset);
  void ForgetLocationsFrom(LogIndex from);
  void ForgetLocationsThrough(LogIndex base);

  SimDisk* disk_;
  FsyncPolicy policy_;
  size_t segment_bytes_;
  NodeId node_ = kInvalidNode;

  std::vector<Segment> segments_;
  // Mirrors of the latest persisted values, used for rotation baselines.
  Term term_ = 0;
  NodeId voted_for_ = kInvalidNode;
  LogIndex base_idx_ = 0;
  Term base_term_ = 0;
  bool in_baseline_ = false;

  // entry_locations_[i] locates index first_location_ + i; corruption
  // targeting only. Pruned by truncation and compaction.
  std::deque<EntryLocation> entry_locations_;
  LogIndex first_location_ = 0;

  StorageStats stats_;
};

}  // namespace hovercraft

#endif  // SRC_STORAGE_STABLE_STORAGE_H_
