#include "src/storage/stable_storage.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstring>
#include <utility>

#include "src/common/buffer.h"
#include "src/common/check.h"
#include "src/obs/observability.h"

namespace hovercraft {

namespace {

constexpr size_t kSnapshotHeaderBytes = 8 + 8 + 8 + 4;  // checksum, idx, term, len
// Checksum step while a snapshot is written: small enough that the folded
// bytes are still in L2, large enough that the hook call is noise.
constexpr size_t kSnapshotFoldBytes = 64 * 1024;

uint64_t RecordCrc(uint8_t type, std::span<const uint8_t> payload) {
  const uint8_t t[1] = {type};
  return Fnv1aHash(payload, Fnv1aHash(std::span<const uint8_t>(t, 1)));
}

uint64_t LoadLe64(const uint8_t* p) {
  uint64_t w = 0;
  std::memcpy(&w, p, sizeof(w));
  if constexpr (std::endian::native == std::endian::big) {
    w = __builtin_bswap64(w);
  }
  return w;
}

// The snapshot checksum's step. The rotation feeds each multiply's high bits
// back into the low bits the next multiply spreads upward. The FNV prime is
// odd, so every step is a bijection of the absorbed word.
uint64_t ChecksumMix(uint64_t h, uint64_t v) { return std::rotl((h ^ v) * 0x100000001B3ull, 31); }

}  // namespace

void SnapshotChecksumStream::AbsorbBlocks(const uint8_t* p, size_t blocks) {
  // Lanes in locals: stores to lane_ could alias the bytes being read, which
  // would keep the four chains in memory instead of registers.
  uint64_t l0 = lane_[0];
  uint64_t l1 = lane_[1];
  uint64_t l2 = lane_[2];
  uint64_t l3 = lane_[3];
  for (size_t b = 0; b < blocks; ++b, p += kBlockBytes) {
    l0 = ChecksumMix(l0, LoadLe64(p));
    l1 = ChecksumMix(l1, LoadLe64(p + 8));
    l2 = ChecksumMix(l2, LoadLe64(p + 16));
    l3 = ChecksumMix(l3, LoadLe64(p + 24));
  }
  lane_[0] = l0;
  lane_[1] = l1;
  lane_[2] = l2;
  lane_[3] = l3;
}

void SnapshotChecksumStream::Update(std::span<const uint8_t> data) {
  length_ += data.size();
  const uint8_t* p = data.data();
  size_t n = data.size();
  if (pending_bytes_ > 0) {
    const size_t take = std::min(n, kBlockBytes - pending_bytes_);
    if (take > 0) {
      std::memcpy(pending_ + pending_bytes_, p, take);
    }
    pending_bytes_ += take;
    p += take;
    n -= take;
    if (pending_bytes_ < kBlockBytes) {
      return;
    }
    AbsorbBlocks(pending_, 1);
    pending_bytes_ = 0;
  }
  const size_t blocks = n / kBlockBytes;
  AbsorbBlocks(p, blocks);
  p += blocks * kBlockBytes;
  n -= blocks * kBlockBytes;
  if (n > 0) {
    std::memcpy(pending_, p, n);
  }
  pending_bytes_ = n;
}

uint64_t SnapshotChecksumStream::Finish() const {
  // Leftover whole words go into lanes 0-2, then the lanes fold into one
  // value, then the tail bytes, then the length.
  uint64_t lane[4] = {lane_[0], lane_[1], lane_[2], lane_[3]};
  size_t i = 0;
  for (size_t k = 0; i + 8 <= pending_bytes_; i += 8, ++k) {
    lane[k] = ChecksumMix(lane[k], LoadLe64(pending_ + i));
  }
  uint64_t h = kBasis;
  for (uint64_t l : lane) {
    h = ChecksumMix(h, l);
  }
  for (; i < pending_bytes_; ++i) {
    h = ChecksumMix(h, pending_[i]);
  }
  return ChecksumMix(h, length_);
}

uint64_t SnapshotChecksum(std::span<const uint8_t> data) {
  SnapshotChecksumStream stream;
  stream.Update(data);
  return stream.Finish();
}

void StableStorage::AddSegment(uint64_t seq) {
  char name[24];
  std::snprintf(name, sizeof(name), "wal-%08llu", static_cast<unsigned long long>(seq));
  segments_.push_back(Segment{seq, 0, name});
}

SimDisk::File* StableStorage::CurrentFile() {
  if (segments_.empty()) {
    AddSegment(1);
  }
  Segment* seg = &segments_.back();
  if (seg->file == nullptr) {
    seg->file = disk_->Open(seg->name);
  }
  if (!in_baseline_ && disk_->Size(seg->file) >= segment_bytes_) {
    AddSegment(seg->seq + 1);
    WriteBaseline();  // opens the new segment's file
    seg = &segments_.back();
  }
  return seg->file;
}

void StableStorage::WriteBaseline() {
  // A freshly rotated segment restates the compaction point and the hard
  // state, so recovery can start from any retained segment prefix.
  in_baseline_ = true;
  WriteCompactRecord();
  WriteHardStateRecord();
  in_baseline_ = false;
}

size_t StableStorage::WriteRecordHeader(BufferWriter* w, RecordType type) {
  const size_t start = w->size();
  w->PutU32(0);  // length, patched by SealRecord
  w->PutU8(static_cast<uint8_t>(type));
  w->PutU64(0);  // CRC, patched by SealRecord
  return start;
}

void StableStorage::SealRecord(BufferWriter* w, size_t start) {
  const std::span<const uint8_t> record = std::span<const uint8_t>(w->bytes()).subspan(start);
  const std::span<const uint8_t> payload = record.subspan(kRecordHeaderBytes);
  w->PatchU32(start, static_cast<uint32_t>(payload.size()));
  w->PatchU64(start + 5, RecordCrc(record[4], payload));
}

void StableStorage::PutEntryEnvelope(BufferWriter* w, LogIndex idx, Term term, NodeId replier) {
  w->PutU64(idx);
  w->PutU64(static_cast<uint64_t>(term));
  w->PutI64(static_cast<int64_t>(replier));
}

void StableStorage::NoteEntryAppended(LogIndex idx, size_t offset) {
  Segment& seg = segments_.back();
  seg.max_entry_idx = std::max(seg.max_entry_idx, idx);
  NoteEntryLocation(idx, seg.seq, offset);
  ++stats_.entry_records;
}

void StableStorage::WriteHardStateRecord() {
  AppendRecord<RecordType::kHardState>(16, [term = term_, vote = voted_for_](BufferWriter* w) {
    w->PutU64(static_cast<uint64_t>(term));
    w->PutI64(static_cast<int64_t>(vote));
  });
}

void StableStorage::WriteCompactRecord() {
  AppendRecord<RecordType::kCompact>(16, [idx = base_idx_, term = base_term_](BufferWriter* w) {
    w->PutU64(idx);
    w->PutU64(static_cast<uint64_t>(term));
  });
}

void StableStorage::NoteEntryLocation(LogIndex idx, uint64_t seg_seq, size_t offset) {
  if (entry_locations_.empty()) {
    first_location_ = idx;
  } else if (idx < first_location_) {
    entry_locations_.insert(entry_locations_.begin(), first_location_ - idx, EntryLocation{});
    first_location_ = idx;
  }
  const size_t slot = idx - first_location_;
  if (slot >= entry_locations_.size()) {
    entry_locations_.resize(slot + 1);  // skipped indices stay gaps
  }
  entry_locations_[slot] = EntryLocation{seg_seq, offset};
}

void StableStorage::ForgetLocationsFrom(LogIndex from) {
  if (from <= first_location_) {
    entry_locations_.clear();
  } else if (from - first_location_ < entry_locations_.size()) {
    entry_locations_.resize(from - first_location_);
  }
}

void StableStorage::ForgetLocationsThrough(LogIndex base) {
  if (base < first_location_) {
    return;
  }
  const size_t n = std::min<size_t>(base - first_location_ + 1, entry_locations_.size());
  entry_locations_.erase(entry_locations_.begin(), entry_locations_.begin() + n);
  first_location_ = base + 1;
}

void StableStorage::PersistHardState(Term term, NodeId voted_for) {
  term_ = term;
  voted_for_ = voted_for;
  WriteHardStateRecord();
  ++stats_.meta_records;
  // A vote/term promise must never be forgotten across a crash; its sync is
  // deliberately priced at zero (rare, off the data path).
  disk_->SyncNow();
}

void StableStorage::AppendEntry(LogIndex idx, Term term, NodeId replier,
                                std::span<const uint8_t> payload) {
  AppendEntry(idx, term, replier, payload.size(),
              [bytes = std::vector<uint8_t>(payload.begin(), payload.end())](BufferWriter* w) {
                w->PutBytes(bytes);
              });
}

void StableStorage::AppendAnnounce(LogIndex idx, NodeId replier) {
  AppendRecord<RecordType::kAnnounce>(16, [idx, replier](BufferWriter* w) {
    w->PutU64(idx);
    w->PutI64(static_cast<int64_t>(replier));
  });
  ++stats_.meta_records;
}

void StableStorage::AppendTruncate(LogIndex from) {
  AppendRecord<RecordType::kTruncate>(8, [from](BufferWriter* w) { w->PutU64(from); });
  ++stats_.meta_records;
  ForgetLocationsFrom(from);
}

void StableStorage::AppendCompact(LogIndex base_idx, Term base_term) {
  base_idx_ = base_idx;
  base_term_ = base_term;
  WriteCompactRecord();
  ++stats_.meta_records;
  ForgetLocationsThrough(base_idx);
  // Drop the longest prefix of segments made obsolete by the new base. Only
  // a prefix is safe: a later segment's truncate/announce records may refer
  // to entries stored in any earlier retained segment.
  while (segments_.size() > 1 && segments_.front().max_entry_idx <= base_idx) {
    disk_->Delete(segments_.front().name);
    segments_.erase(segments_.begin());
    ++stats_.segments_dropped;
  }
}

void StableStorage::SaveSnapshot(LogIndex idx, Term term, std::vector<uint8_t> payload) {
  SaveSnapshot(idx, term, std::move(payload), []() { return std::unique_ptr<FrozenImage>(); });
}

StableStorage::SnapshotRecord::SnapshotRecord(LogIndex idx, Term term,
                                              std::vector<uint8_t> prefix,
                                              std::unique_ptr<FrozenImage> image)
    : idx_(idx), term_(term), prefix_(std::move(prefix)), image_(std::move(image)) {
  HC_CHECK_LE(size() - kSnapshotHeaderBytes, size_t{UINT32_MAX});
}

size_t StableStorage::SnapshotRecord::size() const {
  return kSnapshotHeaderBytes + prefix_.size() + (image_ != nullptr ? image_->size() : 0);
}

namespace {

// The checksum of a snapshot record as its bytes land in the writer: the
// writer's progress hook folds whatever arrived since the last step, so the
// bytes are checksummed while they are still in L2.
struct SnapshotFold {
  SnapshotChecksumStream checksum;
  size_t folded = 0;  // writer offset up to which `checksum` has the bytes

  static size_t Step(void* self, const BufferWriter& w) {
    auto* fold = static_cast<SnapshotFold*>(self);
    fold->checksum.Update(std::span<const uint8_t>(w.bytes()).subspan(fold->folded));
    fold->folded = w.size();
    return w.size() + kSnapshotFoldBytes;
  }
};

}  // namespace

void StableStorage::SnapshotRecord::operator()(BufferWriter* w) const {
  const size_t start = w->size();
  w->PutU64(0);  // checksum, patched below
  w->PutU64(idx_);
  w->PutU64(static_cast<uint64_t>(term_));
  w->PutU32(static_cast<uint32_t>(size() - kSnapshotHeaderBytes));
  // The checksum covers everything after its own 8 bytes.
  SnapshotFold fold;
  fold.folded = start + 8;
  w->SetProgressHook(fold.folded + kSnapshotFoldBytes, &SnapshotFold::Step, &fold);
  w->PutBytes(prefix_);
  if (image_ != nullptr) {
    image_->WriteTo(w);
  }
  w->ClearProgressHook();
  HC_CHECK_EQ(w->size() - start, size());  // the image wrote exactly its size
  SnapshotFold::Step(&fold, *w);
  w->PatchU64(start, fold.checksum.Finish());
}

bool StableStorage::Sync(SimDisk::SyncCallback cb) {
  const bool coalesce = policy_ != FsyncPolicy::kSyncPerAppend;
  return disk_->Sync(std::move(cb), coalesce);
}

bool StableStorage::CorruptEntry(LogIndex idx) {
  if (entry_locations_.empty() || idx < first_location_ ||
      idx - first_location_ >= entry_locations_.size()) {
    return false;
  }
  const EntryLocation& loc = entry_locations_[idx - first_location_];
  for (const Segment& seg : segments_) {
    if (seg.seq == loc.seg_seq) {
      // First payload byte of the record: inside the CRC-covered region.
      return disk_->FlipByte(seg.name, loc.offset + kRecordHeaderBytes);
    }
  }
  return false;  // a gap, or the segment is gone
}

StableStorage::Recovery StableStorage::Recover(bool protocol_aware) {
  ++stats_.recoveries;
  // Recovery trace instant + flight-recorder event, on the cluster track
  // (the node's own track may not exist yet at replay time).
  auto recovery_mark = [this](const char* name, const std::string& detail,
                              obs::FrRecovery kind, uint64_t arg) {
    Simulator* sim = disk_->sim();
    if (auto* tracer = obs::TracerOf(sim)) {
      tracer->Instant(obs::kClusterPid, obs::kTidEvents, name, sim->Now(),
                      "node " + std::to_string(node_) + " " + detail);
    }
    if (auto* fr = obs::FrOf(sim)) {
      fr->Record(sim->Now(), node_, obs::FrType::kRecovery,
                 static_cast<uint64_t>(kind), arg);
    }
  };
  Recovery rec;
  segments_.clear();
  entry_locations_.clear();

  // --- snapshot file --------------------------------------------------------
  if (disk_->Exists(kSnapshotFile)) {
    const std::vector<uint8_t>& raw = disk_->Read(kSnapshotFile);
    BufferReader r(raw);
    uint64_t crc = 0;
    uint64_t idx = 0;
    uint64_t term = 0;
    uint32_t len = 0;
    bool ok = r.GetU64(crc).ok() && r.GetU64(idx).ok() && r.GetU64(term).ok() &&
              r.GetU32(len).ok() && r.remaining() == len;
    if (ok) {
      ok = crc == SnapshotChecksum(std::span<const uint8_t>(raw).subspan(8));
    }
    if (ok) {
      rec.has_snapshot = true;
      rec.snapshot_index = idx;
      rec.snapshot_term = term;
      rec.snapshot_payload.assign(raw.begin() + static_cast<ptrdiff_t>(raw.size() - len),
                                  raw.end());
    } else {
      // A damaged snapshot loses durable applied state below the log base;
      // the node must be repaired by an InstallSnapshot from the leader.
      rec.suspect = true;
    }
  }

  // --- WAL segments ---------------------------------------------------------
  std::vector<std::string> files = disk_->List("wal-");
  bool hole = false;
  LogIndex hole_idx = 0;
  bool midstream_break = false;
  bool stop_all = false;  // naive-mode silent truncation tripped
  LogIndex durable_tail = 0;

  for (size_t fi = 0; fi < files.size(); ++fi) {
    const std::string& file = files[fi];
    uint64_t seq = 0;
    if (std::sscanf(file.c_str(), "wal-%llu", reinterpret_cast<unsigned long long*>(&seq)) != 1) {
      continue;
    }
    if (stop_all) {
      disk_->Delete(file);
      continue;
    }
    AddSegment(seq);
    Segment& seg = segments_.back();
    const std::vector<uint8_t>& bytes = disk_->Read(file);
    size_t off = 0;
    while (off < bytes.size()) {
      uint32_t len = 0;
      uint8_t type = 0;
      uint64_t crc = 0;
      bool framed = bytes.size() - off >= kRecordHeaderBytes;
      if (framed) {
        BufferReader hdr(std::span<const uint8_t>(bytes).subspan(off, kRecordHeaderBytes));
        HC_CHECK(hdr.GetU32(len).ok() && hdr.GetU8(type).ok() && hdr.GetU64(crc).ok());
        framed = bytes.size() - off - kRecordHeaderBytes >= len;
      }
      if (!framed) {
        // The byte stream ends mid-record. At the physical tail of the WAL
        // this is a torn write (unsynced, hence unacked): truncate it. A
        // CRC-valid record beyond the break — found by resyncing on the next
        // plausible header — proves the break sits *inside* durable data
        // (e.g. a flipped length field), so the entries beyond it are lost:
        // suspect territory, and their indices still raise the suspect floor.
        bool data_beyond = fi + 1 < files.size();
        if (protocol_aware) {
          size_t probe = off + 1;
          while (probe + kRecordHeaderBytes <= bytes.size()) {
            BufferReader phdr(
                std::span<const uint8_t>(bytes).subspan(probe, kRecordHeaderBytes));
            uint32_t plen = 0;
            uint8_t ptype = 0;
            uint64_t pcrc = 0;
            HC_CHECK(phdr.GetU32(plen).ok() && phdr.GetU8(ptype).ok() && phdr.GetU64(pcrc).ok());
            if (ptype >= 1 && ptype <= 5 &&
                plen <= bytes.size() - probe - kRecordHeaderBytes) {
              const auto ppayload =
                  std::span<const uint8_t>(bytes).subspan(probe + kRecordHeaderBytes, plen);
              if (pcrc == RecordCrc(ptype, ppayload)) {
                data_beyond = true;
                if (static_cast<RecordType>(ptype) == RecordType::kEntry) {
                  BufferReader pr(ppayload);
                  uint64_t pidx = 0;
                  if (pr.GetU64(pidx).ok()) {
                    durable_tail = std::max<LogIndex>(durable_tail, pidx);
                  }
                }
                probe += kRecordHeaderBytes + plen;  // re-framed: walk records
                continue;
              }
            }
            ++probe;
          }
        }
        if (data_beyond) {
          midstream_break = true;
          ++stats_.corrupt_records;
          recovery_mark("wal-crc-hole", "framing break inside durable data at offset " +
                            std::to_string(off),
                        obs::FrRecovery::kCrcHole, off);
        } else {
          ++stats_.torn_truncations;
          recovery_mark("wal-torn-tail",
                        "dropped " + std::to_string(bytes.size() - off) + " unsynced bytes",
                        obs::FrRecovery::kTornTail, bytes.size() - off);
        }
        disk_->Truncate(file, off);
        break;
      }
      const auto payload = std::span<const uint8_t>(bytes).subspan(off + kRecordHeaderBytes, len);
      const LogIndex next_expected =
          rec.entries.empty() ? rec.base_index + 1 : rec.entries.back().idx + 1;
      if (crc != RecordCrc(type, payload)) {
        ++stats_.corrupt_records;
        recovery_mark("wal-crc-hole",
                      "CRC-failed record at offset " + std::to_string(off),
                      obs::FrRecovery::kCrcHole, off);
        if (!protocol_aware) {
          // Naive recovery: silently truncate the log at the damage and
          // carry on as if the WAL simply ended here.
          disk_->Truncate(file, off);
          stop_all = true;
          break;
        }
        if (!hole) {
          hole = true;
          hole_idx = next_expected;
        }
        off += kRecordHeaderBytes + len;
        continue;
      }
      BufferReader r(payload);
      switch (static_cast<RecordType>(type)) {
        case RecordType::kHardState: {
          uint64_t term = 0;
          int64_t vote = 0;
          if (r.GetU64(term).ok() && r.GetI64(vote).ok()) {
            rec.term = static_cast<Term>(term);
            rec.voted_for = static_cast<NodeId>(vote);
          }
          break;
        }
        case RecordType::kEntry: {
          uint64_t idx = 0;
          uint64_t term = 0;
          int64_t replier = 0;
          if (r.GetU64(idx).ok() && r.GetU64(term).ok() && r.GetI64(replier).ok()) {
            durable_tail = std::max<LogIndex>(durable_tail, idx);
            if (idx > rec.base_index) {
              while (!rec.entries.empty() && rec.entries.back().idx >= idx) {
                rec.entries.pop_back();
              }
              RecoveredEntry e;
              e.idx = idx;
              e.term = static_cast<Term>(term);
              e.replier = static_cast<NodeId>(replier);
              e.payload.assign(payload.begin() + 24, payload.end());
              rec.entries.push_back(std::move(e));
              NoteEntryLocation(idx, seq, off);
              seg.max_entry_idx = std::max(seg.max_entry_idx, idx);
              if (hole && idx <= hole_idx) {
                hole = false;  // a later overwrite re-covered the damage
              }
            }
          }
          break;
        }
        case RecordType::kAnnounce: {
          uint64_t idx = 0;
          int64_t replier = 0;
          if (r.GetU64(idx).ok() && r.GetI64(replier).ok()) {
            auto it = std::lower_bound(
                rec.entries.begin(), rec.entries.end(), static_cast<LogIndex>(idx),
                [](const RecoveredEntry& e, LogIndex i) { return e.idx < i; });
            if (it != rec.entries.end() && it->idx == static_cast<LogIndex>(idx)) {
              it->replier = static_cast<NodeId>(replier);
            }
          }
          break;
        }
        case RecordType::kTruncate: {
          uint64_t from = 0;
          if (r.GetU64(from).ok()) {
            while (!rec.entries.empty() && rec.entries.back().idx >= static_cast<LogIndex>(from)) {
              rec.entries.pop_back();
            }
            ForgetLocationsFrom(from);
          }
          break;
        }
        case RecordType::kCompact: {
          uint64_t bidx = 0;
          uint64_t bterm = 0;
          if (r.GetU64(bidx).ok() && r.GetU64(bterm).ok() && bidx > rec.base_index) {
            rec.base_index = bidx;
            rec.base_term = static_cast<Term>(bterm);
            while (!rec.entries.empty() && rec.entries.front().idx <= rec.base_index) {
              rec.entries.erase(rec.entries.begin());
            }
            ForgetLocationsThrough(bidx);
            if (hole && hole_idx <= rec.base_index) {
              hole = false;  // the damage fell below a durable snapshot
            }
          }
          break;
        }
      }
      off += kRecordHeaderBytes + len;
    }
  }

  // --- finalize -------------------------------------------------------------
  if (hole && hole_idx > rec.base_index) {
    auto it = std::lower_bound(rec.entries.begin(), rec.entries.end(), hole_idx,
                               [](const RecoveredEntry& e, LogIndex i) { return e.idx < i; });
    rec.entries.erase(it, rec.entries.end());
    rec.suspect = true;
    // The rotted record itself was durable — and if it was an entry, its
    // index was at least hole_idx (its payload can't be trusted to say).
    // The floor must cover it, or a hole in the *last* record would leave
    // the node free to campaign without the entry it may have acked.
    durable_tail = std::max(durable_tail, hole_idx);
  }
  if (midstream_break) {
    rec.suspect = true;
  }
  // Enforce contiguity from base+1; anything beyond a gap is unreachable and
  // discarding it means durable loss.
  LogIndex expected = rec.base_index + 1;
  for (size_t i = 0; i < rec.entries.size(); ++i) {
    if (rec.entries[i].idx != expected) {
      rec.entries.resize(i);
      rec.suspect = true;
      break;
    }
    ++expected;
  }
  const LogIndex kept_tail = rec.entries.empty() ? rec.base_index : rec.entries.back().idx;
  ForgetLocationsFrom(kept_tail + 1);
  rec.suspect_floor = std::max(durable_tail, rec.base_index);
  if (rec.suspect) {
    ++stats_.suspect_recoveries;
    if (auto* tracer = obs::TracerOf(disk_->sim())) {
      tracer->Instant(obs::kClusterPid, obs::kTidEvents, "recovery-suspect",
                      disk_->sim()->Now(),
                      "node " + std::to_string(node_) + " floor " +
                          std::to_string(rec.suspect_floor));
    }
  }
  stats_.recovered_entries += rec.entries.size();

  if (segments_.empty()) {
    AddSegment(1);
  }
  term_ = rec.term;
  voted_for_ = rec.voted_for;
  base_idx_ = rec.base_index;
  base_term_ = rec.base_term;
  return rec;
}

}  // namespace hovercraft
