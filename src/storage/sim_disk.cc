#include "src/storage/sim_disk.h"

#include <algorithm>
#include <utility>

#include "src/common/check.h"
#include "src/obs/observability.h"

namespace hovercraft {

void SimDisk::set_node(NodeId node) {
  node_ = node;
  fsync_metric_.clear();
}

void SimDisk::RecordFsyncLatency(TimeNs latency) {
  auto* o = obs::ObsOf(sim_);
  if (o == nullptr || node_ == kInvalidNode) {
    return;
  }
  if (fsync_metric_.empty()) {
    fsync_metric_ = obs::NodeScope(node_) + "storage.fsync_ns";
  }
  o->metrics().GetHistogram(fsync_metric_).Record(latency);
}

void SimDisk::Materialize(const File& f) const {
  if (f.pending.empty()) {
    return;
  }
  BufferWriter w = BufferWriter::Extending(std::move(f.data), f.length);
  records_encoded_ += f.pending.size();
  f.pending.EncodeAllAndClear(&w);
  f.data = w.TakeBytes();
  HC_CHECK_EQ(f.data.size(), f.length);  // every record wrote its declared length
}

void SimDisk::Cut(File& f, size_t size) {
  Materialize(f);
  if (size < f.data.size()) {
    f.data.resize(size);
  }
  f.length = f.data.size();
}

void SimDisk::Truncate(const std::string& file, size_t size) {
  auto it = files_.find(file);
  if (it == files_.end()) {
    return;
  }
  File& f = it->second;
  Cut(f, size);
  f.synced = std::min(f.synced, f.length);
}

void SimDisk::Delete(const std::string& file) {
  files_.erase(file);  // pending records are dropped unencoded
}

bool SimDisk::Sync(SyncCallback cb, bool coalesce) {
  const TimeNs latency = sync_latency_ + stall_;
  if (latency == 0 && !flush_running_ && queue_.empty()) {
    // Fast path: an idle zero-latency device completes the barrier inline,
    // scheduling nothing — the persist_latency=0 timeline is untouched.
    MarkAllSynced();
    ++stats_.syncs;
    RecordFsyncLatency(0);
    if (cb) {
      cb();
    }
    return true;
  }
  // Group commit may only ride a flush that has NOT started yet: a running
  // flush captured its frontier at start and does not cover bytes appended
  // since. (The running op stays at queue_.front() until it completes, so
  // "an unstarted op exists" means the queue is deeper than the running one.)
  const bool unstarted_pending = queue_.size() > (flush_running_ ? 1u : 0u);
  if (coalesce && unstarted_pending) {
    ++stats_.coalesced;  // group commit: this barrier rides the queued flush
    if (cb) {
      queue_.back().callbacks.push_back(std::move(cb));
    }
  } else {
    FlushOp op;
    op.requested = sim_->Now();
    if (cb) {
      op.callbacks.push_back(std::move(cb));
    }
    queue_.push_back(std::move(op));
  }
  if (!flush_running_) {
    StartNextFlush();
  }
  return false;
}

void SimDisk::SyncNow() {
  MarkAllSynced();
  ++stats_.syncs;
  // Pending priced flushes keep running: their data is already durable, and
  // completing them early here would reorder ack timing relative to the
  // serial-device model.
}

void SimDisk::StartNextFlush() {
  HC_CHECK(!flush_running_);
  while (!queue_.empty()) {
    flush_running_ = true;
    // Files created after this point keep frontier 0: the flush covers none
    // of their bytes.
    for (auto& [name, f] : files_) {
      f.frontier = f.length;
    }
    const TimeNs latency = sync_latency_ + stall_;
    stats_.stall_ns += static_cast<uint64_t>(stall_);
    if (latency > 0) {
      flush_event_ = sim_->After(latency, [this]() { CompleteFlush(); });
      return;
    }
    // Zero-latency queued op (reachable when a stall heals with ops queued,
    // or when callbacks enqueue while draining): complete inline.
    FinishFront();
    if (flush_running_) {
      return;  // a callback re-armed a priced flush
    }
  }
}

void SimDisk::CompleteFlush() {
  flush_event_ = kInvalidEvent;
  FinishFront();
  if (!flush_running_ && !queue_.empty()) {
    StartNextFlush();
  }
}

void SimDisk::FinishFront() {
  ++stats_.syncs;
  for (auto& [name, f] : files_) {
    f.synced = std::max(f.synced, std::min(f.frontier, f.length));
    f.frontier = 0;
  }
  HC_CHECK(!queue_.empty());
  FlushOp op = std::move(queue_.front());
  queue_.pop_front();
  flush_running_ = false;
  RecordFsyncLatency(sim_->Now() - op.requested);
  for (auto& cb : op.callbacks) {
    cb();
  }
}

void SimDisk::MarkAllSynced() {
  for (auto& [name, f] : files_) {
    f.synced = f.length;
  }
}

void SimDisk::Crash() {
  ++stats_.crashes;
  const bool torn = next_crash_torn_;
  next_crash_torn_ = false;
  for (auto& [name, f] : files_) {
    size_t keep = f.synced;
    const size_t unsynced = f.length - f.synced;
    if (torn && unsynced > 0) {
      // A torn write: a strict prefix of the unsynced tail made it to the
      // platter, cutting the final record(s) mid-byte-stream.
      keep += static_cast<size_t>(rng_() % unsynced);
      ++stats_.torn_crashes;
    }
    stats_.bytes_lost += f.length - keep;
    Cut(f, keep);
    f.synced = f.length;
    f.frontier = 0;
  }
  // The process died: pending barriers and their callbacks die with it.
  queue_.clear();
  flush_running_ = false;
  if (flush_event_ != kInvalidEvent) {
    sim_->Cancel(flush_event_);
    flush_event_ = kInvalidEvent;
  }
}

bool SimDisk::FlipByte(const std::string& file, size_t offset) {
  auto it = files_.find(file);
  if (it == files_.end() || offset >= it->second.length) {
    return false;
  }
  Materialize(it->second);
  it->second.data[offset] ^= 0x40;
  ++stats_.flips;
  return true;
}

const std::vector<uint8_t>& SimDisk::Read(const std::string& file) const {
  static const std::vector<uint8_t> kEmpty;
  auto it = files_.find(file);
  if (it == files_.end()) {
    return kEmpty;
  }
  Materialize(it->second);
  return it->second.data;
}

size_t SimDisk::Size(const std::string& file) const {
  auto it = files_.find(file);
  return it == files_.end() ? 0 : it->second.length;
}

size_t SimDisk::SyncedSize(const std::string& file) const {
  auto it = files_.find(file);
  return it == files_.end() ? 0 : it->second.synced;
}

std::vector<std::string> SimDisk::List(const std::string& prefix) const {
  std::vector<std::string> out;
  for (const auto& [name, f] : files_) {
    if (name.compare(0, prefix.size(), prefix) == 0) {
      out.push_back(name);
    }
  }
  return out;  // std::map iteration order is already sorted
}

}  // namespace hovercraft
