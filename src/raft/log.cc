#include "src/raft/log.h"

#include <utility>

#include "src/common/buffer.h"

namespace hovercraft {

uint64_t HashRequestBody(const RpcRequest& request) {
  if (request.body() == nullptr) {
    return 0;
  }
  return Fnv1aHash(std::span<const uint8_t>(request.body()->data(), request.body()->size()));
}

LogIndex RaftLog::Append(LogEntry entry) {
  entries_.push_back(std::move(entry));
  const LogIndex idx = last_index();
  const LogEntry& e = entries_.back();
  if (!e.noop) {
    rid_index_.Set(e.rid, idx);
  }
  return idx;
}

void RaftLog::TruncateFrom(LogIndex idx) {
  HC_CHECK_GE(idx, first_index());
  while (last_index() >= idx) {
    const LogEntry& e = entries_.back();
    if (!e.noop) {
      rid_index_.EraseIfAt(e.rid, last_index());
    }
    entries_.pop_back();
  }
}

void RaftLog::CompactPrefix(LogIndex idx) {
  if (idx <= base_index_) {
    return;
  }
  HC_CHECK_LE(idx, last_index());
  base_term_ = TermAt(idx);
  while (base_index_ < idx) {
    const LogEntry& e = entries_.front();
    if (!e.noop) {
      rid_index_.EraseIfAt(e.rid, base_index_ + 1);
    }
    entries_.pop_front();
    ++base_index_;
  }
}

void RaftLog::ResetTo(LogIndex idx, Term term) {
  entries_.clear();
  rid_index_.Clear();
  base_index_ = idx;
  base_term_ = term;
}

LogIndex RaftLog::FindRequest(const RequestId& rid) const { return rid_index_.Find(rid); }

}  // namespace hovercraft
