// In-memory spans and timing decorators for the benchmark's traced run.
//
// The traced run wraps the StateMachine and Workload factories in forwarding
// decorators and records a span around every call the benchmark makes into a
// public function of the simulator. A span is a name, a host start and end
// time, the index of the span that was open when it began (its parent), and
// one argument (the request id for app.Execute, the byte count for
// app.SnapshotState). Decorators only forward, so a traced run simulates
// exactly what an untraced run does; the benchmark checks that with the
// simulated digest.
#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <chrono>
#include <cstring>
#include <cstdint>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "src/app/state_machine.h"
#include "src/common/check.h"
#include "src/loadgen/workload.h"

namespace perfbench {

inline int64_t HostNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";  // "<module>.<call>", always a string literal
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;  // index of the enclosing span, -1 for a root
  uint64_t arg = 0;
};

// Per-name totals over a set of spans. Self time is a span's duration minus
// the part its direct children cover.
struct SpanTotals {
  uint64_t calls = 0;
  int64_t total_ns = 0;
  int64_t self_ns = 0;
};

class SpanRecorder {
 public:
  int32_t Begin(const char* name, uint64_t arg = 0) {
    const auto id = static_cast<int32_t>(spans_.size());
    spans_.push_back(Span{name, 0, 0, open_.empty() ? -1 : open_.back(), arg});
    open_.push_back(id);
    spans_.back().start_ns = HostNowNs();
    return id;
  }
  void End(int32_t id, uint64_t arg) {
    const int64_t now = HostNowNs();
    HC_CHECK(!open_.empty() && open_.back() == id);
    open_.pop_back();
    Span& span = spans_[static_cast<size_t>(id)];
    span.end_ns = now;
    if (arg != 0) {
      span.arg = arg;
    }
  }

  // Totals over the spans named `root` and everything nested in them.
  std::map<std::string, SpanTotals> Totals(const char* root) const {
    std::vector<int64_t> child_ns(spans_.size(), 0);
    std::vector<bool> inside(spans_.size(), false);
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      // A parent always precedes its children.
      inside[i] = std::strcmp(s.name, root) == 0 ||
                  (s.parent >= 0 && inside[static_cast<size_t>(s.parent)]);
      if (s.parent >= 0) {
        child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
      }
    }
    std::map<std::string, SpanTotals> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (!inside[i]) {
        continue;
      }
      SpanTotals& t = out[s.name];
      ++t.calls;
      t.total_ns += s.end_ns - s.start_ns;
      t.self_ns += s.end_ns - s.start_ns - child_ns[i];
    }
    return out;
  }

  // Total duration of the root spans (those with no parent) that lie
  // within [from_ns, to_ns].
  int64_t RootNsWithin(int64_t from_ns, int64_t to_ns) const {
    int64_t total = 0;
    for (const Span& s : spans_) {
      if (s.parent < 0 && s.start_ns >= from_ns && s.end_ns <= to_ns) {
        total += s.end_ns - s.start_ns;
      }
    }
    return total;
  }

  // One line per span: index, parent, name, start and end (ns from the first
  // span), argument.
  void WriteTsv(std::ostream& out) const {
    out << "id\tparent\tname\tstart_ns\tend_ns\targ\n";
    const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << i << '\t' << s.parent << '\t' << s.name << '\t' << (s.start_ns - origin) << '\t'
          << (s.end_ns - origin) << '\t' << s.arg << '\n';
    }
  }

 private:
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

// Records one span for its lifetime; with a null recorder it does nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, const char* name, uint64_t arg = 0)
      : rec_(rec), id_(rec != nullptr ? rec->Begin(name, arg) : -1) {}
  ~ScopedSpan() {
    if (rec_ != nullptr) {
      rec_->End(id_, arg_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void set_arg(uint64_t arg) { arg_ = arg; }

 private:
  SpanRecorder* rec_;
  int32_t id_;
  uint64_t arg_ = 0;
};

inline uint64_t PackRequestId(const hovercraft::RequestId& rid) {
  return (static_cast<uint64_t>(static_cast<uint32_t>(rid.client)) << 40) ^ rid.seq;
}

class TimedStateMachine final : public hovercraft::StateMachine {
 public:
  TimedStateMachine(std::unique_ptr<hovercraft::StateMachine> inner, SpanRecorder* rec)
      : inner_(std::move(inner)), rec_(rec) {}

  hovercraft::ExecResult Execute(const hovercraft::RpcRequest& request) override {
    ScopedSpan span(rec_, "app.Execute", PackRequestId(request.rid()));
    return inner_->Execute(request);
  }
  uint64_t Digest() const override { return inner_->Digest(); }
  uint64_t ApplyCount() const override { return inner_->ApplyCount(); }
  hovercraft::Body SnapshotState() const override {
    ScopedSpan span(rec_, "app.SnapshotState");
    hovercraft::Body body = inner_->SnapshotState();
    span.set_arg(body.size());
    return body;
  }
  hovercraft::Status RestoreState(const hovercraft::Body& snapshot) override {
    return inner_->RestoreState(snapshot);
  }
  hovercraft::Body CaptureRange(uint32_t lo, uint32_t hi) const override {
    return inner_->CaptureRange(lo, hi);
  }
  hovercraft::Status InstallRange(const hovercraft::Body& range) override {
    return inner_->InstallRange(range);
  }
  hovercraft::Status DropRange(uint32_t lo, uint32_t hi) override {
    return inner_->DropRange(lo, hi);
  }

 private:
  std::unique_ptr<hovercraft::StateMachine> inner_;
  SpanRecorder* rec_;
};

class TimedWorkload final : public hovercraft::Workload {
 public:
  TimedWorkload(std::unique_ptr<hovercraft::Workload> inner, SpanRecorder* rec)
      : inner_(std::move(inner)), rec_(rec) {}

  Op Next(hovercraft::Rng& rng) override {
    ScopedSpan span(rec_, "loadgen.Next");
    return inner_->Next(rng);
  }

 private:
  std::unique_ptr<hovercraft::Workload> inner_;
  SpanRecorder* rec_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
