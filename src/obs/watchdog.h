// Online invariant watchdog: subscribes to the flight-recorder hook stream
// and asserts cluster-wide safety invariants continuously, *during* the run,
// so a violation is caught at the event that commits it rather than at
// verdict time. Passive: it never schedules simulator events and never
// mutates simulation state, so watching cannot perturb the watched run.
//
// Invariant catalog (docs/observability.md has the full table):
//   kDualLeader        election safety: at most one leader per term
//   kCommitRegression  committed entries were overwritten / commit moved back
//   kLogDivergence     log matching at commit: one (index -> entry term)
//   kDurableRegression durable index monotonic per (node, restart epoch)
//   kStaleReadGrant    lease disjointness: a ReadIndex grant below the
//                      cluster commit watermark means an expired-lease leader
//                      is still serving (stale reads possible)
//   kFlowImbalance     flow-control ledger balance: open slots match the
//                      open/close event stream and respect the threshold
//   kDoubleApply       session-table exactly-once: an entry applied twice
//   kSuspectCampaign   suspect-floor respect (PR 7): a recovery-suspect node
//                      must not campaign or lead
#ifndef SRC_OBS_WATCHDOG_H_
#define SRC_OBS_WATCHDOG_H_

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/types.h"
#include "src/obs/flight_recorder.h"

namespace hovercraft {
namespace obs {

enum class WatchdogCode : uint8_t {
  kDualLeader = 0,
  kCommitRegression,
  kLogDivergence,
  kDurableRegression,
  kStaleReadGrant,
  kFlowImbalance,
  kDoubleApply,
  kSuspectCampaign,
};
const char* WatchdogCodeName(WatchdogCode code);

class Watchdog : public FlightRecorder::Sink {
 public:
  struct Violation {
    WatchdogCode code;
    TimeNs ts = 0;
    NodeId node = kInvalidNode;
    std::string detail;
  };

  // `recorder` (optional) receives a kViolation event at each detection and
  // is dumped at the first one, so the dump always contains the events
  // leading up to the violation.
  explicit Watchdog(FlightRecorder* recorder = nullptr) : recorder_(recorder) {}

  // Restricts this instance to events with node in [lo, hi). Sharded runs
  // (src/shard) attach one watchdog per consensus group to the shared
  // recorder: each group gets a disjoint obs-node range, so the per-term
  // leader table, the commit watermark and the flow-ledger balance stay
  // group-local instead of tripping on cross-group interleavings. With a
  // filter set, events recorded under kInvalidNode are dropped too — every
  // group-scoped component (including its flow-control middlebox) must
  // record under a node id inside the group's range.
  void set_node_filter(NodeId lo, NodeId hi) {
    filter_lo_ = lo;
    filter_hi_ = hi;
    filtered_ = true;
  }

  void OnFrEvent(const FrEvent& event) override;

  bool ok() const { return violations_total_ == 0; }
  // First violations, in detection order (capped; violations_total() counts all).
  const std::vector<Violation>& violations() const { return violations_; }
  uint64_t violations_total() const { return violations_total_; }
  // Invariant evaluations performed (several per event for some kinds).
  uint64_t checks() const { return checks_; }
  // Events observed through the sink.
  uint64_t events() const { return events_; }

  // "invariants=N events=M violations=K [code ...]" — the chaos runner's
  // `watchdog:` summary line body.
  std::string Summary() const;

 private:
  void Report(WatchdogCode code, const FrEvent& event, std::string detail);

  FlightRecorder* recorder_;
  bool filtered_ = false;
  NodeId filter_lo_ = 0;
  NodeId filter_hi_ = 0;
  uint64_t checks_ = 0;
  uint64_t events_ = 0;
  uint64_t violations_total_ = 0;
  std::vector<Violation> violations_;

  // --- election safety ---
  std::map<uint64_t, NodeId> leader_by_term_;

  // --- per-node monotonicity + role/suspect state ---
  struct NodeState {
    uint64_t commit = 0;
    bool has_commit = false;
    uint64_t durable = 0;
    uint64_t durable_epoch = 0;
    bool has_durable = false;
  };
  NodeState& State(NodeId node);
  std::unordered_map<int32_t, NodeState> nodes_;

  // --- log matching at commit ---
  // First committed entry term seen per index, stored as term + 1 so that 0
  // means unseen; a later commit of the same index with a different term is
  // divergence at commit. Commit indices arrive one by one, so the table is
  // dense and indexed directly. An index far beyond it (the chaos runner's
  // synthetic violations use index 1e9) goes to the sparse map instead, so
  // one stray event cannot allocate gigabytes; the map only ever holds
  // indices at or above committed_term_.size().
  uint64_t& CommittedTermSlot(uint64_t index);
  std::vector<uint64_t> committed_term_;
  std::map<uint64_t, uint64_t> far_committed_term_;
  // Cluster-wide commit watermark (never reset: committed data must outlive
  // node recoveries, which is exactly what the checks above enforce).
  uint64_t max_commit_ = 0;

  // --- flow-control ledger ---
  int64_t flow_balance_ = 0;
};

}  // namespace obs
}  // namespace hovercraft

#endif  // SRC_OBS_WATCHDOG_H_
