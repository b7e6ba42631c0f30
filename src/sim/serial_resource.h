// SerialResource models a single hardware thread (or a NIC TX engine) in
// virtual time: submitted work items execute one at a time in FIFO order.
// Queueing delay emerges naturally when the offered load exceeds capacity.
#ifndef SRC_SIM_SERIAL_RESOURCE_H_
#define SRC_SIM_SERIAL_RESOURCE_H_

#include <algorithm>
#include <cstddef>
#include <deque>
#include <type_traits>
#include <utility>

#include "src/common/check.h"
#include "src/common/types.h"
#include "src/sim/simulator.h"

namespace hovercraft {

// This is the hottest recurring event source in the simulation (every packet
// crosses several SerialResources), so it uses the EventHandler flavour of
// scheduling: the wheel stores one 8-byte pointer per completion and the
// completion callback lives inline in done_queue_ — no per-item allocation.
class SerialResource final : public EventHandler {
 public:
  explicit SerialResource(Simulator* sim) : sim_(sim) { HC_CHECK(sim != nullptr); }

  // Enqueues a work item costing `cost` ns; `on_done` (may be omitted) runs
  // at completion time. Returns the completion time. A completion whose
  // capture outgrows the simulator's inline budget does not compile: it would
  // silently become a heap-allocated std::function on every submit.
  TimeNs Submit(TimeNs cost) { return Submit(cost, nullptr); }
  template <typename F>
  TimeNs Submit(TimeNs cost, F&& on_done) {
    static_assert(std::is_same_v<std::decay_t<F>, std::nullptr_t> ||
                      Simulator::Callback::kStoresInline<F>,
                  "completion capture exceeds Simulator::kInlineCallbackBytes");
    HC_CHECK_GE(cost, 0);
    const TimeNs start = std::max(sim_->Now(), busy_until_);
    const TimeNs done = start + cost;
    busy_until_ = done;
    ++queued_;
    total_busy_ += cost;
    // Completion times are non-decreasing and equal times fire in schedule
    // order, so completions pop done_queue_ strictly in submit order.
    done_queue_.emplace_back(std::forward<F>(on_done));
    sim_->At(done, this);
    return done;
  }

  void OnEvent() override {
    HC_CHECK(!done_queue_.empty());
    Simulator::Callback on_done = std::move(done_queue_.front());
    done_queue_.pop_front();
    --queued_;
    if (on_done) {
      on_done();
    }
  }

  // Number of submitted-but-not-finished items (includes the one in service).
  int64_t queue_length() const { return queued_; }

  // Virtual time when the resource drains, given no further submissions.
  TimeNs busy_until() const { return busy_until_; }

  // Total busy nanoseconds accumulated; used for utilization accounting.
  TimeNs total_busy() const { return total_busy_; }

 private:
  Simulator* sim_;
  TimeNs busy_until_ = 0;
  int64_t queued_ = 0;
  TimeNs total_busy_ = 0;
  std::deque<Simulator::Callback> done_queue_;
};

}  // namespace hovercraft

#endif  // SRC_SIM_SERIAL_RESOURCE_H_
