// Machine-speed probe: a fixed stream of data-dependent branches and random
// reads and writes over a 256 KiB table, sharing no code with the simulator,
// timed in short bursts between the RunUntil chunks of the timed span (its
// time never counts toward the span).
//
// The hosts this benchmark runs on are shared, and their speed moves in
// phases of seconds while a run is in progress. On the reference 4-vCPU
// Xeon VM, the unscaled wall ns/request medians of four back-to-back 20 s
// fig7 runs spanned 30% (15.2k to 19.8k). A chain of dependent multiplies
// (an earlier probe) follows only the core clock and missed most of that.
// This probe is slowed by what slows the simulator, contended branch
// predictors and caches: scaled by it, the four medians spanned 3.8%. The
// same probe over 1 MiB and 16 MiB tables gave 5.6% and 9.4%. hcbench
// therefore reports host_ns_per_req and setup_s scaled by
// kNominalProbeNs / (the rep's median probe time), and the raw wall times
// beside them. perfbench/README.md gives the measured spreads.
#ifndef PERFBENCH_PROBE_H_
#define PERFBENCH_PROBE_H_

#include <cstdint>
#include <vector>

#include "perfbench/spans.h"

namespace perfbench {

// Probe time the scaled host metrics are normalized to: a fixed constant
// near the reference machine's usual probe time, so that scaled and wall
// values stay close there.
constexpr double kNominalProbeNs = 400'000;

// Runs the probe once; returns its host ns. The table adds 256 KiB to the
// process's resident memory.
inline int64_t RunSpeedProbe() {
  constexpr size_t kSlots = size_t{1} << 15;  // 256 KiB of uint64_t
  constexpr int kRounds = 60'000;
  static std::vector<uint64_t> table(kSlots);
  static volatile uint64_t sink = 0;
  const int64_t t0 = HostNowNs();
  uint64_t h = 0x2545F4914F6CDD1Dull;
  uint64_t acc = sink;
  for (int i = 0; i < kRounds; ++i) {
    h = h * 6364136223846793005ull + 1442695040888963407ull;
    uint64_t& slot = table[(h >> 33) & (kSlots - 1)];
    if ((h >> 20) & 1) {
      slot += h;
    } else {
      acc ^= slot;
    }
    if (acc & 8) {
      acc += static_cast<uint64_t>(i);
    } else {
      acc -= 1;
    }
  }
  sink = acc;
  return HostNowNs() - t0;
}

}  // namespace perfbench

#endif  // PERFBENCH_PROBE_H_
