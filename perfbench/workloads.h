// The benchmark's four workloads. Each runs one simulated experiment (a
// "rep") per call: build the deployment, wait for the first leader, drive an
// open-loop Poisson load through ClientHost, drain, check correctness, and
// report both host cost and simulated results.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "perfbench/spans.h"

namespace perfbench {

struct RepResult {
  // --- host time (this machine's clock; varies run to run) ---
  double cluster_build_ns = 0;  // Cluster/ShardedCluster constructor, app preload included
  double preload_ns = 0;        // app preload inside the factory calls
  double first_leader_ns = 0;   // WaitForLeader / WaitForAllLeaders
  double timed_ns = 0;          // load start through drain, probe time excluded
  int64_t timed_start_ns = 0;   // host clock readings that bound the timed span
  int64_t timed_end_ns = 0;
  double run_until_ns = 0;      // the RunUntil slices of the timed span
  double recovery_ns = 0;       // RestartNode after PowerFailNode (failover only)
  std::vector<double> probe_ns;   // machine-speed probe samples (perfbench/probe.h)
  double probe_total_ns = 0;      // probe time inside the timed span, excluded from it

  // --- simulated results (exact for a seed) ---
  double window_s = 0;             // measurement window, simulated seconds
  uint64_t sent = 0;               // requests sent inside the window
  uint64_t completed = 0;          // of those, completed
  uint64_t nacked = 0;             // of those, refused by admission control
  uint64_t lost = 0;               // of those, never answered after the drain
  uint64_t abandoned = 0;          // client give-ups over the whole run
  uint64_t slo_ok = 0;             // of `sent`, completed within the SLO
  uint64_t completed_total = 0;    // completions over the whole timed span
  double downtime_ns = 0;          // longest gap with no completion (see RunRep)
  std::vector<int64_t> latencies;  // of the completed in-window requests, ns
  double request_bytes = 0;        // mean request body size
  // Per-layer simulated counts, keyed by metric name ("raft.ae_per_req").
  std::map<std::string, double> sim;
  // Shapes the layer replay reads: log entries per node, entries between
  // compactions, entries kept at a compaction, WAL record payload size,
  // snapshot size.
  uint64_t log_entries = 0;
  uint64_t entries_per_compaction = 0;
  uint64_t log_retention = 0;
  uint64_t snapshot_bytes = 0;

  // Hash over every simulated metric and counter of the rep.
  uint64_t sim_digest = 0;
  // Failed correctness checks, one line each; empty when the rep is correct.
  std::vector<std::string> failures;

  // --- traced reps only ---
  std::map<std::string, SpanTotals> spans;
  double recorder_events = 0;
  std::map<std::string, double> traced;  // recorder-sink results, e.g. "shard.move_ms"
};

// Names of the workloads, in the order the benchmark documents them.
std::vector<std::string> WorkloadNames();

// Independent simulated experiments whose results one run pools.
int SubRunsOf(const std::string& workload);

// Runs one rep. `seed` selects the generated inputs (client arrivals, request
// mix, preload); the cluster's own seed is fixed. A non-null `rec` turns on
// the traced run: timing decorators, spans and passive recorder sinks.
RepResult RunRep(const std::string& workload, uint64_t seed, SpanRecorder* rec);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
