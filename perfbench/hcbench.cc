// hcbench: runs one benchmark workload for a given seed and wall-clock
// budget and prints one JSON object with every metric, its unit, the
// correctness verdict and the simulated digest.
//
//   hcbench --workload NAME --seed N --seconds S --trace 0|1 [--spans-out PATH]
//
// A run pools the workload's fixed number of simulated experiments
// ("sub-runs", seeds derived from N) for the simulated metrics, then keeps
// repeating them until S seconds have passed; host-time metrics are medians
// over all reps. A repeated sub-run must reproduce its simulated digest bit
// for bit. With --trace 1, reps alternate untraced and traced (timing
// decorators, spans, passive recorder sinks), the traced digest must equal
// the untraced one, and the layer replay runs at the end; per-layer metrics
// are reported.
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "perfbench/probe.h"
#include "perfbench/replay.h"
#include "perfbench/spans.h"
#include "perfbench/workloads.h"
#include "src/common/check.h"
#include "src/obs/tracer.h"

namespace perfbench {
namespace {

// Stop starting reps after this long, whatever the budget: a run must end
// well inside three minutes.
constexpr double kHardStopSeconds = 120;
// A traced run pools at most this many sub-runs: its per-layer metrics need
// a fixed set of simulated experiments, not the tight spread of the
// end-to-end ones.
constexpr int kTracedSubRuns = 3;
// Share of the traced timed span that the root spans may leave uncovered:
// the loop between RunUntil slices and the reads of the clock.
constexpr double kMaxUncoveredPct = 0.5;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string spans_out;
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "hcbench: %s\nusage: hcbench --workload NAME --seed N --seconds S --trace 0|1 "
               "[--spans-out PATH]\n",
               why);
  std::exit(2);
}

Args Parse(int argc, char** argv) {
  Args a;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      Usage(("missing value for " + flag).c_str());
    }
    const char* v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v, &end, 10);
      have_seed = end != v && *end == '\0';
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v, &end);
      have_seconds = end != v && *end == '\0' && a.seconds > 0;
    } else if (flag == "--trace") {
      have_trace = std::strcmp(v, "0") == 0 || std::strcmp(v, "1") == 0;
      a.trace = std::strcmp(v, "1") == 0;
    } else if (flag == "--spans-out") {
      a.spans_out = v;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  const std::vector<std::string> names = WorkloadNames();
  if (std::find(names.begin(), names.end(), a.workload) == names.end()) {
    Usage("unknown or missing --workload");
  }
  if (!have_seed || !have_seconds || !have_trace) {
    Usage("--seed, --seconds and --trace are required");
  }
  return a;
}

uint64_t SubSeed(uint64_t seed, int k) {
  uint64_t x = seed * 0x9E3779B97F4A7C15ull + static_cast<uint64_t>(k) + 1;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return (x ^ (x >> 31)) % 1000000007ull;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank percentile of a sorted sample.
double Percentile(const std::vector<int64_t>& sorted, double p) {
  if (sorted.empty()) return 0;
  const auto rank = static_cast<size_t>(std::ceil(p / 100.0 * static_cast<double>(sorted.size())));
  return static_cast<double>(sorted[std::min(sorted.size(), std::max<size_t>(rank, 1)) - 1]);
}

double PeakRssMiB() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

double WallNsPerReq(const RepResult& r) {
  return r.timed_ns / static_cast<double>(std::max<uint64_t>(1, r.completed_total));
}

// Converts the rep's wall times to the nominal machine speed (probe.h).
double SpeedFactor(const RepResult& r) {
  return kNominalProbeNs / std::max(1.0, Median(r.probe_ns));
}

double ScaledNsPerReq(const RepResult& r) { return WallNsPerReq(r) * SpeedFactor(r); }

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

class Metrics {
 public:
  void Add(const std::string& name, double value, const char* unit) {
    entries_.push_back({name, value, unit});
  }
  std::string Json() const {
    std::string out = "{";
    for (size_t i = 0; i < entries_.size(); ++i) {
      char buf[128];
      HC_CHECK(std::isfinite(entries_[i].value));
      std::snprintf(buf, sizeof(buf), "{\"value\": %.17g, \"unit\": ", entries_[i].value);
      out += (i ? ", " : "") + JsonString(entries_[i].name) + ": " + buf +
             JsonString(entries_[i].unit) + "}";
    }
    return out + "}";
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

int Main(int argc, char** argv) {
  const Args args = Parse(argc, argv);
  int k_runs = SubRunsOf(args.workload);
  if (args.trace) {
    k_runs = std::min(k_runs, kTracedSubRuns);
  }
  std::vector<uint64_t> sub_seeds;
  for (int k = 0; k < k_runs; ++k) {
    sub_seeds.push_back(SubSeed(args.seed, k));
  }

  const int64_t t_start = HostNowNs();
  auto elapsed = [t_start]() { return static_cast<double>(HostNowNs() - t_start) / 1e9; };

  std::vector<RepResult> untraced;          // in rep order
  std::vector<RepResult> traced;            // in rep order
  std::vector<uint64_t> digest_of(k_runs, 0);  // first digest seen per sub-run
  std::vector<std::string> failures;
  std::vector<double> rep_seconds;
  double peak_rss_mb = 0;  // after the pooled reps, so extra reps do not move it
  SpanRecorder last_spans;
  // Timed-span host time of the traced reps, and the part of it that no
  // root span (a RunUntil slice or a fault/move call) covers.
  double traced_timed_ns = 0, traced_uncovered_ns = 0;
  int rep = 0;
  while (true) {
    const int min_reps = args.trace ? 2 * k_runs : k_runs;
    if (rep >= min_reps) {
      const double next = elapsed() + Median(rep_seconds);
      if (next > args.seconds || elapsed() > kHardStopSeconds) break;
    }
    const int k = (args.trace ? rep / 2 : rep) % k_runs;
    const bool is_traced = args.trace && rep % 2 == 1;
    SpanRecorder spans;
    const int64_t r0 = HostNowNs();
    RepResult r = RunRep(args.workload, sub_seeds[static_cast<size_t>(k)],
                         is_traced ? &spans : nullptr);
    rep_seconds.push_back(static_cast<double>(HostNowNs() - r0) / 1e9);
    for (const std::string& f : r.failures) {
      failures.push_back("sub-run " + std::to_string(k) + ": " + f);
    }
    if (digest_of[static_cast<size_t>(k)] == 0) {
      digest_of[static_cast<size_t>(k)] = r.sim_digest;
    } else if (digest_of[static_cast<size_t>(k)] != r.sim_digest) {
      failures.push_back("determinism: sub-run " + std::to_string(k) +
                         (is_traced ? " traced" : " repeated") +
                         " digest differs from its first run");
    }
    if (is_traced) {
      r.spans = spans.Totals("sim.RunUntil");
      traced_timed_ns += r.timed_ns;
      traced_uncovered_ns +=
          r.timed_ns - static_cast<double>(spans.RootNsWithin(r.timed_start_ns, r.timed_end_ns));
      last_spans = std::move(spans);
      traced.push_back(std::move(r));
    } else {
      untraced.push_back(std::move(r));
      if (untraced.size() <= static_cast<size_t>(k_runs)) {
        peak_rss_mb = PeakRssMiB();
      }
    }
    ++rep;
    if (!failures.empty()) break;
  }

  // --- simulated metrics: pooled over the first rep of each sub-run.
  uint64_t sent = 0, completed = 0, nacked = 0, lost = 0, abandoned = 0, slo_ok = 0;
  double window_s = 0;
  std::vector<int64_t> lat;
  std::vector<double> downtimes;
  std::map<std::string, double> sim_mean;
  for (int k = 0; k < k_runs && k < static_cast<int>(untraced.size()); ++k) {
    const RepResult& r = untraced[static_cast<size_t>(k)];
    sent += r.sent;
    completed += r.completed;
    nacked += r.nacked;
    lost += r.lost;
    abandoned += r.abandoned;
    slo_ok += r.slo_ok;
    window_s += r.window_s;
    lat.insert(lat.end(), r.latencies.begin(), r.latencies.end());
    downtimes.push_back(r.downtime_ns);
    for (const auto& [name, v] : r.sim) {
      sim_mean[name] += v / k_runs;
    }
  }
  std::sort(lat.begin(), lat.end());
  uint64_t digest = 0xCBF29CE484222325ull;
  for (uint64_t d : digest_of) {
    digest = (digest ^ d) * 0x100000001B3ull;
  }

  // --- host metrics: medians over every untraced rep.
  std::vector<double> ns_per_req, wall_ns_per_req, probe_ns, setup, build, leader, preload,
      recovery, ns_per_event;
  for (const RepResult& r : untraced) {
    ns_per_req.push_back(ScaledNsPerReq(r));
    wall_ns_per_req.push_back(WallNsPerReq(r));
    probe_ns.push_back(Median(r.probe_ns));
    setup.push_back((r.cluster_build_ns + r.first_leader_ns) / 1e9 * SpeedFactor(r));
    build.push_back(r.cluster_build_ns / 1e6);
    leader.push_back(r.first_leader_ns / 1e6);
    preload.push_back(r.preload_ns / 1e6);
    recovery.push_back(r.recovery_ns / 1e6);
    const auto events_per_req = r.sim.find("sim.events_per_req");
    const double events = events_per_req == r.sim.end()
                              ? 0.0
                              : events_per_req->second * static_cast<double>(r.completed_total);
    ns_per_event.push_back(r.run_until_ns / std::max(1.0, events));
  }
  const double sent_d = std::max<double>(1, static_cast<double>(sent));

  Metrics e2e;
  e2e.Add("host_ns_per_req", Median(ns_per_req), "ns");
  e2e.Add("setup_s", Median(setup), "s");
  e2e.Add("host_peak_rss_mb", peak_rss_mb, "MiB");
  e2e.Add("sim_goodput_krps", static_cast<double>(completed) / std::max(1e-9, window_s) / 1e3,
          "kRPS");
  e2e.Add("sim_p50_us", Percentile(lat, 50) / 1e3, "us");
  e2e.Add("sim_p99_us", Percentile(lat, 99) / 1e3, "us");
  e2e.Add("sim_p999_us", Percentile(lat, 99.9) / 1e3, "us");
  e2e.Add("sim_ok_frac", static_cast<double>(completed) / sent_d, "fraction");
  e2e.Add("sim_slo_met_frac", static_cast<double>(slo_ok) / sent_d, "fraction");
  double downtime_sum = 0;
  for (double d : downtimes) downtime_sum += d;
  e2e.Add("sim_downtime_ms", downtime_sum / std::max<size_t>(1, downtimes.size()) / 1e6, "ms");

  Metrics layer;
  if (args.trace && failures.empty()) {
    // Per-request denominators over the traced reps.
    double traced_done = 0, recorder_events = 0;
    std::map<std::string, SpanTotals> in_run;
    std::vector<double> traced_ns_per_req;
    std::map<std::string, double> watched;
    for (size_t i = 0; i < traced.size(); ++i) {
      const RepResult& r = traced[i];
      traced_done += static_cast<double>(r.completed_total);
      recorder_events += r.recorder_events;
      traced_ns_per_req.push_back(ScaledNsPerReq(r));
      for (const auto& [name, t] : r.spans) {
        SpanTotals& acc = in_run[name];
        acc.calls += t.calls;
        acc.total_ns += t.total_ns;
        acc.self_ns += t.self_ns;
      }
      if (i < static_cast<size_t>(k_runs)) {
        for (const auto& [name, v] : r.traced) {
          watched[name] += v / k_runs;
        }
      }
    }
    traced_done = std::max(1.0, traced_done);
    auto self_of = [&](const char* name) { return static_cast<double>(in_run[name].self_ns); };
    auto mean_ns = [&](const char* name) {
      const SpanTotals& t = in_run[name];
      return t.calls == 0 ? 0.0 : static_cast<double>(t.total_ns) / static_cast<double>(t.calls);
    };
    const double run_until = static_cast<double>(in_run["sim.RunUntil"].total_ns);
    const double app_self = self_of("app.Execute") + self_of("app.SnapshotState");
    const double loadgen_self = self_of("loadgen.Next");
    const double remainder = self_of("sim.RunUntil");

    // Shapes for the replay come from the first untraced rep's counters.
    const RepResult& shape_rep = untraced.front();
    ReplayShape shape;
    shape.entries = std::max<uint64_t>(1, shape_rep.log_entries);
    shape.entries_per_compaction = shape_rep.entries_per_compaction;
    shape.retention = shape_rep.log_retention;
    shape.request_bytes = static_cast<uint64_t>(std::llround(shape_rep.request_bytes));
    shape.snapshot_bytes = shape_rep.snapshot_bytes;
    const ReplayResult replay = ReplayLayers(shape, &last_spans);

    const double untraced_ns = Median(ns_per_req);
    // Each snapshot the timed span takes is one SnapshotState and one
    // SaveSnapshot.
    const double snapshot_calls_per_rep =
        static_cast<double>(in_run["app.SnapshotState"].calls) / std::max<size_t>(1, traced.size());
    const double snapshot_path_ns =
        (mean_ns("app.SnapshotState") + replay.snapshot_save_ms * 1e6) * snapshot_calls_per_rep;
    std::vector<double> timed;
    for (const RepResult& r : untraced) timed.push_back(r.timed_ns);

    layer.Add("host.wall_ns_per_req", Median(wall_ns_per_req), "ns");
    layer.Add("host.probe_ns", Median(probe_ns), "ns");
    layer.Add("sim.events_per_req", sim_mean["sim.events_per_req"], "count");
    layer.Add("sim.cancelled_per_req", sim_mean["sim.cancelled_per_req"], "count");
    layer.Add("sim.host_ns_per_event", Median(ns_per_event), "ns");
    layer.Add("net.msgs_per_req", sim_mean["net.msgs_per_req"], "count");
    layer.Add("net.frames_per_req", sim_mean["net.frames_per_req"], "count");
    layer.Add("net.wire_bytes_per_req", sim_mean["net.wire_bytes_per_req"], "B");
    layer.Add("net.leader_util", sim_mean["net.leader_util"], "fraction");
    layer.Add("core.fc_nacks_per_kreq", sim_mean["core.fc_nacks_per_kreq"], "count");
    layer.Add("core.dedup_hits", sim_mean["core.dedup_hits"], "count");
    layer.Add("core.agg_absorbed_per_req", sim_mean["core.agg_absorbed_per_req"], "count");
    layer.Add("core.exec_per_req", sim_mean["core.exec_per_req"], "count");
    layer.Add("core.cluster_build_ms", Median(build), "ms");
    layer.Add("core.first_leader_ms", Median(leader), "ms");
    layer.Add("raft.ae_per_req", sim_mean["raft.ae_per_req"], "count");
    layer.Add("raft.entries_per_ae", sim_mean["raft.entries_per_ae"], "count");
    layer.Add("raft.elections", sim_mean["raft.elections"], "count");
    layer.Add("raft.log_append_ns", replay.log_append_ns, "ns");
    layer.Add("raft.log_compact_ns_per_entry", replay.log_compact_ns_per_entry, "ns");
    layer.Add("raft.log_find_ns", replay.log_find_ns, "ns");
    layer.Add("raft.restart_catchup_ms", watched["raft.restart_catchup_ms"], "ms");
    layer.Add("storage.wal_appends_per_req", sim_mean["storage.wal_appends_per_req"], "count");
    layer.Add("storage.syncs_per_req", sim_mean["storage.syncs_per_req"], "count");
    layer.Add("storage.wal_bytes_per_req", sim_mean["storage.wal_bytes_per_req"], "B");
    layer.Add("storage.wal_append_ns", replay.wal_append_ns, "ns");
    layer.Add("storage.snapshots", sim_mean["storage.snapshots"], "count");
    layer.Add("storage.snapshot_mb", sim_mean["storage.snapshot_mb"], "MiB");
    layer.Add("storage.snapshot_save_ms", replay.snapshot_save_ms, "ms");
    layer.Add("storage.snapshot_path_pct", 100.0 * snapshot_path_ns / std::max(1.0, Median(timed)),
              "%");
    layer.Add("storage.recovery_ms", Median(recovery), "ms");
    layer.Add("app.execute_ns", mean_ns("app.Execute"), "ns");
    layer.Add("app.snapshot_ms", mean_ns("app.SnapshotState") / 1e6, "ms");
    layer.Add("app.preload_ms", Median(preload), "ms");
    layer.Add("app.util_mean", sim_mean["app.util_mean"], "fraction");
    layer.Add("app.util_max", sim_mean["app.util_max"], "fraction");
    layer.Add("loadgen.next_ns", mean_ns("loadgen.Next"), "ns");
    layer.Add("loadgen.retransmits_per_kreq", sim_mean["loadgen.retransmits_per_kreq"], "count");
    layer.Add("loadgen.recovered", sim_mean["loadgen.recovered"], "count");
    layer.Add("shard.wrong_shard_per_kreq", sim_mean["shard.wrong_shard_per_kreq"], "count");
    layer.Add("shard.move_ms", watched["shard.move_ms"], "ms");
    layer.Add("shard.capture_kb", sim_mean["shard.capture_kb"], "KiB");
    layer.Add("shard.ctl_retries", sim_mean["shard.ctl_retries"], "count");
    layer.Add("obs.recorder_events_per_req", recorder_events / traced_done, "count");
    layer.Add("obs.trace_overhead_pct",
              100.0 * (Median(traced_ns_per_req) / std::max(1.0, untraced_ns) - 1.0), "%");
    layer.Add("trace.run_until_ns_per_req", run_until / traced_done, "ns");
    layer.Add("trace.self.sim_ns_per_req", remainder / traced_done, "ns");
    layer.Add("trace.self.app_ns_per_req", app_self / traced_done, "ns");
    layer.Add("trace.self.loadgen_ns_per_req", loadgen_self / traced_done, "ns");
    const double uncovered_pct = 100.0 * traced_uncovered_ns / std::max(1.0, traced_timed_ns);
    layer.Add("trace.uncovered_pct", uncovered_pct, "%");
    for (size_t s = 0; s < hovercraft::obs::kStageCount; ++s) {
      const std::string name = std::string("path.p99.") +
                               hovercraft::obs::StageName(static_cast<hovercraft::obs::Stage>(s)) +
                               "_us";
      layer.Add(name, watched[name], "us");
    }

    // Accounting against the timed span's own clock (RepResult::timed_ns,
    // probe time excluded): the root spans must cover it, up to the loop
    // overhead between them. Work added to the timed span outside any span
    // shows here.
    if (uncovered_pct < -kMaxUncoveredPct || uncovered_pct > kMaxUncoveredPct) {
      failures.push_back("span accounting: root spans leave " + std::to_string(uncovered_pct) +
                         "% of the timed span uncovered");
    }
  }

  if (!args.spans_out.empty() && args.trace) {
    std::ofstream out(args.spans_out);
    if (!out) {
      std::fprintf(stderr, "hcbench: cannot write %s\n", args.spans_out.c_str());
      return 2;
    }
    last_spans.WriteTsv(out);
  }

  std::string fails = "[";
  for (size_t i = 0; i < failures.size(); ++i) {
    fails += (i ? ", " : "") + JsonString(failures[i]);
  }
  fails += "]";
  char digest_hex[32];
  std::snprintf(digest_hex, sizeof(digest_hex), "%016" PRIx64, digest);
  auto json_list = [](const std::vector<double>& v) {
    std::string out = "[";
    for (size_t i = 0; i < v.size(); ++i) {
      out += (i ? ", " : "") + std::to_string(std::llround(v[i]));
    }
    return out + "]";
  };
  std::string seeds = "[";
  for (size_t i = 0; i < sub_seeds.size(); ++i) {
    seeds += (i ? ", " : "") + std::to_string(sub_seeds[i]);
  }
  seeds += "]";
  std::printf(
      "{\"workload\": %s, \"seed\": %" PRIu64 ", \"trace\": %d, \"sub_seeds\": %s, "
      "\"reps\": %zu, \"traced_reps\": %zu, \"wall_s\": %.3f, \"sim_digest\": \"%s\", "
      "\"correct\": %s, \"failures\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
      ", \"sent\": %" PRIu64 ", \"completed\": %" PRIu64 ", \"nacked\": %" PRIu64
      ", \"lost\": %" PRIu64 ", \"latency_samples\": %zu, "
      "\"failed_frac\": %.10g, \"slo_miss_frac\": %.10g, \"wall_ns_per_req_reps\": %s, "
      "\"probe_ns_reps\": %s, "
      "\"end_to_end\": %s, \"per_layer\": %s}\n",
      JsonString(args.workload).c_str(), args.seed, args.trace ? 1 : 0, seeds.c_str(),
      untraced.size(), traced.size(), elapsed(), digest_hex, failures.empty() ? "true" : "false",
      fails.c_str(), sent, lost + abandoned, sent, completed, nacked, lost, lat.size(),
      static_cast<double>(nacked + lost + abandoned) / sent_d,
      1.0 - static_cast<double>(slo_ok) / sent_d, json_list(wall_ns_per_req).c_str(),
      json_list(probe_ns).c_str(), e2e.Json().c_str(), layer.Json().c_str());
  return failures.empty() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
