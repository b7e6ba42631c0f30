#include "perfbench/workloads.h"

#include <algorithm>
#include <cstring>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "perfbench/probe.h"
#include "src/app/kvstore/service.h"
#include "src/app/synthetic.h"
#include "src/app/ycsb.h"
#include "src/core/cluster.h"
#include "src/loadgen/client.h"
#include "src/loadgen/workload.h"
#include "src/obs/critical_path.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/metrics.h"
#include "src/obs/watchdog.h"
#include "src/shard/sharded_cluster.h"
#include "src/sim/distributions.h"

namespace perfbench {
namespace {

using namespace hovercraft;

// The cluster's own randomness (election timeouts, disk) is pinned: the seed
// given on the command line reaches the system only through the requests
// and the preload it generates.
constexpr uint64_t kClusterSeed = 42;
constexpr int kClients = 8;

// ---------------------------------------------------------------------------
// Helpers

// FNV-1a over everything fed to it.
class Fnv {
 public:
  void Bytes(const void* data, size_t len) {
    const auto* p = static_cast<const uint8_t*>(data);
    for (size_t i = 0; i < len; ++i) {
      h_ = (h_ ^ p[i]) * 0x100000001B3ull;
    }
  }
  void U64(uint64_t v) { Bytes(&v, sizeof(v)); }
  void F64(double v) { Bytes(&v, sizeof(v)); }
  void Str(const std::string& s) { Bytes(s.data(), s.size()); }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xCBF29CE484222325ull;
};

// Watches every client request: send time, outcome, and the longest stretch
// of simulated time in which no request completed.
class Fleet final : public ClientHost::Observer {
 public:
  Fleet(TimeNs window_start, TimeNs window_end)
      : window_start_(window_start), window_end_(window_end), gap_from_(window_start) {}

  // Gaps are measured from `t` (the injected fault) instead of the window
  // start.
  void MeasureGapsFrom(TimeNs t) { gap_from_ = t; }

  void OnInvoke(HostId client, uint64_t seq, R2p2Policy, const Body& body, TimeNs at) override {
    std::vector<TimeNs>& sends = SendsOf(client);
    HC_CHECK(seq == sends.size() + 1);
    sends.push_back(at);
    if (InWindow(at)) {
      ++sent_;
      body_bytes_ += body == nullptr ? 0 : body.size();
    }
  }
  void OnComplete(HostId client, uint64_t seq, const Body&, TimeNs at) override {
    ++completed_total_;
    const TimeNs sent_at = SendsOf(client).at(seq - 1);
    if (InWindow(sent_at)) {
      ++completed_;
      latencies_.push_back(at - sent_at);
      if (at - sent_at <= benchutil::kSlo) {
        ++slo_ok_;
      }
    }
    if (at >= gap_from_ && at <= window_end_) {
      max_gap_ = std::max(max_gap_, at - std::max(last_completion_, gap_from_));
      last_completion_ = at;
    }
  }
  void OnNack(HostId client, uint64_t seq, TimeNs) override {
    if (InWindow(SendsOf(client).at(seq - 1))) {
      ++nacked_;
    }
  }

  void Fill(RepResult* r) const {
    r->window_s = static_cast<double>(window_end_ - window_start_) / 1e9;
    r->sent = sent_;
    r->completed = completed_;
    r->nacked = nacked_;
    r->lost = sent_ - completed_ - nacked_;
    r->slo_ok = slo_ok_;
    r->completed_total = completed_total_;
    r->latencies = latencies_;
    r->downtime_ns = static_cast<double>(
        std::max(max_gap_, window_end_ - std::max(last_completion_, gap_from_)));
    r->request_bytes = sent_ == 0 ? 0 : static_cast<double>(body_bytes_) / sent_;
  }

 private:
  bool InWindow(TimeNs t) const { return t >= window_start_ && t < window_end_; }
  std::vector<TimeNs>& SendsOf(HostId client) {
    const auto idx = static_cast<size_t>(client);
    if (idx >= sends_.size()) {
      sends_.resize(idx + 1);
    }
    return sends_[idx];
  }

  TimeNs window_start_;
  TimeNs window_end_;
  TimeNs gap_from_;
  std::vector<std::vector<TimeNs>> sends_;  // by client host id, then seq - 1
  uint64_t sent_ = 0;
  uint64_t completed_ = 0;
  uint64_t nacked_ = 0;
  uint64_t slo_ok_ = 0;
  uint64_t completed_total_ = 0;
  uint64_t body_bytes_ = 0;
  std::vector<int64_t> latencies_;
  TimeNs last_completion_ = 0;
  TimeNs max_gap_ = 0;
};

// Passive recorder sinks of the traced run.
class CountingSink final : public obs::FlightRecorder::Sink {
 public:
  void OnFrEvent(const obs::FrEvent&) override { ++events_; }
  uint64_t events() const { return events_; }

 private:
  uint64_t events_ = 0;
};

// Notes the simulated time at which a condition over public state first
// holds after Arm(). Checked on every recorder event, so it reads state only.
class ConditionWatch final : public obs::FlightRecorder::Sink {
 public:
  void Arm(TimeNs from, std::function<bool()> cond) {
    from_ = from;
    cond_ = std::move(cond);
  }
  void OnFrEvent(const obs::FrEvent& event) override {
    if (cond_ && at_ < 0 && cond_()) {
      at_ = event.ts;
    }
  }
  // Simulated ms from Arm() until the condition held; -1 if it never did.
  double elapsed_ms() const { return at_ < 0 ? -1.0 : static_cast<double>(at_ - from_) / 1e6; }

 private:
  TimeNs from_ = 0;
  TimeNs at_ = -1;
  std::function<bool()> cond_;
};

// Times the RunUntil slices and fault calls of the timed span. Each slice
// runs in chunks of simulated time; between chunks, at most every
// kProbeEveryNs of host time, the machine-speed probe runs outside the timed
// span. Chunking does not change the simulation: RunUntil(a) then
// RunUntil(b) executes exactly the events RunUntil(b) would.
class TimedRun {
 public:
  static constexpr TimeNs kChunk = Micros(200);
  static constexpr int64_t kProbeEveryNs = 10'000'000;

  TimedRun(Simulator& sim, SpanRecorder* rec, RepResult* r) : sim_(sim), rec_(rec), r_(r) {}

  void Start() {
    Probe();
    start_ns_ = HostNowNs();
    r_->timed_start_ns = start_ns_;
  }
  void Stop() {
    r_->timed_end_ns = HostNowNs();
    r_->timed_ns = static_cast<double>(r_->timed_end_ns - start_ns_) - r_->probe_total_ns;
  }

  void RunUntil(TimeNs t) {
    while (sim_.Now() < t) {
      const TimeNs next = std::min(t, sim_.Now() + kChunk);
      {
        ScopedSpan span(rec_, "sim.RunUntil");
        const int64_t t0 = HostNowNs();
        sim_.RunUntil(next);
        r_->run_until_ns += static_cast<double>(HostNowNs() - t0);
      }
      if (HostNowNs() - last_probe_ns_ >= kProbeEveryNs) {
        Probe();
      }
    }
  }

  // Runs `fn` as a named span; returns its host ns.
  template <typename F>
  double Call(const char* name, F&& fn) {
    ScopedSpan span(rec_, name);
    const int64_t t0 = HostNowNs();
    fn();
    return static_cast<double>(HostNowNs() - t0);
  }

 private:
  void Probe() {
    const int64_t t0 = HostNowNs();
    r_->probe_ns.push_back(static_cast<double>(RunSpeedProbe()));
    last_probe_ns_ = HostNowNs();
    if (start_ns_ != 0) {
      r_->probe_total_ns += static_cast<double>(last_probe_ns_ - t0);
    }
  }

  Simulator& sim_;
  SpanRecorder* rec_;
  RepResult* r_;
  int64_t start_ns_ = 0;
  int64_t last_probe_ns_ = 0;
};

// Wraps a factory so every product is timed in traced reps.
std::function<std::unique_ptr<StateMachine>()> TimedApps(
    std::function<std::unique_ptr<StateMachine>()> make, SpanRecorder* rec, double* preload_ns) {
  return [make = std::move(make), rec, preload_ns]() -> std::unique_ptr<StateMachine> {
    const int64_t t0 = HostNowNs();
    std::unique_ptr<StateMachine> app;
    {
      ScopedSpan span(rec, "app.Preload");
      app = make();
    }
    *preload_ns += static_cast<double>(HostNowNs() - t0);
    if (rec == nullptr) {
      return app;
    }
    return std::make_unique<TimedStateMachine>(std::move(app), rec);
  };
}

std::unique_ptr<Workload> MaybeTimed(std::unique_ptr<Workload> w, SpanRecorder* rec) {
  if (rec == nullptr) {
    return w;
  }
  return std::make_unique<TimedWorkload>(std::move(w), rec);
}

std::unique_ptr<KvService> PreloadedKv(const YcsbEConfig& ycsb, uint64_t seed,
                                       const std::function<bool(const KvCommand&)>& keep) {
  auto svc = std::make_unique<KvService>();
  Rng rng(seed);
  YcsbEGenerator gen(ycsb);
  for (const KvCommand& cmd : gen.PreloadCommands(rng)) {
    if (keep(cmd)) {
      svc->Apply(cmd);
    }
  }
  return svc;
}

struct ClientOptions {
  double rate_rps = 0;
  bool retries = false;
  TimeNs initial_backoff = 0;
  TimeNs max_backoff = 0;
};

std::vector<std::unique_ptr<ClientHost>> MakeClients(
    Simulator& sim, Network& net, const CostModel& costs, const ClientOptions& opt,
    const std::function<std::unique_ptr<Workload>()>& make_workload, uint64_t seed,
    const ClientHost::TargetFn& target, const ClientHost::TargetFn& retry_target, Fleet* fleet) {
  std::vector<std::unique_ptr<ClientHost>> clients;
  for (int c = 0; c < kClients; ++c) {
    auto client = std::make_unique<ClientHost>(&sim, costs, target, make_workload(),
                                               opt.rate_rps / kClients,
                                               seed * 7919 + 1000 + static_cast<uint64_t>(c));
    net.Attach(client.get());
    client->set_observer(fleet);
    if (opt.retries) {
      ClientHost::RetryPolicy retry;
      retry.enabled = true;
      retry.initial_backoff = opt.initial_backoff;
      retry.max_backoff = opt.max_backoff;
      client->set_retry_policy(retry);
      client->set_retry_target(retry_target);
    }
    clients.push_back(std::move(client));
  }
  return clients;
}

std::string DumpMetrics(const obs::MetricsRegistry& reg) {
  std::ostringstream out;
  reg.DumpJson(out);
  return out.str();
}

// Everything measured after the drain, shared by all workloads. `groups` are
// the consensus groups (one unless sharded); `reg` holds their exported
// metrics.
void Collect(const std::vector<Cluster*>& groups, Simulator& sim,
             const std::vector<std::unique_ptr<ClientHost>>& clients, const Fleet& fleet,
             const obs::MetricsRegistry& reg, TimeNs span_ns,
             const std::vector<std::vector<uint64_t>>& elections_before, RepResult* r) {
  fleet.Fill(r);
  uint64_t client_completed = 0, client_lost = 0, retransmits = 0, recovered = 0;
  for (const auto& c : clients) {
    client_completed += c->completed_in_window();
    client_lost += c->lost_in_window();
    retransmits += c->total_retransmits();
    recovered += c->recovered_in_window();
    r->abandoned += c->total_abandoned();
  }
  if (client_completed != r->completed) {
    r->failures.push_back("client completion count " + std::to_string(client_completed) +
                          " disagrees with observed " + std::to_string(r->completed));
  }
  if (client_lost != r->lost) {
    r->failures.push_back("client lost count " + std::to_string(client_lost) +
                          " disagrees with observed " + std::to_string(r->lost));
  }
  if (r->lost != 0 || r->abandoned != 0) {
    r->failures.push_back("requests lost=" + std::to_string(r->lost) +
                          " abandoned=" + std::to_string(r->abandoned));
  }

  auto sum = [&](const char* counter, bool followers_only = false) {
    double total = 0;
    for (const Cluster* g : groups) {
      for (NodeId n = 0; n < g->total_node_count(); ++n) {
        if (followers_only && n == g->LeaderId()) {
          continue;
        }
        total += static_cast<double>(
            reg.CounterValue(g->config().obs_scope + obs::NodeScope(n) + counter));
      }
    }
    return total;
  };
  auto group_sum = [&](const char* counter) {
    double total = 0;
    for (const Cluster* g : groups) {
      total += static_cast<double>(reg.CounterValue(g->config().obs_scope + counter));
    }
    return total;
  };

  const double done = std::max<double>(1, static_cast<double>(r->completed_total));
  const double sent_all = std::max<double>(1, static_cast<double>(r->sent));
  const double span = static_cast<double>(span_ns);
  std::map<std::string, double>& m = r->sim;
  m["sim.events_per_req"] = static_cast<double>(sim.executed_events()) / done;
  m["sim.cancelled_per_req"] = static_cast<double>(sim.cancelled_events()) / done;
  m["net.msgs_per_req"] = sum("net.tx_msgs") / done;
  m["net.frames_per_req"] = sum("net.tx_frames") / done;
  m["net.wire_bytes_per_req"] = sum("net.tx_wire_bytes") / done;
  m["core.fc_nacks_per_kreq"] = group_sum("flow_control/nacked") * 1000 / sent_all;
  m["core.dedup_hits"] = sum("server.dedup_hits");
  m["core.agg_absorbed_per_req"] = group_sum("aggregator/replies_absorbed") / done;
  m["core.exec_per_req"] = sum("server.ops_executed") / done;
  m["raft.ae_per_req"] = sum("raft.ae_sent") / done;
  m["raft.entries_per_ae"] =
      sum("raft.entries_appended", true) / std::max(1.0, sum("raft.ae_received", true));
  m["storage.wal_appends_per_req"] = sum("disk.appends") / done;
  m["storage.syncs_per_req"] = sum("disk.syncs") / done;
  m["storage.wal_bytes_per_req"] = sum("disk.bytes_written") / done;
  m["storage.snapshots"] = sum("storage.snapshots_saved");
  m["loadgen.retransmits_per_kreq"] = static_cast<double>(retransmits) * 1000 / sent_all;
  m["loadgen.recovered"] = static_cast<double>(recovered);

  double elections = 0, leader_util = 0, util_sum = 0, util_max = 0, replicas = 0;
  uint64_t double_applies = 0;
  size_t gi = 0;
  for (Cluster* g : groups) {
    const NodeId leader = g->LeaderId();
    std::vector<uint64_t> digests;
    for (NodeId n = 0; n < g->total_node_count(); ++n) {
      ReplicatedServer& s = g->server(n);
      elections += static_cast<double>(s.raft()->stats().elections_started -
                                       elections_before[gi][static_cast<size_t>(n)]);
      double_applies += s.server_stats().double_applies;
      const double util = static_cast<double>(s.app_thread().total_busy()) / span;
      util_sum += util;
      util_max = std::max(util_max, util);
      replicas += 1;
      if (n == leader) {
        const double busy = static_cast<double>(s.net_thread().total_busy());
        leader_util = std::max(leader_util, busy / span);
      }
      if (!s.failed()) {
        digests.push_back(s.app().Digest());
      }
    }
    if (std::adjacent_find(digests.begin(), digests.end(), std::not_equal_to<>()) !=
        digests.end()) {
      r->failures.push_back("replica digests disagree in group " + std::to_string(gi));
    }
    if (leader == kInvalidNode) {
      r->failures.push_back("no leader after the drain in group " + std::to_string(gi));
    }
    ++gi;
  }
  if (double_applies != 0) {
    r->failures.push_back("double applies: " + std::to_string(double_applies));
  }
  m["raft.elections"] = elections;
  m["net.leader_util"] = leader_util;
  m["app.util_mean"] = util_sum / std::max(1.0, replicas);
  m["app.util_max"] = util_max;

  // Replay shapes: the first group's leader log and its compaction cadence.
  Cluster& g0 = *groups.front();
  const NodeId leader0 = std::max<NodeId>(0, g0.LeaderId());
  const RaftNode& raft0 = *g0.server(leader0).raft();
  r->log_entries = raft0.log().last_index();
  const double compactions =
      std::max(1.0, span / static_cast<double>(g0.server(leader0).config().compaction_interval));
  const double per_compaction = static_cast<double>(r->log_entries) / compactions;
  r->entries_per_compaction = std::max<uint64_t>(1, static_cast<uint64_t>(per_compaction));
  r->log_retention = static_cast<uint64_t>(g0.config().raft.log_retention_entries);
  r->snapshot_bytes = g0.server(leader0).app().SnapshotState().size();
  m["storage.snapshot_mb"] = static_cast<double>(r->snapshot_bytes) / (1 << 20);

  Fnv h;
  h.Str(DumpMetrics(reg));
  for (uint64_t v : {r->sent, r->completed, r->nacked, r->lost, r->abandoned, r->slo_ok,
                     r->completed_total, sim.executed_events(), sim.cancelled_events(),
                     r->log_entries, r->snapshot_bytes}) {
    h.U64(v);
  }
  h.F64(r->downtime_ns);
  h.F64(r->request_bytes);
  h.Bytes(r->latencies.data(), r->latencies.size() * sizeof(int64_t));
  for (const auto& [name, value] : m) {
    h.Str(name);
    h.F64(value);
  }
  for (Cluster* g : groups) {
    for (NodeId n = 0; n < g->total_node_count(); ++n) {
      h.U64(g->server(n).app().Digest());
    }
  }
  r->sim_digest = h.value();
}

// Elections each node has started so far, by group and node.
std::vector<std::vector<uint64_t>> ElectionsSoFar(const std::vector<Cluster*>& groups) {
  std::vector<std::vector<uint64_t>> out;
  for (Cluster* g : groups) {
    out.emplace_back();
    for (NodeId n = 0; n < g->total_node_count(); ++n) {
      out.back().push_back(g->server(n).raft()->stats().elections_started);
    }
  }
  return out;
}

// The critical path's p99 blame per stage, as path.p99.<stage>_us.
void AddTailBlame(const obs::CriticalPath& critical_path, RepResult* r) {
  for (const obs::CriticalPath::Row& row : critical_path.Attribution()) {
    if (std::strcmp(row.population, "p99") != 0) {
      continue;
    }
    for (size_t s = 0; s < obs::kStageCount; ++s) {
      r->traced[std::string("path.p99.") + obs::StageName(static_cast<obs::Stage>(s)) + "_us"] =
          row.blame_ns[s] / 1e3;
    }
  }
}


// Shared tail of the single-group workloads: timed load, drain, collection.
struct SingleGroupPlan {
  TimeNs warmup = 0;
  TimeNs measure = 0;
  TimeNs drain = 0;
  ClientOptions clients;
  std::function<std::unique_ptr<Workload>()> make_workload;
  // Optional fault schedule, as offsets from load start: power-fail the
  // leader at fail_at and restart it at restart_at (0 = no fault).
  TimeNs fail_at = 0;
  TimeNs restart_at = 0;
};

RepResult RunSingleGroup(ClusterConfig config, const SingleGroupPlan& plan, uint64_t seed,
                         SpanRecorder* rec) {
  RepResult r;
  obs::FlightRecorder recorder(obs::FlightRecorder::kDefaultDepth);
  obs::Watchdog watchdog(&recorder);
  obs::CriticalPath critical_path;
  CountingSink counter;
  ConditionWatch catchup;
  config.seed = kClusterSeed;
  config.flight_recorder = &recorder;
  config.watchdog = &watchdog;
  if (rec != nullptr) {
    config.critical_path = &critical_path;
    recorder.AddSink(&counter);
    recorder.AddSink(&catchup);
  }
  config.app_factory = TimedApps(config.app_factory, rec, &r.preload_ns);

  std::unique_ptr<Cluster> cluster;
  const int64_t t0 = HostNowNs();
  {
    ScopedSpan span(rec, "core.Cluster");
    cluster = std::make_unique<Cluster>(config);
  }
  const int64_t t1 = HostNowNs();
  NodeId leader;
  {
    ScopedSpan span(rec, "core.WaitForLeader");
    leader = cluster->WaitForLeader();
  }
  r.cluster_build_ns = static_cast<double>(t1 - t0);
  r.first_leader_ns = static_cast<double>(HostNowNs() - t1);
  if (leader == kInvalidNode) {
    r.failures.push_back("no leader elected");
    return r;
  }
  const std::vector<Cluster*> groups = {cluster.get()};
  const auto elections_before = ElectionsSoFar(groups);

  Simulator& sim = cluster->sim();
  const TimeNs start = sim.Now();
  const TimeNs window_start = start + plan.warmup;
  const TimeNs window_end = window_start + plan.measure;
  const TimeNs end = window_end + plan.drain;
  Fleet fleet(window_start, window_end);
  Cluster* c = cluster.get();
  auto clients = MakeClients(
      sim, cluster->network(), config.costs, plan.clients,
      [&plan, rec]() { return MaybeTimed(plan.make_workload(), rec); }, seed,
      [c]() { return c->ClientTarget(); }, [c]() { return c->RetryTarget(); }, &fleet);
  for (auto& client : clients) {
    client->SetMeasureWindow(window_start, window_end);
    client->StartLoad(start, window_end);
  }

  TimedRun timed(sim, rec, &r);
  timed.Start();
  NodeId failed = kInvalidNode;
  if (plan.fail_at > 0) {
    timed.RunUntil(start + plan.fail_at);
    failed = cluster->LeaderId();
    fleet.MeasureGapsFrom(sim.Now());
    timed.Call("core.PowerFailNode", [&]() { cluster->PowerFailNode(failed); });
    timed.RunUntil(start + plan.restart_at);
    // Catch-up target: what the group had committed when the node came back.
    const NodeId new_leader = cluster->LeaderId();
    const LogIndex target =
        new_leader == kInvalidNode ? 0 : cluster->server(new_leader).raft()->commit_index();
    r.recovery_ns = timed.Call("core.RestartNode", [&]() { cluster->RestartNode(failed); });
    catchup.Arm(sim.Now(), [c, failed, target]() {
      return c->server(failed).raft()->applied_index() >= target;
    });
  }
  timed.RunUntil(window_start);
  timed.RunUntil(window_end);
  timed.RunUntil(end);
  timed.Stop();
  for (auto& client : clients) {
    client->AccountLost(plan.drain);
  }

  obs::MetricsRegistry reg;
  {
    ScopedSpan span(rec, "core.ExportMetrics");
    cluster->ExportMetrics(&reg);
  }
  Collect(groups, sim, clients, fleet, reg, end - start, elections_before, &r);
  if (!watchdog.ok()) {
    r.failures.push_back("watchdog: " + watchdog.Summary());
  }
  if (failed != kInvalidNode) {
    const NodeId now_leader = cluster->LeaderId();
    if (now_leader != kInvalidNode &&
        cluster->server(failed).app().Digest() != cluster->server(now_leader).app().Digest()) {
      r.failures.push_back("restarted node's digest differs from the leader's");
    }
  }
  if (rec != nullptr) {
    r.recorder_events = static_cast<double>(counter.events());
    if (failed != kInvalidNode) {
      r.traced["raft.restart_catchup_ms"] = catchup.elapsed_ms();
    }
    AddTailBlame(critical_path, &r);
  }
  return r;
}

// ---------------------------------------------------------------------------
// Workloads

// Figure 7's point: HovercRaft N=3, 24 B writes, 8 B replies, 1 us service,
// 600 kRPS, transport batching off, persist_latency 0. Protocol-bound.
RepResult Fig7(uint64_t seed, SpanRecorder* rec) {
  ClusterConfig config;
  config.mode = ClusterMode::kHovercRaft;
  config.nodes = 3;
  config.replier_policy = ReplierPolicy::kLeaderOnly;
  config.app_factory = []() { return std::make_unique<SyntheticService>(); };
  SyntheticWorkloadConfig workload;
  workload.request_bytes = 24;
  workload.reply_bytes = 8;
  workload.service_time = std::make_shared<FixedDistribution>(Micros(1));
  SingleGroupPlan plan;
  plan.warmup = Millis(10);
  plan.measure = Millis(25);
  plan.drain = Millis(10);
  plan.clients.rate_rps = 600e3;
  plan.make_workload = [workload]() { return std::make_unique<SyntheticWorkload>(workload); };
  return RunSingleGroup(config, plan, seed, rec);
}

// Figure 13's YCSB-E on the kvstore: HovercRaft++ N=5, JBSQ(64), 80 kRPS.
// App- and snapshot-bound, read-mostly.
RepResult YcsbE(uint64_t seed, SpanRecorder* rec) {
  YcsbEConfig ycsb;
  ycsb.conversation_count = 2000;
  ycsb.preload_per_conversation = 10;
  ycsb.zipf_theta = 0.99;
  ClusterConfig config;
  config.mode = ClusterMode::kHovercRaftPP;
  config.nodes = 5;
  config.replier_policy = ReplierPolicy::kJbsq;
  config.bounded_queue_depth = 64;
  config.app_factory = [ycsb, seed]() -> std::unique_ptr<StateMachine> {
    return PreloadedKv(ycsb, seed, [](const KvCommand&) { return true; });
  };
  SingleGroupPlan plan;
  plan.warmup = Millis(10);
  plan.measure = Millis(100);
  plan.drain = Millis(10);
  plan.clients.rate_rps = 80e3;
  plan.make_workload = [ycsb]() { return std::make_unique<YcsbEWorkload>(ycsb); };
  return RunSingleGroup(config, plan, seed, rec);
}

// Figure 12's setup: HovercRaft++ N=3, JBSQ(32), flow-control cap 1000,
// bimodal 10 us service, 75% read-only, 165 kRPS, clients with retries, a
// 10 us group-committed WAL. The leader loses power mid-window and restarts.
RepResult Failover(uint64_t seed, SpanRecorder* rec) {
  ClusterConfig config;
  config.mode = ClusterMode::kHovercRaftPP;
  config.nodes = 3;
  config.replier_policy = ReplierPolicy::kJbsq;
  config.bounded_queue_depth = 32;
  config.flow_control_threshold = 1000;
  config.raft.persist_latency = Micros(10);
  config.server_template.fsync_policy = FsyncPolicy::kGroupCommit;
  config.app_factory = []() { return std::make_unique<SyntheticService>(); };
  SyntheticWorkloadConfig workload;
  workload.read_only_fraction = 0.75;
  workload.service_time = std::make_shared<BimodalDistribution>(Micros(10), 0.1, 10.0);
  SingleGroupPlan plan;
  plan.warmup = Millis(20);
  plan.measure = Millis(360);
  plan.drain = Millis(60);
  plan.fail_at = Millis(40);
  plan.restart_at = Millis(60);
  plan.clients.rate_rps = 165e3;
  plan.clients.retries = true;
  plan.clients.initial_backoff = Millis(10);
  plan.clients.max_backoff = Millis(50);
  plan.make_workload = [workload]() { return std::make_unique<SyntheticWorkload>(workload); };
  return RunSingleGroup(config, plan, seed, rec);
}

// Four HovercRaft groups of three on one fabric serving a small YCSB-E
// keyspace, with one live move of group 0's slots to group 1 mid-window.
RepResult Shard4Move(uint64_t seed, SpanRecorder* rec) {
  RepResult r;
  constexpr int32_t kGroups = 4;
  YcsbEConfig ycsb;
  ycsb.conversation_count = 200;
  ycsb.preload_per_conversation = 5;
  ycsb.zipf_theta = 0.99;
  const TimeNs warmup = Millis(20), measure = Millis(40), drain = Millis(30);
  const TimeNs move_at = Millis(30);

  ShardedClusterConfig config;
  config.groups = kGroups;
  config.nodes_per_group = 3;
  config.mode = ClusterMode::kHovercRaft;
  config.replier_policy = ReplierPolicy::kJbsq;
  config.seed = kClusterSeed;
  // Each group preloads only the keys of the slots it owns at start; the
  // hook runs after each group is built, so it tracks which group the
  // factory is serving.
  int32_t groups_built = 0;
  config.per_group_hook = [&groups_built](GroupId, Cluster&) { ++groups_built; };
  config.app_factory = TimedApps(
      [ycsb, seed, &groups_built]() -> std::unique_ptr<StateMachine> {
        const uint32_t per_group = kShardSlots / kGroups;
        const auto lo = static_cast<uint32_t>(groups_built) * per_group;
        return PreloadedKv(ycsb, seed, [lo, per_group](const KvCommand& cmd) {
          const uint32_t slot = ShardSlotOf(cmd.key);
          return slot >= lo && slot < lo + per_group;
        });
      },
      rec, &r.preload_ns);

  CountingSink counter;
  ConditionWatch move_watch;
  obs::CriticalPath critical_path;
  std::unique_ptr<ShardedCluster> sharded;
  const int64_t t0 = HostNowNs();
  {
    ScopedSpan span(rec, "core.ShardedCluster");
    sharded = std::make_unique<ShardedCluster>(config);
  }
  const int64_t t1 = HostNowNs();
  bool leaders;
  {
    ScopedSpan span(rec, "core.WaitForLeader");
    leaders = sharded->WaitForAllLeaders();
  }
  r.cluster_build_ns = static_cast<double>(t1 - t0);
  r.first_leader_ns = static_cast<double>(HostNowNs() - t1);
  if (!leaders) {
    r.failures.push_back("a group elected no leader");
    return r;
  }
  if (rec != nullptr) {
    sharded->flight_recorder()->AddSink(&counter);
    sharded->flight_recorder()->AddSink(&move_watch);
    sharded->flight_recorder()->AddSink(&critical_path);
  }
  std::vector<Cluster*> groups;
  for (int32_t g = 0; g < kGroups; ++g) {
    groups.push_back(&sharded->group(GroupId{g}));
  }
  const auto elections_before = ElectionsSoFar(groups);

  Simulator& sim = sharded->sim();
  const TimeNs start = sim.Now();
  const TimeNs window_start = start + warmup;
  const TimeNs window_end = window_start + measure;
  const TimeNs end = window_end + drain;
  Fleet fleet(window_start, window_end);
  ClientOptions opt;
  opt.rate_rps = 40e3;
  opt.retries = true;
  opt.initial_backoff = Micros(300);
  opt.max_backoff = Millis(2);
  ShardedCluster* s = sharded.get();
  auto clients = MakeClients(
      sim, sharded->network(), config.costs, opt,
      [ycsb, rec]() { return MaybeTimed(std::make_unique<YcsbEWorkload>(ycsb), rec); }, seed,
      [s]() { return s->group(GroupId{0}).ClientTarget(); },
      [s]() { return s->group(GroupId{0}).RetryTarget(); }, &fleet);
  for (auto& client : clients) {
    client->EnableSharding([s](uint32_t slot) { return s->RouteOf(slot); });
    client->SetMeasureWindow(window_start, window_end);
    client->StartLoad(start, window_end);
  }

  TimedRun timed(sim, rec, &r);
  timed.Start();
  timed.RunUntil(start + move_at);
  const std::vector<uint32_t> moved = sharded->shard_map().SlotsOf(GroupId{0});
  timed.Call("shard.StartMove",
              [&]() { sharded->StartMove(moved.front(), moved.back(), GroupId{1}); });
  move_watch.Arm(sim.Now(), [s]() { return s->coordinator().stats().moves_completed > 0; });
  timed.RunUntil(window_start);
  timed.RunUntil(window_end);
  timed.RunUntil(end);
  timed.Stop();
  for (auto& client : clients) {
    client->AccountLost(drain);
  }

  obs::MetricsRegistry reg;
  {
    ScopedSpan span(rec, "core.ExportMetrics");
    sharded->ExportMetrics(&reg);
  }
  Collect(groups, sim, clients, fleet, reg, end - start, elections_before, &r);
  const ShardCoordinator::CoordinatorStats& cs = sharded->coordinator().stats();
  if (cs.moves_completed != 1 || cs.moves_failed != 0) {
    r.failures.push_back("shard move: completed=" + std::to_string(cs.moves_completed) +
                         " failed=" + std::to_string(cs.moves_failed));
  }
  for (uint32_t slot : moved) {
    if (sharded->shard_map().OwnerOf(slot) != GroupId{1}) {
      r.failures.push_back("slot " + std::to_string(slot) + " did not move to group 1");
      break;
    }
  }
  if (!sharded->AllWatchdogsOk()) {
    r.failures.push_back("watchdog: " + sharded->WatchdogSummary());
  }
  const double sent = std::max<double>(1, static_cast<double>(r.sent));
  r.sim["shard.wrong_shard_per_kreq"] =
      static_cast<double>(sharded->TotalWrongShardNacks()) * 1000 / sent;
  r.sim["shard.capture_kb"] = static_cast<double>(cs.capture_bytes) / 1024;
  r.sim["shard.ctl_retries"] = static_cast<double>(cs.ctl_retries);
  if (rec != nullptr) {
    r.recorder_events = static_cast<double>(counter.events());
    r.traced["shard.move_ms"] = move_watch.elapsed_ms();
    AddTailBlame(critical_path, &r);
    sharded->flight_recorder()->RemoveSink(&critical_path);
    sharded->flight_recorder()->RemoveSink(&move_watch);
    sharded->flight_recorder()->RemoveSink(&counter);
  }
  return r;
}

}  // namespace

namespace {

struct WorkloadDef {
  const char* name;
  // Sub-runs a run pools: enough that the simulated metrics of two seeds
  // differ little, few enough that one pass fits the run's time budget.
  int sub_runs;
  RepResult (*run)(uint64_t seed, SpanRecorder* rec);
};

const WorkloadDef kWorkloads[] = {
    {"fig7-hc3-600k", 24, Fig7},
    {"ycsb-e-pp5-80k", 7, YcsbE},
    {"failover-pp3-165k", 8, Failover},
    {"shard4-move", 24, Shard4Move},
};

const WorkloadDef& Find(const std::string& name) {
  for (const WorkloadDef& w : kWorkloads) {
    if (name == w.name) {
      return w;
    }
  }
  HC_CHECK(false && "unknown workload");
  return kWorkloads[0];
}

}  // namespace

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> names;
  for (const WorkloadDef& w : kWorkloads) {
    names.push_back(w.name);
  }
  return names;
}

int SubRunsOf(const std::string& workload) { return Find(workload).sub_runs; }

RepResult RunRep(const std::string& workload, uint64_t seed, SpanRecorder* rec) {
  return Find(workload).run(seed, rec);
}

}  // namespace perfbench
