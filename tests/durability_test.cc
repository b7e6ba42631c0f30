// Cluster-level durability tests: power-fail crashes that genuinely lose the
// unsynced WAL suffix, the restart fence on deferred persist acks, suspect
// recovery and its election gate, exactly-once retries across power
// failures, and recovery from a large kvstore snapshot (docs/durability.md).
#include <gtest/gtest.h>

#include <memory>

#include "src/app/kvstore/service.h"
#include "src/app/synthetic.h"
#include "src/app/ycsb.h"
#include "src/core/cluster.h"
#include "src/loadgen/client.h"
#include "src/loadgen/workload.h"
#include "src/raft/log.h"
#include "src/storage/stable_storage.h"

namespace hovercraft {
namespace {

ClusterConfig Config(ClusterMode mode, int32_t nodes, uint64_t seed) {
  ClusterConfig config;
  config.mode = mode;
  config.nodes = nodes;
  config.seed = seed;
  config.app_factory = []() { return std::make_unique<SyntheticService>(); };
  config.replier_policy = ReplierPolicy::kJbsq;
  config.bounded_queue_depth = 32;
  // Restarted nodes must not livelock elections with a permanently short
  // timeout; restart tests use uniform timeouts throughout this file.
  config.stagger_first_election = false;
  return config;
}

std::unique_ptr<Workload> FastWorkload() {
  SyntheticWorkloadConfig wc;
  wc.service_time = std::make_shared<FixedDistribution>(Micros(1));
  return std::make_unique<SyntheticWorkload>(wc);
}

std::unique_ptr<ClientHost> AttachClient(Cluster& cluster, double rate, uint64_t seed) {
  auto client = std::make_unique<ClientHost>(
      &cluster.sim(), cluster.config().costs, [&cluster]() { return cluster.ClientTarget(); },
      FastWorkload(), rate, seed);
  cluster.network().Attach(client.get());
  return client;
}

void EnableRetries(ClientHost* client, Cluster& cluster) {
  ClientHost::RetryPolicy rp;
  rp.enabled = true;
  rp.initial_backoff = Micros(500);
  rp.max_backoff = Millis(8);
  client->set_retry_policy(rp);
  client->set_retry_target([&cluster]() { return cluster.RetryTarget(); });
}

// Corrupts the newest applied non-noop write entry still present in `node`'s
// WAL (the same target rule the disk-corrupt-entry nemesis uses). Returns the
// corrupted index, or 0 if no eligible entry exists.
LogIndex CorruptNewestWrite(Cluster& cluster, NodeId node) {
  auto& server = cluster.server(node);
  const RaftLog& log = server.raft()->log();
  for (LogIndex idx = server.raft()->applied_index(); idx >= log.first_index() && idx > 0;
       --idx) {
    const LogEntry& e = log.At(idx);
    if (!e.noop && !e.read_only && server.storage()->CorruptEntry(idx)) {
      return idx;
    }
  }
  return 0;
}

TEST(DurabilityTest, PowerFailLosesOnlyUnsyncedSuffix) {
  // A power-failed follower restarts from its WAL: the synced prefix is
  // intact (no torn tail, no corruption, not suspect) and the node converges
  // back to the leader's state.
  ClusterConfig config = Config(ClusterMode::kHovercRaft, 3, 111);
  config.raft.persist_latency = Micros(500);
  Cluster cluster(config);
  ASSERT_NE(cluster.WaitForLeader(), kInvalidNode);
  auto client = AttachClient(cluster, 20'000, 51);

  const TimeNs t0 = cluster.sim().Now();
  client->StartLoad(t0, t0 + Millis(200));
  cluster.sim().RunUntil(t0 + Millis(50));
  const NodeId leader = cluster.LeaderId();
  const NodeId victim = (leader + 1) % 3;
  const LogIndex durable_before = cluster.server(victim).raft()->durable_index();
  EXPECT_GT(durable_before, 0u);

  cluster.PowerFailNode(victim);
  cluster.sim().RunUntil(t0 + Millis(70));
  cluster.RestartNode(victim);
  cluster.sim().RunUntil(t0 + Millis(500));

  const auto& st = cluster.server(victim).storage()->stats();
  EXPECT_EQ(st.recoveries, 1u);
  EXPECT_EQ(st.torn_truncations, 0u);
  EXPECT_EQ(st.corrupt_records, 0u);
  EXPECT_EQ(st.suspect_recoveries, 0u);
  EXPECT_FALSE(cluster.server(victim).raft()->suspect());
  // The crash genuinely destroyed the unsynced suffix...
  EXPECT_GT(cluster.server(victim).disk()->stats().bytes_lost, 0u);
  // ...but everything synced survived and the node caught back up.
  ASSERT_NE(cluster.LeaderId(), kInvalidNode);
  EXPECT_EQ(cluster.server(victim).raft()->commit_index(),
            cluster.server(cluster.LeaderId()).raft()->commit_index());
  const uint64_t digest0 = cluster.server(0).app().Digest();
  for (NodeId n = 1; n < 3; ++n) {
    EXPECT_EQ(cluster.server(n).app().Digest(), digest0);
  }
}

TEST(DurabilityTest, NodeKilledInsidePersistWindowNeverAcks) {
  // The deferred AppendEntries ack is fenced on a restart generation: a node
  // killed between the append and the fsync completion must drop the pending
  // ack instead of confirming durability it no longer has.
  ClusterConfig config = Config(ClusterMode::kHovercRaft, 3, 113);
  config.raft.persist_latency = Millis(2);  // wide persist window
  Cluster cluster(config);
  ASSERT_NE(cluster.WaitForLeader(), kInvalidNode);
  auto client = AttachClient(cluster, 20'000, 53);

  const TimeNs t0 = cluster.sim().Now();
  client->StartLoad(t0, t0 + Millis(200));
  cluster.sim().RunUntil(t0 + Millis(50));
  const NodeId leader = cluster.LeaderId();
  const NodeId victim = (leader + 1) % 3;
  // With a 2ms persist window under steady load there is always at least one
  // ack parked behind an in-flight fsync.
  EXPECT_GT(cluster.server(victim).raft()->stats().acks_deferred_persist, 0u);

  // Fail-stop (not power-fail): the disk keeps running, so the in-flight
  // fsync completes and its callback fires into the restart fence — the only
  // thing standing between the dead node and a forged ack.
  cluster.KillNode(victim);
  cluster.sim().RunUntil(t0 + Millis(80));
  EXPECT_GT(cluster.server(victim).raft()->stats().acks_dropped_crash, 0u);

  cluster.RestartNode(victim);
  cluster.sim().RunUntil(t0 + Millis(500));
  ASSERT_NE(cluster.LeaderId(), kInvalidNode);
  EXPECT_EQ(cluster.server(victim).raft()->commit_index(),
            cluster.server(cluster.LeaderId()).raft()->commit_index());
  const uint64_t digest0 = cluster.server(0).app().Digest();
  for (NodeId n = 1; n < 3; ++n) {
    EXPECT_EQ(cluster.server(n).app().Digest(), digest0);
  }
}

TEST(DurabilityTest, ExactlyOnceAcrossFullClusterPowerFail) {
  // Power-fail all three replicas at once, restart them, and let retries
  // drain: every request completes exactly once. Group commit is safe here
  // because acks wait for the fsync — what a client saw confirmed was
  // durable on a quorum before the lights went out.
  ClusterConfig config = Config(ClusterMode::kHovercRaft, 3, 115);
  config.raft.persist_latency = Micros(500);
  Cluster cluster(config);
  ASSERT_NE(cluster.WaitForLeader(), kInvalidNode);
  auto client = AttachClient(cluster, 20'000, 57);
  EnableRetries(client.get(), cluster);

  const TimeNs t0 = cluster.sim().Now();
  client->SetMeasureWindow(t0, t0 + Millis(200));
  client->StartLoad(t0, t0 + Millis(200));
  cluster.sim().RunUntil(t0 + Millis(50));
  for (NodeId n = 0; n < 3; ++n) {
    cluster.PowerFailNode(n);
  }
  cluster.sim().RunUntil(t0 + Millis(55));
  for (NodeId n = 0; n < 3; ++n) {
    cluster.RestartNode(n);
  }
  cluster.sim().RunUntil(t0 + Millis(800));

  ASSERT_NE(cluster.LeaderId(), kInvalidNode);
  EXPECT_EQ(client->total_completed(), client->total_sent());
  EXPECT_GT(client->total_retransmits(), 0u);
  client->AccountLost(Seconds(1));
  EXPECT_EQ(client->lost_in_window(), 0u);
  for (NodeId n = 0; n < 3; ++n) {
    EXPECT_EQ(cluster.server(n).server_stats().double_applies, 0u);
    EXPECT_EQ(cluster.server(n).raft()->stats().committed_overwritten, 0u);
  }
  const uint64_t digest0 = cluster.server(0).app().Digest();
  for (NodeId n = 1; n < 3; ++n) {
    EXPECT_EQ(cluster.server(n).app().Digest(), digest0);
  }
}

TEST(DurabilityTest, CorruptedFollowerRecoversSuspectAndGetsRepaired) {
  // Bit-flip a committed entry on a follower's platter, power-fail it, and
  // restart: recovery detects the damage (CRC), cuts the log, marks the node
  // suspect, and the leader's AppendEntries re-fetch repairs it — after which
  // the suspicion clears and the replica converges bit-exactly.
  ClusterConfig config = Config(ClusterMode::kHovercRaft, 3, 117);
  config.raft.persist_latency = Micros(500);
  Cluster cluster(config);
  ASSERT_NE(cluster.WaitForLeader(), kInvalidNode);
  auto client = AttachClient(cluster, 20'000, 59);

  const TimeNs t0 = cluster.sim().Now();
  client->StartLoad(t0, t0 + Millis(200));
  cluster.sim().RunUntil(t0 + Millis(50));
  const NodeId leader = cluster.LeaderId();
  const NodeId victim = (leader + 1) % 3;
  const LogIndex damaged = CorruptNewestWrite(cluster, victim);
  ASSERT_GT(damaged, 0u);
  ASSERT_LE(damaged, cluster.server(victim).raft()->commit_index());

  cluster.PowerFailNode(victim);
  cluster.sim().RunUntil(t0 + Millis(70));
  cluster.RestartNode(victim);

  const auto& st = cluster.server(victim).storage()->stats();
  EXPECT_EQ(st.suspect_recoveries, 1u);
  EXPECT_GT(st.corrupt_records, 0u);

  cluster.sim().RunUntil(t0 + Millis(500));
  // The leader re-sent the damaged suffix and commit caught up past the
  // suspect floor, clearing the suspicion.
  EXPECT_FALSE(cluster.server(victim).raft()->suspect());
  EXPECT_EQ(cluster.server(victim).raft()->stats().suspect_repaired, 1u);
  ASSERT_NE(cluster.LeaderId(), kInvalidNode);
  EXPECT_EQ(cluster.server(victim).raft()->commit_index(),
            cluster.server(cluster.LeaderId()).raft()->commit_index());
  const uint64_t digest0 = cluster.server(0).app().Digest();
  for (NodeId n = 1; n < 3; ++n) {
    EXPECT_EQ(cluster.server(n).app().Digest(), digest0);
  }
}

TEST(DurabilityTest, SuspectPairCannotElectALeaderByThemselves) {
  // Corrupt and power-fail both followers while fail-stopping the leader.
  // The restarted followers form a live majority, but both are suspect:
  // neither may campaign, and neither may endorse a candidate whose log ends
  // below its suspect floor. The cluster must stall leaderless — electing an
  // amnesiac leader could overwrite entries whose replies clients hold —
  // until the pristine leader returns.
  ClusterConfig config = Config(ClusterMode::kHovercRaft, 3, 119);
  config.raft.persist_latency = Micros(500);
  Cluster cluster(config);
  ASSERT_NE(cluster.WaitForLeader(), kInvalidNode);
  auto client = AttachClient(cluster, 20'000, 61);

  const TimeNs t0 = cluster.sim().Now();
  client->StartLoad(t0, t0 + Millis(100));
  cluster.sim().RunUntil(t0 + Millis(50));
  const NodeId leader = cluster.LeaderId();
  const NodeId fa = (leader + 1) % 3;
  const NodeId fb = (leader + 2) % 3;
  ASSERT_GT(CorruptNewestWrite(cluster, fa), 0u);
  ASSERT_GT(CorruptNewestWrite(cluster, fb), 0u);
  cluster.PowerFailNode(fa);
  cluster.PowerFailNode(fb);
  cluster.KillNode(leader);  // fail-stop: disk and memory intact
  cluster.sim().RunUntil(t0 + Millis(52));
  cluster.RestartNode(fa);
  cluster.RestartNode(fb);

  EXPECT_TRUE(cluster.server(fa).raft()->suspect());
  EXPECT_TRUE(cluster.server(fb).raft()->suspect());

  // A long leaderless window: two suspects hold a quorum but refuse to use it.
  cluster.sim().RunUntil(t0 + Millis(250));
  EXPECT_EQ(cluster.LeaderId(), kInvalidNode);
  EXPECT_GT(cluster.server(fa).raft()->stats().campaigns_blocked_suspect +
                cluster.server(fb).raft()->stats().campaigns_blocked_suspect,
            0u);

  cluster.RestartNode(leader);
  const NodeId second = cluster.WaitForLeader(cluster.sim().Now() + Seconds(2));
  ASSERT_NE(second, kInvalidNode);
  cluster.sim().RunUntil(cluster.sim().Now() + Millis(300));
  // The pristine copy repaired both suspects; nothing committed was lost.
  EXPECT_FALSE(cluster.server(fa).raft()->suspect());
  EXPECT_FALSE(cluster.server(fb).raft()->suspect());
  for (NodeId n = 0; n < 3; ++n) {
    EXPECT_EQ(cluster.server(n).raft()->stats().committed_overwritten, 0u);
  }
  const uint64_t digest0 = cluster.server(0).app().Digest();
  for (NodeId n = 1; n < 3; ++n) {
    EXPECT_EQ(cluster.server(n).app().Digest(), digest0);
  }
}

TEST(DurabilityTest, SessionTableSurvivesPowerFailReplay) {
  // Like FailureTest.SessionTableSurvivesRestart, but through a power fail:
  // the dedup state is rebuilt from the *replayed WAL*, not from surviving
  // memory, and still matches the tables built live on the other replicas.
  ClusterConfig config = Config(ClusterMode::kHovercRaft, 3, 121);
  config.raft.persist_latency = Micros(500);
  Cluster cluster(config);
  ASSERT_NE(cluster.WaitForLeader(), kInvalidNode);
  auto client = AttachClient(cluster, 20'000, 63);

  const TimeNs t0 = cluster.sim().Now();
  client->StartLoad(t0, t0 + Millis(200));
  cluster.sim().RunUntil(t0 + Millis(50));
  const NodeId leader = cluster.LeaderId();
  const NodeId victim = (leader + 1) % 3;
  cluster.PowerFailNode(victim);
  cluster.sim().RunUntil(t0 + Millis(120));
  cluster.RestartNode(victim);
  cluster.sim().RunUntil(t0 + Millis(500));

  ASSERT_NE(cluster.LeaderId(), kInvalidNode);
  ASSERT_EQ(cluster.server(victim).raft()->commit_index(),
            cluster.server(cluster.LeaderId()).raft()->commit_index());
  EXPECT_GT(cluster.server(victim).sessions().client_count(), 0u);
  EXPECT_TRUE(cluster.server(victim).sessions().Executed(RequestId{client->id(), 1}));
  EXPECT_EQ(cluster.server(victim).sessions().AckWatermark(client->id()),
            cluster.server(cluster.LeaderId()).sessions().AckWatermark(client->id()));
}

// ---------------------------------------------------------------------------
// Recovery from a large, non-synthetic snapshot image: HovercRaft++ N=3 on
// the YCSB-E-preloaded kvstore (a multi-MiB image per replica).
// ---------------------------------------------------------------------------

struct KvRun {
  std::unique_ptr<Cluster> cluster;
  std::unique_ptr<ClientHost> client;
  NodeId victim = kInvalidNode;
};

// Runs YCSB-E load past several 20 ms compactions and power-fails a
// follower; the caller restarts it.
KvRun RunKvAndPowerFailFollower(uint64_t seed) {
  YcsbEConfig ycsb;
  ycsb.conversation_count = 500;
  ycsb.preload_per_conversation = 10;
  ClusterConfig config = Config(ClusterMode::kHovercRaftPP, 3, seed);
  // A short retention window lets each compaction drop log and WAL prefix,
  // so recovery has to start from the snapshot.
  config.raft.log_retention_entries = 256;
  config.app_factory = [ycsb]() {
    auto svc = std::make_unique<KvService>();
    Rng rng(0xFEED5EED);  // identical preload on every replica
    for (const KvCommand& cmd : YcsbEGenerator(ycsb).PreloadCommands(rng)) {
      svc->Apply(cmd);
    }
    return svc;
  };
  KvRun run;
  run.cluster = std::make_unique<Cluster>(config);
  Cluster& cluster = *run.cluster;
  EXPECT_NE(cluster.WaitForLeader(), kInvalidNode);
  run.client = std::make_unique<ClientHost>(
      &cluster.sim(), cluster.config().costs, [&cluster]() { return cluster.ClientTarget(); },
      std::make_unique<YcsbEWorkload>(ycsb), 20'000, seed + 1);
  cluster.network().Attach(run.client.get());
  const TimeNs t0 = cluster.sim().Now();
  run.client->StartLoad(t0, t0 + Millis(150));
  cluster.sim().RunUntil(t0 + Millis(70));
  run.victim = (cluster.LeaderId() + 1) % 3;
  // Genesis plus at least two compaction-time snapshots are on the platter.
  EXPECT_GE(cluster.server(run.victim).storage()->stats().snapshots_saved, 3u);
  EXPECT_GT(cluster.server(run.victim).disk()->Size("snapshot"), size_t{1} << 20);
  cluster.PowerFailNode(run.victim);
  cluster.sim().RunUntil(t0 + Millis(90));
  return run;
}

void ExpectConverged(Cluster& cluster, NodeId victim) {
  cluster.sim().RunUntil(cluster.sim().Now() + Millis(300));
  const NodeId leader = cluster.LeaderId();
  ASSERT_NE(leader, kInvalidNode);
  EXPECT_FALSE(cluster.server(victim).raft()->suspect());
  EXPECT_EQ(cluster.server(victim).raft()->commit_index(),
            cluster.server(leader).raft()->commit_index());
  EXPECT_EQ(cluster.server(victim).app().Digest(), cluster.server(leader).app().Digest());
}

TEST(DurabilityTest, KvFollowerRecoversFromItsOwnLargeSnapshot) {
  KvRun run = RunKvAndPowerFailFollower(131);
  Cluster& cluster = *run.cluster;
  cluster.RestartNode(run.victim);
  const ReplicatedServer& victim = cluster.server(run.victim);
  // Applied state resumes at the node's own snapshot point; the genesis
  // fallback would restart from index 0 and as a suspect.
  EXPECT_EQ(victim.storage()->stats().suspect_recoveries, 0u);
  EXPECT_FALSE(victim.raft()->suspect());
  EXPECT_GT(victim.raft()->log().first_index(), 1u);  // the WAL prefix is gone
  EXPECT_GE(victim.raft()->applied_index(), victim.raft()->log().first_index() - 1);
  ExpectConverged(cluster, run.victim);
  EXPECT_EQ(victim.server_stats().snapshots_restored, 0u);  // no state transfer needed
}

TEST(DurabilityTest, KvFollowerWithDamagedSnapshotIsRepairedByInstallSnapshot) {
  KvRun run = RunKvAndPowerFailFollower(137);
  Cluster& cluster = *run.cluster;
  SimDisk* disk = cluster.server(run.victim).disk();
  ASSERT_TRUE(disk->FlipByte("snapshot", disk->Size("snapshot") / 2));
  cluster.RestartNode(run.victim);
  const ReplicatedServer& victim = cluster.server(run.victim);
  EXPECT_EQ(victim.storage()->stats().suspect_recoveries, 1u);
  EXPECT_TRUE(victim.raft()->suspect());
  EXPECT_EQ(victim.raft()->applied_index(), 0u);  // genesis fallback
  ExpectConverged(cluster, run.victim);
  // Repaired by the leader's state transfer, which the node persisted
  // through RestoreSnapshot.
  EXPECT_GE(victim.server_stats().snapshots_restored, 1u);
  EXPECT_EQ(victim.raft()->stats().suspect_repaired, 1u);
}

// ---------------------------------------------------------------------------
// Frozen snapshots (docs/durability.md, "Snapshot write path"): the snapshot
// file holds the app's frozen image until something reads it, so a power
// fail after post-snapshot writes must still recover the image as it was at
// the snapshot, on the full YCSB-E preload (~21 MiB per replica).
// ---------------------------------------------------------------------------

ClusterConfig YcsbKvConfig(uint64_t seed) {
  ClusterConfig config = Config(ClusterMode::kHovercRaftPP, 3, seed);
  config.raft.log_retention_entries = 256;
  config.app_factory = []() {
    auto svc = std::make_unique<KvService>();
    Rng rng(0xFEED5EED);  // identical preload on every replica
    for (const KvCommand& cmd : YcsbEGenerator(YcsbEConfig{}).PreloadCommands(rng)) {
      svc->Apply(cmd);
    }
    return svc;
  };
  return config;
}

// Runs until a leader exists and `victim` has committed and applied what
// it has (at most 2 s: with the full preload a restarted replica can take
// a few elections to catch up), then checks the replicas agree.
void ExpectCaughtUp(Cluster& cluster, NodeId victim) {
  const TimeNs deadline = cluster.sim().Now() + Seconds(2);
  auto caught_up = [&]() {
    const NodeId leader = cluster.LeaderId();
    if (leader == kInvalidNode) {
      return false;
    }
    const RaftNode& v = *cluster.server(victim).raft();
    const RaftNode& l = *cluster.server(leader).raft();
    return v.commit_index() == l.commit_index() && v.applied_index() == l.applied_index() &&
           v.commit_index() == v.applied_index();
  };
  do {
    cluster.sim().RunUntil(cluster.sim().Now() + Millis(20));
  } while (!caught_up() && cluster.sim().Now() < deadline);
  ASSERT_TRUE(caught_up());
  EXPECT_FALSE(cluster.server(victim).raft()->suspect());
  EXPECT_EQ(cluster.server(victim).app().Digest(),
            cluster.server(cluster.LeaderId()).app().Digest());
}

std::unique_ptr<ClientHost> AttachYcsbClient(Cluster& cluster, double rate, uint64_t seed) {
  auto client = std::make_unique<ClientHost>(
      &cluster.sim(), cluster.config().costs, [&cluster]() { return cluster.ClientTarget(); },
      std::make_unique<YcsbEWorkload>(YcsbEConfig{}), rate, seed);
  cluster.network().Attach(client.get());
  return client;
}

TEST(DurabilityTest, KvReplicaPowerFailedAfterPostSnapshotWritesRecoversTheFrozenImage) {
  Cluster cluster(YcsbKvConfig(151));
  ASSERT_NE(cluster.WaitForLeader(), kInvalidNode);
  std::unique_ptr<ClientHost> client = AttachYcsbClient(cluster, 20'000, 152);
  const TimeNs t0 = cluster.sim().Now();
  client->StartLoad(t0, t0 + Millis(150));
  cluster.sim().RunUntil(t0 + Millis(45));
  const NodeId victim = (cluster.LeaderId() + 1) % 3;
  ReplicatedServer& server = cluster.server(victim);
  // Step to just after the victim's next compaction-time snapshot...
  const uint64_t saved = server.storage()->stats().snapshots_saved;
  while (server.storage()->stats().snapshots_saved == saved) {
    cluster.sim().RunUntil(cluster.sim().Now() + Micros(100));
  }
  const uint64_t applies_near_snapshot = server.app().ApplyCount();
  // ...then let writes land on the frozen state before the power fails.
  cluster.sim().RunUntil(cluster.sim().Now() + Millis(8));
  ASSERT_EQ(server.storage()->stats().snapshots_saved, saved + 1);  // still that snapshot
  const uint64_t applies_at_crash = server.app().ApplyCount();
  ASSERT_GT(applies_at_crash, applies_near_snapshot);
  EXPECT_EQ(server.disk()->records_encoded(), 0u);  // nothing has read the file yet
  cluster.PowerFailNode(victim);
  EXPECT_GT(server.disk()->records_encoded(), 0u);  // the crash produced its bytes
  cluster.sim().RunUntil(cluster.sim().Now() + Millis(5));
  cluster.RestartNode(victim);
  // The app resumes from the snapshot's image, without the later writes.
  EXPECT_LE(server.app().ApplyCount(), applies_near_snapshot);
  EXPECT_LT(server.app().ApplyCount(), applies_at_crash);
  EXPECT_EQ(server.storage()->stats().suspect_recoveries, 0u);
  ExpectCaughtUp(cluster, victim);
  EXPECT_EQ(server.server_stats().snapshots_restored, 0u);
}

TEST(DurabilityTest, KvInstallSnapshotReplacesAStoreWhoseFreezeIsPending) {
  ClusterConfig config = YcsbKvConfig(157);
  config.server_template.straggler_lag_entries = 512;
  Cluster cluster(config);
  ASSERT_NE(cluster.WaitForLeader(), kInvalidNode);
  std::unique_ptr<ClientHost> client = AttachYcsbClient(cluster, 20'000, 158);
  const TimeNs t0 = cluster.sim().Now();
  client->StartLoad(t0, t0 + Millis(200));
  cluster.sim().RunUntil(t0 + Millis(30));
  const NodeId leader = cluster.LeaderId();
  const NodeId victim = (leader + 1) % 3;
  ReplicatedServer& server = cluster.server(victim);
  // A fail-stop keeps process memory: the victim's last snapshot stays
  // frozen while the leader compacts past its log.
  server.set_failed(true);
  cluster.sim().RunUntil(t0 + Millis(130));
  EXPECT_GT(cluster.server(leader).raft()->log().first_index(), server.raft()->log().last_index());
  EXPECT_EQ(server.disk()->records_encoded(), 0u);
  const uint64_t restored = server.server_stats().snapshots_restored;
  server.set_failed(false);
  // The InstallSnapshot replaces the store under the pending freeze, then
  // the persisted copy of the received image supersedes it unencoded.
  while (server.server_stats().snapshots_restored == restored &&
         cluster.sim().Now() < t0 + Millis(400)) {
    cluster.sim().RunUntil(cluster.sim().Now() + Micros(100));
  }
  ASSERT_GT(server.server_stats().snapshots_restored, restored);
  EXPECT_EQ(server.disk()->records_encoded(), 0u);
  // A power fail right after the repair recovers the received image.
  cluster.PowerFailNode(victim);
  cluster.sim().RunUntil(cluster.sim().Now() + Millis(5));
  cluster.RestartNode(victim);
  EXPECT_EQ(server.storage()->stats().suspect_recoveries, 0u);
  ExpectCaughtUp(cluster, victim);
}

}  // namespace
}  // namespace hovercraft
