/// \file fault_test.cc
/// \brief Chaos suite for the deterministic fault-injection framework:
/// injector semantics, PBFT view changes under replica faults, WAL/LSM
/// crash recovery, enclave crash + re-provisioning, and an end-to-end
/// node chaos run. Deterministic for a fixed CONFIDE_FAULT_SEED; set
/// CONFIDE_FAULT_REPORT to dump fault.* counters as JSON on exit.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "chain/network.h"
#include "chain/pbft.h"
#include "common/fault.h"
#include "common/metrics.h"
#include "confide/client.h"
#include "confide/cs_enclave.h"
#include "confide/freshness.h"
#include "confide/system.h"
#include "crypto/drbg.h"
#include "lang/compiler.h"
#include "net/cluster.h"
#include "net/sim_transport.h"
#include "net/tcp_transport.h"
#include "serialize/rlp.h"
#include "storage/lsm_store.h"
#include "storage/wal.h"

namespace confide {
namespace {

using chain::NamedAddress;
using core::Client;
using core::ConfideSystem;
using core::SystemOptions;
using fault::FaultInjector;
using fault::FaultPlan;
using fault::Trigger;
using storage::WriteBatch;

uint64_t ChaosSeed() {
  if (const char* s = std::getenv("CONFIDE_FAULT_SEED")) {
    return std::strtoull(s, nullptr, 10);
  }
  return 1;
}

/// Dumps every `fault.*` counter to CONFIDE_FAULT_REPORT (CI artifact).
class FaultReportEnv : public ::testing::Environment {
 public:
  void TearDown() override {
    const char* path = std::getenv("CONFIDE_FAULT_REPORT");
    if (path == nullptr) return;
    metrics::MetricsSnapshot snap = metrics::MetricsRegistry::Global().Snapshot();
    std::ofstream out(path);
    out << "{\n";
    bool first = true;
    for (const auto& [name, value] : snap.counters) {
      if (name.rfind("fault.", 0) != 0) continue;
      if (!first) out << ",\n";
      first = false;
      out << "  \"" << name << "\": " << value;
    }
    out << "\n}\n";
  }
};

const auto* const kFaultReportEnv =
    ::testing::AddGlobalTestEnvironment(new FaultReportEnv);

// ---------------------------------------------------------------------------
// FaultInjector semantics
// ---------------------------------------------------------------------------

TEST(FaultInjectorTest, UnarmedSitesNeverFire) {
  FaultPlan plan(1);
  EXPECT_FALSE(FaultInjector::Global().ShouldFail("fault.test.nothing"));
  EXPECT_FALSE(FaultInjector::Global().AnyArmed());
}

TEST(FaultInjectorTest, OneShotFiresExactlyOnce) {
  FaultPlan plan(1);
  plan.Arm("fault.test.a", Trigger{.one_shot = true});
  EXPECT_TRUE(FaultInjector::Global().ShouldFail("fault.test.a"));
  EXPECT_FALSE(FaultInjector::Global().ShouldFail("fault.test.a"));
  EXPECT_EQ(FaultInjector::Global().FiredCount("fault.test.a"), 1u);
}

TEST(FaultInjectorTest, NthHitTrigger) {
  FaultPlan plan(1);
  plan.Arm("fault.test.nth", Trigger{.after_hits = 2});  // fires on 3rd hit
  EXPECT_FALSE(FaultInjector::Global().ShouldFail("fault.test.nth"));
  EXPECT_FALSE(FaultInjector::Global().ShouldFail("fault.test.nth"));
  EXPECT_TRUE(FaultInjector::Global().ShouldFail("fault.test.nth"));
  EXPECT_EQ(FaultInjector::Global().HitCount("fault.test.nth"), 3u);
}

TEST(FaultInjectorTest, ArgPassesThrough) {
  FaultPlan plan(1);
  plan.Arm("fault.test.arg", Trigger{.one_shot = true, .arg = 42});
  uint64_t arg = 0;
  EXPECT_TRUE(FaultInjector::Global().ShouldFail("fault.test.arg", &arg));
  EXPECT_EQ(arg, 42u);
}

TEST(FaultInjectorTest, ProbabilityIsDeterministicPerSeed) {
  auto run = [](uint64_t seed) {
    FaultPlan plan(seed);
    plan.Arm("fault.test.p", Trigger{.probability = 0.5});
    std::vector<bool> fired;
    for (int i = 0; i < 64; ++i) {
      fired.push_back(FaultInjector::Global().ShouldFail("fault.test.p"));
    }
    return fired;
  };
  EXPECT_EQ(run(7), run(7));      // same seed, same sequence
  EXPECT_NE(run(7), run(1234));   // different seed, different sequence
}

TEST(FaultInjectorTest, PlanDisarmsAtScopeExit) {
  {
    FaultPlan plan(1);
    plan.Arm("fault.test.scoped");
    EXPECT_TRUE(FaultInjector::Global().AnyArmed());
  }
  EXPECT_FALSE(FaultInjector::Global().AnyArmed());
  EXPECT_FALSE(FaultInjector::Global().ShouldFail("fault.test.scoped"));
}

TEST(FaultInjectorTest, InjectedAndRecoveredCounters) {
  uint64_t before =
      metrics::MetricsRegistry::Global().Snapshot().counter("fault.test.c.injected");
  {
    FaultPlan plan(1);
    plan.Arm("fault.test.c", Trigger{.one_shot = true});
    EXPECT_TRUE(FaultInjector::Global().ShouldFail("fault.test.c"));
  }
  fault::NoteRecovered("fault.test.c");
  metrics::MetricsSnapshot snap = metrics::MetricsRegistry::Global().Snapshot();
  EXPECT_EQ(snap.counter("fault.test.c.injected"), before + 1);
  EXPECT_GE(snap.counter("fault.test.c.recovered"), 1u);
}

// ---------------------------------------------------------------------------
// PBFT under faults
// ---------------------------------------------------------------------------

chain::PbftFaultModel Behaviors(std::vector<chain::ReplicaBehavior> b) {
  chain::PbftFaultModel model;
  model.behavior = std::move(b);
  return model;
}

TEST(PbftFaultTest, AllHonestCommitsInViewZero) {
  auto net = chain::NetworkSim::SingleZone(4);
  auto result = chain::SimulatePbftWithFaults(net, 0, 4096, Behaviors({}));
  EXPECT_TRUE(result.committed);
  EXPECT_EQ(result.commit_view, 0u);
  EXPECT_EQ(result.view_changes, 0u);
  EXPECT_EQ(result.messages_dropped, 0u);
}

TEST(PbftFaultTest, CrashedLeaderRecoversViaViewChange) {
  using chain::ReplicaBehavior;
  auto net = chain::NetworkSim::SingleZone(4);
  auto model = Behaviors({ReplicaBehavior::kCrashed});
  auto result = chain::SimulatePbftWithFaults(net, 0, 4096, model);
  EXPECT_TRUE(result.committed);
  EXPECT_GE(result.commit_view, 1u);
  EXPECT_GE(result.view_changes, 1u);
  // The round had to sit out at least one view timeout before committing.
  EXPECT_GT(result.quorum_commit_ns, model.view_timeout_ns);
  EXPECT_EQ(result.commit_time_ns[0], 0u);  // the dead leader never commits

  // Model-declared leader crash is recorded and marked recovered.
  metrics::MetricsSnapshot snap = metrics::MetricsRegistry::Global().Snapshot();
  EXPECT_GE(snap.counter("fault.chain.leader_crash.injected"), 1u);
  EXPECT_GE(snap.counter("fault.chain.leader_crash.recovered"), 1u);
}

TEST(PbftFaultTest, DoubleLeaderCrashTakesTwoViewChanges) {
  using chain::ReplicaBehavior;
  auto net = chain::NetworkSim::SingleZone(7);  // f = 2
  auto model =
      Behaviors({ReplicaBehavior::kCrashed, ReplicaBehavior::kCrashed});
  auto result = chain::SimulatePbftWithFaults(net, 0, 4096, model);
  EXPECT_TRUE(result.committed);
  EXPECT_GE(result.commit_view, 2u);  // leaders of views 0 and 1 are dead
  EXPECT_GT(result.quorum_commit_ns, 2 * model.view_timeout_ns);
}

TEST(PbftFaultTest, SilentReplicaDoesNotBlockCommit) {
  using chain::ReplicaBehavior;
  auto net = chain::NetworkSim::SingleZone(4);
  auto model = Behaviors({ReplicaBehavior::kHonest, ReplicaBehavior::kSilent});
  auto result = chain::SimulatePbftWithFaults(net, 0, 4096, model);
  EXPECT_TRUE(result.committed);
  EXPECT_EQ(result.commit_view, 0u);
}

TEST(PbftFaultTest, EquivocatingLeaderIsVotedOut) {
  using chain::ReplicaBehavior;
  auto net = chain::NetworkSim::SingleZone(4);
  auto model = Behaviors({ReplicaBehavior::kEquivocating});
  auto result = chain::SimulatePbftWithFaults(net, 0, 4096, model);
  EXPECT_TRUE(result.committed);
  EXPECT_GE(result.commit_view, 1u);  // its invalid proposal went nowhere
}

TEST(PbftFaultTest, EquivocationDuringViewChangeExcludedFromQuorum) {
  // Fork attempt under a view change: the view-0 leader is dead, and the
  // replica that inherits the lead in view 1 equivocates. The honest
  // majority must vote through BOTH byzantine leaders and commit exactly
  // one value — the equivocator never gets divergent commits accepted.
  using chain::ReplicaBehavior;
  auto net = chain::NetworkSim::SingleZone(7);  // f = 2: tolerates both
  auto model =
      Behaviors({ReplicaBehavior::kCrashed, ReplicaBehavior::kEquivocating});
  auto result = chain::SimulatePbftWithFaults(net, 0, 4096, model);
  ASSERT_TRUE(result.committed);
  // Two failed views (dead leader, then equivocating leader) before an
  // honest leader closes the round.
  EXPECT_GE(result.view_changes, 2u);
  EXPECT_GE(result.commit_view, 2u);
  // The crashed replica never commits; every honest replica that did
  // commit saw the same single quorum decision (one commit time each,
  // from one view) — no replica committed in a conflicting earlier view.
  EXPECT_EQ(result.commit_time_ns[0], 0u);
  size_t committed_replicas = 0;
  for (uint64_t t : result.commit_time_ns) committed_replicas += (t != 0);
  EXPECT_GE(committed_replicas, 5u);  // 2f+1 quorum of honest replicas
}

TEST(PbftFaultTest, TooManyCrashesNeverCommit) {
  using chain::ReplicaBehavior;
  auto net = chain::NetworkSim::SingleZone(4);  // f = 1, quorum 3
  auto model =
      Behaviors({ReplicaBehavior::kCrashed, ReplicaBehavior::kCrashed});
  auto result = chain::SimulatePbftWithFaults(net, 0, 4096, model);
  EXPECT_FALSE(result.committed);
  EXPECT_EQ(result.quorum_commit_ns, 0u);
  EXPECT_EQ(result.view_changes, model.max_views);  // burned every view
}

TEST(PbftFaultTest, EvenPartitionBlocksMinorityPartitionDoesNot) {
  auto net = chain::NetworkSim::SingleZone(4);
  ASSERT_TRUE(net.SetPartition(2, 1).ok());
  ASSERT_TRUE(net.SetPartition(3, 1).ok());  // 2/2 split: no side has 3
  auto blocked = chain::SimulatePbftWithFaults(net, 0, 4096, Behaviors({}));
  EXPECT_FALSE(blocked.committed);
  EXPECT_GT(blocked.messages_dropped, 0u);

  net.HealPartitions();
  ASSERT_TRUE(net.SetPartition(3, 1).ok());  // 3/1: majority side commits
  auto majority = chain::SimulatePbftWithFaults(net, 0, 4096, Behaviors({}));
  EXPECT_TRUE(majority.committed);
  EXPECT_EQ(majority.commit_time_ns[3], 0u);  // the isolated node never does
}

TEST(PbftFaultTest, LossyLinksAreDeterministicPerSeed) {
  auto make_net = [] {
    chain::NetworkSim net;
    uint32_t zone = net.AddZone("vpc");
    chain::LinkModel lossy;
    lossy.drop_rate = 0.1;
    lossy.jitter_ns = 50'000;
    EXPECT_TRUE(net.SetLink(zone, zone, lossy).ok());
    for (int i = 0; i < 7; ++i) net.AddNode(zone);
    return net;
  };
  auto net = make_net();
  chain::PbftFaultModel model;
  model.seed = 42;
  auto a = chain::SimulatePbftWithFaults(net, 0, 4096, model);
  auto b = chain::SimulatePbftWithFaults(net, 0, 4096, model);
  EXPECT_EQ(a.committed, b.committed);
  EXPECT_EQ(a.messages_sent, b.messages_sent);
  EXPECT_EQ(a.messages_dropped, b.messages_dropped);
  EXPECT_EQ(a.quorum_commit_ns, b.quorum_commit_ns);
  EXPECT_EQ(a.commit_time_ns, b.commit_time_ns);
  EXPECT_GT(a.messages_dropped, 0u);
}

TEST(PbftFaultTest, ArmedMessageDropSiteDropsMessages) {
  FaultPlan plan(ChaosSeed());
  plan.Arm("fault.chain.pbft_msg_drop", Trigger{.probability = 0.05});
  auto net = chain::NetworkSim::SingleZone(7);
  auto result = chain::SimulatePbftWithFaults(net, 0, 4096, Behaviors({}));
  EXPECT_GT(result.messages_dropped, 0u);
  // Under loss the protocol either still reaches quorum or reacts with a
  // view change (the sim has no retransmission, so commit itself is not
  // guaranteed — a sub-quorum view-0 commit can strand the stragglers).
  EXPECT_TRUE(result.committed || result.view_changes > 0);
}

// ---------------------------------------------------------------------------
// Storage crash recovery
// ---------------------------------------------------------------------------

class LsmCrashTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() / "confide_fault_lsm";
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::filesystem::path dir_;
};

TEST_F(LsmCrashTest, PrefixConsistentAtEveryWalWritePoint) {
  // The record the crash lands in: one Put of key1 -> value1.
  WriteBatch probe;
  probe.Put("key1", ToBytes(std::string_view("value1")));
  const uint64_t record_size = storage::EncodeBatch(probe).size() + 8;

  for (uint64_t k = 0; k <= record_size; ++k) {
    auto sub = dir_ / ("wp" + std::to_string(k));
    std::filesystem::create_directories(sub);
    storage::LsmOptions options;
    options.wal_dir = sub.string();

    {
      auto store = storage::LsmKvStore::Open(options);
      ASSERT_TRUE(store.ok());
      // Baseline batch is fully durable before the crash.
      ASSERT_TRUE((*store)->Put("key0", ToBytes(std::string_view("value0"))).ok());

      FaultPlan plan(ChaosSeed());
      plan.Arm("fault.storage.wal_torn", Trigger{.one_shot = true, .arg = k});
      Status crashed = (*store)->Put("key1", ToBytes(std::string_view("value1")));
      // A crash point past the last byte means the whole record landed:
      // the append is simply durable. Anywhere inside the record fails.
      EXPECT_EQ(crashed.ok(), k == record_size) << "k=" << k;
      // Store object destroyed here = the simulated process crash.
    }

    storage::RecoveryInfo info;
    auto recovered = storage::LsmKvStore::Recover(options, &info);
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    // The durable prefix always survives.
    auto v0 = (*recovered)->Get("key0");
    ASSERT_TRUE(v0.ok()) << "k=" << k;
    EXPECT_EQ(*v0, ToBytes(std::string_view("value0")));
    // The interrupted batch is visible iff every byte reached the disk.
    auto v1 = (*recovered)->Get("key1");
    if (k == record_size) {
      ASSERT_TRUE(v1.ok()) << "k=" << k;
      EXPECT_EQ(*v1, ToBytes(std::string_view("value1")));
      EXPECT_EQ(info.batches_replayed, 2u);
      EXPECT_FALSE(info.torn_tail);
    } else {
      EXPECT_FALSE(v1.ok()) << "k=" << k;
      EXPECT_EQ(info.batches_replayed, 1u);
      EXPECT_EQ(info.torn_tail, k > 0) << "k=" << k;
    }
  }
}

TEST_F(LsmCrashTest, RecoveryRepairsTornTailOnDiskBeforeNewAppends) {
  // crash -> recover -> append -> crash -> recover: the first recovery
  // must truncate the torn bytes off the file, or the post-recovery
  // append lands after garbage and the second replay loses it.
  WriteBatch probe;
  probe.Put("key1", ToBytes(std::string_view("value1")));
  const uint64_t record_size = storage::EncodeBatch(probe).size() + 8;

  for (uint64_t k = 1; k < record_size; ++k) {
    auto sub = dir_ / ("dc" + std::to_string(k));
    std::filesystem::create_directories(sub);
    storage::LsmOptions options;
    options.wal_dir = sub.string();

    {
      auto store = storage::LsmKvStore::Open(options);
      ASSERT_TRUE(store.ok());
      ASSERT_TRUE((*store)->Put("key0", ToBytes(std::string_view("value0"))).ok());
      FaultPlan plan(ChaosSeed());
      plan.Arm("fault.storage.wal_torn", Trigger{.one_shot = true, .arg = k});
      EXPECT_FALSE((*store)->Put("key1", ToBytes(std::string_view("value1"))).ok());
    }  // first crash

    {
      storage::RecoveryInfo info;
      auto recovered = storage::LsmKvStore::Recover(options, &info);
      ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
      EXPECT_TRUE(info.torn_tail) << "k=" << k;
      // Acknowledged write after recovery...
      ASSERT_TRUE(
          (*recovered)->Put("key2", ToBytes(std::string_view("value2"))).ok());
    }  // ...second crash

    storage::RecoveryInfo info;
    auto again = storage::LsmKvStore::Recover(options, &info);
    ASSERT_TRUE(again.ok()) << "k=" << k << ": " << again.status().ToString();
    EXPECT_FALSE(info.torn_tail) << "k=" << k;
    EXPECT_EQ(info.batches_replayed, 2u) << "k=" << k;
    EXPECT_TRUE((*again)->Get("key0").ok()) << "k=" << k;
    EXPECT_FALSE((*again)->Get("key1").ok()) << "k=" << k;
    auto v2 = (*again)->Get("key2");
    ASSERT_TRUE(v2.ok()) << "k=" << k;
    EXPECT_EQ(*v2, ToBytes(std::string_view("value2")));
  }
}

TEST_F(LsmCrashTest, SurvivingProcessRepairsTornTailOnRetry) {
  storage::LsmOptions options;
  options.wal_dir = dir_.string();
  auto store = storage::LsmKvStore::Open(options);
  ASSERT_TRUE(store.ok());

  {
    FaultPlan plan(ChaosSeed());
    plan.Arm("fault.storage.wal_torn", Trigger{.one_shot = true, .arg = 5});
    EXPECT_FALSE((*store)->Put("a", ToBytes(std::string_view("1"))).ok());
  }
  // Same process retries: the torn bytes must not corrupt the log.
  ASSERT_TRUE((*store)->Put("a", ToBytes(std::string_view("1"))).ok());
  ASSERT_TRUE((*store)->Put("b", ToBytes(std::string_view("2"))).ok());
  store->reset();  // close, then reopen from the WAL

  storage::RecoveryInfo info;
  auto recovered = storage::LsmKvStore::Recover(options, &info);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_FALSE(info.torn_tail);
  EXPECT_EQ(info.batches_replayed, 2u);
  EXPECT_TRUE((*recovered)->Get("a").ok());
  EXPECT_TRUE((*recovered)->Get("b").ok());
}

TEST_F(LsmCrashTest, SyncFailureIsSurfacedAndRecovered) {
  auto wal = storage::Wal::Open((dir_ / "wal").string());
  ASSERT_TRUE(wal.ok());
  WriteBatch batch;
  batch.Put("k", ToBytes(std::string_view("v")));
  ASSERT_TRUE((*wal)->Append(batch).ok());

  uint64_t recovered_before = metrics::MetricsRegistry::Global().Snapshot().counter(
      "fault.storage.wal_sync.recovered");
  {
    FaultPlan plan(ChaosSeed());
    plan.Arm("fault.storage.wal_sync", Trigger{.one_shot = true});
    Status s = (*wal)->Sync();
    EXPECT_EQ(s.code(), StatusCode::kUnavailable);
  }
  EXPECT_TRUE((*wal)->Sync().ok());  // the retry lands and notes recovery
  EXPECT_EQ(metrics::MetricsRegistry::Global().Snapshot().counter(
                "fault.storage.wal_sync.recovered"),
            recovered_before + 1);
}

TEST_F(LsmCrashTest, InjectedFlushFailureLeavesMemtableIntact) {
  storage::LsmOptions options;
  options.wal_dir = dir_.string();
  auto store = storage::LsmKvStore::Open(options);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->Put("k", ToBytes(std::string_view("v"))).ok());

  {
    FaultPlan plan(ChaosSeed());
    plan.Arm("fault.storage.lsm_flush", Trigger{.one_shot = true});
    EXPECT_FALSE((*store)->Flush().ok());
  }
  EXPECT_TRUE((*store)->Get("k").ok());  // still served from the memtable
  EXPECT_EQ((*store)->RunCount(), 0u);
  ASSERT_TRUE((*store)->Flush().ok());   // retry succeeds
  EXPECT_EQ((*store)->RunCount(), 1u);
  EXPECT_TRUE((*store)->Get("k").ok());
}

TEST_F(LsmCrashTest, CompactionRecoversFromEveryFaultSite) {
  // One cycle per compaction fault site: arm it one-shot, drive a
  // compaction, and require the retry inside CompactWithRetries to both
  // survive (writes never fail) and note the recovery. CI's chaos report
  // check relies on this test firing all four sites on every seed, so
  // the arming is deterministic (one-shot, probability 1).
  const char* kSites[] = {
      "fault.storage.compaction.start",
      "fault.storage.compaction.merge",
      "fault.storage.compaction.write",    // durable stores only
      "fault.storage.compaction.install",  // durable stores only
  };
  int cycle = 0;
  for (const char* site : kSites) {
    auto sub = dir_ / ("compact" + std::to_string(cycle++));
    std::filesystem::create_directories(sub);
    storage::LsmOptions options;
    options.wal_dir = sub.string();  // write/install trip only when durable
    options.max_runs = 1;
    auto store = storage::LsmKvStore::Open(options);
    ASSERT_TRUE(store.ok()) << site;

    auto before = metrics::MetricsRegistry::Global().Snapshot();
    FaultPlan plan(ChaosSeed());
    plan.Arm(site, Trigger{.one_shot = true});
    ASSERT_TRUE((*store)->Put("a", ToBytes(std::string_view("1"))).ok());
    ASSERT_TRUE((*store)->Flush().ok());
    ASSERT_TRUE((*store)->Put("b", ToBytes(std::string_view("2"))).ok());
    // This flush pushes the run count past max_runs: the compaction's
    // first attempt dies at the armed site, the retry completes. A
    // failing compaction must never surface as a write failure.
    ASSERT_TRUE((*store)->Flush().ok()) << site;
    EXPECT_EQ((*store)->RunCount(), 1u) << site;

    auto after = metrics::MetricsRegistry::Global().Snapshot();
    std::string name(site);
    EXPECT_EQ(after.counter(name + ".injected") -
                  before.counter(name + ".injected"),
              1u)
        << site;
    EXPECT_EQ(after.counter(name + ".recovered") -
                  before.counter(name + ".recovered"),
              1u)
        << site;
    EXPECT_TRUE((*store)->Get("a").ok()) << site;
    EXPECT_TRUE((*store)->Get("b").ok()) << site;
  }
}

// ---------------------------------------------------------------------------
// Enclave crash + re-provisioning
// ---------------------------------------------------------------------------

constexpr const char* kCounterSource = R"(
fn increment() {
  var key = "counter";
  var buf = alloc(16);
  var n = get_storage(key, strlen(key), buf, 16);
  var value = 0;
  if (n == 8) { value = load64(buf); }
  value = value + 1;
  store64(buf, value);
  set_storage(key, strlen(key), buf, 8);
  var out = alloc(32);
  var len = u64_to_dec(value, out);
  write_output(out, len);
  return value;
}
)";

Bytes DeployPayload(const Bytes& code) {
  std::vector<serialize::RlpItem> items;
  items.push_back(serialize::RlpItem::U64(uint64_t(chain::VmKind::kCvm)));
  items.push_back(serialize::RlpItem(code));
  return serialize::RlpEncode(serialize::RlpItem::List(std::move(items)));
}

class EnclaveRecoveryTest : public ::testing::Test {
 protected:
  std::unique_ptr<ConfideSystem> Boot(SystemOptions options) {
    // CI chaos matrix: re-run the recovery suite under the pipelined
    // block lifecycle as well. Tests that pin a depth bypass this helper.
    if (const char* s = std::getenv("CONFIDE_PIPELINE_DEPTH")) {
      options.pipeline_depth = uint32_t(std::strtoul(s, nullptr, 10));
    }
    auto sys = ConfideSystem::BootstrapFirst(options);
    EXPECT_TRUE(sys.ok()) << sys.status().ToString();
    return std::move(*sys);
  }

  // Deploys the counter and returns its address.
  chain::Address Deploy(ConfideSystem* sys, Client* client) {
    auto code = lang::Compile(kCounterSource, lang::VmTarget::kCvm);
    EXPECT_TRUE(code.ok()) << code.status().ToString();
    chain::Address addr = NamedAddress("counter");
    auto submission =
        client->MakeConfidentialTx(addr, "__deploy__", DeployPayload(*code));
    EXPECT_TRUE(submission.ok());
    EXPECT_TRUE(sys->node()->SubmitTransaction(submission->tx).ok());
    auto receipts = sys->RunToCompletion();
    EXPECT_TRUE(receipts.ok());
    EXPECT_TRUE((*receipts)[0].success);
    return addr;
  }

  // Runs one confidential increment and returns the decrypted output.
  std::string Increment(ConfideSystem* sys, Client* client, chain::Address addr) {
    auto call = client->MakeConfidentialTx(addr, "increment", Bytes{});
    EXPECT_TRUE(call.ok());
    EXPECT_TRUE(sys->node()->SubmitTransaction(call->tx).ok());
    auto receipts = sys->RunToCompletion();
    EXPECT_TRUE(receipts.ok()) << receipts.status().ToString();
    if (!receipts.ok() || receipts->empty() || !(*receipts)[0].success) {
      return "<failed>";
    }
    auto opened = Client::OpenSealedReceipt(call->k_tx, (*receipts)[0].output);
    EXPECT_TRUE(opened.ok());
    return opened.ok() ? ToString(opened->output) : "<sealed>";
  }
};

TEST_F(EnclaveRecoveryTest, KilledCsEnclaveReprovisionedFromLocalKm) {
  SystemOptions options;
  options.seed = 200;
  options.destroy_km_after_provision = false;  // KM keeps the keys locally
  auto sys = Boot(options);
  Client client(501, sys->pk_tx());
  chain::Address addr = Deploy(sys.get(), &client);
  EXPECT_EQ(Increment(sys.get(), &client, addr), "1");

  ASSERT_TRUE(sys->platform()->KillEnclave(sys->confidential_engine()->enclave_id()).ok());
  EXPECT_FALSE(sys->ConfidentialEngineAlive());

  ASSERT_TRUE(sys->RecoverConfidentialEngine().ok());
  EXPECT_TRUE(sys->ConfidentialEngineAlive());
  // Same consortium keys: pre-crash encrypted state is still readable.
  EXPECT_EQ(Increment(sys.get(), &client, addr), "2");
}

TEST_F(EnclaveRecoveryTest, ReprovisionViaPeerMapWhenOwnKmDestroyed) {
  SystemOptions provider_options;
  provider_options.seed = 210;
  provider_options.destroy_km_after_provision = false;  // MAP provider
  auto provider = Boot(provider_options);

  SystemOptions joiner_options;
  joiner_options.seed = 211;  // default: KM destroyed after provisioning
  auto joiner = ConfideSystem::BootstrapJoin(joiner_options, provider.get());
  ASSERT_TRUE(joiner.ok()) << joiner.status().ToString();
  EXPECT_FALSE((*joiner)->km_alive());

  Client client(502, (*joiner)->pk_tx());
  chain::Address addr = Deploy(joiner->get(), &client);
  EXPECT_EQ(Increment(joiner->get(), &client, addr), "1");

  ASSERT_TRUE((*joiner)
                  ->platform()
                  ->KillEnclave((*joiner)->confidential_engine()->enclave_id())
                  .ok());

  // Without any key source the keys are genuinely unreachable.
  Status no_source = (*joiner)->RecoverConfidentialEngine();
  EXPECT_EQ(no_source.code(), StatusCode::kUnavailable);
  EXPECT_NE(no_source.message().find("consortium keys unreachable"),
            std::string::npos);

  (*joiner)->SetRecoveryPeer(provider.get());
  ASSERT_TRUE((*joiner)->RecoverConfidentialEngine().ok());
  EXPECT_FALSE((*joiner)->km_alive());  // fresh KM destroyed again per policy
  EXPECT_EQ(Increment(joiner->get(), &client, addr), "2");
}

TEST_F(EnclaveRecoveryTest, ReprovisionViaCentralKms) {
  core::CentralKms kms(77);
  SystemOptions options;
  options.seed = 220;
  auto sys = ConfideSystem::BootstrapWithKms(options, &kms);
  ASSERT_TRUE(sys.ok()) << sys.status().ToString();
  EXPECT_FALSE((*sys)->km_alive());

  Client client(503, (*sys)->pk_tx());
  chain::Address addr = Deploy(sys->get(), &client);
  EXPECT_EQ(Increment(sys->get(), &client, addr), "1");

  ASSERT_TRUE((*sys)
                  ->platform()
                  ->KillEnclave((*sys)->confidential_engine()->enclave_id())
                  .ok());
  (*sys)->SetRecoveryKms(&kms);
  ASSERT_TRUE((*sys)->RecoverConfidentialEngine().ok());
  EXPECT_EQ(Increment(sys->get(), &client, addr), "2");
}

TEST_F(EnclaveRecoveryTest, BatchFlushFaultFailsTransactionAtomically) {
  SystemOptions options;
  options.seed = 260;
  auto sys = Boot(options);
  Client client(505, sys->pk_tx());
  chain::Address addr = Deploy(sys.get(), &client);  // flush #1: not armed

  {
    FaultPlan plan(ChaosSeed());
    plan.Arm("fault.confide.batch_flush", Trigger{.one_shot = true});
    // The increment executes in the enclave, but the batched write-back
    // flush fails host-side — the receipt reports failure and, because
    // the batch applies atomically, no write reaches the store.
    EXPECT_EQ(Increment(sys.get(), &client, addr), "<failed>");
  }
  auto leaked = sys->node()->state()->Get(addr, AsByteView("counter"));
  EXPECT_EQ(leaked.status().code(), StatusCode::kNotFound)
      << "partial flush leaked into the state store";
  metrics::MetricsSnapshot snap = metrics::MetricsRegistry::Global().Snapshot();
  EXPECT_GE(snap.counter("fault.confide.batch_flush.injected"), 1u);

  // Disarmed, the same contract state advances normally from scratch.
  EXPECT_EQ(Increment(sys.get(), &client, addr), "1");
}

TEST_F(EnclaveRecoveryTest, InjectedProvisionFailureRetriesWithBackoff) {
  SystemOptions options;
  options.seed = 230;
  options.destroy_km_after_provision = false;
  auto sys = Boot(options);
  ASSERT_TRUE(sys->platform()->KillEnclave(sys->confidential_engine()->enclave_id()).ok());

  uint64_t clock_before = sys->clock()->NowNs();
  {
    FaultPlan plan(ChaosSeed());
    plan.Arm("fault.confide.provision", Trigger{.one_shot = true});
    ASSERT_TRUE(sys->RecoverConfidentialEngine().ok());
  }
  // The failed first attempt cost one (modelled) backoff interval.
  EXPECT_GE(sys->clock()->NowNs() - clock_before, options.recover_backoff_ns);
  metrics::MetricsSnapshot snap = metrics::MetricsRegistry::Global().Snapshot();
  EXPECT_GE(snap.counter("fault.confide.provision.injected"), 1u);
  EXPECT_GE(snap.counter("fault.confide.provision.recovered"), 1u);
  EXPECT_GE(snap.counter("fault.tee.enclave_crash.recovered"), 1u);
}

TEST_F(EnclaveRecoveryTest, RecoveryGivesUpAfterMaxRetries) {
  SystemOptions options;
  options.seed = 240;
  options.destroy_km_after_provision = false;
  options.recover_max_retries = 3;
  auto sys = Boot(options);
  ASSERT_TRUE(sys->platform()->KillEnclave(sys->confidential_engine()->enclave_id()).ok());

  FaultPlan plan(ChaosSeed());
  plan.Arm("fault.confide.provision", Trigger{});  // fails every attempt
  Status failed = sys->RecoverConfidentialEngine();
  EXPECT_EQ(failed.code(), StatusCode::kUnavailable);
  EXPECT_EQ(FaultInjector::Global().FiredCount("fault.confide.provision"), 3u);
}

TEST_F(EnclaveRecoveryTest, DeadLocalKmFallsBackToRecoveryPeer) {
  SystemOptions provider_options;
  provider_options.seed = 250;
  provider_options.destroy_km_after_provision = false;  // MAP provider
  auto provider = Boot(provider_options);

  SystemOptions options;
  options.seed = 251;
  options.destroy_km_after_provision = false;  // node keeps its own KM
  auto sys = ConfideSystem::BootstrapJoin(options, provider.get());
  ASSERT_TRUE(sys.ok()) << sys.status().ToString();
  Client client(504, (*sys)->pk_tx());
  chain::Address addr = Deploy(sys->get(), &client);
  EXPECT_EQ(Increment(sys->get(), &client, addr), "1");

  // Both enclaves die; the km_alive_ flag still says the KM holds keys.
  ASSERT_TRUE((*sys)->platform()->KillEnclave((*sys)->km_enclave_id()).ok());
  ASSERT_TRUE((*sys)
                  ->platform()
                  ->KillEnclave((*sys)->confidential_engine()->enclave_id())
                  .ok());
  EXPECT_TRUE((*sys)->km_alive());  // stale cache — platform knows better

  // Recovery must notice the dead KM and fall back to the peer instead of
  // burning every retry on ProvisionCs against a dead enclave.
  (*sys)->SetRecoveryPeer(provider.get());
  ASSERT_TRUE((*sys)->RecoverConfidentialEngine().ok());
  EXPECT_TRUE((*sys)->ConfidentialEngineAlive());
  EXPECT_EQ(Increment(sys->get(), &client, addr), "2");
}

// ---------------------------------------------------------------------------
// End-to-end node chaos run
// ---------------------------------------------------------------------------

TEST(NodeChaosTest, WalOpenFailureFailsBootstrapInsteadOfVolatileFallback) {
  auto dir = std::filesystem::temp_directory_path() / "confide_chaos_walopen";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  SystemOptions options;
  options.seed = 260;
  options.state_wal_dir = dir.string();
  uint64_t failures_before = metrics::MetricsRegistry::Global().Snapshot().counter(
      "chain.node.storage_open_failure.count");
  {
    FaultPlan plan(ChaosSeed());
    plan.Arm("fault.storage.wal_open", Trigger{.one_shot = true});
    auto boot = ConfideSystem::BootstrapFirst(options);
    // A node asked for durability must refuse to come up volatile.
    ASSERT_FALSE(boot.ok());
    EXPECT_EQ(boot.status().code(), StatusCode::kUnavailable);
  }
  EXPECT_EQ(metrics::MetricsRegistry::Global().Snapshot().counter(
                "chain.node.storage_open_failure.count"),
            failures_before + 1);

  // Same configuration without the fault boots durably.
  auto retry = ConfideSystem::BootstrapFirst(options);
  ASSERT_TRUE(retry.ok()) << retry.status().ToString();
  std::filesystem::remove_all(dir);
}

TEST(NodeChaosTest, RandomOneShotFaultsNeverLeavePartialCommits) {
  const uint64_t seed = ChaosSeed();
  auto dir = std::filesystem::temp_directory_path() /
             ("confide_chaos_" + std::to_string(seed));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  SystemOptions options;
  options.seed = 300 + seed;
  options.state_wal_dir = dir.string();
  auto boot = ConfideSystem::BootstrapFirst(options);
  ASSERT_TRUE(boot.ok()) << boot.status().ToString();
  auto& sys = *boot;
  Client client(600, sys->pk_tx());

  auto code = lang::Compile(kCounterSource, lang::VmTarget::kCvm);
  ASSERT_TRUE(code.ok());
  chain::Address addr = NamedAddress("counter");
  auto deploy = client.MakeConfidentialTx(addr, "__deploy__", DeployPayload(*code));
  ASSERT_TRUE(deploy.ok());
  ASSERT_TRUE(sys->node()->SubmitTransaction(deploy->tx).ok());
  ASSERT_TRUE(sys->RunToCompletion().ok());

  crypto::Drbg rng(seed ^ 0x5eed0fau);
  uint64_t committed = 0;
  for (int round = 0; round < 24; ++round) {
    FaultPlan plan(seed + uint64_t(round));
    switch (rng.NextBounded(4)) {
      case 0:
        plan.Arm("fault.chain.submit", Trigger{.one_shot = true});
        break;
      case 1:
        plan.Arm("fault.chain.apply_block", Trigger{.one_shot = true});
        break;
      case 2:
        plan.Arm("fault.storage.wal_torn",
                 Trigger{.one_shot = true, .arg = rng.NextBounded(64)});
        break;
      default:
        break;  // fault-free round
    }

    auto call = client.MakeConfidentialTx(addr, "increment", Bytes{});
    ASSERT_TRUE(call.ok());
    Status submitted = sys->node()->SubmitTransaction(call->tx);
    if (!submitted.ok()) {
      EXPECT_EQ(submitted.code(), StatusCode::kUnavailable);
      ASSERT_TRUE(sys->node()->SubmitTransaction(call->tx).ok());  // resubmit
    }
    ASSERT_TRUE(sys->node()->PreVerify().ok());
    auto block = sys->node()->ProposeBlock();
    ASSERT_TRUE(block.ok());
    if (block->transactions.empty()) continue;

    uint64_t height_before = sys->node()->Height();
    auto receipts = sys->node()->ApplyBlock(*block);
    if (!receipts.ok()) {
      // Clean failure: nothing of the block may have landed...
      EXPECT_EQ(sys->node()->Height(), height_before);
      EXPECT_EQ(sys->node()->state()->PendingWrites(), 0u);
      // ...and the exact same block must apply on retry.
      receipts = sys->node()->ApplyBlock(*block);
    }
    ASSERT_TRUE(receipts.ok()) << receipts.status().ToString();
    ASSERT_EQ(receipts->size(), 1u);
    ASSERT_TRUE((*receipts)[0].success) << (*receipts)[0].status_message;
    ++committed;

    auto opened = Client::OpenSealedReceipt(call->k_tx, (*receipts)[0].output);
    ASSERT_TRUE(opened.ok());
    EXPECT_EQ(ToString(opened->output), std::to_string(committed));
  }
  EXPECT_GT(committed, 0u);
  // Every committed transaction has a durable receipt.
  EXPECT_EQ(sys->node()->Height(), committed + 1);  // + the deploy block

  std::filesystem::remove_all(dir);
}

TEST(NodeChaosTest, FsyncFailureAfterLandedBatchNeverReExecutesTheBlock) {
  // The commit rule: once a block's batch is in the store the block is
  // final, even when the fsync that follows fails. A caller retrying the
  // block must be refused — executing it again would run one signed
  // increment twice.
  auto dir = std::filesystem::temp_directory_path() / "confide_chaos_fsync";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  SystemOptions options;
  options.seed = 280;
  options.state_wal_dir = dir.string();
  options.sync_commits = true;
  auto boot = ConfideSystem::BootstrapFirst(options);
  ASSERT_TRUE(boot.ok()) << boot.status().ToString();
  auto& sys = *boot;
  Client client(620, sys->pk_tx());
  auto code = lang::Compile(kCounterSource, lang::VmTarget::kCvm);
  ASSERT_TRUE(code.ok());
  chain::Address addr = NamedAddress("counter");
  auto deploy = client.MakeConfidentialTx(addr, "__deploy__", DeployPayload(*code));
  ASSERT_TRUE(deploy.ok());
  ASSERT_TRUE(sys->node()->SubmitTransaction(deploy->tx).ok());
  ASSERT_TRUE(sys->RunToCompletion().ok());

  auto call = client.MakeConfidentialTx(addr, "increment", Bytes{});
  ASSERT_TRUE(call.ok());
  ASSERT_TRUE(sys->node()->SubmitTransaction(call->tx).ok());
  ASSERT_TRUE(sys->node()->PreVerify().ok());
  auto block = sys->node()->ProposeBlock();
  ASSERT_TRUE(block.ok());
  ASSERT_EQ(block->transactions.size(), 1u);

  const uint64_t height_before = sys->node()->Height();
  {
    FaultPlan plan(ChaosSeed());
    plan.Arm("fault.storage.wal_sync", Trigger{.one_shot = true});
    auto receipts = sys->node()->ApplyBlock(*block);
    ASSERT_FALSE(receipts.ok());
    EXPECT_EQ(receipts.status().code(), StatusCode::kUnavailable);
  }
  // The batch landed, so the block is applied despite the error...
  EXPECT_EQ(sys->node()->Height(), height_before + 1);
  auto stored = sys->node()->blocks()->GetByHeight(height_before);
  ASSERT_TRUE(stored.ok());
  auto landed = chain::Block::Deserialize(*stored);
  ASSERT_TRUE(landed.ok());
  EXPECT_EQ(sys->node()->TipHash(), landed->header.Hash());
  EXPECT_EQ(sys->node()->state()->StateRoot(), landed->header.state_root);
  // ...and the caller's retry is refused instead of executing it again.
  auto retry = sys->node()->ApplyBlock(*block);
  EXPECT_EQ(retry.status().code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(sys->node()->Height(), height_before + 1);

  auto receipt = sys->node()->GetReceipt(call->tx.Hash());
  ASSERT_TRUE(receipt.ok()) << receipt.status().ToString();
  auto opened = Client::OpenSealedReceipt(call->k_tx, receipt->output);
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(ToString(opened->output), "1");

  // The chain keeps extending on the next block, whose fsync succeeds
  // (and reports the sync site recovered).
  auto next = client.MakeConfidentialTx(addr, "increment", Bytes{});
  ASSERT_TRUE(next.ok());
  ASSERT_TRUE(sys->node()->SubmitTransaction(next->tx).ok());
  auto receipts = sys->RunToCompletion();
  ASSERT_TRUE(receipts.ok()) << receipts.status().ToString();
  ASSERT_EQ(receipts->size(), 1u);
  auto next_opened = Client::OpenSealedReceipt(next->k_tx, (*receipts)[0].output);
  ASSERT_TRUE(next_opened.ok());
  EXPECT_EQ(ToString(next_opened->output), "2");
  EXPECT_EQ(sys->node()->Height(), height_before + 2);

  std::filesystem::remove_all(dir);
}

TEST(NodeChaosTest, PipelineCommitCrashRecoversToPrefixConsistentState) {
  auto dir = std::filesystem::temp_directory_path() / "confide_chaos_pipeline";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  SystemOptions options;
  options.seed = 270;
  options.state_wal_dir = dir.string();
  options.parallelism = 2;
  options.pipeline_depth = 3;
  options.block_max_bytes = 1;  // one tx per block: commit order == submit order
  constexpr size_t kIncrements = 12;

  std::vector<core::ConfidentialSubmission> calls;
  size_t committed = 0;
  {
    auto boot = ConfideSystem::BootstrapFirst(options);
    ASSERT_TRUE(boot.ok()) << boot.status().ToString();
    auto& sys = *boot;
    Client client(610, sys->pk_tx());
    auto code = lang::Compile(kCounterSource, lang::VmTarget::kCvm);
    ASSERT_TRUE(code.ok());
    chain::Address addr = NamedAddress("counter");
    auto deploy = client.MakeConfidentialTx(addr, "__deploy__", DeployPayload(*code));
    ASSERT_TRUE(deploy.ok());
    ASSERT_TRUE(sys->node()->SubmitTransaction(deploy->tx).ok());
    ASSERT_TRUE(sys->RunToCompletion().ok());

    for (size_t i = 0; i < kIncrements; ++i) {
      auto call = client.MakeConfidentialTx(addr, "increment", Bytes{});
      ASSERT_TRUE(call.ok());
      ASSERT_TRUE(sys->node()->SubmitTransaction(call->tx).ok());
      calls.push_back(std::move(*call));
    }

    // The commit stage dies between pipeline stages: the first two commit
    // groups land, the third is killed mid-run.
    FaultPlan plan(ChaosSeed());
    plan.Arm("fault.chain.pipeline.commit",
             Trigger{.after_hits = 2, .one_shot = true});
    auto receipts = sys->RunToCompletion();
    ASSERT_FALSE(receipts.ok());
    EXPECT_EQ(receipts.status().code(), StatusCode::kUnavailable);

    // Durable receipts identify the committed prefix — and it must be a
    // prefix: every receipt-less tx comes after every committed one.
    while (committed < calls.size() &&
           sys->node()->GetReceipt(calls[committed].tx.Hash()).ok()) {
      ++committed;
    }
    EXPECT_GE(committed, 1u);
    EXPECT_LT(committed, kIncrements);
    for (size_t i = committed; i < calls.size(); ++i) {
      EXPECT_FALSE(sys->node()->GetReceipt(calls[i].tx.Hash()).ok());
    }
    EXPECT_EQ(sys->node()->Height(), 1 + committed);  // + the deploy block
    // The node process "crashes" here: the re-queued in-memory pool is lost.
  }

  // Recovery: a fresh node on the same WAL replays exactly the durable
  // prefix — height, receipts, and counter value all agree.
  auto reboot = ConfideSystem::BootstrapFirst(options);
  ASSERT_TRUE(reboot.ok()) << reboot.status().ToString();
  auto& sys = *reboot;
  EXPECT_EQ(sys->node()->Height(), 1 + committed);
  auto last = sys->node()->GetReceipt(calls[committed - 1].tx.Hash());
  ASSERT_TRUE(last.ok());
  auto opened = Client::OpenSealedReceipt(calls[committed - 1].k_tx, last->output);
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(ToString(opened->output), std::to_string(committed));

  // Resubmitting the lost suffix converges to the same final state a
  // fault-free serial run reaches.
  for (size_t i = committed; i < calls.size(); ++i) {
    ASSERT_TRUE(sys->node()->SubmitTransaction(calls[i].tx).ok());
  }
  ASSERT_TRUE(sys->RunToCompletion().ok());
  EXPECT_EQ(sys->node()->Height(), 1u + kIncrements);
  auto final_receipt = sys->node()->GetReceipt(calls.back().tx.Hash());
  ASSERT_TRUE(final_receipt.ok());
  auto final_opened =
      Client::OpenSealedReceipt(calls.back().k_tx, final_receipt->output);
  ASSERT_TRUE(final_opened.ok());
  EXPECT_EQ(ToString(final_opened->output), std::to_string(kIncrements));

  // Serial fault-free reference on a volatile store: same final counter.
  SystemOptions serial_options;
  serial_options.seed = 271;
  auto serial_boot = ConfideSystem::BootstrapFirst(serial_options);
  ASSERT_TRUE(serial_boot.ok());
  auto& serial_sys = *serial_boot;
  Client serial_client(611, serial_sys->pk_tx());
  auto code = lang::Compile(kCounterSource, lang::VmTarget::kCvm);
  ASSERT_TRUE(code.ok());
  auto deploy = serial_client.MakeConfidentialTx(NamedAddress("counter"), "__deploy__",
                                                 DeployPayload(*code));
  ASSERT_TRUE(deploy.ok());
  ASSERT_TRUE(serial_sys->node()->SubmitTransaction(deploy->tx).ok());
  ASSERT_TRUE(serial_sys->RunToCompletion().ok());
  core::ConfidentialSubmission last_call;
  for (size_t i = 0; i < kIncrements; ++i) {
    auto call = serial_client.MakeConfidentialTx(NamedAddress("counter"), "increment",
                                                 Bytes{});
    ASSERT_TRUE(call.ok());
    ASSERT_TRUE(serial_sys->node()->SubmitTransaction(call->tx).ok());
    last_call = std::move(*call);
  }
  ASSERT_TRUE(serial_sys->RunToCompletion().ok());
  auto serial_receipt = serial_sys->node()->GetReceipt(last_call.tx.Hash());
  ASSERT_TRUE(serial_receipt.ok());
  auto serial_opened =
      Client::OpenSealedReceipt(last_call.k_tx, serial_receipt->output);
  ASSERT_TRUE(serial_opened.ok());
  EXPECT_EQ(ToString(serial_opened->output), ToString(final_opened->output));

  std::filesystem::remove_all(dir);
}


// ---------------------------------------------------------------------------
// Checkpointed state sync under faults
// ---------------------------------------------------------------------------

uint64_t CounterValue(const std::string& name) {
  return metrics::MetricsRegistry::Global().Snapshot().counter(name);
}

class SyncChaosTest : public EnclaveRecoveryTest {
 protected:
  /// CI chaos matrix knob: re-run the sync suite at different stable-
  /// checkpoint cadences (CONFIDE_CHECKPOINT_INTERVAL, default 4).
  static uint64_t CheckpointInterval() {
    if (const char* s = std::getenv("CONFIDE_CHECKPOINT_INTERVAL")) {
      return std::strtoull(s, nullptr, 10);
    }
    return 4;
  }

  /// `interval` of 0 picks the matrix default.
  SystemOptions ProviderOptions(uint64_t seed, uint64_t interval = 0) {
    SystemOptions options;
    options.seed = seed;
    options.destroy_km_after_provision = false;  // serves MAP re-provisioning
    options.checkpoint.interval =
        interval == 0 ? CheckpointInterval() : interval;
    options.checkpoint.chunk_bytes = 512;  // force multi-chunk transfers
    options.validators = &validators_;
    return options;
  }

  /// Boots the primary provider, deploys the confidential counter, and
  /// runs `increments` blocks of SDM state updates.
  void BuildPrimary(uint64_t seed, int increments, uint64_t interval = 0) {
    primary_ = Boot(ProviderOptions(seed, interval));
    client_ = std::make_unique<Client>(600, primary_->pk_tx());
    addr_ = Deploy(primary_.get(), client_.get());
    counter_value_ = 0;
    MorePrimaryBlocks(increments);
  }

  void MorePrimaryBlocks(int increments) {
    for (int i = 0; i < increments; ++i) {
      ++counter_value_;
      ASSERT_EQ(Increment(primary_.get(), client_.get(), addr_),
                std::to_string(counter_value_));
    }
  }

  /// Boots a joiner that shares the consortium keys via MAP.
  std::unique_ptr<ConfideSystem> Join(uint64_t seed, uint64_t interval = 0) {
    auto sys =
        ConfideSystem::BootstrapJoin(ProviderOptions(seed, interval), primary_.get());
    EXPECT_TRUE(sys.ok()) << sys.status().ToString();
    return std::move(*sys);
  }

  void ExpectConverged(ConfideSystem* joiner) {
    EXPECT_EQ(joiner->node()->Height(), primary_->node()->Height());
    EXPECT_EQ(joiner->node()->TipHash(), primary_->node()->TipHash());
    EXPECT_EQ(joiner->node()->state()->StateRoot(),
              primary_->node()->state()->StateRoot());
  }

  chain::ValidatorSet validators_ = chain::ValidatorSet::Generate(4, 97);
  std::unique_ptr<ConfideSystem> primary_;
  std::unique_ptr<Client> client_;
  chain::Address addr_{};
  uint64_t counter_value_ = 0;
};

// The PR acceptance scenario: a replica that missed >= 8 blocks (all of
// them carrying confidential SDM state) rejoins through checkpoint
// discovery, Merkle-verified chunk transfer and block replay while a
// chunk is dropped and another corrupted in flight — and its dead CS
// enclave is re-provisioned on the way in.
TEST_F(SyncChaosTest, MissedBlocksRejoinEndToEndUnderInjectedFaults) {
  BuildPrimary(700, 8);  // deploy + 8 confidential increments -> height 9

  // One more confidential block whose receipt we can track across nodes.
  auto probe = client_->MakeConfidentialTx(addr_, "increment", Bytes{});
  ASSERT_TRUE(probe.ok());
  crypto::Hash256 probe_hash = probe->tx.Hash();
  ASSERT_TRUE(primary_->node()->SubmitTransaction(probe->tx).ok());
  ASSERT_TRUE(primary_->RunToCompletion().ok());
  ++counter_value_;

  chain::SyncProvider primary_provider("primary", primary_->node());

  // A second provider, itself brought up via sync (it adopts the
  // primary's stable checkpoint and serves it onward).
  auto second = Join(701);
  ASSERT_TRUE(second->SyncFromPeers({&primary_provider}).ok());
  chain::SyncProvider second_provider("second", second->node());

  // The rejoining replica: crashed before block 1, CS enclave dead.
  auto joiner = Join(702);
  ASSERT_TRUE(joiner->platform()
                  ->KillEnclave(joiner->confidential_engine()->enclave_id())
                  .ok());
  ASSERT_FALSE(joiner->ConfidentialEngineAlive());
  joiner->SetRecoveryPeer(primary_.get());
  ASSERT_GE(primary_->node()->Height() - joiner->node()->Height(), 8u);

  uint64_t verified_before = CounterValue("chain.sync.chunks.verified");
  FaultPlan plan(ChaosSeed());
  plan.Arm("fault.chain.sync.chunk_drop", Trigger{.one_shot = true});
  plan.Arm("fault.chain.sync.chunk_corrupt",
           Trigger{.after_hits = 2, .one_shot = true});

  auto stats = joiner->SyncFromPeers({&primary_provider, &second_provider});
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();

  EXPECT_TRUE(stats->snapshot_installed);
  EXPECT_GE(stats->checkpoint_height, 8u);
  EXPECT_GT(stats->chunks_verified, 0u);
  EXPECT_GE(stats->chunks_rejected, 1u);  // the corrupted chunk was refused
  EXPECT_TRUE(joiner->ConfidentialEngineAlive());  // re-provisioned for sync
  ExpectConverged(joiner.get());

  // Identical receipt set: the tracked confidential receipt came across
  // bit-for-bit (sealed output included).
  auto theirs = primary_->node()->GetReceipt(probe_hash);
  auto ours = joiner->node()->GetReceipt(probe_hash);
  ASSERT_TRUE(theirs.ok());
  ASSERT_TRUE(ours.ok());
  EXPECT_EQ(ours->Serialize(), theirs->Serialize());

  // The transferred SDM state is live: the counter keeps counting on the
  // rejoined replica under its re-provisioned enclave keys.
  Client joiner_client(601, joiner->pk_tx());
  EXPECT_EQ(Increment(joiner.get(), &joiner_client, addr_),
            std::to_string(counter_value_ + 1));

  metrics::MetricsSnapshot snap = metrics::MetricsRegistry::Global().Snapshot();
  EXPECT_GT(snap.counter("chain.sync.chunks.verified"), verified_before);
  EXPECT_GE(snap.counter("fault.chain.sync.chunk_drop.injected"), 1u);
  EXPECT_GE(snap.counter("fault.chain.sync.chunk_drop.recovered"), 1u);
  EXPECT_GE(snap.counter("fault.chain.sync.chunk_corrupt.injected"), 1u);
  EXPECT_GE(snap.counter("fault.chain.sync.chunk_corrupt.recovered"), 1u);
}

TEST_F(SyncChaosTest, CrashAtEveryChunkBoundaryThenResyncCompletes) {
  BuildPrimary(710, 8);
  chain::SyncProvider provider("primary", primary_->node());
  auto joiner = Join(711);

  auto manager = primary_->node()->checkpoints();
  ASSERT_NE(manager, nullptr);
  uint64_t height = manager->LatestHeight();
  ASSERT_GT(height, 0u);
  auto manifest = manager->ManifestAt(height);
  ASSERT_TRUE(manifest.ok());
  ASSERT_GT(manifest->chunk_count(), 1u);

  for (size_t boundary = 0; boundary < manifest->chunk_count(); ++boundary) {
    FaultPlan plan(ChaosSeed() + boundary);
    plan.Arm("fault.chain.sync.crash",
             Trigger{.after_hits = boundary, .one_shot = true});
    auto crashed = joiner->SyncFromPeers({&provider});
    ASSERT_FALSE(crashed.ok()) << "boundary " << boundary;
    // Atomic install: a crash mid-transfer leaves the store untouched.
    EXPECT_EQ(joiner->node()->Height(), 0u);
    EXPECT_EQ(joiner->node()->checkpoints()->LatestHeight(), 0u);
  }

  auto stats = joiner->SyncFromPeers({&provider});
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_TRUE(stats->snapshot_installed);
  ExpectConverged(joiner.get());
}

TEST_F(SyncChaosTest, DeadProviderMidStreamFailsOverToSecondProvider) {
  BuildPrimary(720, 8);
  chain::SyncProvider primary_provider("primary", primary_->node());
  auto second = Join(721);
  ASSERT_TRUE(second->SyncFromPeers({&primary_provider}).ok());
  chain::SyncProvider second_provider("second", second->node());

  auto joiner = Join(722);
  FaultPlan plan(ChaosSeed());
  // Fires on the 4th reachability check: mid-chunk-stream, after the two
  // discovery probes and the first chunk fetch.
  plan.Arm("fault.chain.sync.provider_dead",
           Trigger{.after_hits = 3, .one_shot = true});

  auto stats = joiner->SyncFromPeers({&primary_provider, &second_provider});
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_TRUE(stats->snapshot_installed);
  EXPECT_GE(stats->provider_failovers, 1u);
  EXPECT_TRUE(primary_provider.dead() || second_provider.dead());
  ExpectConverged(joiner.get());

  metrics::MetricsSnapshot snap = metrics::MetricsRegistry::Global().Snapshot();
  EXPECT_GE(snap.counter("fault.chain.sync.provider_dead.injected"), 1u);
  EXPECT_GE(snap.counter("fault.chain.sync.provider_dead.recovered"), 1u);
}

TEST_F(SyncChaosTest, CorruptedChunkIsRejectedAndRefetched) {
  BuildPrimary(730, 8);
  chain::SyncProvider provider("primary", primary_->node());
  auto joiner = Join(731);

  uint64_t rejected_before = CounterValue("chain.sync.chunks.rejected");
  FaultPlan plan(ChaosSeed());
  plan.Arm("fault.chain.sync.chunk_corrupt",
           Trigger{.after_hits = 1, .one_shot = true});

  auto stats = joiner->SyncFromPeers({&provider});
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_TRUE(stats->snapshot_installed);
  // The Merkle check caught the flipped bit; the re-fetched copy passed.
  EXPECT_GE(stats->chunks_rejected, 1u);
  EXPECT_GT(stats->chunks_fetched, stats->chunks_verified);
  ExpectConverged(joiner.get());
  EXPECT_GT(CounterValue("chain.sync.chunks.rejected"), rejected_before);
}

TEST_F(SyncChaosTest, ForgedCertificateRejectedAndProviderReselected) {
  BuildPrimary(740, 8);
  chain::SyncProvider primary_provider("primary", primary_->node());
  auto second = Join(741);
  ASSERT_TRUE(second->SyncFromPeers({&primary_provider}).ok());
  chain::SyncProvider second_provider("second", second->node());

  auto joiner = Join(742);
  FaultPlan plan(ChaosSeed());
  // Fires on the first checkpoint query (the primary): its certificate
  // arrives with a flipped signature byte.
  plan.Arm("fault.chain.sync.forged_certificate", Trigger{.one_shot = true});

  auto stats = joiner->SyncFromPeers({&primary_provider, &second_provider});
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_GE(stats->certificates_rejected, 1u);
  EXPECT_TRUE(stats->snapshot_installed);  // served by the honest provider
  ExpectConverged(joiner.get());

  metrics::MetricsSnapshot snap = metrics::MetricsRegistry::Global().Snapshot();
  EXPECT_GE(snap.counter("fault.chain.sync.forged_certificate.injected"), 1u);
  EXPECT_GE(snap.counter("fault.chain.sync.forged_certificate.recovered"), 1u);
  EXPECT_GE(snap.counter("chain.sync.certificate.rejected"), 1u);
}

TEST_F(SyncChaosTest, StaleCheckpointRejectedInFavorOfFresherProvider) {
  // Pinned interval: the stale fault serves the oldest retained
  // checkpoint, which must sit at or below the lagging node's height for
  // the staleness check (not just freshness ordering) to be what rejects
  // it. keep=2 at interval 4 gives retained {8, 12} vs a node at 9.
  BuildPrimary(750, 8, /*interval=*/4);  // height 9, checkpoints {4, 8}
  chain::SyncProvider primary_provider("primary", primary_->node());

  // The lagging replica: fully synced at height 9, then misses 4 blocks.
  auto laggard = Join(751, /*interval=*/4);
  ASSERT_TRUE(laggard->SyncFromPeers({&primary_provider}).ok());
  MorePrimaryBlocks(4);  // primary now at height 13, checkpoints {8, 12}

  // A fresh second provider holding the newest checkpoint.
  auto second = Join(752, /*interval=*/4);
  ASSERT_TRUE(second->SyncFromPeers({&primary_provider}).ok());
  chain::SyncProvider second_provider("second", second->node());

  FaultPlan plan(ChaosSeed());
  // The primary answers the checkpoint query with its oldest retained
  // checkpoint (height 8 <= laggard height 9): refused as stale.
  plan.Arm("fault.chain.sync.stale_certificate", Trigger{.one_shot = true});

  auto stats = laggard->SyncFromPeers({&primary_provider, &second_provider});
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_GE(stats->certificates_rejected, 1u);
  EXPECT_TRUE(stats->snapshot_installed);
  EXPECT_EQ(stats->checkpoint_height, 12u);  // the fresher provider won
  ExpectConverged(laggard.get());

  metrics::MetricsSnapshot snap = metrics::MetricsRegistry::Global().Snapshot();
  EXPECT_GE(snap.counter("fault.chain.sync.stale_certificate.injected"), 1u);
  EXPECT_GE(snap.counter("fault.chain.sync.stale_certificate.recovered"), 1u);
}

// ---------------------------------------------------------------------------
// State continuity: rollback / forking attacks on sealed state
// ---------------------------------------------------------------------------
// Counter NVRAM high-water marks are process-lifetime and keyed by the
// platform seed, so every continuity-enabled system here uses a unique
// seed.

class StateContinuityChaosTest : public SyncChaosTest {
 protected:
  SystemOptions ContinuityOptions(uint64_t seed) {
    SystemOptions options = ProviderOptions(seed);
    options.enable_state_continuity = true;
    return options;
  }

  /// Joins via MAP with state continuity armed.
  std::unique_ptr<ConfideSystem> JoinWithContinuity(uint64_t seed) {
    auto sys = ConfideSystem::BootstrapJoin(ContinuityOptions(seed),
                                            primary_.get());
    EXPECT_TRUE(sys.ok()) << sys.status().ToString();
    return std::move(*sys);
  }

  /// Full host-visible disk image (what a snapshot-restore attack copies).
  static std::vector<std::pair<std::string, Bytes>> DumpStore(
      storage::KvStore* kv) {
    std::vector<std::pair<std::string, Bytes>> entries;
    for (auto it = kv->NewIterator(); it->Valid(); it->Next()) {
      entries.emplace_back(it->key(), it->value());
    }
    return entries;
  }

  /// Restores the exact dumped image: keys written since are deleted.
  static void RestoreStore(
      storage::KvStore* kv,
      const std::vector<std::pair<std::string, Bytes>>& image) {
    WriteBatch batch;
    for (auto it = kv->NewIterator(); it->Valid(); it->Next()) {
      batch.Delete(it->key());
    }
    for (const auto& [key, value] : image) {
      batch.Put(key, value);
    }
    ASSERT_TRUE(kv->Write(batch).ok());
    ASSERT_TRUE(kv->Sync().ok());
  }
};

TEST_F(StateContinuityChaosTest, SnapshotRestoreAttackRefusedThenPeerSyncRemedies) {
  BuildPrimary(760, 4);  // deploy + 4 increments
  chain::SyncProvider primary_provider("primary", primary_->node());

  // The victim replica runs with freshness-sealed state.
  auto victim = JoinWithContinuity(761);
  ASSERT_TRUE(victim->SyncFromPeers({&primary_provider}).ok());
  const uint64_t restore_height = victim->node()->Height();

  // A provider pinned at the victim's current height (for the
  // stale-checkpoint-replay leg below).
  auto stale_peer = Join(762);
  ASSERT_TRUE(stale_peer->SyncFromPeers({&primary_provider}).ok());
  chain::SyncProvider stale_provider("stale", stale_peer->node());

  // The malicious host snapshots the victim's entire disk — sealed state,
  // chain data AND the freshness header (all authentic bytes).
  auto image = DumpStore(victim->node()->state()->backing());

  // Real time moves on: the chain grows and the victim seals newer
  // generations.
  MorePrimaryBlocks(3);
  ASSERT_TRUE(victim->SyncFromPeers({&primary_provider}).ok());
  ASSERT_GT(victim->node()->Height(), restore_height);

  // Rollback attack: restore the old image wholesale.
  RestoreStore(victim->node()->state()->backing(), image);
  ASSERT_TRUE(victim->node()->ResyncFromStore().ok());
  ASSERT_EQ(victim->node()->Height(), restore_height);

  // Every byte authenticates, but the trusted counter is ahead of the
  // restored generation: the state is refused, not silently accepted.
  uint64_t refused_before = CounterValue("confide.freshness.refused.count");
  Status stale = victim->VerifyStateContinuity();
  ASSERT_TRUE(stale.IsStaleState()) << stale.ToString();
  EXPECT_GT(CounterValue("confide.freshness.refused.count"), refused_before);

  // Stale-checkpoint replay: syncing from a provider stuck at the restored
  // height cannot launder the rollback — the tip still fails freshness.
  auto replayed = victim->SyncFromPeers({&stale_provider});
  ASSERT_FALSE(replayed.ok());
  EXPECT_TRUE(replayed.status().IsStaleState()) << replayed.status().ToString();

  // The remedy is catching up past the sealed generation from an honest
  // peer: the synced tip is re-sealed and the node is clean again.
  auto remedied = victim->SyncFromPeers({&primary_provider});
  ASSERT_TRUE(remedied.ok()) << remedied.status().ToString();
  EXPECT_TRUE(victim->VerifyStateContinuity().ok());
  ExpectConverged(victim.get());
}

TEST_F(StateContinuityChaosTest, RestoringOnlyChainDataBehindTheHeaderIsRefused) {
  // Variant: the host rolls back the chain data but keeps the NEWEST
  // freshness header in place (hoping the header alone satisfies the
  // check). The header-vs-tip cross-check refuses the store rollback.
  BuildPrimary(770, 4);
  chain::SyncProvider primary_provider("primary", primary_->node());
  auto victim = JoinWithContinuity(771);
  ASSERT_TRUE(victim->SyncFromPeers({&primary_provider}).ok());

  auto image = DumpStore(victim->node()->state()->backing());
  MorePrimaryBlocks(2);
  ASSERT_TRUE(victim->SyncFromPeers({&primary_provider}).ok());

  // Save the newest header, restore the old image, put the header back.
  storage::KvStore* kv = victim->node()->state()->backing();
  auto newest_header = kv->Get(std::string(core::kFreshnessKvKey));
  ASSERT_TRUE(newest_header.ok());
  RestoreStore(kv, image);
  ASSERT_TRUE(kv->Put(std::string(core::kFreshnessKvKey), *newest_header).ok());
  ASSERT_TRUE(victim->node()->ResyncFromStore().ok());

  Status stale = victim->VerifyStateContinuity();
  ASSERT_TRUE(stale.IsStaleState()) << stale.ToString();
}

TEST_F(StateContinuityChaosTest, CrashAtEveryCounterPersistBoundaryIsRecoverable) {
  SystemOptions options;
  options.seed = 781;
  options.enable_state_continuity = true;
  auto sys = Boot(options);
  Client client(620, sys->pk_tx());
  chain::Address addr = Deploy(sys.get(), &client);

  // Three commits, each with its freshness seal's counter persist killed:
  // the seal fails loudly (state advanced, header stale by one), and a
  // retried seal recovers without ever exposing an unpersisted counter.
  for (int boundary = 0; boundary < 3; ++boundary) {
    auto before = metrics::MetricsRegistry::Global().Snapshot();
    {
      FaultPlan plan(ChaosSeed() + uint64_t(boundary));
      plan.Arm("fault.tee.counter.persist", Trigger{.one_shot = true});
      auto call = client.MakeConfidentialTx(addr, "increment", Bytes{});
      ASSERT_TRUE(call.ok());
      ASSERT_TRUE(sys->node()->SubmitTransaction(call->tx).ok());
      auto receipts = sys->RunToCompletion();
      ASSERT_FALSE(receipts.ok()) << "boundary " << boundary;
      EXPECT_EQ(receipts.status().code(), StatusCode::kUnavailable);
    }
    // The retried seal lands; the node verifies clean again.
    ASSERT_TRUE(sys->SealStateGeneration().ok()) << "boundary " << boundary;
    ASSERT_TRUE(sys->VerifyStateContinuity().ok()) << "boundary " << boundary;

    auto after = metrics::MetricsRegistry::Global().Snapshot();
    EXPECT_EQ(after.counter("fault.tee.counter.persist.injected") -
                  before.counter("fault.tee.counter.persist.injected"),
              1u);
    EXPECT_EQ(after.counter("fault.tee.counter.persist.recovered") -
                  before.counter("fault.tee.counter.persist.recovered"),
              1u);
  }

  // The chain itself kept every increment despite the seal crashes.
  EXPECT_EQ(Increment(sys.get(), &client, addr), "4");
}

TEST_F(StateContinuityChaosTest, InterruptedSealWithoutTipAdvanceIsRefused) {
  // Crash in the increment-then-seal gap: the trusted counter advanced
  // but the new header never hit disk, and the tip did NOT move. The
  // strict rule refuses this (accepting it would also accept a real
  // one-generation rollback); resealing restores continuity.
  SystemOptions options;
  options.seed = 791;
  options.enable_state_continuity = true;
  auto sys = Boot(options);
  Client client(630, sys->pk_tx());
  chain::Address addr = Deploy(sys.get(), &client);
  ASSERT_EQ(Increment(sys.get(), &client, addr), "1");

  // Simulate the torn seal: run the seal ecall but drop its header.
  std::vector<serialize::RlpItem> req;
  req.push_back(serialize::RlpItem::U64(sys->node()->Height()));
  req.push_back(serialize::RlpItem(
      crypto::HashToBytes(sys->node()->state()->StateRoot())));
  auto dropped = sys->platform()->Ecall(
      sys->confidential_engine()->enclave_id(), core::kCsSealFreshness,
      serialize::RlpEncode(serialize::RlpItem::List(std::move(req))));
  ASSERT_TRUE(dropped.ok());

  Status stale = sys->VerifyStateContinuity();
  ASSERT_TRUE(stale.IsStaleState()) << stale.ToString();

  // Recovery: seal the current tip under a fresh generation.
  ASSERT_TRUE(sys->SealStateGeneration().ok());
  EXPECT_TRUE(sys->VerifyStateContinuity().ok());
  EXPECT_EQ(Increment(sys.get(), &client, addr), "2");
}

TEST_F(StateContinuityChaosTest, ForkedReplicaFromClonedCounterStoreIsRefused) {
  // Forking attack: the host clones a replica's durable counter store and
  // boots a second instance of the same machine from the clone while the
  // original seals newer generations. The clone's counters sit behind the
  // platform's NVRAM high-water mark — the fork is refused at bootstrap.
  auto nvram_or = storage::LsmKvStore::Open(storage::LsmOptions{});
  ASSERT_TRUE(nvram_or.ok());
  std::shared_ptr<storage::KvStore> counter_store = std::move(*nvram_or);

  SystemOptions options;
  options.seed = 801;
  options.enable_state_continuity = true;
  options.counter_store = counter_store;
  auto original = Boot(options);
  Client client(640, original->pk_tx());
  chain::Address addr = Deploy(original.get(), &client);
  ASSERT_EQ(Increment(original.get(), &client, addr), "1");

  // Clone the counter store at this sealed generation.
  auto clone_or = storage::LsmKvStore::Open(storage::LsmOptions{});
  ASSERT_TRUE(clone_or.ok());
  std::shared_ptr<storage::KvStore> cloned_store = std::move(*clone_or);
  for (auto it = counter_store->NewIterator(); it->Valid(); it->Next()) {
    ASSERT_TRUE(cloned_store->Put(it->key(), it->value()).ok());
  }

  // The original timeline moves on (counter advances past the clone).
  ASSERT_EQ(Increment(original.get(), &client, addr), "2");

  // Booting the fork from the cloned store must fail with StaleState —
  // two replicas cannot both continue from one sealed generation.
  uint64_t detected_before =
      CounterValue("tee.counter.rollback_detected.count");
  SystemOptions fork_options = options;
  fork_options.counter_store = cloned_store;
  auto forked = ConfideSystem::BootstrapFirst(fork_options);
  ASSERT_FALSE(forked.ok());
  EXPECT_TRUE(forked.status().IsStaleState()) << forked.status().ToString();
  EXPECT_GT(CounterValue("tee.counter.rollback_detected.count"),
            detected_before);

  // The original replica is unaffected and keeps sealing.
  EXPECT_EQ(Increment(original.get(), &client, addr), "3");
}

TEST_F(StateContinuityChaosTest, InjectedCounterRollbackDetectedAtVerify) {
  // The counter half of the snapshot-restore attack, injected directly:
  // the host presents a durable counter value one behind the trusted
  // NVRAM mark.
  auto store_or = storage::LsmKvStore::Open(storage::LsmOptions{});
  ASSERT_TRUE(store_or.ok());
  std::shared_ptr<storage::KvStore> counter_store = std::move(*store_or);

  SystemOptions options;
  options.seed = 811;
  options.enable_state_continuity = true;
  options.counter_store = counter_store;
  auto sys = Boot(options);
  Client client(650, sys->pk_tx());
  chain::Address addr = Deploy(sys.get(), &client);
  ASSERT_EQ(Increment(sys.get(), &client, addr), "1");
  ASSERT_TRUE(sys->VerifyStateContinuity().ok());

  // Re-attach the store to drop the enclave's loaded counter values, so
  // the next verification re-reads the (rolled-back) durable counter.
  sys->platform()->AttachCounterStore(counter_store);
  uint64_t detected_before =
      CounterValue("tee.counter.rollback_detected.count");
  FaultPlan plan(ChaosSeed());
  plan.Arm("fault.tee.counter.rollback",
           Trigger{.one_shot = true, .arg = 1});
  Status stale = sys->VerifyStateContinuity();
  ASSERT_TRUE(stale.IsStaleState()) << stale.ToString();
  EXPECT_GT(CounterValue("tee.counter.rollback_detected.count"),
            detected_before);
  metrics::MetricsSnapshot snap = metrics::MetricsRegistry::Global().Snapshot();
  EXPECT_GE(snap.counter("fault.tee.counter.rollback.injected"), 1u);
  EXPECT_GE(snap.counter("fault.tee.counter.rollback.recovered"), 1u);

  // With the honest durable value presented again, the node is clean.
  EXPECT_TRUE(sys->VerifyStateContinuity().ok());
  EXPECT_EQ(Increment(sys.get(), &client, addr), "2");
}

// ---------------------------------------------------------------------------
// Fault-site coverage
// ---------------------------------------------------------------------------
// tools/check_fault_report.py fails CI if any `fault.*` site declared in
// src/ never fires across the chaos matrix. These tests cover the sites
// the scenario suites above don't reach.

TEST_F(SyncChaosTest, EquivocatingCertificateRejectedDuringRejoin) {
  BuildPrimary(820, 6);
  chain::SyncProvider honest("honest", primary_->node());
  chain::SyncProvider equivocator("equivocator", primary_->node());
  auto joiner = Join(821);

  uint64_t forks_before = CounterValue("chain.fork.detected.count");
  FaultPlan plan(ChaosSeed());
  // Fires on the second discovery query: the honest provider's manifest
  // is witnessed first, the equivocator's conflicting (but correctly
  // certified) one must then be refused as fork evidence.
  plan.Arm("fault.chain.sync.equivocating_certificate",
           Trigger{.after_hits = 1, .one_shot = true});
  auto stats = joiner->SyncFromPeers({&honest, &equivocator});
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->forks_detected, 1u);
  EXPECT_GE(stats->certificates_rejected, 1u);
  EXPECT_GT(CounterValue("chain.fork.detected.count"), forks_before);
  ExpectConverged(joiner.get());
}

TEST_F(SyncChaosTest, CheckpointWriteFailureNeverFailsTheBlock) {
  BuildPrimary(830, 2, /*interval=*/2);  // deploy + 2 -> checkpoint at 2

  uint64_t failed_before = CounterValue("chain.checkpoint.failure.count");
  {
    FaultPlan plan(ChaosSeed());
    plan.Arm("fault.chain.checkpoint.write", Trigger{.one_shot = true});
    // Crosses the next checkpoint boundary; the injected write failure is
    // counted but the blocks themselves land (MorePrimaryBlocks asserts
    // every increment committed).
    MorePrimaryBlocks(2);
  }
  EXPECT_GT(CounterValue("chain.checkpoint.failure.count"), failed_before);

  // The following boundary checkpoints normally again.
  MorePrimaryBlocks(2);
  ASSERT_NE(primary_->node()->checkpoints(), nullptr);
  EXPECT_GE(primary_->node()->checkpoints()->LatestHeight(), 6u);
}

TEST(NodeChaosTest, PipelineStageFaultsSurfaceAndRetryCleanly) {
  SystemOptions options;
  options.seed = 290;
  options.parallelism = 2;
  options.pipeline_depth = 3;  // pinned: this test is about the pipeline
  options.block_max_bytes = 1;
  auto boot = ConfideSystem::BootstrapFirst(options);
  ASSERT_TRUE(boot.ok()) << boot.status().ToString();
  auto& sys = *boot;
  Client client(612, sys->pk_tx());
  auto code = lang::Compile(kCounterSource, lang::VmTarget::kCvm);
  ASSERT_TRUE(code.ok());
  chain::Address addr = NamedAddress("counter");
  auto deploy = client.MakeConfidentialTx(addr, "__deploy__", DeployPayload(*code));
  ASSERT_TRUE(deploy.ok());
  ASSERT_TRUE(sys->node()->SubmitTransaction(deploy->tx).ok());
  ASSERT_TRUE(sys->RunToCompletion().ok());

  std::vector<core::ConfidentialSubmission> calls;
  auto submit = [&](int n) {
    for (int i = 0; i < n; ++i) {
      auto call = client.MakeConfidentialTx(addr, "increment", Bytes{});
      ASSERT_TRUE(call.ok());
      ASSERT_TRUE(sys->node()->SubmitTransaction(call->tx).ok());
      calls.push_back(std::move(*call));
    }
  };
  auto expect_committed_through = [&](size_t count) {
    ASSERT_EQ(calls.size(), count);
    auto receipt = sys->node()->GetReceipt(calls.back().tx.Hash());
    ASSERT_TRUE(receipt.ok()) << receipt.status().ToString();
    auto opened = Client::OpenSealedReceipt(calls.back().k_tx, receipt->output);
    ASSERT_TRUE(opened.ok());
    EXPECT_EQ(ToString(opened->output), std::to_string(count));
  };

  // Stage-1 verifier outage: the run fails loudly and the whole batch
  // returns to the pools — an injected outage must not drop transactions.
  submit(3);
  {
    FaultPlan plan(ChaosSeed());
    plan.Arm("fault.chain.pipeline.preverify", Trigger{.one_shot = true});
    auto receipts = sys->RunToCompletion();
    ASSERT_FALSE(receipts.ok());
    EXPECT_EQ(receipts.status().code(), StatusCode::kUnavailable);
  }
  EXPECT_EQ(sys->node()->UnverifiedPoolSize() + sys->node()->VerifiedPoolSize(),
            3u);
  ASSERT_TRUE(sys->RunToCompletion().ok());
  expect_committed_through(3);

  // Stage-2 execute failure: the failed block's transactions return to
  // the pools and the exact same work commits on retry.
  submit(3);
  {
    FaultPlan plan(ChaosSeed());
    plan.Arm("fault.chain.pipeline.execute", Trigger{.one_shot = true});
    auto receipts = sys->RunToCompletion();
    ASSERT_FALSE(receipts.ok());
    EXPECT_EQ(receipts.status().code(), StatusCode::kUnavailable);
  }
  ASSERT_TRUE(sys->RunToCompletion().ok());
  expect_committed_through(6);

  // A stall is backpressure, not corruption: absorbed without reordering
  // or dropping anything.
  submit(2);
  {
    FaultPlan plan(ChaosSeed());
    plan.Arm("fault.chain.pipeline.stall",
             Trigger{.one_shot = true, .arg = 2'000'000});
    ASSERT_TRUE(sys->RunToCompletion().ok());
  }
  expect_committed_through(8);

  metrics::MetricsSnapshot snap = metrics::MetricsRegistry::Global().Snapshot();
  EXPECT_GE(snap.counter("fault.chain.pipeline.preverify.injected"), 1u);
  EXPECT_GE(snap.counter("fault.chain.pipeline.execute.injected"), 1u);
  EXPECT_GE(snap.counter("fault.chain.pipeline.stall.injected"), 1u);
  EXPECT_GE(snap.counter("fault.chain.pipeline.stall.recovered"), 1u);
}

TEST(NodeChaosTest, WalResetFailureAfterFlushIsIdempotentlyRecoverable) {
  auto dir = std::filesystem::temp_directory_path() / "confide_chaos_walreset";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  storage::LsmOptions options;
  options.wal_dir = dir.string();
  {
    auto store = storage::LsmKvStore::Open(options);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->Put("k", ToBytes(std::string_view("v"))).ok());

    FaultPlan plan(ChaosSeed());
    plan.Arm("fault.storage.wal_reset", Trigger{.one_shot = true});
    // The run is installed before the WAL truncation fails, so the error
    // surfaces but no data is lost...
    Status flushed = (*store)->Flush();
    EXPECT_EQ(flushed.code(), StatusCode::kUnavailable);
    auto still = (*store)->Get("k");
    ASSERT_TRUE(still.ok());
    EXPECT_EQ(ToString(*still), "v");
  }
  // ...and a restart replays the un-truncated WAL over the installed run
  // — idempotent, same state.
  auto reopened = storage::LsmKvStore::Open(options);
  ASSERT_TRUE(reopened.ok());
  auto value = (*reopened)->Get("k");
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(ToString(*value), "v");
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Network chaos: the fault.net.* sites of the multi-process transport
// (src/net). Each test arms one site, proves the injected failure fired,
// and — for the recoverable sites — that the repair path reported
// recovery (tools/check_fault_report.py enforces both per CI run).
// ---------------------------------------------------------------------------

namespace netchaos {

using net::ClusterNode;
using net::FrameView;
using net::MsgType;
using net::OwnedFrame;
using net::SimHub;
using net::SimTransport;
using net::TcpTransport;
using net::TcpTransportOptions;

constexpr const char* kNetCounterSource = R"(
fn increment() {
  var key = "counter";
  var buf = alloc(16);
  var n = get_storage(key, strlen(key), buf, 16);
  var value = 0;
  if (n == 8) { value = load64(buf); }
  value = value + 1;
  store64(buf, value);
  set_storage(key, strlen(key), buf, 8);
  return value;
}
)";

Bytes NetDeployPayload(const Bytes& code) {
  std::vector<serialize::RlpItem> items;
  items.push_back(serialize::RlpItem::U64(uint64_t(chain::VmKind::kCvm)));
  items.push_back(serialize::RlpItem(code));
  return serialize::RlpEncode(serialize::RlpItem::List(std::move(items)));
}

std::unique_ptr<ConfideSystem> NetChaosSystem() {
  SystemOptions options;
  options.seed = 23;
  options.block_max_bytes = 64 * 1024;
  auto sys = ConfideSystem::BootstrapFirst(options);
  EXPECT_TRUE(sys.ok()) << sys.status().ToString();
  return std::move(*sys);
}

bool NetWaitFor(const std::function<bool()>& pred, uint64_t timeout_ms = 5000) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return pred();
}

uint16_t NetPickPort() {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  EXPECT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  socklen_t len = sizeof(addr);
  EXPECT_EQ(::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  uint16_t port = ntohs(addr.sin_port);
  ::close(fd);
  return port;
}

/// A connected TcpTransport pair with recording handlers, the substrate
/// for the per-site TCP chaos tests.
class NetChaosTcpPair {
 public:
  NetChaosTcpPair() {
    peers_ = {"127.0.0.1:" + std::to_string(NetPickPort()),
              "127.0.0.1:" + std::to_string(NetPickPort())};
    for (uint32_t id = 0; id < 2; ++id) {
      TcpTransportOptions options;
      options.self_id = id;
      options.peers = peers_;
      options.listen_host = "127.0.0.1";
      transports_.push_back(std::make_unique<TcpTransport>(options));
      transports_[id]->SetHandler(
          [this, id](uint32_t from, MsgType, ByteView body)
              -> std::optional<OwnedFrame> {
            std::lock_guard<std::mutex> lock(mu_);
            received_[id].emplace_back(from, ToBytes(body));
            return std::nullopt;
          });
      EXPECT_TRUE(transports_[id]->Start().ok());
    }
  }

  ~NetChaosTcpPair() {
    for (auto& transport : transports_) transport->Stop();
  }

  TcpTransport& at(uint32_t id) { return *transports_[id]; }

  size_t ReceivedCount(uint32_t id) {
    std::lock_guard<std::mutex> lock(mu_);
    return received_[id].size();
  }

  bool Received(uint32_t id, const Bytes& body) {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [from, got] : received_[id]) {
      if (got == body) return true;
    }
    return false;
  }

 private:
  std::vector<std::string> peers_;
  std::vector<std::unique_ptr<TcpTransport>> transports_;
  std::mutex mu_;
  std::map<uint32_t, std::vector<std::pair<uint32_t, Bytes>>> received_;
};

Bytes NetBody(std::string_view s) { return ToBytes(AsByteView(s)); }

TEST(NetChaosTest, DroppedPrePrepareRepairedByGapFetch) {
  // 3-node sim cluster; the leader's pre-prepare to node 1 is dropped by
  // injection. Node 1 still sees node 2's votes (a block-less pending
  // entry) and must pull the block via kFetchBlocks on the next round —
  // the fault.net.send.drop recovery signal.
  chain::NetworkSim sim = chain::NetworkSim::SingleZone(3);
  SimHub hub(&sim, ChaosSeed());
  std::vector<std::unique_ptr<ConfideSystem>> systems;
  std::vector<std::unique_ptr<ClusterNode>> nodes;
  for (uint32_t i = 0; i < 3; ++i) {
    systems.push_back(NetChaosSystem());
    ASSERT_NE(systems[i], nullptr);
    nodes.push_back(std::make_unique<ClusterNode>(
        systems[i].get(), std::make_unique<SimTransport>(&hub, i)));
    ASSERT_TRUE(nodes[i]->Start().ok());
  }
  Client client(99, systems[0]->pk_tx());
  auto code = lang::Compile(kNetCounterSource, lang::VmTarget::kCvm);
  ASSERT_TRUE(code.ok());
  chain::Address addr = chain::NamedAddress("netchaos.counter");

  auto* recovered = metrics::GetCounter("fault.net.send.drop.recovered");
  const uint64_t recovered_before = recovered->Value();

  ASSERT_TRUE(systems[0]
                  ->node()
                  ->SubmitTransaction(client.MakePublicTx(addr, "__deploy__",
                                                          NetDeployPayload(*code)))
                  .ok());
  {
    FaultPlan plan(ChaosSeed());
    // Broadcast visits peers in id order: the first routed frame is the
    // pre-prepare to node 1.
    plan.Arm("fault.net.send.drop", Trigger{.one_shot = true});
    ASSERT_TRUE(nodes[0]->ProposeOnce().ok());
    EXPECT_EQ(FaultInjector::Global().FiredCount("fault.net.send.drop"), 1u);
    hub.DeliverAll();
  }
  EXPECT_EQ(nodes[1]->Height() + 1, nodes[0]->Height());  // node 1 is behind

  // Next round: node 1 sees the seq jump and repairs the gap.
  ASSERT_TRUE(systems[0]
                  ->node()
                  ->SubmitTransaction(client.MakePublicTx(addr, "increment", Bytes{}))
                  .ok());
  ASSERT_TRUE(nodes[0]->ProposeOnce().ok());
  hub.DeliverAll();

  for (uint32_t i = 0; i < 3; ++i) {
    EXPECT_EQ(nodes[i]->Height(), nodes[0]->Height()) << "node " << i;
    EXPECT_EQ(nodes[i]->TipHash(), nodes[0]->TipHash()) << "node " << i;
  }
  EXPECT_GT(recovered->Value(), recovered_before);
  for (auto& node : nodes) node->Stop();
}

TEST(NetChaosTest, TruncatedSendHealsOnReconnect) {
  NetChaosTcpPair pair;
  auto* recovered = metrics::GetCounter("fault.net.send.truncate.recovered");
  auto* corrupt = metrics::GetCounter("net.frame.corrupt.count");
  const uint64_t recovered_before = recovered->Value();
  const uint64_t corrupt_before = corrupt->Value();

  // Warm the connection so the truncation hits an established link.
  ASSERT_TRUE(pair.at(0).Send(1, MsgType::kPrepare, NetBody("warm")).ok());
  ASSERT_TRUE(NetWaitFor([&] { return pair.Received(1, NetBody("warm")); }));

  {
    FaultPlan plan(ChaosSeed());
    plan.Arm("fault.net.send.truncate", Trigger{.one_shot = true});
    // Half the frame is written, then the connection dies: the peer sees
    // a stream ending mid-frame (Corruption), the frame is lost.
    ASSERT_TRUE(pair.at(0).Send(1, MsgType::kPrepare, NetBody("lost")).ok());
    EXPECT_EQ(FaultInjector::Global().FiredCount("fault.net.send.truncate"), 1u);
  }
  ASSERT_TRUE(NetWaitFor([&] { return corrupt->Value() > corrupt_before; }));
  EXPECT_FALSE(pair.Received(1, NetBody("lost")));

  // The next send redials and lands a whole frame — recovery.
  ASSERT_TRUE(NetWaitFor([&] {
    return pair.at(0).Send(1, MsgType::kPrepare, NetBody("healed")).ok() &&
           pair.Received(1, NetBody("healed"));
  }));
  EXPECT_GT(recovered->Value(), recovered_before);
}

TEST(NetChaosTest, ConnectFailureRetriesAndRecovers) {
  NetChaosTcpPair pair;
  auto* recovered = metrics::GetCounter("fault.net.connect.fail.recovered");
  const uint64_t recovered_before = recovered->Value();
  {
    FaultPlan plan(ChaosSeed());
    plan.Arm("fault.net.connect.fail", Trigger{.one_shot = true});
    // First connect attempt fails by injection; the in-call retry loop
    // dials again and the frame still arrives.
    ASSERT_TRUE(pair.at(0).Send(1, MsgType::kCommit, NetBody("retried")).ok());
    EXPECT_EQ(FaultInjector::Global().FiredCount("fault.net.connect.fail"), 1u);
  }
  ASSERT_TRUE(NetWaitFor([&] { return pair.Received(1, NetBody("retried")); }));
  EXPECT_GT(recovered->Value(), recovered_before);
}

TEST(NetChaosTest, SendDelayStallsButDelivers) {
  NetChaosTcpPair pair;
  {
    FaultPlan plan(ChaosSeed());
    plan.Arm("fault.net.send.delay", Trigger{.one_shot = true, .arg = 30});
    const auto start = std::chrono::steady_clock::now();
    ASSERT_TRUE(pair.at(0).Send(1, MsgType::kPrepare, NetBody("slow")).ok());
    const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
        std::chrono::steady_clock::now() - start);
    EXPECT_GE(elapsed.count(), 30);
    EXPECT_EQ(FaultInjector::Global().FiredCount("fault.net.send.delay"), 1u);
  }
  ASSERT_TRUE(NetWaitFor([&] { return pair.Received(1, NetBody("slow")); }));
}

TEST(NetChaosTest, CorruptedInboundByteDropsStreamThenRecovers) {
  NetChaosTcpPair pair;
  auto* recovered = metrics::GetCounter("fault.net.recv.corrupt.recovered");
  auto* corrupt = metrics::GetCounter("net.frame.corrupt.count");
  const uint64_t recovered_before = recovered->Value();
  const uint64_t corrupt_before = corrupt->Value();

  // Warm the connection so the peer is identified before the corruption
  // (the flipped byte must hit a data frame, not the kHello).
  ASSERT_TRUE(pair.at(0).Send(1, MsgType::kPrepare, NetBody("warm")).ok());
  ASSERT_TRUE(NetWaitFor([&] { return pair.Received(1, NetBody("warm")); }));

  {
    FaultPlan plan(ChaosSeed());
    plan.Arm("fault.net.recv.corrupt", Trigger{.one_shot = true});
    ASSERT_TRUE(pair.at(0).Send(1, MsgType::kPrepare, NetBody("flipped")).ok());
    ASSERT_TRUE(NetWaitFor([&] {
      return FaultInjector::Global().FiredCount("fault.net.recv.corrupt") == 1;
    }));
  }
  // The receiver rejects the garbled stream and drops the connection.
  ASSERT_TRUE(NetWaitFor([&] { return corrupt->Value() > corrupt_before; }));
  EXPECT_FALSE(pair.Received(1, NetBody("flipped")));

  // Redelivery over a fresh connection closes the loop: the first clean
  // frame from the same peer reports recovery.
  ASSERT_TRUE(NetWaitFor([&] {
    return pair.at(0).Send(1, MsgType::kPrepare, NetBody("clean")).ok() &&
           pair.Received(1, NetBody("clean"));
  }));
  EXPECT_GT(recovered->Value(), recovered_before);
}

// ---------------------------------------------------------------------------
// View-change chaos: the fault.net.view.* sites (cluster.h §Leader
// failover). A 4-node sim cluster (quorum 3) kills the leader at every
// protocol phase and asserts the survivors elect, converge to
// byte-identical tips, and report recovery for each injected fault.
// ---------------------------------------------------------------------------

struct ViewChaosCluster {
  ViewChaosCluster()
      : sim(chain::NetworkSim::SingleZone(4)), hub(&sim, ChaosSeed()) {
    for (uint32_t i = 0; i < 4; ++i) {
      systems.push_back(NetChaosSystem());
      nodes.push_back(std::make_unique<ClusterNode>(
          systems[i].get(), std::make_unique<SimTransport>(&hub, i)));
      EXPECT_TRUE(nodes[i]->Start().ok());
    }
    client = std::make_unique<Client>(99, systems[0]->pk_tx());
    auto code = lang::Compile(kNetCounterSource, lang::VmTarget::kCvm);
    EXPECT_TRUE(code.ok());
    deploy_payload = NetDeployPayload(*code);
  }
  ~ViewChaosCluster() {
    for (auto& node : nodes) node->Stop();
  }

  /// Commits the counter deploy under the view-0 leader; returns the
  /// resulting height.
  uint64_t DeployAndCommit() {
    EXPECT_TRUE(
        systems[0]
            ->node()
            ->SubmitTransaction(
                client->MakePublicTx(addr, "__deploy__", deploy_payload))
            .ok());
    EXPECT_TRUE(nodes[0]->ProposeOnce().ok());
    hub.DeliverAll();
    return nodes[0]->Height();
  }

  void Submit(uint32_t node_id, const char* method) {
    EXPECT_TRUE(systems[node_id]
                    ->node()
                    ->SubmitTransaction(
                        client->MakePublicTx(addr, method, Bytes{}))
                    .ok());
  }

  void ExpectSurvivorsConverged(uint64_t height, uint64_t view) {
    for (uint32_t i = 1; i < 4; ++i) {
      EXPECT_EQ(nodes[i]->view(), view) << "node " << i;
      EXPECT_EQ(nodes[i]->Height(), height) << "node " << i;
      EXPECT_EQ(nodes[i]->TipHash(), nodes[1]->TipHash()) << "node " << i;
    }
  }

  chain::Address addr = chain::NamedAddress("viewchaos.counter");
  chain::NetworkSim sim;
  SimHub hub;
  std::vector<std::unique_ptr<ConfideSystem>> systems;
  std::vector<std::unique_ptr<ClusterNode>> nodes;
  std::unique_ptr<Client> client;
  Bytes deploy_payload;
};

TEST(ViewChangeChaosTest, LeaderKilledWhileIdleSuccessorResumesProgress) {
  ViewChaosCluster c;
  const uint64_t h1 = c.DeployAndCommit();

  // Phase: idle. The leader dies between rounds; nothing is in flight.
  c.nodes[0]->Stop();
  c.nodes[2]->StartViewChange(1);
  c.nodes[3]->StartViewChange(1);
  c.hub.DeliverAll();
  c.ExpectSurvivorsConverged(h1, 1);
  EXPECT_TRUE(c.nodes[1]->is_leader());

  c.Submit(1, "increment");
  ASSERT_TRUE(c.nodes[1]->ProposeOnce().ok());
  c.hub.DeliverAll();
  c.ExpectSurvivorsConverged(h1 + 1, 1);
}

TEST(ViewChangeChaosTest, LeaderDiesAfterPrepareQuorumBlockSurvivesElection) {
  ViewChaosCluster c;
  const uint64_t h1 = c.DeployAndCommit();

  // Phase: prepared-but-not-committed. Deliver the pre-prepares, then
  // drop every commit at the send site: all four nodes hold a prepare
  // certificate for the block, nobody applies it.
  c.Submit(0, "increment");
  auto seq = c.nodes[0]->ProposeOnce();
  ASSERT_TRUE(seq.ok());
  ASSERT_TRUE(c.hub.DeliverOne());  // pre-prepare → node 1
  ASSERT_TRUE(c.hub.DeliverOne());  // pre-prepare → node 2
  ASSERT_TRUE(c.hub.DeliverOne());  // pre-prepare → node 3
  {
    FaultPlan plan(ChaosSeed());
    plan.Arm("fault.net.send.drop", Trigger{.probability = 1.0});
    c.hub.DeliverAll();  // the 9 queued prepares land; 4×3 commits drop
    EXPECT_EQ(FaultInjector::Global().FiredCount("fault.net.send.drop"), 12u);
  }
  for (uint32_t i = 0; i < 4; ++i) {
    EXPECT_EQ(c.nodes[i]->Height(), h1) << "node " << i;
  }

  // Every survivor's kViewChange carries the prepared certificate
  // (quorum intersection), so the new leader must re-propose the same
  // block — and it must commit exactly once (heights advance by one,
  // never two).
  c.nodes[0]->Stop();
  c.nodes[2]->StartViewChange(1);
  c.nodes[3]->StartViewChange(1);
  c.hub.DeliverAll();
  c.ExpectSurvivorsConverged(h1 + 1, 1);
}

TEST(ViewChangeChaosTest, DroppedViewChangeReBroadcastCompletesElection) {
  ViewChaosCluster c;
  const uint64_t h1 = c.DeployAndCommit();
  c.nodes[0]->Stop();

  auto* recovered =
      metrics::GetCounter("fault.net.view.viewchange_drop.recovered");
  const uint64_t recovered_before = recovered->Value();
  {
    FaultPlan plan(ChaosSeed());
    plan.Arm("fault.net.view.viewchange_drop", Trigger{.one_shot = true});
    // Node 2's view-change evaporates in flight: with only two of three
    // survivor messages, the election must stall short of quorum.
    c.nodes[2]->StartViewChange(1);
    EXPECT_EQ(
        FaultInjector::Global().FiredCount("fault.net.view.viewchange_drop"),
        1u);
    c.hub.DeliverAll();
    c.nodes[3]->StartViewChange(1);
    c.nodes[1]->StartViewChange(1);
    c.hub.DeliverAll();
    EXPECT_EQ(c.nodes[1]->view(), 0u);  // 2 of 3 messages: no quorum

    // The election-timeout retry: re-invoking the same target
    // re-broadcasts, the quorum completes, and the node whose message
    // was dropped still adopts the new view — the recovery signal.
    c.nodes[2]->StartViewChange(1);
    c.hub.DeliverAll();
  }
  c.ExpectSurvivorsConverged(h1, 1);
  EXPECT_GT(recovered->Value(), recovered_before);
}

TEST(ViewChangeChaosTest, LeaderCrashMidElectionEscalatesToNextCandidate) {
  ViewChaosCluster c;
  const uint64_t h1 = c.DeployAndCommit();
  c.nodes[0]->Stop();

  auto* recovered =
      metrics::GetCounter("fault.net.view.election_crash.recovered");
  const uint64_t recovered_before = recovered->Value();
  {
    FaultPlan plan(ChaosSeed());
    plan.Arm("fault.net.view.election_crash", Trigger{.one_shot = true});
    // Node 1 collects a quorum for view 1 and dies before kNewView: the
    // election evaporates and every survivor stays in view 0.
    c.nodes[2]->StartViewChange(1);
    c.nodes[3]->StartViewChange(1);
    c.hub.DeliverAll();
    EXPECT_EQ(
        FaultInjector::Global().FiredCount("fault.net.view.election_crash"),
        1u);
    for (uint32_t i = 1; i < 4; ++i) {
      EXPECT_EQ(c.nodes[i]->view(), 0u) << "node " << i;
    }

    // The replicas' timers fire again with a higher target; view 2 is
    // led by node 2, and the crashed candidate recovers by adopting the
    // later view like any replica.
    c.nodes[3]->StartViewChange(2);
    c.nodes[1]->StartViewChange(2);
    c.nodes[2]->StartViewChange(2);
    c.hub.DeliverAll();
  }
  c.ExpectSurvivorsConverged(h1, 2);
  EXPECT_TRUE(c.nodes[2]->is_leader());
  EXPECT_GT(recovered->Value(), recovered_before);

  c.Submit(2, "increment");
  ASSERT_TRUE(c.nodes[2]->ProposeOnce().ok());
  c.hub.DeliverAll();
  c.ExpectSurvivorsConverged(h1 + 1, 2);
}

TEST(ViewChangeChaosTest, ForgedStaleNewViewRejectedByEveryReplica) {
  ViewChaosCluster c;
  const uint64_t h1 = c.DeployAndCommit();

  // First election (all four alive): node 1 takes view 1; the deposed
  // node 0 follows along as a replica.
  c.nodes[2]->StartViewChange(1);
  c.nodes[3]->StartViewChange(1);
  c.hub.DeliverAll();
  for (uint32_t i = 0; i < 4; ++i) {
    EXPECT_EQ(c.nodes[i]->view(), 1u) << "node " << i;
  }

  auto* rejected = metrics::GetCounter("cluster.newview.rejected.count");
  auto* recovered =
      metrics::GetCounter("fault.net.view.stale_newview.recovered");
  const uint64_t rejected_before = rejected->Value();
  const uint64_t recovered_before = recovered->Value();
  {
    FaultPlan plan(ChaosSeed());
    plan.Arm("fault.net.view.stale_newview", Trigger{.one_shot = true});
    // Election to view 5 — node 1 leads again, and the injection makes
    // it forge a kNewView for its stale view 1 before the genuine one.
    // Every replica must reject the forgery (rolling the view back would
    // re-admit a deposed leader) yet still complete the real election.
    c.nodes[2]->StartViewChange(5);
    c.nodes[3]->StartViewChange(5);
    c.hub.DeliverAll();
    EXPECT_EQ(
        FaultInjector::Global().FiredCount("fault.net.view.stale_newview"),
        1u);
  }
  EXPECT_EQ(rejected->Value(), rejected_before + 3);  // nodes 0, 2, 3
  for (uint32_t i = 0; i < 4; ++i) {
    EXPECT_EQ(c.nodes[i]->view(), 5u) << "node " << i;
    EXPECT_EQ(c.nodes[i]->Height(), h1) << "node " << i;
  }
  EXPECT_TRUE(c.nodes[1]->is_leader());
  EXPECT_GT(recovered->Value(), recovered_before);
}

}  // namespace netchaos

}  // namespace
}  // namespace confide
