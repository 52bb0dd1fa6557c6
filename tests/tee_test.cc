#include <gtest/gtest.h>

#include <set>
#include <thread>

#include "common/fault.h"
#include "common/metrics.h"
#include "common/sim_clock.h"
#include "storage/lsm_store.h"
#include "tee/attestation.h"
#include "tee/enclave.h"
#include "tee/epc.h"
#include "tee/ring_buffer.h"

namespace confide::tee {
namespace {

// A trivial enclave used across these tests: fn 1 echoes input, fn 2
// issues an ocall, fn 3 emits monitor records (fn 6 through an ocall),
// fn 4 creates attestations.
class EchoEnclave : public Enclave {
 public:
  std::string CodeIdentity() const override { return "echo-enclave-v1"; }

  Result<Bytes> HandleEcall(uint64_t fn, ByteView input,
                            EnclaveContext* ctx) override {
    switch (fn) {
      case 1:
        return ToBytes(input);
      case 2:
        return ctx->Ocall(7, input);
      case 5:
        // Batched ocall: one crossing carrying `input.size()` logical
        // entries (one byte of input per entry, for the tests).
        return ctx->OcallBatched(7, input, input.size());
      case 3:
        ctx->MonitorEmit(1, "status ok");
        return Bytes{};
      case 6:
        ctx->MonitorEmitViaOcall(1, "status via ocall");
        return Bytes{};
      case 4: {
        Quote quote = ctx->CreateQuote(input);
        return ToBytes(quote.user_data);  // smoke: round-trips user data
      }
      default:
        return Status::InvalidArgument("unknown fn");
    }
  }
};

TeeCostModel SmallEpcModel() {
  TeeCostModel model;
  model.epc_usable_bytes = 16 * 4096;  // 16 pages to force paging
  return model;
}

// ---------------------------------------------------------------------------
// EPC manager
// ---------------------------------------------------------------------------

TEST(EpcTest, AllocateWithinBudgetNoEviction) {
  SimClock clock;
  TeeStats stats;
  EpcManager epc(SmallEpcModel(), &clock, &stats);
  auto region = epc.Allocate(8 * 4096);
  ASSERT_TRUE(region.ok());
  EXPECT_EQ(epc.ResidentBytes(), 8u * 4096);
  EXPECT_EQ(stats.pages_evicted.load(), 0u);
}

TEST(EpcTest, OverflowEvictsLru) {
  SimClock clock;
  TeeStats stats;
  EpcManager epc(SmallEpcModel(), &clock, &stats);
  auto r1 = epc.Allocate(10 * 4096);
  auto r2 = epc.Allocate(10 * 4096);  // must evict r1
  ASSERT_TRUE(r1.ok() && r2.ok());
  EXPECT_EQ(stats.pages_evicted.load(), 10u);
  EXPECT_GT(clock.NowNs(), 0u);

  // Touching r1 pages it back in (and evicts r2).
  uint64_t evicted_before = stats.pages_evicted.load();
  ASSERT_TRUE(epc.Touch(*r1).ok());
  EXPECT_EQ(stats.pages_loaded.load(), 10u);
  EXPECT_GT(stats.pages_evicted.load(), evicted_before);
}

TEST(EpcTest, RequestBeyondTotalEpcFails) {
  SimClock clock;
  TeeStats stats;
  EpcManager epc(SmallEpcModel(), &clock, &stats);
  EXPECT_FALSE(epc.Allocate(17 * 4096).ok());
}

TEST(EpcTest, FreeReleasesPages) {
  SimClock clock;
  TeeStats stats;
  EpcManager epc(SmallEpcModel(), &clock, &stats);
  auto r1 = epc.Allocate(16 * 4096);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(epc.Free(*r1).ok());
  EXPECT_EQ(epc.ResidentBytes(), 0u);
  // Space is reusable without eviction.
  TeeStats fresh;
  auto r2 = epc.Allocate(16 * 4096);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(stats.pages_evicted.load(), 0u);
}

TEST(EpcTest, TouchKeepsHotRegionResident) {
  SimClock clock;
  TeeStats stats;
  EpcManager epc(SmallEpcModel(), &clock, &stats);
  auto hot = epc.Allocate(4 * 4096);
  auto cold = epc.Allocate(4 * 4096);
  ASSERT_TRUE(hot.ok() && cold.ok());
  ASSERT_TRUE(epc.Touch(*hot).ok());         // hot becomes MRU
  auto big = epc.Allocate(10 * 4096);        // forces eviction of LRU (cold)
  ASSERT_TRUE(big.ok());
  uint64_t loads_before = stats.pages_loaded.load();
  ASSERT_TRUE(epc.Touch(*hot).ok());         // still resident: no load
  EXPECT_EQ(stats.pages_loaded.load(), loads_before);
}

TEST(EpcTest, UnknownRegionRejected) {
  SimClock clock;
  TeeStats stats;
  EpcManager epc(SmallEpcModel(), &clock, &stats);
  EXPECT_TRUE(epc.Free(42).IsNotFound());
  EXPECT_TRUE(epc.Touch(42).IsNotFound());
}

// ---------------------------------------------------------------------------
// Enclave platform: boundary costs
// ---------------------------------------------------------------------------

TEST(EnclaveTest, EcallRoundTripEchoes) {
  SimClock clock;
  EnclavePlatform platform(TeeCostModel{}, &clock, /*seed=*/1);
  auto id = platform.CreateEnclave(std::make_shared<EchoEnclave>(), 1 << 20);
  ASSERT_TRUE(id.ok());
  auto out = platform.Ecall(*id, 1, AsByteView("hello enclave"));
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(ToString(*out), "hello enclave");
  EXPECT_EQ(platform.stats().ecalls.load(), 1u);
  EXPECT_EQ(platform.stats().transitions.load(), 2u);  // EENTER + EEXIT
}

TEST(EnclaveTest, EcallChargesTransitionCycles) {
  SimClock clock;
  TeeCostModel model;
  EnclavePlatform platform(model, &clock, 1);
  auto id = platform.CreateEnclave(std::make_shared<EchoEnclave>(), 1 << 20);
  ASSERT_TRUE(id.ok());
  uint64_t before = clock.NowNs();
  ASSERT_TRUE(platform.Ecall(*id, 1, AsByteView("x")).ok());
  uint64_t elapsed = clock.NowNs() - before;
  // At least two warm transitions at 8314 cycles / 3.7 GHz ≈ 2247 ns each.
  EXPECT_GE(elapsed, 2 * 2200u);
}

TEST(EnclaveTest, UserCheckSkipsCopyCost) {
  SimClock clock;
  EnclavePlatform platform(TeeCostModel{}, &clock, 1);
  auto id = platform.CreateEnclave(std::make_shared<EchoEnclave>(), 1 << 20);
  ASSERT_TRUE(id.ok());

  Bytes big(1 << 20, 0xaa);
  ASSERT_TRUE(platform.Ecall(*id, 1, big, PointerSemantics::kCopyInOut).ok());
  uint64_t copied = platform.stats().bytes_copied_in.load();
  EXPECT_GE(copied, big.size());

  ASSERT_TRUE(platform.Ecall(*id, 1, big, PointerSemantics::kUserCheck).ok());
  EXPECT_EQ(platform.stats().bytes_copied_in.load(), copied);  // unchanged
  EXPECT_GT(platform.stats().user_check_bypasses.load(), 0u);
}

TEST(EnclaveTest, OcallDispatchesToHostHandler) {
  SimClock clock;
  EnclavePlatform platform(TeeCostModel{}, &clock, 1);
  platform.RegisterOcall(7, [](ByteView payload) -> Result<Bytes> {
    Bytes out = ToBytes(payload);
    out.push_back('!');
    return out;
  });
  auto id = platform.CreateEnclave(std::make_shared<EchoEnclave>(), 1 << 20);
  ASSERT_TRUE(id.ok());
  auto out = platform.Ecall(*id, 2, AsByteView("ping"));
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(ToString(*out), "ping!");
  EXPECT_EQ(platform.stats().ocalls.load(), 1u);
  EXPECT_EQ(platform.stats().transitions.load(), 4u);  // ecall pair + ocall pair
}

TEST(EnclaveTest, GlobalMetricsMirrorPlatformStats) {
  // The process-wide registry aggregates the same transition events the
  // per-platform TeeStats records: deltas must match exactly.
  SimClock clock;
  EnclavePlatform platform(TeeCostModel{}, &clock, 1);
  platform.RegisterOcall(7, [](ByteView payload) -> Result<Bytes> {
    return ToBytes(payload);
  });
  auto id = platform.CreateEnclave(std::make_shared<EchoEnclave>(), 1 << 20);
  ASSERT_TRUE(id.ok());

  metrics::MetricsSnapshot before = metrics::MetricsRegistry::Global().Snapshot();
  uint64_t stats_transitions_before = platform.stats().transitions.load();
  uint64_t stats_ecalls_before = platform.stats().ecalls.load();
  uint64_t stats_ocalls_before = platform.stats().ocalls.load();

  ASSERT_TRUE(platform.Ecall(*id, 1, AsByteView("plain")).ok());  // no ocall
  ASSERT_TRUE(platform.Ecall(*id, 2, AsByteView("ping")).ok());   // one ocall

  metrics::MetricsSnapshot after = metrics::MetricsRegistry::Global().Snapshot();
  uint64_t transitions_delta = platform.stats().transitions.load() -
                               stats_transitions_before;
  uint64_t ecalls_delta = platform.stats().ecalls.load() - stats_ecalls_before;
  uint64_t ocalls_delta = platform.stats().ocalls.load() - stats_ocalls_before;

  EXPECT_EQ(ecalls_delta, 2u);
  EXPECT_EQ(ocalls_delta, 1u);
  EXPECT_EQ(transitions_delta, 2 * ecalls_delta + 2 * ocalls_delta);
  EXPECT_EQ(after.counter("tee.transition.count") -
                before.counter("tee.transition.count"),
            transitions_delta);
  EXPECT_EQ(after.counter("tee.ecall.count") - before.counter("tee.ecall.count"),
            ecalls_delta);
  EXPECT_EQ(after.counter("tee.ocall.count") - before.counter("tee.ocall.count"),
            ocalls_delta);
}

TEST(EnclaveTest, BatchedOcallCostsOneCrossingAndTracksSavings) {
  SimClock clock;
  EnclavePlatform platform(TeeCostModel{}, &clock, 1);
  platform.RegisterOcall(7, [](ByteView payload) -> Result<Bytes> {
    return ToBytes(payload);
  });
  auto id = platform.CreateEnclave(std::make_shared<EchoEnclave>(), 1 << 20);
  ASSERT_TRUE(id.ok());

  // Five logical entries in one batched ocall: still a single EEXIT +
  // ERESUME pair — four single-ocall crossings (8 transitions) avoided.
  auto out = platform.Ecall(*id, 5, AsByteView("12345"));
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(platform.stats().ecalls.load(), 1u);
  EXPECT_EQ(platform.stats().ocalls.load(), 1u);
  EXPECT_EQ(platform.stats().transitions.load(), 4u);
  EXPECT_EQ(platform.stats().batched_ocall_entries.load(), 5u);
  EXPECT_EQ(platform.stats().transitions_saved.load(), 2u * 4u);

  // A single-entry batch saves nothing over a plain ocall.
  ASSERT_TRUE(platform.Ecall(*id, 5, AsByteView("x")).ok());
  EXPECT_EQ(platform.stats().batched_ocall_entries.load(), 6u);
  EXPECT_EQ(platform.stats().transitions_saved.load(), 2u * 4u);
}

TEST(EnclaveTest, UnregisteredOcallFails) {
  SimClock clock;
  EnclavePlatform platform(TeeCostModel{}, &clock, 1);
  auto id = platform.CreateEnclave(std::make_shared<EchoEnclave>(), 1 << 20);
  ASSERT_TRUE(id.ok());
  EXPECT_FALSE(platform.Ecall(*id, 2, AsByteView("ping")).ok());
}

TEST(EnclaveTest, DestroyReleasesEpc) {
  SimClock clock;
  EnclavePlatform platform(TeeCostModel{}, &clock, 1);
  auto id = platform.CreateEnclave(std::make_shared<EchoEnclave>(), 1 << 20);
  ASSERT_TRUE(id.ok());
  uint64_t resident = platform.epc()->ResidentBytes();
  EXPECT_GT(resident, 0u);
  ASSERT_TRUE(platform.DestroyEnclave(*id).ok());
  EXPECT_EQ(platform.epc()->ResidentBytes(), 0u);
  EXPECT_FALSE(platform.Ecall(*id, 1, AsByteView("x")).ok());
}

// ---------------------------------------------------------------------------
// Attestation
// ---------------------------------------------------------------------------

TEST(AttestationTest, MeasurementDependsOnIdentityAndSvn) {
  auto m1 = MeasureEnclave("cs-enclave", 1);
  auto m2 = MeasureEnclave("cs-enclave", 2);
  auto m3 = MeasureEnclave("km-enclave", 1);
  EXPECT_NE(m1, m2);
  EXPECT_NE(m1, m3);
  EXPECT_EQ(m1, MeasureEnclave("cs-enclave", 1));
}

TEST(AttestationTest, QuoteVerifiesAgainstRoot) {
  SimClock clock;
  EnclavePlatform platform(TeeCostModel{}, &clock, /*seed=*/5);
  auto enclave = std::make_shared<EchoEnclave>();
  auto id = platform.CreateEnclave(enclave, 1 << 20);
  ASSERT_TRUE(id.ok());

  // Build a quote through the context path used by K-Protocol.
  class QuoteEnclave : public Enclave {
   public:
    std::string CodeIdentity() const override { return "quote-enclave"; }
    Result<Bytes> HandleEcall(uint64_t, ByteView input, EnclaveContext* ctx) override {
      quote = ctx->CreateQuote(input);
      return Bytes{};
    }
    Quote quote;
  };
  auto qe = std::make_shared<QuoteEnclave>();
  auto qid = platform.CreateEnclave(qe, 1 << 20);
  ASSERT_TRUE(qid.ok());
  ASSERT_TRUE(platform.Ecall(*qid, 1, AsByteView("pk-fingerprint")).ok());

  EXPECT_TRUE(VerifyQuote(qe->quote));
  EXPECT_EQ(qe->quote.mrenclave, MeasureEnclave("quote-enclave", 1));
  EXPECT_EQ(ToString(qe->quote.user_data), "pk-fingerprint");
}

TEST(AttestationTest, TamperedQuoteRejected) {
  SimClock clock;
  EnclavePlatform platform(TeeCostModel{}, &clock, 6);
  class QuoteEnclave : public Enclave {
   public:
    std::string CodeIdentity() const override { return "quote-enclave"; }
    Result<Bytes> HandleEcall(uint64_t, ByteView input, EnclaveContext* ctx) override {
      quote = ctx->CreateQuote(input);
      return Bytes{};
    }
    Quote quote;
  };
  auto qe = std::make_shared<QuoteEnclave>();
  auto qid = platform.CreateEnclave(qe, 1 << 20);
  ASSERT_TRUE(qid.ok());
  ASSERT_TRUE(platform.Ecall(*qid, 1, AsByteView("data")).ok());

  Quote tampered = qe->quote;
  tampered.user_data.push_back('x');  // MITM alters the bound key data
  EXPECT_FALSE(VerifyQuote(tampered));

  Quote wrong_measure = qe->quote;
  wrong_measure.mrenclave[0] ^= 1;
  EXPECT_FALSE(VerifyQuote(wrong_measure));

  // Self-signed platform key without a root cert fails.
  Quote rogue = qe->quote;
  crypto::Drbg rng(123);
  auto rogue_kp = crypto::GenerateKeyPair(&rng);
  rogue.platform_key = rogue_kp.pub;
  crypto::Hash256 digest = crypto::Sha256::Digest(QuoteSigningBody(rogue));
  rogue.signature = *crypto::EcdsaSign(rogue_kp.priv, digest);
  EXPECT_FALSE(VerifyQuote(rogue));
}

TEST(AttestationTest, LocalReportVerifiesOnlyOnSamePlatform) {
  SimClock clock;
  EnclavePlatform platform_a(TeeCostModel{}, &clock, 10);
  EnclavePlatform platform_b(TeeCostModel{}, &clock, 11);

  class ReportEnclave : public Enclave {
   public:
    std::string CodeIdentity() const override { return "report-enclave"; }
    Result<Bytes> HandleEcall(uint64_t, ByteView input, EnclaveContext* ctx) override {
      report = ctx->CreateLocalReport(input);
      return Bytes{};
    }
    LocalReport report;
  };
  auto re = std::make_shared<ReportEnclave>();
  auto id = platform_a.CreateEnclave(re, 1 << 20);
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(platform_a.Ecall(*id, 1, AsByteView("channel-key")).ok());

  EXPECT_TRUE(platform_a.VerifyLocalReport(re->report));
  EXPECT_FALSE(platform_b.VerifyLocalReport(re->report));

  LocalReport tampered = re->report;
  tampered.user_data.push_back('!');
  EXPECT_FALSE(platform_a.VerifyLocalReport(tampered));
}

TEST(AttestationTest, SealKeyBoundToMeasurement) {
  SimClock clock;
  EnclavePlatform platform(TeeCostModel{}, &clock, 12);
  class SealEnclave : public Enclave {
   public:
    explicit SealEnclave(std::string name) : name_(std::move(name)) {}
    std::string CodeIdentity() const override { return name_; }
    Result<Bytes> HandleEcall(uint64_t, ByteView, EnclaveContext* ctx) override {
      key = ctx->SealKey("state");
      return Bytes{};
    }
    crypto::Hash256 key{};

   private:
    std::string name_;
  };
  auto e1 = std::make_shared<SealEnclave>("enclave-one");
  auto e2 = std::make_shared<SealEnclave>("enclave-two");
  auto id1 = platform.CreateEnclave(e1, 1 << 20);
  auto id2 = platform.CreateEnclave(e2, 1 << 20);
  ASSERT_TRUE(id1.ok() && id2.ok());
  ASSERT_TRUE(platform.Ecall(*id1, 1, ByteView{}).ok());
  ASSERT_TRUE(platform.Ecall(*id2, 1, ByteView{}).ok());
  EXPECT_NE(e1->key, e2->key);

  // Same code on the same platform re-derives the same key (sealing).
  auto e1_again = std::make_shared<SealEnclave>("enclave-one");
  auto id3 = platform.CreateEnclave(e1_again, 1 << 20);
  ASSERT_TRUE(id3.ok());
  ASSERT_TRUE(platform.Ecall(*id3, 1, ByteView{}).ok());
  EXPECT_EQ(e1->key, e1_again->key);
}

// ---------------------------------------------------------------------------
// Monitor ring
// ---------------------------------------------------------------------------

TEST(MonitorRingTest, PushPopFifo) {
  MonitorRing<8> ring;
  for (uint64_t i = 0; i < 5; ++i) {
    MonitorRecord r;
    r.sequence = i;
    r.SetMessage("msg-" + std::to_string(i));
    EXPECT_TRUE(ring.Push(r));
  }
  for (uint64_t i = 0; i < 5; ++i) {
    auto r = ring.Pop();
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->sequence, i);
  }
  EXPECT_FALSE(ring.Pop().has_value());
}

TEST(MonitorRingTest, FullRingDropsWithoutBlocking) {
  MonitorRing<4> ring;
  MonitorRecord r;
  for (int i = 0; i < 6; ++i) ring.Push(r);
  EXPECT_EQ(ring.Size(), 4u);
  EXPECT_EQ(ring.Dropped(), 2u);
}

TEST(MonitorRingTest, MessageTruncatedSafely) {
  MonitorRecord r;
  std::string huge(500, 'x');
  r.SetMessage(huge);
  EXPECT_EQ(std::string(r.message).size(), sizeof(r.message) - 1);
}

TEST(MonitorRingTest, ConcurrentProducerConsumer) {
  MonitorRing<256> ring;
  constexpr int kRecords = 10000;
  std::thread producer([&] {
    for (int i = 0; i < kRecords; ++i) {
      MonitorRecord r;
      r.sequence = uint64_t(i);
      while (!ring.Push(r)) {
        std::this_thread::yield();
      }
    }
  });
  uint64_t expected = 0;
  while (expected < kRecords) {
    if (auto r = ring.Pop()) {
      EXPECT_EQ(r->sequence, expected);
      ++expected;
    } else {
      std::this_thread::yield();
    }
  }
  producer.join();
}

TEST(MonitorTest, ConcurrentEmittersNeitherLoseNorDuplicateRecords) {
  // Parallel pre-verify reaches one enclave from several host threads:
  // every record is either drained or counted dropped, and none twice.
  SimClock clock;
  EnclavePlatform platform(TeeCostModel{}, &clock, 1);
  auto id = platform.CreateEnclave(std::make_shared<EchoEnclave>(), 1 << 20);
  ASSERT_TRUE(id.ok());
  constexpr int kThreads = 4;
  constexpr int kRecords = 500;
  std::vector<std::thread> emitters;
  for (int t = 0; t < kThreads; ++t) {
    emitters.emplace_back([&, t] {
      for (int i = 0; i < kRecords; ++i) {
        EXPECT_TRUE(platform.Ecall(*id, t % 2 == 0 ? 3 : 6, ByteView{}).ok());
      }
    });
  }
  for (auto& emitter : emitters) emitter.join();
  std::set<uint64_t> seen;
  for (const MonitorRecord& record : platform.DrainMonitor()) {
    EXPECT_TRUE(seen.insert(record.sequence).second) << record.sequence;
  }
  EXPECT_EQ(seen.size() + platform.MonitorDropped(), size_t(kThreads * kRecords));
}

TEST(MonitorTest, ExitlessEmitAvoidsTransitions) {
  SimClock clock;
  EnclavePlatform platform(TeeCostModel{}, &clock, 1);
  auto id = platform.CreateEnclave(std::make_shared<EchoEnclave>(), 1 << 20);
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(platform.Ecall(*id, 3, ByteView{}).ok());
  // Only the ecall's own 2 transitions; the monitor emit added none.
  EXPECT_EQ(platform.stats().transitions.load(), 2u);
  auto records = platform.DrainMonitor();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_STREQ(records[0].message, "status ok");
}

// ---------------------------------------------------------------------------
// Trusted monotonic counters (state continuity)
// ---------------------------------------------------------------------------
// Counter NVRAM high-water marks are process-lifetime and keyed by the
// platform seed, so every test here uses its own unique seed.

TEST(CounterTest, IncrementAndReadAreMonotonicPerFamily) {
  SimClock clock;
  EnclavePlatform platform(TeeCostModel{}, &clock, 7719001);
  auto id = platform.CreateEnclave(std::make_shared<EchoEnclave>(), 1 << 20);
  ASSERT_TRUE(id.ok());

  auto first = platform.CounterIncrement(*id, "state-gen");
  auto second = platform.CounterIncrement(*id, "state-gen");
  auto third = platform.CounterIncrement(*id, "state-gen");
  ASSERT_TRUE(first.ok() && second.ok() && third.ok());
  EXPECT_EQ(*first, 1u);
  EXPECT_EQ(*second, 2u);
  EXPECT_EQ(*third, 3u);
  auto read = platform.CounterRead(*id, "state-gen");
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, 3u);

  // Families are independent counters.
  auto other = platform.CounterRead(*id, "epoch");
  ASSERT_TRUE(other.ok());
  EXPECT_EQ(*other, 0u);
}

TEST(CounterTest, SurvivesKillEnclaveAndReprovision) {
  SimClock clock;
  EnclavePlatform platform(TeeCostModel{}, &clock, 7719002);
  auto code = std::make_shared<EchoEnclave>();
  auto id = platform.CreateEnclave(code, 1 << 20);
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(platform.CounterIncrement(*id, "state-gen").ok());
  ASSERT_TRUE(platform.CounterIncrement(*id, "state-gen").ok());

  // Crash + re-provision the same code: the counter is keyed by the
  // enclave *measurement*, so continuity survives the enclave instance.
  ASSERT_TRUE(platform.KillEnclave(*id).ok());
  auto id2 = platform.CreateEnclave(code, 1 << 20);
  ASSERT_TRUE(id2.ok());
  auto read = platform.CounterRead(*id2, "state-gen");
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, 2u);
  auto next = platform.CounterIncrement(*id2, "state-gen");
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(*next, 3u);
}

TEST(CounterTest, DurableStoreCarriesCountersAcrossPlatformRestart) {
  auto store_or = storage::LsmKvStore::Open(storage::LsmOptions{});
  ASSERT_TRUE(store_or.ok());
  std::shared_ptr<storage::KvStore> store = std::move(*store_or);
  auto code = std::make_shared<EchoEnclave>();

  SimClock clock;
  {
    EnclavePlatform platform(TeeCostModel{}, &clock, 7719003);
    platform.AttachCounterStore(store);
    auto id = platform.CreateEnclave(code, 1 << 20);
    ASSERT_TRUE(id.ok());
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(platform.CounterIncrement(*id, "state-gen").ok());
    }
  }

  // Same machine reboots (same seed), same durable counter store.
  EnclavePlatform restarted(TeeCostModel{}, &clock, 7719003);
  restarted.AttachCounterStore(store);
  auto id = restarted.CreateEnclave(code, 1 << 20);
  ASSERT_TRUE(id.ok());
  auto read = restarted.CounterRead(*id, "state-gen");
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, 3u);
}

TEST(CounterTest, SnapshotRestoredCounterStoreIsDetectedAsRollback) {
  metrics::Counter* detected =
      metrics::GetCounter("tee.counter.rollback_detected.count");
  const uint64_t detected_before = detected->Value();
  auto code = std::make_shared<EchoEnclave>();
  SimClock clock;
  {
    auto store_or = storage::LsmKvStore::Open(storage::LsmOptions{});
    ASSERT_TRUE(store_or.ok());
    std::shared_ptr<storage::KvStore> store = std::move(*store_or);
    EnclavePlatform platform(TeeCostModel{}, &clock, 7719004);
    platform.AttachCounterStore(store);
    auto id = platform.CreateEnclave(code, 1 << 20);
    ASSERT_TRUE(id.ok());
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(platform.CounterIncrement(*id, "state-gen").ok());
    }
  }

  // The host restarts the machine from a snapshot taken before any
  // increment: the durable counter store is empty, but the counter NVRAM
  // high-water mark remembers 3 — the load must fail loudly, not hand the
  // enclave a rolled-back counter.
  auto stale_or = storage::LsmKvStore::Open(storage::LsmOptions{});
  ASSERT_TRUE(stale_or.ok());
  EnclavePlatform restarted(TeeCostModel{}, &clock, 7719004);
  restarted.AttachCounterStore(std::move(*stale_or));
  auto id = restarted.CreateEnclave(code, 1 << 20);
  ASSERT_TRUE(id.ok());
  auto read = restarted.CounterRead(*id, "state-gen");
  ASSERT_FALSE(read.ok());
  EXPECT_TRUE(read.status().IsStaleState()) << read.status().ToString();
  EXPECT_GT(detected->Value(), detected_before);

  // Increments are refused too: nothing may build on rolled-back state.
  EXPECT_TRUE(
      restarted.CounterIncrement(*id, "state-gen").status().IsStaleState());
}

TEST(CounterTest, InjectedRollbackFaultIsDetected) {
  auto store_or = storage::LsmKvStore::Open(storage::LsmOptions{});
  ASSERT_TRUE(store_or.ok());
  std::shared_ptr<storage::KvStore> store = std::move(*store_or);
  auto code = std::make_shared<EchoEnclave>();
  SimClock clock;
  {
    EnclavePlatform platform(TeeCostModel{}, &clock, 7719005);
    platform.AttachCounterStore(store);
    auto id = platform.CreateEnclave(code, 1 << 20);
    ASSERT_TRUE(id.ok());
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE(platform.CounterIncrement(*id, "state-gen").ok());
    }
  }

  // Restart with the real store, but the fault site rewinds the durable
  // value by 2 increments on load (arg = increments to undo).
  fault::FaultPlan plan(0xC0117E5);
  fault::Trigger rollback;
  rollback.one_shot = true;
  rollback.arg = 2;
  plan.Arm("fault.tee.counter.rollback", rollback);
  EnclavePlatform restarted(TeeCostModel{}, &clock, 7719005);
  restarted.AttachCounterStore(store);
  auto id = restarted.CreateEnclave(code, 1 << 20);
  ASSERT_TRUE(id.ok());
  auto read = restarted.CounterRead(*id, "state-gen");
  ASSERT_FALSE(read.ok());
  EXPECT_TRUE(read.status().IsStaleState()) << read.status().ToString();

  // The fault disarmed after firing: the next load sees the true durable
  // value again and recovers.
  auto retry = restarted.CounterRead(*id, "state-gen");
  ASSERT_TRUE(retry.ok());
  EXPECT_EQ(*retry, 4u);
}

TEST(CounterTest, PersistFaultLeavesCounterUnchangedUntilRetry) {
  auto store_or = storage::LsmKvStore::Open(storage::LsmOptions{});
  ASSERT_TRUE(store_or.ok());
  std::shared_ptr<storage::KvStore> store = std::move(*store_or);
  SimClock clock;
  EnclavePlatform platform(TeeCostModel{}, &clock, 7719006);
  platform.AttachCounterStore(store);
  auto id = platform.CreateEnclave(std::make_shared<EchoEnclave>(), 1 << 20);
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(platform.CounterIncrement(*id, "state-gen").ok());

  {
    fault::FaultPlan plan(0xC0117E6);
    fault::Trigger once;
    once.one_shot = true;
    plan.Arm("fault.tee.counter.persist", once);
    auto failed = platform.CounterIncrement(*id, "state-gen");
    ASSERT_FALSE(failed.ok());
    EXPECT_EQ(failed.status().code(), StatusCode::kUnavailable);
  }

  // The failed increment must not have moved the counter (increment-then-
  // seal: nothing is exposed before the durable write lands).
  auto read = platform.CounterRead(*id, "state-gen");
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, 1u);

  // A retried increment lands durably and counts as the recovery.
  metrics::Counter* recovered =
      metrics::GetCounter("fault.tee.counter.persist.recovered");
  const uint64_t recovered_before = recovered->Value();
  auto retried = platform.CounterIncrement(*id, "state-gen");
  ASSERT_TRUE(retried.ok());
  EXPECT_EQ(*retried, 2u);
  EXPECT_GT(recovered->Value(), recovered_before);
}

TEST(CounterTest, EnclaveContextExposesCounters) {
  // fn 6 increments "ctx-family" from inside the enclave and returns the
  // new value as a decimal string.
  class CountingEnclave : public Enclave {
   public:
    std::string CodeIdentity() const override { return "counting-enclave-v1"; }
    Result<Bytes> HandleEcall(uint64_t fn, ByteView input,
                              EnclaveContext* ctx) override {
      (void)input;
      if (fn != 6) return Status::InvalidArgument("unknown fn");
      CONFIDE_ASSIGN_OR_RETURN(uint64_t value,
                               ctx->CounterIncrement("ctx-family"));
      return ToBytes(AsByteView(std::to_string(value)));
    }
  };
  SimClock clock;
  EnclavePlatform platform(TeeCostModel{}, &clock, 7719007);
  auto id = platform.CreateEnclave(std::make_shared<CountingEnclave>(), 1 << 20);
  ASSERT_TRUE(id.ok());
  auto first = platform.Ecall(*id, 6, ByteView{});
  auto second = platform.Ecall(*id, 6, ByteView{});
  ASSERT_TRUE(first.ok() && second.ok());
  EXPECT_EQ(std::string(first->begin(), first->end()), "1");
  EXPECT_EQ(std::string(second->begin(), second->end()), "2");
}

}  // namespace
}  // namespace confide::tee
