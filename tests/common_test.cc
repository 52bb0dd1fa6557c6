#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/arena.h"
#include "common/bytes.h"
#include "common/lru.h"
#include "common/retry.h"
#include "common/sim_clock.h"
#include "common/thread_pool.h"
#include "common/status.h"

namespace confide {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status st = Status::NotFound("missing key");
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE(st.IsNotFound());
  EXPECT_EQ(st.code(), StatusCode::kNotFound);
  EXPECT_EQ(st.ToString(), "NotFound: missing key");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (int c = 0; c <= static_cast<int>(StatusCode::kNotImplemented); ++c) {
    EXPECT_STRNE(StatusCodeToString(static_cast<StatusCode>(c)), "Unknown");
  }
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::Corruption("bad bytes");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCorruption);
  EXPECT_EQ(std::move(r).ValueOr(-1), -1);
}

TEST(ResultTest, AssignOrReturnMacro) {
  auto f = []() -> Result<int> { return 7; };
  auto g = [&]() -> Result<int> {
    CONFIDE_ASSIGN_OR_RETURN(int v, f());
    return v * 2;
  };
  ASSERT_TRUE(g().ok());
  EXPECT_EQ(*g(), 14);

  auto bad = []() -> Result<int> { return Status::Internal("boom"); };
  auto h = [&]() -> Result<int> {
    CONFIDE_ASSIGN_OR_RETURN(int v, bad());
    return v;
  };
  EXPECT_FALSE(h().ok());
  EXPECT_EQ(h().status().code(), StatusCode::kInternal);
}

TEST(BytesTest, HexRoundTrip) {
  Bytes data = {0x00, 0x01, 0xab, 0xff};
  std::string hex = HexEncode(data);
  EXPECT_EQ(hex, "0001abff");
  auto decoded = HexDecode(hex);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, data);
}

TEST(BytesTest, HexDecodeAccepts0xPrefixAndUppercase) {
  auto decoded = HexDecode("0xABCD");
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, (Bytes{0xab, 0xcd}));
}

TEST(BytesTest, HexDecodeRejectsBadInput) {
  EXPECT_FALSE(HexDecode("abc").ok());   // odd length
  EXPECT_FALSE(HexDecode("zz").ok());    // non-hex
}

TEST(BytesTest, ConcatJoinsViews) {
  Bytes a = {1, 2};
  Bytes b = {3};
  Bytes c = Concat(a, b, AsByteView("x"));
  EXPECT_EQ(c, (Bytes{1, 2, 3, 'x'}));
}

TEST(BytesTest, ConstantTimeEqual) {
  Bytes a = {1, 2, 3};
  Bytes b = {1, 2, 3};
  Bytes c = {1, 2, 4};
  EXPECT_TRUE(ConstantTimeEqual(a, b));
  EXPECT_FALSE(ConstantTimeEqual(a, c));
  EXPECT_FALSE(ConstantTimeEqual(a, ByteView(a.data(), 2)));
}

TEST(BytesTest, StringConversions) {
  std::string s = "hello";
  Bytes b = ToBytes(s);
  EXPECT_EQ(ToString(b), s);
}

TEST(BytesTest, SecureZeroClears) {
  Bytes secret = {9, 9, 9, 9};
  SecureZero(&secret);
  EXPECT_EQ(secret, (Bytes{0, 0, 0, 0}));
}

TEST(ArenaTest, DupViewsStayStableAcrossManyAllocations) {
  Arena arena(64);  // small blocks to force chaining
  std::vector<ByteView> views;
  std::vector<Bytes> originals;
  for (int i = 0; i < 200; ++i) {
    originals.push_back(Bytes(size_t(1 + i % 50), uint8_t(i)));
    views.push_back(arena.Dup(originals.back()));
  }
  // Blocks are chained, never reallocated: every earlier view must still
  // read back its bytes after 200 further allocations.
  ASSERT_GT(arena.block_count(), 1u);
  for (size_t i = 0; i < views.size(); ++i) {
    EXPECT_EQ(ToBytes(views[i]), originals[i]) << "view " << i;
  }
}

TEST(ArenaTest, DupStringAndEmptyAndOversized) {
  Arena arena(32);
  std::string_view s = arena.DupString("hello arena");
  EXPECT_EQ(s, "hello arena");

  EXPECT_TRUE(arena.Dup(ByteView{}).empty());  // no allocation for empty

  // Oversized request gets a dedicated block rather than failing.
  Bytes big(1000, 0x5A);
  ByteView v = arena.Dup(big);
  EXPECT_EQ(ToBytes(v), big);
}

TEST(ArenaTest, ResetDropsUsageAndReusesCleanly) {
  Arena arena;
  arena.Dup(Bytes(100, 1));
  EXPECT_EQ(arena.bytes_used(), 100u);
  arena.Reset();
  EXPECT_EQ(arena.bytes_used(), 0u);
  EXPECT_EQ(arena.block_count(), 0u);
  ByteView v = arena.Dup(Bytes(3, 7));
  EXPECT_EQ(ToBytes(v), Bytes(3, 7));
}

TEST(SimClockTest, AdvancesMonotonically) {
  SimClock clock;
  EXPECT_EQ(clock.NowNs(), 0u);
  clock.AdvanceNs(100);
  clock.AdvanceNs(50);
  EXPECT_EQ(clock.NowNs(), 150u);
  clock.Reset();
  EXPECT_EQ(clock.NowNs(), 0u);
}

TEST(SimClockTest, CyclesConvertAtPaperFrequency) {
  SimClock clock;
  clock.AdvanceCycles(3700);  // 3700 cycles @ 3.7 GHz = 1000 ns
  EXPECT_EQ(clock.NowNs(), 1000u);
}

TEST(LruCacheTest, EvictsLeastRecentlyUsedAtCapacity) {
  LruCache<std::string, int> cache(2);
  cache.Put("a", 1);
  cache.Put("b", 2);
  cache.Put("c", 3);  // evicts "a"
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.Get("a"), nullptr);
  ASSERT_NE(cache.Get("b"), nullptr);
  EXPECT_EQ(*cache.Get("c"), 3);
}

TEST(LruCacheTest, GetRefreshesRecencyButPeekDoesNot) {
  LruCache<std::string, int> cache(2);
  cache.Put("a", 1);
  cache.Put("b", 2);
  ASSERT_NE(cache.Get("a"), nullptr);  // "b" is now LRU
  cache.Put("c", 3);
  EXPECT_EQ(cache.Get("b"), nullptr);
  EXPECT_NE(cache.Get("a"), nullptr);

  cache.Put("d", 4);  // "c" was LRU despite the Put order...
  EXPECT_EQ(cache.Get("c"), nullptr);

  LruCache<std::string, int> peeked(2);
  peeked.Put("a", 1);
  peeked.Put("b", 2);
  ASSERT_NE(peeked.Peek("a"), nullptr);  // no recency update
  peeked.Put("c", 3);
  EXPECT_EQ(peeked.Get("a"), nullptr);  // "a" still evicted first
}

TEST(LruCacheTest, PutOverwritesInPlaceAndEraseRemoves) {
  LruCache<std::string, int> cache(4);
  cache.Put("k", 1);
  cache.Put("k", 2);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(*cache.Get("k"), 2);
  EXPECT_TRUE(cache.Erase("k"));
  EXPECT_FALSE(cache.Erase("k"));
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.Get("k"), nullptr);
}

TEST(LruCacheTest, ZeroCapacityCoercedToOne) {
  LruCache<int, int> cache(0);
  EXPECT_EQ(cache.capacity(), 1u);
  cache.Put(1, 10);
  cache.Put(2, 20);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.Get(1), nullptr);
  EXPECT_EQ(*cache.Get(2), 20);
}


TEST(ThreadPoolTest, SubmitRunsTasksAndWaits) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.worker_count(), 4u);
  std::atomic<int> ran{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 64; ++i) {
    futures.push_back(pool.Submit([&ran] { ran.fetch_add(1); }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(ran.load(), 64);
}

TEST(ThreadPoolTest, ExceptionPropagatesThroughFuture) {
  ThreadPool pool(2);
  std::future<void> f =
      pool.Submit([] { throw std::runtime_error("task failed"); });
  EXPECT_THROW(f.get(), std::runtime_error);
  // The worker that threw must survive for later tasks.
  std::atomic<bool> ok{false};
  pool.Submit([&ok] { ok = true; }).get();
  EXPECT_TRUE(ok.load());
}

TEST(ThreadPoolTest, DestructorDrainsQueuedWork) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(1);
    for (int i = 0; i < 32; ++i) {
      (void)pool.Submit([&ran] {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        ran.fetch_add(1);
      });
    }
    // Destructor must run every queued task, not drop them.
  }
  EXPECT_EQ(ran.load(), 32);
}

TEST(ThreadPoolTest, RunOnWorkersRunsInlineAndOnHelpers) {
  ThreadPool pool(3);
  std::atomic<int> calls{0};
  pool.RunOnWorkers(3, [&calls] { calls.fetch_add(1); });
  // The caller always runs the function inline; helpers are best-effort
  // but on an idle pool all of them should have started.
  EXPECT_GE(calls.load(), 1);
  EXPECT_LE(calls.load(), 4);
}

TEST(ThreadPoolTest, RunOnWorkersPropagatesInlineException) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.RunOnWorkers(2, [] { throw std::runtime_error("worker failed"); }),
      std::runtime_error);
}

TEST(ThreadPoolTest, NestedRunOnWorkersDoesNotDeadlock) {
  // A pool task may itself fan out on the same pool: saturated helpers
  // degrade to inline execution instead of waiting for a free worker.
  ThreadPool pool(2);
  std::atomic<int> inner{0};
  pool.Submit([&] {
        pool.RunOnWorkers(2, [&inner] { inner.fetch_add(1); });
      })
      .get();
  EXPECT_GE(inner.load(), 1);
}

// ---------------------------------------------------------------------------
// RetryPolicy
// ---------------------------------------------------------------------------

TEST(RetryPolicyTest, FirstAttemptSuccessChargesNoBackoff) {
  SimClock clock;
  common::RetryPolicy retry(common::RetryOptions{}, &clock);
  Status status = retry.Run("noop", [] { return Status::OK(); });
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(retry.LastAttempts(), 1u);
  EXPECT_EQ(retry.LastBackoffNs(), 0u);
  EXPECT_EQ(clock.NowNs(), 0u);
}

TEST(RetryPolicyTest, ExponentialBackoffChargedToClock) {
  SimClock clock;
  common::RetryOptions options;
  options.max_attempts = 4;
  options.base_backoff_ns = 1'000;
  options.multiplier = 2.0;
  common::RetryPolicy retry(options, &clock);
  int calls = 0;
  Status status = retry.Run("always-fails", [&] {
    ++calls;
    return Status::Unavailable("nope");
  });
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(calls, 4);
  EXPECT_EQ(retry.LastAttempts(), 4u);
  // Backoffs before attempts 2..4: 1000 + 2000 + 4000.
  EXPECT_EQ(clock.NowNs(), 7'000u);
  EXPECT_EQ(retry.LastBackoffNs(), 7'000u);
}

TEST(RetryPolicyTest, SucceedsAfterTransientFailures) {
  SimClock clock;
  common::RetryOptions options;
  options.max_attempts = 5;
  options.base_backoff_ns = 100;
  common::RetryPolicy retry(options, &clock);
  int calls = 0;
  Status status = retry.Run("flaky", [&] {
    return ++calls < 3 ? Status::Unavailable("transient") : Status::OK();
  });
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(retry.LastAttempts(), 3u);
}

TEST(RetryPolicyTest, NonRetryablePredicateStopsImmediately) {
  SimClock clock;
  common::RetryPolicy retry(common::RetryOptions{}, &clock);
  int calls = 0;
  Status status = retry.Run(
      "permanent",
      [&] {
        ++calls;
        return Status::PermissionDenied("forged");
      },
      [](const Status& s) { return s.code() == StatusCode::kUnavailable; });
  EXPECT_EQ(status.code(), StatusCode::kPermissionDenied);
  EXPECT_EQ(calls, 1);  // a non-retryable error burns no further attempts
  EXPECT_EQ(clock.NowNs(), 0u);
}

TEST(RetryPolicyTest, JitterNeverUndershootsNominal) {
  common::RetryOptions options;
  options.base_backoff_ns = 1'000;
  options.jitter = 0.5;
  options.seed = 42;
  common::RetryPolicy retry(options);
  for (int draw = 0; draw < 32; ++draw) {
    uint64_t delay = retry.BackoffNs(1);
    // Additive jitter: nominal <= delay < nominal * (1 + jitter).
    EXPECT_GE(delay, 1'000u);
    EXPECT_LT(delay, 1'500u);
  }
}

TEST(RetryPolicyTest, FixedSeedGivesIdenticalDelaySequence) {
  common::RetryOptions options;
  options.base_backoff_ns = 1'000;
  options.jitter = 1.0;
  options.seed = 7;
  common::RetryPolicy a(options);
  common::RetryPolicy b(options);
  for (uint32_t attempt = 1; attempt < 6; ++attempt) {
    EXPECT_EQ(a.BackoffNs(attempt), b.BackoffNs(attempt));
  }
}

TEST(RetryPolicyTest, DeadlineCapsAccumulatedBackoff) {
  SimClock clock;
  common::RetryOptions options;
  options.max_attempts = 10;
  options.base_backoff_ns = 1'000;
  options.multiplier = 2.0;
  options.deadline_ns = 3'500;
  common::RetryPolicy retry(options, &clock);
  Status status = retry.Run("budgeted", [] { return Status::Unavailable("x"); });
  EXPECT_FALSE(status.ok());
  // Waits 1000 and 2000 fit the 3500 budget; the next 4000 would not.
  EXPECT_EQ(retry.LastAttempts(), 3u);
  EXPECT_EQ(clock.NowNs(), 3'000u);
}

}  // namespace
}  // namespace confide
