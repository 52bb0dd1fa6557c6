/// \file bench_load.cpp
/// \brief Open-loop load driver for a real `confided` cluster behind the
/// HTTP gateway (EXPERIMENTS.md §Cluster load has the runbook).
///
/// Unlike the in-process benches, this drives a *deployment*: it builds
/// signed transactions client-side (confidential envelopes sealed
/// against pk_tx), POSTs them to the gateway on a Poisson arrival
/// schedule, and measures open-loop latency — from each request's
/// *scheduled* arrival to its gateway response, so queueing delay under
/// saturation is part of the number instead of being hidden by
/// closed-loop self-throttling.
///
/// The sweep walks the `--rps` steps, recording per-step p50/p95/p99 of
/// the submit acknowledgement into `bench.load.rps<N>.latency_ns`
/// registry histograms and exact percentiles as gauges. An ack means the
/// leader pooled the transaction, not that it committed, so no step is
/// called sustained: after the last step the driver waits for the
/// cluster to drain, asserts every node converged to the same height and
/// tip hash, and fails unless every 202-acknowledged transaction has a
/// receipt. A sample of confidential receipts is opened with the
/// client-retained k_tx to prove the confidential path really executed.
/// Metrics land in metrics.json (CONFIDE_METRICS_OUT overrides the path).
///
/// The driver derives the consortium public key by bootstrapping a
/// throwaway local system from `--seed`, which must match the cluster's
/// seed (key derivation is a pure function of the seed — system.h).
///
/// Flags (--key=value; env fallback in parentheses):
///   --gateway=http://H:P   (CONFIDE_GATEWAY)          required
///   --seed=N               (CONFIDE_LOAD_SEED)        default 7
///   --rps=50,100,200       (CONFIDE_LOAD_RPS)         sweep steps
///   --duration-s=5         (CONFIDE_LOAD_DURATION_S)  per step
///   --confidential-pct=50  (CONFIDE_LOAD_CONF_PCT)    TYPE=1 share
///   --workers=8            (CONFIDE_LOAD_WORKERS)     sender threads
///   --contracts=bench      (CONFIDE_LOAD_CONTRACTS)   contract name prefix;
///                          a second run against the same cluster needs a
///                          fresh prefix (re-deploying an existing address
///                          is rejected) — the failover smoke uses bench2

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <map>
#include <thread>

#include "bench/bench_util.h"
#include "net/http.h"
#include "serialize/json.h"

using namespace confide;
using namespace confide::bench;

namespace {

struct LoadConfig {
  std::string gateway;
  uint64_t seed = 7;
  std::vector<uint64_t> rps_steps = {50, 100, 200};
  uint64_t duration_s = 5;
  uint64_t confidential_pct = 50;
  uint64_t workers = 8;
  std::string contracts = "bench";
};

std::string FlagOrEnv(int argc, char** argv, const std::string& flag,
                      const char* env, const std::string& fallback) {
  const std::string prefix = "--" + flag + "=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return argv[i] + prefix.size();
    }
  }
  const char* from_env = std::getenv(env);
  return (from_env != nullptr && from_env[0] != '\0') ? from_env : fallback;
}

LoadConfig ParseConfig(int argc, char** argv) {
  LoadConfig cfg;
  cfg.gateway = FlagOrEnv(argc, argv, "gateway", "CONFIDE_GATEWAY", "");
  cfg.seed = std::strtoull(
      FlagOrEnv(argc, argv, "seed", "CONFIDE_LOAD_SEED", "7").c_str(), nullptr, 10);
  cfg.duration_s = std::strtoull(
      FlagOrEnv(argc, argv, "duration-s", "CONFIDE_LOAD_DURATION_S", "5").c_str(),
      nullptr, 10);
  cfg.confidential_pct = std::strtoull(
      FlagOrEnv(argc, argv, "confidential-pct", "CONFIDE_LOAD_CONF_PCT", "50").c_str(),
      nullptr, 10);
  cfg.workers = std::strtoull(
      FlagOrEnv(argc, argv, "workers", "CONFIDE_LOAD_WORKERS", "8").c_str(),
      nullptr, 10);
  cfg.contracts =
      FlagOrEnv(argc, argv, "contracts", "CONFIDE_LOAD_CONTRACTS", "bench");
  const std::string rps = FlagOrEnv(argc, argv, "rps", "CONFIDE_LOAD_RPS", "50,100,200");
  cfg.rps_steps.clear();
  size_t start = 0;
  while (start < rps.size()) {
    size_t comma = rps.find(',', start);
    if (comma == std::string::npos) comma = rps.size();
    cfg.rps_steps.push_back(
        std::strtoull(rps.substr(start, comma - start).c_str(), nullptr, 10));
    start = comma + 1;
  }
  return cfg;
}

uint64_t NowNs() {
  return uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now().time_since_epoch())
                      .count());
}

serialize::JsonValue MustParseJson(const std::string& text, const char* what) {
  auto doc = serialize::JsonParse(text);
  if (!doc.ok()) {
    std::fprintf(stderr, "bench_load: %s is not JSON: %s\n", what, text.c_str());
    std::exit(1);
  }
  return std::move(*doc);
}

net::HttpClient MustConnect(const std::string& gateway) {
  auto client = net::HttpClient::Connect(gateway);
  if (!client.ok()) {
    std::fprintf(stderr, "bench_load: %s\n", client.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(*client);
}

/// POSTs one transaction; returns the accepted tx hash or exits.
std::string MustSubmit(net::HttpClient* http, const chain::Transaction& tx) {
  serialize::JsonValue body{serialize::JsonValue::Object{}};
  body.Set("tx", HexEncode(ByteView(tx.Serialize())));
  auto resp = http->Post("/v1/tx", serialize::JsonWrite(body));
  if (!resp.ok() || resp->status != 202) {
    std::fprintf(stderr, "bench_load: submit failed: %s\n",
                 resp.ok() ? resp->body.c_str() : resp.status().ToString().c_str());
    std::exit(1);
  }
  auto doc = MustParseJson(resp->body, "submit reply");
  return doc.Find("tx_hash")->as_string();
}

/// Polls /v1/receipt/<hash> until found; returns the receipt wire bytes.
Bytes MustAwaitReceipt(net::HttpClient* http, const std::string& tx_hash_hex,
                       uint64_t timeout_ms = 30'000) {
  const uint64_t deadline = NowNs() + timeout_ms * 1'000'000;
  while (NowNs() < deadline) {
    auto resp = http->Get("/v1/receipt/" + tx_hash_hex);
    if (resp.ok() && resp->status == 200) {
      auto doc = MustParseJson(resp->body, "receipt reply");
      auto wire = HexDecode(doc.Find("receipt_wire")->as_string());
      if (wire.ok()) return *wire;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  std::fprintf(stderr, "bench_load: receipt %s never landed\n", tx_hash_hex.c_str());
  std::exit(1);
}

struct NodeStatus {
  uint64_t height = 0;
  std::string tip_hash;
  uint64_t pool = 0;
};

std::vector<NodeStatus> FetchStatus(net::HttpClient* http) {
  auto resp = http->Get("/v1/status");
  if (!resp.ok() || resp->status != 200) return {};
  auto doc = MustParseJson(resp->body, "status reply");
  std::vector<NodeStatus> out;
  for (const auto& node : doc.Find("nodes")->as_array()) {
    const serialize::JsonValue* reachable = node.Find("reachable");
    if (reachable == nullptr || !reachable->as_bool()) continue;
    NodeStatus s;
    s.height = uint64_t(node.Find("height")->as_int());
    s.tip_hash = node.Find("tip_hash")->as_string();
    s.pool = uint64_t(node.Find("verified_pool")->as_int()) +
             uint64_t(node.Find("unverified_pool")->as_int());
    out.push_back(std::move(s));
  }
  return out;
}

/// Waits until pools drain and every node reports the same height twice
/// in a row; returns the converged statuses.
std::vector<NodeStatus> AwaitDrain(net::HttpClient* http, size_t expect_nodes,
                                   uint64_t timeout_ms = 60'000) {
  const uint64_t deadline = NowNs() + timeout_ms * 1'000'000;
  uint64_t last_height = 0;
  while (NowNs() < deadline) {
    std::vector<NodeStatus> statuses = FetchStatus(http);
    if (statuses.size() == expect_nodes) {
      bool drained = true;
      uint64_t min_height = UINT64_MAX, max_height = 0;
      for (const NodeStatus& s : statuses) {
        drained = drained && s.pool == 0;
        min_height = std::min(min_height, s.height);
        max_height = std::max(max_height, s.height);
      }
      if (drained && min_height == max_height && max_height == last_height) {
        return statuses;
      }
      last_height = max_height;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  std::fprintf(stderr, "bench_load: cluster never drained\n");
  std::exit(1);
}

uint64_t Percentile(std::vector<uint64_t>* sorted_ns, double p) {
  if (sorted_ns->empty()) return 0;
  size_t idx = size_t(p * double(sorted_ns->size() - 1));
  return (*sorted_ns)[idx];
}

/// One pre-built request on the arrival schedule.
struct Arrival {
  uint64_t at_ns = 0;  ///< offset from step start
  std::string body;    ///< POST body
  std::string tx_hash_hex;
  bool confidential = false;
};

struct StepResult {
  double achieved_rps = 0;
  uint64_t sent = 0;
  uint64_t errors = 0;
  uint64_t p50_ns = 0, p95_ns = 0, p99_ns = 0;
};

}  // namespace

int main(int argc, char** argv) {
  LoadConfig cfg = ParseConfig(argc, argv);
  if (cfg.gateway.empty()) {
    std::fprintf(stderr,
                 "bench_load: --gateway=http://host:port (or CONFIDE_GATEWAY) "
                 "is required\n");
    return 2;
  }

  // Local throwaway bootstrap: same seed → same pk_tx as the cluster.
  core::SystemOptions sys_options;
  sys_options.seed = cfg.seed;
  auto local = MustBootstrap(sys_options);
  core::Client client(cfg.seed + 1000, local->pk_tx());

  net::HttpClient http = MustConnect(cfg.gateway);

  // Deploy the synthetic contract through both engines: a public copy
  // and a confidential copy (separate engine states, separate address).
  auto code = lang::Compile(workloads::SyntheticContractSource(),
                            lang::VmTarget::kCvm);
  if (!code.ok()) {
    std::fprintf(stderr, "bench_load: compile: %s\n",
                 code.status().ToString().c_str());
    return 1;
  }
  const Bytes deploy_payload =
      chain::ContractRegistry::EncodeDeploy(chain::VmKind::kCvm, *code);
  const chain::Address pub_addr = chain::NamedAddress(cfg.contracts + ".pub");
  const chain::Address conf_addr = chain::NamedAddress(cfg.contracts + ".conf");
  {
    chain::Transaction tx = client.MakePublicTx(
        pub_addr, chain::ContractRegistry::kDeployEntry, deploy_payload);
    MustAwaitReceipt(&http, MustSubmit(&http, tx));
  }
  {
    auto sub = client.MakeConfidentialTx(conf_addr, chain::ContractRegistry::kDeployEntry,
                                         deploy_payload);
    if (!sub.ok()) return 1;
    const Bytes wire = MustAwaitReceipt(&http, MustSubmit(&http, sub->tx));
    // The stored receipt's `output` is the T-Protocol sealed blob.
    auto receipt = chain::Receipt::Deserialize(wire);
    auto opened = receipt.ok()
                      ? core::Client::OpenSealedReceipt(sub->k_tx, receipt->output)
                      : receipt.status();
    if (!opened.ok() || !opened->success) {
      std::fprintf(stderr, "bench_load: confidential deploy receipt bad: %s\n",
                   opened.ok() ? opened->status_message.c_str()
                               : opened.status().ToString().c_str());
      if (receipt.ok()) {
        std::fprintf(stderr,
                     "bench_load: outer receipt success=%d msg='%s' output=%zuB\n",
                     int(receipt->success), receipt->status_message.c_str(),
                     receipt->output.size());
      }
      return 1;
    }
  }
  std::printf("bench_load: contracts deployed, sweeping %zu rps steps\n",
              cfg.rps_steps.size());

  crypto::Drbg rng(cfg.seed ^ 0xb33fu);
  // Every 202-acknowledged submission must end with a receipt.
  std::vector<std::string> acked_hashes;
  // Confidential submissions sampled for end-of-run receipt verification.
  std::vector<std::pair<std::string, core::TxKey>> conf_samples;

  for (uint64_t target : cfg.rps_steps) {
    // Pre-build the Poisson schedule and every request body: tx signing
    // is client work, not gateway latency, so it stays off the clock.
    std::vector<Arrival> arrivals;
    const uint64_t horizon_ns = cfg.duration_s * 1'000'000'000ull;
    uint64_t t = 0;
    while (true) {
      const double u =
          (double(rng.NextBounded(1'000'000'000)) + 1.0) / 1'000'000'001.0;
      t += uint64_t(-std::log(u) / double(target) * 1e9);
      if (t >= horizon_ns) break;
      Arrival a;
      a.at_ns = t;
      a.confidential = rng.NextBounded(100) < cfg.confidential_pct;
      const Bytes input = workloads::MakeStringConcatInput(&rng);
      chain::Transaction tx;
      if (a.confidential) {
        auto sub = client.MakeConfidentialTx(conf_addr, "string_concat", input);
        if (!sub.ok()) return 1;
        tx = sub->tx;
        a.tx_hash_hex = HexEncode(ByteView(tx.Hash().data(), 32));
        if (conf_samples.size() < 16) {
          conf_samples.emplace_back(a.tx_hash_hex, sub->k_tx);
        }
      } else {
        tx = client.MakePublicTx(pub_addr, "string_concat", input);
        a.tx_hash_hex = HexEncode(ByteView(tx.Hash().data(), 32));
      }
      serialize::JsonValue body{serialize::JsonValue::Object{}};
      body.Set("tx", HexEncode(ByteView(tx.Serialize())));
      a.body = serialize::JsonWrite(body);
      arrivals.push_back(std::move(a));
    }

    metrics::Histogram* latency = metrics::GetHistogram(
        "bench.load.rps" + std::to_string(target) + ".latency_ns");
    metrics::Counter* sent_ctr = metrics::GetCounter("bench.load.submitted.count");
    metrics::Counter* err_ctr = metrics::GetCounter("bench.load.error.count");

    std::atomic<size_t> next{0};
    std::atomic<uint64_t> errors{0};
    std::vector<std::vector<uint64_t>> worker_lat(cfg.workers);
    std::vector<std::vector<size_t>> worker_acked(cfg.workers);
    const auto start = std::chrono::steady_clock::now();
    std::vector<std::thread> workers;
    for (uint64_t w = 0; w < cfg.workers; ++w) {
      workers.emplace_back([&, w] {
        net::HttpClient worker_http = MustConnect(cfg.gateway);
        while (true) {
          const size_t i = next.fetch_add(1);
          if (i >= arrivals.size()) break;
          const Arrival& a = arrivals[i];
          std::this_thread::sleep_until(start +
                                        std::chrono::nanoseconds(a.at_ns));
          auto resp = worker_http.Post("/v1/tx", a.body);
          const auto done = std::chrono::steady_clock::now();
          const uint64_t lat_ns = uint64_t(
              std::chrono::duration_cast<std::chrono::nanoseconds>(
                  done - start - std::chrono::nanoseconds(a.at_ns))
                  .count());
          if (!resp.ok() || resp->status != 202) {
            errors.fetch_add(1);
            err_ctr->Increment();
            continue;
          }
          latency->Observe(lat_ns);
          sent_ctr->Increment();
          worker_lat[w].push_back(lat_ns);
          worker_acked[w].push_back(i);
        }
      });
    }
    for (auto& th : workers) th.join();
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();

    std::vector<uint64_t> all_lat;
    for (auto& v : worker_lat) {
      all_lat.insert(all_lat.end(), v.begin(), v.end());
    }
    std::sort(all_lat.begin(), all_lat.end());
    for (const auto& acked : worker_acked) {
      for (size_t i : acked) acked_hashes.push_back(arrivals[i].tx_hash_hex);
    }

    StepResult r;
    r.sent = all_lat.size();
    r.errors = errors.load();
    r.achieved_rps = elapsed > 0 ? double(r.sent) / elapsed : 0;
    r.p50_ns = Percentile(&all_lat, 0.50);
    r.p95_ns = Percentile(&all_lat, 0.95);
    r.p99_ns = Percentile(&all_lat, 0.99);

    const std::string prefix = "bench.load.rps" + std::to_string(target);
    metrics::GetGauge(prefix + ".p50_ns")->Set(int64_t(r.p50_ns));
    metrics::GetGauge(prefix + ".p95_ns")->Set(int64_t(r.p95_ns));
    metrics::GetGauge(prefix + ".p99_ns")->Set(int64_t(r.p99_ns));
    metrics::GetGauge(prefix + ".achieved_rps")->Set(int64_t(r.achieved_rps));
    std::printf(
        "bench_load: rps %llu -> acked %.1f/s, sent %llu, errors %llu, "
        "ack p50 %.2fms p95 %.2fms p99 %.2fms\n",
        (unsigned long long)target, r.achieved_rps, (unsigned long long)r.sent,
        (unsigned long long)r.errors, double(r.p50_ns) / 1e6,
        double(r.p95_ns) / 1e6, double(r.p99_ns) / 1e6);

    // Let the cluster drain between steps so backlog from an oversats
    // step does not bleed into the next one's latency.
    AwaitDrain(&http, FetchStatus(&http).size());
  }

  // Convergence: every node must report the same height and tip hash.
  std::vector<NodeStatus> statuses = AwaitDrain(&http, FetchStatus(&http).size());
  for (const NodeStatus& s : statuses) {
    if (s.height != statuses[0].height || s.tip_hash != statuses[0].tip_hash) {
      std::fprintf(stderr, "bench_load: cluster diverged (height %llu vs %llu)\n",
                   (unsigned long long)s.height,
                   (unsigned long long)statuses[0].height);
      return 1;
    }
  }
  std::printf("bench_load: %zu nodes converged at height %llu tip %s\n",
              statuses.size(), (unsigned long long)statuses[0].height,
              statuses[0].tip_hash.substr(0, 16).c_str());

  // Commit, not ack: the drained cluster must hold a receipt for every
  // transaction it acknowledged.
  uint64_t missing = 0;
  for (const std::string& hash_hex : acked_hashes) {
    auto resp = http.Get("/v1/receipt/" + hash_hex);
    if (!resp.ok() || resp->status != 200) ++missing;
  }
  std::printf("bench_load: %zu acknowledged transactions, %llu without a receipt\n",
              acked_hashes.size(), (unsigned long long)missing);
  if (missing > 0) {
    std::fprintf(stderr, "bench_load: %llu acknowledged transactions never committed\n",
                 (unsigned long long)missing);
    return 1;
  }

  // Prove the confidential path: open sampled sealed receipts with the
  // client-retained k_tx.
  uint64_t verified = 0;
  for (const auto& [hash_hex, k_tx] : conf_samples) {
    const Bytes wire = MustAwaitReceipt(&http, hash_hex);
    auto receipt = chain::Receipt::Deserialize(wire);
    auto opened = receipt.ok()
                      ? core::Client::OpenSealedReceipt(k_tx, receipt->output)
                      : receipt.status();
    if (!opened.ok() || !opened->success) {
      std::fprintf(stderr, "bench_load: confidential receipt %s bad\n",
                   hash_hex.c_str());
      return 1;
    }
    ++verified;
  }
  metrics::GetCounter("bench.load.receipt.verified.count")->Increment(verified);
  std::printf("bench_load: %llu confidential receipts opened and verified\n",
              (unsigned long long)verified);

  DumpMetrics("metrics.json");
  return 0;
}
