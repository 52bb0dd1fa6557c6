/// \file drive.cc
/// \brief The deployed run: drives a live `confided` cluster through its
/// HTTP gateway the way a client would, and measures when each
/// transaction *commits*, not when it is acknowledged.
///
/// Threads (at most four, one connection each):
///  * kSenders threads POST the pre-built transactions to the gateway on
///    the open-loop Poisson schedule (a late send still counts from its
///    scheduled time);
///  * one reader thread GETs committed receipts and /v1/status on its own
///    Poisson schedule;
///  * one poller thread reads the leader's height with kQueryStatus every
///    couple of milliseconds, building the commit timeline, and samples
///    the nodes' resident memory.
///
/// After the window, off the clock, one kFetchBlocks sweep of the
/// leader's chain maps every transaction to its block; the timeline turns
/// the block into the commit time. Nothing aborts the run: a refused,
/// errored, lost, duplicated or late transaction counts as failed.

#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <fstream>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "chain/types.h"
#include "confide/client.h"
#include "drive.h"
#include "net/frame_client.h"
#include "net/http.h"
#include "serialize/json.h"
#include "serialize/rlp.h"
#include "stats.h"

namespace perfbench {

using namespace confide;

namespace {

constexpr uint64_t kPollIntervalMs = 2;
/// Node memory is sampled every this many polls (about 0.1 s). Its mean
/// over the window is steadier than the peak, which one late allocation
/// burst can set.
constexpr uint64_t kRssEveryPolls = 50;
/// Blocks per kFetchBlocks request: 32 full 64 KB blocks stay far below
/// the 8 MiB frame cap.
constexpr uint64_t kSweepBatch = 32;
/// Submit connections; with the reader and the poller, four in all.
constexpr uint32_t kSenders = 2;
/// Read latency and the commit tail are medians over consecutive batches
/// of each batch's percentile; a batch holds at least kBatchSize samples
/// (enough for its own p99), and there are at most kMaxBatches.
constexpr size_t kBatchSize = 1000;
constexpr size_t kMaxBatches = 10;
/// Receipts fetched and checked after the window.
constexpr size_t kCheckedReceipts = 250;

size_t Batches(size_t samples) {
  return std::clamp<size_t>(samples / kBatchSize, 1, kMaxBatches);
}

enum class TxState : uint8_t { kPending = 0, kAccepted, kRefused, kError };

struct TxOutcome {
  uint64_t send_ns = 0;  ///< absolute steady-clock send start
  uint64_t ack_ns = 0;   ///< absolute steady-clock response time
  std::atomic<TxState> state{TxState::kPending};
};

struct NodeStatus {
  uint64_t height = 0;
  Bytes tip;
  uint64_t pool = 0;
  uint64_t view = 0;
};

Result<NodeStatus> QueryStatus(net::FrameClient* client) {
  CONFIDE_ASSIGN_OR_RETURN(net::OwnedFrame reply,
                           client->Call(net::MsgType::kQueryStatus, ByteView()));
  if (reply.type != net::MsgType::kStatusReply) {
    return Status::Corruption("status: unexpected reply frame");
  }
  CONFIDE_ASSIGN_OR_RETURN(serialize::RlpReader r, serialize::RlpReader::AtList(reply.body));
  NodeStatus s;
  CONFIDE_RETURN_NOT_OK(r.NextU64().status());  // node id
  CONFIDE_ASSIGN_OR_RETURN(s.height, r.NextU64());
  CONFIDE_ASSIGN_OR_RETURN(ByteView tip, r.NextFixed(32, "tip"));
  s.tip = ToBytes(tip);
  CONFIDE_ASSIGN_OR_RETURN(uint64_t verified, r.NextU64());
  CONFIDE_ASSIGN_OR_RETURN(uint64_t unverified, r.NextU64());
  s.pool = verified + unverified;
  CONFIDE_ASSIGN_OR_RETURN(s.view, r.NextU64());
  return s;
}

Result<bool> ReceiptFound(net::FrameClient* client, const crypto::Hash256& hash) {
  serialize::RlpWriter w;
  size_t mark = w.BeginList();
  w.WriteBytes(ByteView(hash.data(), hash.size()));
  w.EndList(mark);
  CONFIDE_ASSIGN_OR_RETURN(net::OwnedFrame reply,
                           client->Call(net::MsgType::kQueryReceipt,
                                        ByteView(std::move(w).Take())));
  CONFIDE_ASSIGN_OR_RETURN(serialize::RlpReader r, serialize::RlpReader::AtList(reply.body));
  CONFIDE_ASSIGN_OR_RETURN(uint64_t found, r.NextU64());
  return found != 0;
}

/// utime + stime of `pid` in milliseconds, from /proc/<pid>/stat.
std::optional<double> CpuMs(int pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string line;
  if (!std::getline(in, line)) return std::nullopt;
  // Fields after the parenthesised command name start at field 3.
  const size_t close = line.rfind(')');
  if (close == std::string::npos) return std::nullopt;
  std::istringstream fields(line.substr(close + 2));
  std::string field;
  uint64_t utime = 0, stime = 0;
  for (int i = 3; i <= 15 && fields >> field; ++i) {
    if (i == 14) utime = std::strtoull(field.c_str(), nullptr, 10);
    if (i == 15) stime = std::strtoull(field.c_str(), nullptr, 10);
  }
  return double(utime + stime) * 1000.0 / double(sysconf(_SC_CLK_TCK));
}

/// Resident set (VmRSS) of `pid` in MB.
std::optional<double> RssMb(int pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return double(std::strtoull(line.c_str() + 6, nullptr, 10)) / 1024.0;
    }
  }
  return std::nullopt;
}

std::vector<double> CpuSnapshot(const std::vector<int>& pids, Report* report) {
  std::vector<double> out;
  for (int pid : pids) {
    auto ms = CpuMs(pid);
    if (!ms) report->Fail("cannot read CPU time of pid " + std::to_string(pid));
    out.push_back(ms.value_or(0));
  }
  return out;
}

std::string HashKey(const crypto::Hash256& h) { return std::string(h.begin(), h.end()); }

/// Checks one fetched receipt: present, and successful — confidential
/// receipts only after opening with the client-retained k_tx.
Status CheckReceipt(const net::HttpResponse& resp, const GenTx& tx) {
  if (resp.status != 200) {
    return Status::NotFound("receipt lookup answered " + std::to_string(resp.status));
  }
  CONFIDE_ASSIGN_OR_RETURN(serialize::JsonValue doc, serialize::JsonParse(resp.body));
  const serialize::JsonValue* wire_hex = doc.Find("receipt_wire");
  if (wire_hex == nullptr) return Status::Corruption("receipt reply lacks receipt_wire");
  CONFIDE_ASSIGN_OR_RETURN(Bytes wire, HexDecode(wire_hex->as_string()));
  CONFIDE_ASSIGN_OR_RETURN(chain::Receipt receipt, chain::Receipt::Deserialize(wire));
  if (tx.confidential) {
    CONFIDE_ASSIGN_OR_RETURN(chain::Receipt opened,
                             core::Client::OpenSealedReceipt(tx.k_tx, receipt.output));
    receipt = std::move(opened);
  }
  if (!receipt.success) {
    return Status::Internal("receipt reports failure: " + receipt.status_message);
  }
  return Status::OK();
}

/// The live connections of one drive: kSenders gateway clients, one
/// gateway reader and one framed client polling the leader.
struct Connections {
  std::vector<net::HttpClient> senders;
  std::optional<net::HttpClient> reader;
  std::optional<net::FrameClient> poll;
};

Result<Connections> Connect(const DriveArgs& args) {
  Connections c;
  for (uint32_t i = 0; i < kSenders; ++i) {
    CONFIDE_ASSIGN_OR_RETURN(net::HttpClient http, net::HttpClient::Connect(args.gateway));
    c.senders.push_back(std::move(http));
  }
  CONFIDE_ASSIGN_OR_RETURN(net::HttpClient reader, net::HttpClient::Connect(args.gateway));
  c.reader.emplace(std::move(reader));
  CONFIDE_ASSIGN_OR_RETURN(net::FrameClient poll, net::FrameClient::Dial(args.nodes[0]));
  c.poll.emplace(std::move(poll));
  return c;
}

/// What one open-loop window observed.
struct Window {
  explicit Window(size_t txs, size_t reads)
      : outcomes(txs), read_ms(reads, 0), read_send_ns(reads, 0), read_ok(reads, 0) {}

  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  std::vector<TxOutcome> outcomes;
  CommitTimeline timeline;
  std::vector<double> cpu_before, cpu_after;
  std::vector<double> read_ms;
  std::vector<uint64_t> read_send_ns;
  std::vector<uint8_t> read_ok;
  uint64_t view_changes = 0, max_pool = 0, poll_errors = 0;
  /// Mean resident set of the nodes, sampled every kRssEveryPolls polls.
  std::vector<double> node_rss_mb;
  /// Every accepted transaction committed before the hard deadline.
  bool drained = false;
};

/// Offers `txs` and `reads` on their schedules, polls the leader height
/// throughout, and returns once every accepted transaction has committed
/// or `deadline_ns` past the last scheduled send has passed. Nine reads in
/// ten fetch one of `read_paths` (receipts committed before the window);
/// the tenth fetches /v1/status.
std::unique_ptr<Window> RunWindow(const std::vector<GenTx>& txs,
                                  const std::vector<uint64_t>& reads, uint64_t seed,
                                  uint64_t deadline_ns,
                                  const std::vector<std::string>& read_paths,
                                  const std::vector<int>& node_pids,
                                  const std::vector<int>& pids, Connections* conns,
                                  Report* report) {
  const size_t n = txs.size();
  auto w = std::make_unique<Window>(n, reads.size());

  // Everything a request needs is built before the clock starts.
  std::vector<std::string> bodies;
  bodies.reserve(n);
  for (const GenTx& tx : txs) bodies.push_back(SubmitBody(tx.wire));

  std::atomic<size_t> next_tx{0};
  std::mutex last_ack_mu;
  uint64_t last_ack_ns = 0;  // guarded by last_ack_mu
  size_t last_ack_idx = n;   // guarded by last_ack_mu
  std::atomic<bool> senders_done{false};

  // The window opens a little in the future so every thread is parked
  // on its first deadline when it does.
  w->start_ns = NowNs() + 50'000'000;
  const auto start_tp =
      std::chrono::steady_clock::time_point(std::chrono::nanoseconds(w->start_ns));
  const uint64_t hard_end_ns = w->start_ns + (n > 0 ? txs.back().at_ns : 0) + deadline_ns;

  std::vector<std::thread> senders;
  for (net::HttpClient& http : conns->senders) {
    senders.emplace_back([&] {
      for (;;) {
        const size_t i = next_tx.fetch_add(1);
        if (i >= n) return;
        std::this_thread::sleep_until(start_tp + std::chrono::nanoseconds(txs[i].at_ns));
        TxOutcome& out = w->outcomes[i];
        out.send_ns = NowNs();
        auto resp = http.Post("/v1/tx", bodies[i]);
        out.ack_ns = NowNs();
        const TxState state = !resp.ok()              ? TxState::kError
                              : resp->status == 202 ? TxState::kAccepted
                                                    : TxState::kRefused;
        if (state == TxState::kAccepted) {
          std::lock_guard<std::mutex> lock(last_ack_mu);
          if (out.ack_ns >= last_ack_ns) {
            last_ack_ns = out.ack_ns;
            last_ack_idx = i;
          }
        }
        out.state.store(state, std::memory_order_release);
      }
    });
  }

  // Reader: committed receipts (nine in ten) and cluster status.
  std::thread reader;
  if (!reads.empty()) {
    reader = std::thread([&] {
      static const std::string kStatusPath = "/v1/status";
      SplitMix64 pick(seed ^ 0x7EADull);
      for (size_t k = 0; k < reads.size(); ++k) {
        const uint64_t due = reads[k];
        const std::string& path =
            k % 10 == 9 ? kStatusPath : read_paths[pick.NextBelow(read_paths.size())];
        std::this_thread::sleep_until(start_tp + std::chrono::nanoseconds(due));
        // Timed from the send: the reader's own wake-up jitter is the
        // harness's, not the system's (it shows in bench.gen_lag_p99_ms).
        w->read_send_ns[k] = NowNs();
        auto resp = conns->reader->Get(path);
        w->read_ms[k] = double(NowNs() - w->read_send_ns[k]) / 1e6;
        w->read_ok[k] = resp.ok() && resp->status == 200;
      }
    });
  }

  // Poller: the commit timeline, plus the end-of-window test.
  std::thread poller([&] {
    uint64_t drained_at = 0;
    for (uint64_t polls = 0;; ++polls) {
      auto st = QueryStatus(&*conns->poll);
      const uint64_t now = NowNs();
      if (st.ok()) {
        w->timeline.Observe(now, st->height);
        w->max_pool = std::max(w->max_pool, st->pool);
        if (st->view != 0) ++w->view_changes;
      } else {
        ++w->poll_errors;
      }
      if (polls % kRssEveryPolls == 0) {
        double sum = 0;
        for (int pid : node_pids) sum += RssMb(pid).value_or(NAN);
        w->node_rss_mb.push_back(sum / double(node_pids.size()));
      }
      // Every accepted transaction is in when the last-acknowledged one
      // has a receipt on the leader (the pool is FIFO). Keep observing
      // briefly past that so the final block's apply is on the timeline.
      if (drained_at == 0 && polls % 16 == 0 && senders_done.load()) {
        size_t idx;
        {
          std::lock_guard<std::mutex> lock(last_ack_mu);
          idx = last_ack_idx;
        }
        auto found = idx < n ? ReceiptFound(&*conns->poll, txs[idx].hash) : Result<bool>(true);
        if (found.ok() && *found) drained_at = NowNs();
      }
      if (drained_at != 0 && now > drained_at + 200'000'000) {
        w->drained = true;
        return;
      }
      if (now > hard_end_ns) return;
      std::this_thread::sleep_for(std::chrono::milliseconds(kPollIntervalMs));
    }
  });

  w->cpu_before = CpuSnapshot(pids, report);
  for (std::thread& t : senders) t.join();
  senders_done.store(true);
  poller.join();
  w->cpu_after = CpuSnapshot(pids, report);
  if (reader.joinable()) reader.join();
  w->end_ns = NowNs();
  return w;
}

/// Blocks of the leader's chain, fetched in kSweepBatch batches.
Result<std::vector<chain::Block>> SweepChain(net::FrameClient* leader, uint64_t height) {
  std::vector<chain::Block> blocks;
  while (blocks.size() < height) {
    const uint64_t from = blocks.size();
    serialize::RlpWriter w;
    size_t mark = w.BeginList();
    w.WriteU64(from);
    w.WriteU64(std::min(from + kSweepBatch, height));
    w.EndList(mark);
    CONFIDE_ASSIGN_OR_RETURN(net::OwnedFrame reply,
                             leader->Call(net::MsgType::kFetchBlocks,
                                          ByteView(std::move(w).Take())));
    CONFIDE_ASSIGN_OR_RETURN(serialize::RlpReader r, serialize::RlpReader::AtList(reply.body));
    CONFIDE_ASSIGN_OR_RETURN(uint64_t first, r.NextU64());
    CONFIDE_ASSIGN_OR_RETURN(uint64_t count, r.NextU64());
    if (reply.type != net::MsgType::kBlocksReply || first != from || count == 0) {
      return Status::Corruption("block sweep: bad reply at height " + std::to_string(from));
    }
    for (uint64_t b = 0; b < count; ++b) {
      CONFIDE_ASSIGN_OR_RETURN(ByteView wire, r.NextBytes());
      CONFIDE_ASSIGN_OR_RETURN(chain::Block block, chain::Block::Deserialize(wire));
      blocks.push_back(std::move(block));
    }
  }
  return blocks;
}

}  // namespace

void RunDrive(const TxSet& set, const WorkloadSpec& spec, const DriveArgs& args,
              Report* report) {
  const size_t n = set.txs.size();
  const uint64_t deadline_ns = spec.commit_deadline_ms * 1'000'000;
  std::vector<int> pids = args.node_pids;
  pids.push_back(args.gateway_pid);

  auto conns = Connect(args);
  if (!conns.ok()) {
    report->Fail("cannot reach the cluster: " + conns.status().ToString());
    return;
  }
  // Warm-up: first-use costs (connections, caches, lazy set-up) land
  // here, outside the measured window.
  auto warm = RunWindow(set.warmup, {}, set.seed, deadline_ns, {}, args.node_pids, pids,
                        &*conns, report);
  if (!warm->drained) report->Fail("the warm-up did not commit before its deadline");
  // The window's reads fetch receipts the set-up and warm-up committed.
  std::vector<std::string> read_paths;
  for (const auto* list : {&set.deploys, &set.warmup}) {
    for (const GenTx& tx : *list) {
      read_paths.push_back("/v1/receipt/" + HexEncode(ByteView(tx.hash.data(), 32)));
    }
  }
  auto w = RunWindow(set.txs, set.reads_at_ns, set.seed, deadline_ns, read_paths,
                     args.node_pids, pids, &*conns, report);

  // ---- Off the clock: where did every transaction land? -------------
  std::vector<std::unique_ptr<net::FrameClient>> node_clients;
  for (const std::string& addr : args.nodes) {
    auto c = net::FrameClient::Dial(addr);
    if (!c.ok()) {
      report->Fail("cannot dial node " + addr);
      return;
    }
    node_clients.push_back(std::make_unique<net::FrameClient>(std::move(*c)));
  }

  // Convergence: every node at one height with one tip and empty pools.
  bool converged = false;
  uint64_t height = 0;
  for (int attempt = 0; attempt < 400 && !converged; ++attempt) {
    std::vector<NodeStatus> all;
    for (auto& c : node_clients) {
      auto st = QueryStatus(c.get());
      if (st.ok()) all.push_back(std::move(*st));
    }
    converged = all.size() == node_clients.size();
    for (const NodeStatus& s : all) {
      converged = converged && s.height == all[0].height && s.tip == all[0].tip &&
                  s.pool == 0;
    }
    if (converged) height = all[0].height;
    if (!converged) std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  if (!converged) report->Fail("nodes did not converge to one height and tip hash");

  // One sweep of the leader's chain: how often, and where, each
  // generated transaction (deploys and warm-up included) committed.
  std::vector<const GenTx*> known;
  for (const auto* list : {&set.txs, &set.warmup, &set.deploys}) {
    for (const GenTx& tx : *list) known.push_back(&tx);
  }
  std::unordered_map<std::string, size_t> index;
  for (size_t i = 0; i < known.size(); ++i) index.emplace(HashKey(known[i]->hash), i);
  std::vector<uint32_t> occurrences(known.size(), 0);
  std::vector<uint64_t> block_of(known.size(), 0);
  uint64_t unknown_txs = 0;
  auto chain_blocks = SweepChain(node_clients[0].get(), height);
  if (!chain_blocks.ok()) report->Fail(chain_blocks.status().ToString());
  const size_t blocks_swept = chain_blocks.ok() ? chain_blocks->size() : 0;
  for (size_t h = 0; h < blocks_swept; ++h) {
    for (const chain::Transaction& tx : (*chain_blocks)[h].transactions) {
      auto it = index.find(HashKey(tx.Hash()));
      if (it == index.end()) {
        ++unknown_txs;
      } else if (occurrences[it->second]++ == 0) {
        block_of[it->second] = h;
      }
    }
  }
  if (unknown_txs > 0) {
    report->Fail(std::to_string(unknown_txs) + " committed transactions were never submitted");
  }
  for (size_t i = n; i < known.size(); ++i) {
    if (occurrences[i] != 1) {
      report->Fail("a set-up or warm-up transaction committed " +
                   std::to_string(occurrences[i]) + " times");
    }
  }

  // Classify every measured transaction.
  std::vector<double> commit_ms, ack_ms, lag_ms;
  uint64_t refused = 0, errored = 0, missing = 0, duplicated = 0, late = 0;
  uint64_t last_commit_ns = 0;
  std::vector<size_t> committed_idx;
  for (size_t i = 0; i < n; ++i) {
    const TxOutcome& out = w->outcomes[i];
    const uint64_t due_ns = w->start_ns + set.txs[i].at_ns;
    lag_ms.push_back(double(out.send_ns - due_ns) / 1e6);
    const TxState state = out.state.load();
    if (state == TxState::kRefused) { ++refused; continue; }
    if (state != TxState::kAccepted) { ++errored; continue; }
    ack_ms.push_back(double(out.ack_ns - out.send_ns) / 1e6);
    if (occurrences[i] == 0) { ++missing; continue; }
    if (occurrences[i] > 1) { ++duplicated; continue; }
    auto commit_ns = w->timeline.CommitTimeNs(block_of[i]);
    if (!commit_ns || *commit_ns - due_ns > deadline_ns) { ++late; continue; }
    commit_ms.push_back(double(*commit_ns - due_ns) / 1e6);
    last_commit_ns = std::max(last_commit_ns, *commit_ns);
    committed_idx.push_back(i);
  }
  for (size_t k = 0; k < w->read_send_ns.size(); ++k) {
    lag_ms.push_back(double(w->read_send_ns[k] - (w->start_ns + set.reads_at_ns[k])) / 1e6);
  }
  const uint64_t tx_failed = refused + errored + missing + duplicated + late;
  if (duplicated > 0) {
    std::fprintf(stderr, "drive: %llu transactions committed more than once\n",
                 (unsigned long long)duplicated);
  }
  uint64_t read_failed = 0;
  for (uint8_t ok : w->read_ok) read_failed += ok ? 0 : 1;

  // Receipts, off the clock: a sample must be present and successful
  // (sealed ones open with k_tx).
  {
    std::vector<const GenTx*> sample = {&set.deploys[0], &set.deploys[1]};
    const size_t stride = std::max<size_t>(1, committed_idx.size() / kCheckedReceipts);
    for (size_t k = 0; k < committed_idx.size(); k += stride) {
      sample.push_back(&set.txs[committed_idx[k]]);
    }
    uint64_t bad = 0;
    std::string first_bad;
    for (const GenTx* tx : sample) {
      auto resp = conns->reader->Get("/v1/receipt/" + HexEncode(ByteView(tx->hash.data(), 32)));
      Status st = resp.ok() ? CheckReceipt(*resp, *tx) : resp.status();
      if (!st.ok() && bad++ == 0) first_bad = st.ToString();
    }
    if (bad > 0) {
      report->Fail(std::to_string(bad) + " sampled receipts failed the check, first: " +
                   first_bad);
    }
  }

  // ---- Metrics --------------------------------------------------------
  const double committed = double(committed_idx.size());
  if (committed == 0) report->Fail("no transaction committed");
  if (!w->drained) {
    report->Fail("window hit the hard deadline before every accepted transaction committed");
  }
  if (warm->view_changes + w->view_changes > 0) report->Fail("the leader changed");
  const uint64_t first_due_ns = w->start_ns + (n > 0 ? set.txs[0].at_ns : 0);
  const double span_s =
      last_commit_ns > first_due_ns ? double(last_commit_ns - first_due_ns) / 1e9 : 0;
  report->Add("commit_tps", span_s > 0 ? committed / span_s : 0, "tx/s");
  report->Add("commit_p50_ms", Percentile(commit_ms, 0.50).value_or(NAN), "ms", commit_ms.size());
  // commit_ms is in schedule order, so a batch is a stretch of the window.
  report->Add("commit_p90_ms",
              BatchedPercentile(commit_ms, Batches(commit_ms.size()), 0.90).value_or(NAN), "ms",
              commit_ms.size());

  std::vector<double> cpu(pids.size());
  for (size_t p = 0; p < pids.size(); ++p) cpu[p] = w->cpu_after[p] - w->cpu_before[p];
  double cpu_total = 0, cpu_replicas = 0;
  for (size_t p = 0; p < pids.size(); ++p) {
    cpu_total += cpu[p];
    if (p >= 1 && p < args.node_pids.size()) cpu_replicas += cpu[p];
  }
  const double per_tx = committed > 0 ? 1.0 / committed : 0;
  report->Add("cpu_ms_per_tx", cpu_total * per_tx, "ms/tx");
  double rss_sum = 0;
  for (double mb : w->node_rss_mb) rss_sum += mb;
  report->Add("node_rss_mb", rss_sum / double(w->node_rss_mb.size()), "MB",
              w->node_rss_mb.size());
  report->Add("failed_frac", n > 0 ? double(tx_failed) / double(n) : 0, "frac");

  // The commit p99 and read latency swing with CPU contention on a shared
  // host (4 nodes share 4 cores), so they are per-layer figures, not
  // bounded ones.
  report->Add("commit_p99_ms",
              BatchedPercentile(commit_ms, Batches(commit_ms.size()), 0.99).value_or(NAN), "ms",
              commit_ms.size());
  const std::vector<double>& reads = w->read_ms;
  const size_t batches = Batches(reads.size());
  report->Add("gateway.read_p50_ms", BatchedPercentile(reads, batches, 0.50).value_or(NAN),
              "ms", reads.size());
  report->Add("gateway.read_p99_ms", BatchedPercentile(reads, batches, 0.99).value_or(NAN),
              "ms", reads.size());
  report->Add("gateway.ack_p50_ms", Percentile(ack_ms, 0.50).value_or(NAN), "ms", ack_ms.size());
  report->Add("gateway.ack_p99_ms", Percentile(ack_ms, 0.99).value_or(NAN), "ms", ack_ms.size());
  report->Add("gateway.cpu_ms_per_tx", cpu.back() * per_tx, "ms/tx");
  report->Add("node.leader.cpu_ms_per_tx", cpu[0] * per_tx, "ms/tx");
  const double replicas = double(std::max<size_t>(1, args.node_pids.size() - 1));
  report->Add("node.replica.cpu_ms_per_tx", cpu_replicas / replicas * per_tx, "ms/tx");
  report->Add("bench.gen_lag_p99_ms", Percentile(lag_ms, 0.99).value_or(NAN), "ms",
              lag_ms.size());

  std::fprintf(stderr,
               "drive: %zu txs (%llu refused, %llu errored, %llu missing, %llu duplicated, "
               "%llu late), %zu reads (%llu failed); %zu blocks; max pool %llu; "
               "%llu poll errors; window %.2fs after a %zu-tx warm-up\n",
               n, (unsigned long long)refused, (unsigned long long)errored,
               (unsigned long long)missing, (unsigned long long)duplicated,
               (unsigned long long)late, set.reads_at_ns.size(),
               (unsigned long long)read_failed, blocks_swept,
               (unsigned long long)w->max_pool, (unsigned long long)w->poll_errors,
               double(w->end_ns - w->start_ns) / 1e9, set.warmup.size());
  // Where the tail came from: the slowest commits by schedule time.
  std::vector<std::pair<double, double>> slowest;  // (latency ms, scheduled s)
  for (size_t k = 0; k < committed_idx.size(); ++k) {
    slowest.emplace_back(commit_ms[k], double(set.txs[committed_idx[k]].at_ns) / 1e9);
  }
  std::sort(slowest.rbegin(), slowest.rend());
  std::fprintf(stderr, "drive: slowest commits (ms @ scheduled s):");
  for (size_t k = 0; k < std::min<size_t>(8, slowest.size()); ++k) {
    std::fprintf(stderr, " %.0f@%.2f", slowest[k].first, slowest[k].second);
  }
  std::fputc('\n', stderr);
  report->attempted += n + set.reads_at_ns.size();
  report->failed += tx_failed + read_failed;
}

}  // namespace perfbench
