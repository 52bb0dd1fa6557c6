#include "net/cluster.h"

#include <algorithm>
#include <utility>

#include "common/fault.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "crypto/sha256.h"
#include "serialize/rlp.h"

namespace confide::net {

namespace {

struct ClusterMetrics {
  metrics::Counter* propose = metrics::GetCounter("cluster.propose.count");
  metrics::Counter* trigger_submit =
      metrics::GetCounter("cluster.propose.trigger.submit.count");
  metrics::Counter* trigger_apply =
      metrics::GetCounter("cluster.propose.trigger.apply.count");
  metrics::Counter* trigger_beat =
      metrics::GetCounter("cluster.propose.trigger.beat.count");
  metrics::Histogram* batch_wait =
      metrics::GetHistogram("cluster.propose.batch_wait_ns");
  metrics::Counter* retransmit = metrics::GetCounter("cluster.retransmit.count");
  metrics::Counter* applied = metrics::GetCounter("cluster.block.applied.count");
  metrics::Counter* submit = metrics::GetCounter("cluster.tx.submitted.count");
  metrics::Counter* reject = metrics::GetCounter("cluster.tx.rejected.count");
  metrics::Counter* fetch = metrics::GetCounter("cluster.fetch.request.count");
  metrics::Counter* fetch_blocks = metrics::GetCounter("cluster.fetch.blocks.count");
  metrics::Counter* bad_frame = metrics::GetCounter("cluster.bad_frame.count");
  metrics::Counter* vote_rejected =
      metrics::GetCounter("cluster.vote.rejected.count");
  metrics::Counter* redirect = metrics::GetCounter("cluster.redirect.count");
  metrics::Gauge* view = metrics::GetGauge("cluster.view.current");
  metrics::Counter* view_change =
      metrics::GetCounter("cluster.view.change.count");
  metrics::Counter* view_adopted =
      metrics::GetCounter("cluster.view.adopted.count");
  metrics::Counter* view_elected =
      metrics::GetCounter("cluster.view.elected.count");
  metrics::Counter* viewchange_sent =
      metrics::GetCounter("cluster.viewchange.sent.count");
  metrics::Counter* viewchange_recv =
      metrics::GetCounter("cluster.viewchange.recv.count");
  metrics::Counter* newview_rejected =
      metrics::GetCounter("cluster.newview.rejected.count");
  metrics::Counter* abandoned =
      metrics::GetCounter("cluster.proposal.abandoned.count");
  metrics::Counter* hb_sent = metrics::GetCounter("net.heartbeat.sent.count");
  metrics::Counter* hb_recv = metrics::GetCounter("net.heartbeat.recv.count");
  metrics::Counter* hb_miss = metrics::GetCounter("net.heartbeat.miss.count");

  static ClusterMetrics& Get() {
    static ClusterMetrics m;
    return m;
  }
};

Bytes EncodeVote(uint64_t view, uint64_t seq, const crypto::Hash256& digest) {
  serialize::RlpWriter w;
  size_t mark = w.BeginList();
  w.WriteU64(view);
  w.WriteU64(seq);
  w.WriteBytes(ByteView(digest.data(), digest.size()));
  w.EndList(mark);
  return std::move(w).Take();
}

Bytes EncodePrePrepare(uint64_t view, uint64_t seq, ByteView block_wire) {
  serialize::RlpWriter w;
  size_t mark = w.BeginList();
  w.WriteU64(view);
  w.WriteU64(seq);
  w.WriteBytes(block_wire);
  w.EndList(mark);
  return std::move(w).Take();
}

Bytes EncodeHeartbeat(uint64_t view, uint64_t height) {
  serialize::RlpWriter w;
  size_t mark = w.BeginList();
  w.WriteU64(view);
  w.WriteU64(height);
  w.EndList(mark);
  return std::move(w).Take();
}

Bytes EncodeRedirect(uint32_t leader, uint64_t view) {
  serialize::RlpWriter w;
  size_t mark = w.BeginList();
  w.WriteU64(leader);
  w.WriteU64(view);
  w.EndList(mark);
  return std::move(w).Take();
}

OwnedFrame ErrorFrame(uint64_t code, std::string_view message) {
  serialize::RlpWriter w;
  size_t mark = w.BeginList();
  w.WriteU64(code);
  w.WriteString(message);
  w.EndList(mark);
  return OwnedFrame{MsgType::kError, std::move(w).Take()};
}

constexpr uint64_t kNsPerMs = 1'000'000;

/// The batching window: how long the leader lets the first submission of
/// a batch wait for company before proposing (capped at propose_tick_ms).
/// Shorter windows cut latency but pay a consensus round per ~1 tx.
constexpr uint64_t kProposeWindowMs = 3;

uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

}  // namespace

ClusterNode::ClusterNode(core::ConfideSystem* system,
                         std::unique_ptr<Transport> transport,
                         ClusterOptions options)
    : system_(system), transport_(std::move(transport)), options_(options) {}

ClusterNode::~ClusterNode() { Stop(); }

Status ClusterNode::Start() {
  transport_->SetHandler([this](uint32_t from, MsgType type, ByteView body) {
    return HandleFrame(from, type, body);
  });
  {
    std::lock_guard<std::mutex> lock(mu_);
    jitter_state_ = options_.election_seed ^
                    (uint64_t(transport_->self_id()) * 0x9E3779B97F4A7C15ull);
    last_leader_seen_ns_ = transport_->NowNs();
    last_heartbeat_sent_ns_ = last_leader_seen_ns_;
  }
  // The failure detector ticks at half the heartbeat cadence (5-50 ms)
  // on the transport's clock: wall time under TCP, virtual under SimHub.
  // The propose beat shares the timer, so it may run faster than asked.
  uint64_t tick_ms = options_.heartbeat_ms > 0
                         ? std::clamp<uint64_t>(options_.heartbeat_ms / 2, 5, 50)
                         : options_.propose_tick_ms;
  if (options_.propose_tick_ms > 0) tick_ms = std::min(tick_ms, options_.propose_tick_ms);
  tick_ns_ = tick_ms * kNsPerMs;
  window_ns_ = std::min(kProposeWindowMs, options_.propose_tick_ms) * kNsPerMs;
  if (tick_ms > 0) transport_->SetTimer(tick_ns_, [this](bool beat) { MonitorTick(beat); });
  return transport_->Start();
}

void ClusterNode::Stop() { transport_->Stop(); }

std::optional<OwnedFrame> ClusterNode::HandleFrame(uint32_t from, MsgType type,
                                                   ByteView body) {
  switch (type) {
    case MsgType::kSubmitTx:
      return OnSubmitTx(body);
    case MsgType::kQueryReceipt:
      return OnQueryReceipt(body);
    case MsgType::kQueryStatus:
      return OnQueryStatus();
    case MsgType::kQueryPkInfo:
      return OnQueryPkInfo();
    case MsgType::kFetchBlocks:
      return OnFetchBlocks(body);
    default:
      break;
  }
  // Consensus plane: only identified node peers may vote or propose.
  if (from == kClientPeer || from >= transport_->cluster_size()) {
    ClusterMetrics::Get().bad_frame->Increment();
    return std::nullopt;
  }
  switch (type) {
    case MsgType::kPrePrepare:
      OnPrePrepare(from, body);
      break;
    case MsgType::kPrepare:
    case MsgType::kCommit:
      OnVote(from, type, body);
      break;
    case MsgType::kBlocksReply:
      OnBlocksReply(body);
      break;
    case MsgType::kHeartbeat:
      OnHeartbeat(from, body);
      break;
    case MsgType::kViewChange:
      OnViewChange(from, body);
      break;
    case MsgType::kNewView:
      OnNewView(from, body);
      break;
    default:
      ClusterMetrics::Get().bad_frame->Increment();
      break;
  }
  // This frame applied the leader's previous block: propose the next here.
  if (propose_recheck_) ProposeWhileIdle(/*from_timer=*/false);
  return std::nullopt;
}

std::optional<OwnedFrame> ClusterNode::OnSubmitTx(ByteView body) {
  if (!is_leader()) {
    // Submissions belong on the leader: hand the client the current view's
    // leader so it can re-route (docs/WIRE_PROTOCOL.md §View change).
    ClusterMetrics::Get().redirect->Increment();
    return OwnedFrame{MsgType::kRedirect, EncodeRedirect(leader(), view())};
  }
  auto tx = chain::Transaction::Deserialize(body);
  if (!tx.ok()) {
    ClusterMetrics::Get().reject->Increment();
    return ErrorFrame(400, tx.status().message());
  }
  const crypto::Hash256 hash = tx->Hash();
  Status st = system_->node()->SubmitTransaction(std::move(*tx));
  serialize::RlpWriter w;
  size_t mark = w.BeginList();
  w.WriteU64(st.ok() ? 1 : 0);
  w.WriteBytes(ByteView(hash.data(), hash.size()));
  w.WriteString(st.ok() ? "" : st.message());
  w.EndList(mark);
  if (st.ok()) {
    ClusterMetrics::Get().submit->Increment();
    if (options_.propose_tick_ms > 0) NoteSubmitted(body.size());
  } else {
    ClusterMetrics::Get().reject->Increment();
  }
  return OwnedFrame{MsgType::kSubmitTxAck, std::move(w).Take()};
}

void ClusterNode::NoteSubmitted(size_t bytes) {
  const uint64_t now = transport_->NowNs();
  const uint64_t block_bytes = system_->node()->block_max_bytes();
  uint64_t wake_ns = 0;
  {
    std::lock_guard<std::mutex> batch(batch_mu_);
    if (batch_open_ns_ == 0) {
      batch_open_ns_ = now;
      wake_ns = now + window_ns_;
    }
    const bool was_full = batch_bytes_ >= block_bytes;
    batch_bytes_ += bytes;
    if (!was_full && batch_bytes_ >= block_bytes) wake_ns = now;  // a full block
  }
  if (wake_ns != 0) transport_->WakeAt(wake_ns);
}

std::optional<OwnedFrame> ClusterNode::OnQueryReceipt(ByteView body) {
  auto r = serialize::RlpReader::AtList(body);
  if (!r.ok()) return ErrorFrame(400, "bad kQueryReceipt body");
  auto hash_bytes = r->NextFixed(32, "tx hash");
  if (!hash_bytes.ok() || !r->ExpectEnd("kQueryReceipt").ok()) {
    return ErrorFrame(400, "bad kQueryReceipt body");
  }
  crypto::Hash256 hash{};
  std::copy(hash_bytes->begin(), hash_bytes->end(), hash.begin());
  auto receipt = system_->node()->GetReceipt(hash);
  serialize::RlpWriter w;
  size_t mark = w.BeginList();
  w.WriteU64(receipt.ok() ? 1 : 0);
  w.WriteBytes(receipt.ok() ? ByteView(receipt->Serialize()) : ByteView());
  w.WriteU64(system_->node()->Height());
  w.EndList(mark);
  return OwnedFrame{MsgType::kReceiptReply, std::move(w).Take()};
}

std::optional<OwnedFrame> ClusterNode::OnQueryStatus() {
  chain::Node* node = system_->node();
  const crypto::Hash256 tip = TipHash();
  serialize::RlpWriter w;
  size_t mark = w.BeginList();
  w.WriteU64(transport_->self_id());
  w.WriteU64(node->Height());
  w.WriteBytes(ByteView(tip.data(), tip.size()));
  w.WriteU64(node->VerifiedPoolSize());
  w.WriteU64(node->UnverifiedPoolSize());
  // Leader hint (appended in wire v2): the redirect target for clients
  // that learned the cluster topology from a status sweep.
  w.WriteU64(view());
  w.WriteU64(leader());
  w.EndList(mark);
  return OwnedFrame{MsgType::kStatusReply, std::move(w).Take()};
}

std::optional<OwnedFrame> ClusterNode::OnQueryPkInfo() {
  serialize::RlpWriter w;
  size_t mark = w.BeginList();
  w.WriteBytes(ByteView(system_->pk_info_blob()));
  w.EndList(mark);
  return OwnedFrame{MsgType::kPkInfoReply, std::move(w).Take()};
}

void ClusterNode::InstallProposalLocked(uint64_t view, uint64_t seq,
                                        ByteView wire, uint32_t proposer) {
  const crypto::Hash256 digest = crypto::Sha256::Digest(wire);
  Pending& p = pending_[seq];
  if (p.view < view) {
    // A re-proposal in a newer view supersedes whatever this entry held —
    // including votes collected before the pre-prepare arrived: those were
    // never digest-checked and must not count toward the new block.
    p = Pending{};
    p.view = view;
  }
  if (!p.block_wire.empty() && p.digest != digest) {
    // Same view, different block at the same seq: equivocation.
    ClusterMetrics::Get().bad_frame->Increment();
    return;
  }
  if (p.block_wire.empty()) {
    p.block_wire = ToBytes(wire);
    p.digest = digest;
  }
  p.view = view;
  // The pre-prepare carries the proposer's implicit prepare; our broadcast
  // kPrepare below is our vote, counted locally too.
  p.prepares[proposer] = p.digest;
  p.prepares[transport_->self_id()] = p.digest;
  p.sent_ns = transport_->NowNs();
  const Bytes vote = EncodeVote(view, seq, p.digest);
  (void)transport_->Broadcast(MsgType::kPrepare, ByteView(vote));
}

void ClusterNode::MaybeFetchGapLocked(uint64_t seq, uint32_t peer) {
  // The leader proposes seq + 1 only after seq applied, so a leader frame
  // past our tip means the tip committed at the leader. If we lack the
  // tip's block, or more than the tip, the frames were lost: pull now.
  const uint64_t tip = system_->node()->Height();
  if (seq <= tip) return;
  auto entry = pending_.find(tip);
  const bool tip_has_block = entry != pending_.end() && !entry->second.block_wire.empty();
  if (seq > tip + 1 || !tip_has_block || tick_ns_ == 0) {
    (void)FetchBlocksLocked(peer, tip, seq, RepairWaitMs());
    return;
  }
  // We hold the tip's block and its commit votes may still be on the way:
  // MonitorTick pulls it if the tip has not moved a tick from now.
  if (stalled_tip_ != tip) {
    stalled_tip_ = tip;
    stalled_since_ns_ = transport_->NowNs();
  }
  stalled_peer_ = peer;
}

Status ClusterNode::FetchBlocksLocked(uint32_t peer, uint64_t from, uint64_t to,
                                      uint64_t wait_ms) {
  const uint64_t now = transport_->NowNs();
  if (now < fetch_deadline_ns_) return Status::OK();  // one pull at a time
  fetch_deadline_ns_ = now + wait_ms * kNsPerMs;
  serialize::RlpWriter w;
  size_t mark = w.BeginList();
  w.WriteU64(from);
  w.WriteU64(to);
  w.EndList(mark);
  ClusterMetrics::Get().fetch->Increment();
  Status sent =
      transport_->Send(peer, MsgType::kFetchBlocks, ByteView(std::move(w).Take()));
  // The request never left: release the latch so the next trigger retries.
  if (!sent.ok()) fetch_deadline_ns_ = 0;
  return sent;
}

void ClusterNode::OnPrePrepare(uint32_t from, ByteView body) {
  auto r = serialize::RlpReader::AtList(body);
  if (!r.ok()) {
    ClusterMetrics::Get().bad_frame->Increment();
    return;
  }
  auto view = r->NextU64();
  auto seq = r->NextU64();
  auto wire = r->NextBytes();
  if (!view.ok() || !seq.ok() || !wire.ok() || !r->ExpectEnd("kPrePrepare").ok()) {
    ClusterMetrics::Get().bad_frame->Increment();
    return;
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (*view < view_.load(std::memory_order_relaxed)) {
    // A deposed leader still proposing in its old view. Ignore; its own
    // heartbeat/pre-prepare traffic from the current leader will heal it.
    ClusterMetrics::Get().vote_rejected->Increment();
    return;
  }
  if (LeaderOf(*view) != from) {
    ClusterMetrics::Get().bad_frame->Increment();
    return;
  }
  // A pre-prepare from the legitimate leader of a newer view is proof the
  // election completed without us (lost kNewView, or we just rejoined).
  if (*view > view_.load(std::memory_order_relaxed)) AdoptViewLocked(*view);
  last_leader_seen_ns_ = transport_->NowNs();
  const uint64_t tip = system_->node()->Height();
  if (*seq >= tip) {
    InstallProposalLocked(*view, *seq, *wire, from);
    MaybeAdvanceLocked(*seq);
  }
  // Seq jumped past our tip: pull the gap from the proposer (frames for
  // the intermediate blocks were lost, or we just rejoined).
  MaybeFetchGapLocked(*seq, from);
}

void ClusterNode::OnVote(uint32_t from, MsgType type, ByteView body) {
  auto r = serialize::RlpReader::AtList(body);
  if (!r.ok()) {
    ClusterMetrics::Get().bad_frame->Increment();
    return;
  }
  auto view = r->NextU64();
  auto seq = r->NextU64();
  auto digest = r->NextFixed(32, "digest");
  if (!view.ok() || !seq.ok() || !digest.ok() || !r->ExpectEnd("vote").ok()) {
    ClusterMetrics::Get().bad_frame->Increment();
    return;
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (*view != view_.load(std::memory_order_relaxed)) {
    // Votes are only valid in the view they were cast for: after a view
    // change every surviving entry is re-proposed and re-voted.
    ClusterMetrics::Get().vote_rejected->Increment();
    return;
  }
  if (*seq < system_->node()->Height()) return;  // stale vote
  Pending& p = pending_[*seq];
  if (p.view < *view) {
    // Entry predates the current view (or is fresh): any held votes were
    // cast for a superseded proposal — drop them with it.
    p = Pending{};
    p.view = *view;
  }
  // Votes may precede the pre-prepare (reordering across connections,
  // WAN serialization); they are kept with their digest and count only
  // for a block that matches it.
  if (!p.block_wire.empty() &&
      !std::equal(digest->begin(), digest->end(), p.digest.begin())) {
    ClusterMetrics::Get().vote_rejected->Increment();
    return;
  }
  crypto::Hash256 voted{};
  std::copy(digest->begin(), digest->end(), voted.begin());
  (type == MsgType::kPrepare ? p.prepares : p.commits)[from] = voted;
  MaybeAdvanceLocked(*seq);
}

void ClusterNode::MaybeAdvanceLocked(uint64_t seq) {
  auto it = pending_.find(seq);
  if (it == pending_.end()) return;
  Pending& p = it->second;
  const size_t quorum = Quorum(transport_->cluster_size());
  if (!p.commit_sent && p.Count(p.prepares) >= quorum) {
    p.commit_sent = true;
    p.commits[transport_->self_id()] = p.digest;
    const Bytes vote = EncodeVote(p.view, seq, p.digest);
    (void)transport_->Broadcast(MsgType::kCommit, ByteView(vote));
  }
  if (!p.committed && p.commit_sent && p.Count(p.commits) >= quorum) {
    p.committed = true;
  }
  TryApplyLocked();
}

void ClusterNode::TryApplyLocked() {
  chain::Node* node = system_->node();
  while (true) {
    auto it = pending_.find(node->Height());
    if (it == pending_.end() || !it->second.committed ||
        it->second.block_wire.empty()) {
      break;
    }
    Status applied = ApplyWireLocked(it->first, it->second.block_wire);
    if (!applied.ok()) {
      // An undecodable entry can never apply: drop it so a retransmission
      // or gap fetch can fill the seq.
      if (applied.code() == StatusCode::kCorruption) pending_.erase(it);
      break;
    }
    pending_.erase(it);
  }
  // Drop stale entries a retransmission or late vote left behind.
  while (!pending_.empty() && pending_.begin()->first < node->Height()) {
    pending_.erase(pending_.begin());
  }
}

Status ClusterNode::ApplyWireLocked(uint64_t seq, ByteView wire) {
  auto block = chain::Block::Deserialize(wire);
  Status status =
      block.ok() ? system_->node()->ApplyBlock(*block).status()
                 : Status::Corruption("undecodable block: " +
                                      block.status().message());
  if (!status.ok()) {
    CONFIDE_LOG(kError, "cluster",
                "apply at seq " + std::to_string(seq) +
                    " failed: " + status.message());
    return status;
  }
  ClusterMetrics::Get().applied->Increment();
  if (options_.propose_tick_ms > 0) propose_recheck_ = true;
  return Status::OK();
}

std::optional<OwnedFrame> ClusterNode::OnFetchBlocks(ByteView body) {
  auto r = serialize::RlpReader::AtList(body);
  if (!r.ok()) return ErrorFrame(400, "bad kFetchBlocks body");
  auto from_h = r->NextU64();
  auto to_h = r->NextU64();
  if (!from_h.ok() || !to_h.ok() || !r->ExpectEnd("kFetchBlocks").ok()) {
    return ErrorFrame(400, "bad kFetchBlocks body");
  }
  storage::BlockStore* blocks = system_->node()->blocks();
  const uint64_t tip = blocks->NextHeight();
  const uint64_t lo = *from_h;
  const uint64_t hi = std::min(std::min(*to_h, tip), lo + kFetchBatchBlocks);
  std::vector<Bytes> wires;
  for (uint64_t h = lo; h < hi; ++h) {
    auto wire = blocks->GetByHeight(h);
    if (!wire.ok()) break;
    wires.push_back(std::move(*wire));
  }
  serialize::RlpWriter out;
  size_t mark = out.BeginList();
  out.WriteU64(lo);
  out.WriteU64(wires.size());
  for (const Bytes& wire : wires) out.WriteBytes(ByteView(wire));
  out.EndList(mark);
  ClusterMetrics::Get().fetch_blocks->Increment(wires.size());
  return OwnedFrame{MsgType::kBlocksReply, std::move(out).Take()};
}

void ClusterNode::OnBlocksReply(ByteView body) {
  auto r = serialize::RlpReader::AtList(body);
  if (!r.ok()) {
    ClusterMetrics::Get().bad_frame->Increment();
    return;
  }
  auto from_h = r->NextU64();
  auto count = r->NextU64();
  if (!from_h.ok() || !count.ok()) {
    ClusterMetrics::Get().bad_frame->Increment();
    return;
  }
  std::lock_guard<std::mutex> lock(mu_);
  chain::Node* node = system_->node();
  size_t applied = 0;
  for (uint64_t i = 0; i < *count; ++i) {
    auto wire = r->NextBytes();
    if (!wire.ok()) break;
    const uint64_t height = *from_h + i;
    if (height < node->Height()) continue;  // already have it
    if (!ApplyWireLocked(height, *wire).ok()) break;
    ++applied;
  }
  if (applied > 0) {
    // A filled gap means the cluster healed around lost frames (chaos
    // drops included) — the drop site's recovery signal.
    fault::NoteRecovered("fault.net.send.drop");
  }
  fetch_deadline_ns_ = 0;
  ++fetch_generation_;
  cv_.notify_all();  // CatchUp waits for the reply
  TryApplyLocked();
}

void ClusterNode::OnHeartbeat(uint32_t from, ByteView body) {
  auto r = serialize::RlpReader::AtList(body);
  if (!r.ok()) {
    ClusterMetrics::Get().bad_frame->Increment();
    return;
  }
  auto view = r->NextU64();
  auto height = r->NextU64();
  if (!view.ok() || !height.ok() || !r->ExpectEnd("kHeartbeat").ok()) {
    ClusterMetrics::Get().bad_frame->Increment();
    return;
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (*view < view_.load(std::memory_order_relaxed)) return;  // stale leader
  if (LeaderOf(*view) != from) {
    ClusterMetrics::Get().bad_frame->Increment();
    return;
  }
  if (*view > view_.load(std::memory_order_relaxed)) AdoptViewLocked(*view);
  last_leader_seen_ns_ = transport_->NowNs();
  ClusterMetrics::Get().hb_recv->Increment();
  // The heartbeat carries the leader's height: an idle-cluster rejoin
  // heals here instead of waiting for the next proposal.
  MaybeFetchGapLocked(*height, from);
}

void ClusterNode::StartViewChange(uint64_t target_view) {
  std::unique_lock<std::mutex> lock(mu_);
  StartViewChangeLocked(target_view);
}

void ClusterNode::StartViewChangeLocked(uint64_t target_view) {
  if (target_view <= view_.load(std::memory_order_relaxed)) return;
  if (target_view > view_target_) {
    view_target_ = target_view;
    ClusterMetrics::Get().view_change->Increment();
  }
  ViewChangeMsg msg;
  msg.last_applied = system_->node()->Height();
  const size_t quorum = Quorum(transport_->cluster_size());
  for (const auto& [seq, p] : pending_) {
    if (p.block_wire.empty()) continue;
    if (p.Count(p.prepares) < quorum && !p.committed) continue;
    msg.prepared[seq] = {p.view, p.block_wire};
  }
  view_changes_[target_view][transport_->self_id()] = msg;

  serialize::RlpWriter w;
  size_t mark = w.BeginList();
  w.WriteU64(target_view);
  w.WriteU64(msg.last_applied);
  w.WriteU64(msg.prepared.size());
  for (const auto& [seq, cert] : msg.prepared) {
    w.WriteU64(seq);
    w.WriteU64(cert.first);
    w.WriteBytes(ByteView(cert.second));
  }
  w.EndList(mark);
  if (fault::FaultInjector::Global().ShouldFail("fault.net.view.viewchange_drop")) {
    // Our view-change evaporates: peers must reach quorum without us (or
    // we re-broadcast on the next election timeout). Recovery = this node
    // still adopting the new view.
    fault_viewchange_dropped_ = true;
  } else {
    ClusterMetrics::Get().viewchange_sent->Increment();
    (void)transport_->Broadcast(MsgType::kViewChange, ByteView(std::move(w).Take()));
  }
  MaybeCompleteElectionLocked(target_view);
}

void ClusterNode::OnViewChange(uint32_t from, ByteView body) {
  auto r = serialize::RlpReader::AtList(body);
  if (!r.ok()) {
    ClusterMetrics::Get().bad_frame->Increment();
    return;
  }
  auto new_view = r->NextU64();
  auto last_applied = r->NextU64();
  auto count = r->NextU64();
  if (!new_view.ok() || !last_applied.ok() || !count.ok()) {
    ClusterMetrics::Get().bad_frame->Increment();
    return;
  }
  ViewChangeMsg msg;
  msg.last_applied = *last_applied;
  for (uint64_t i = 0; i < *count; ++i) {
    auto seq = r->NextU64();
    auto cert_view = r->NextU64();
    auto wire = r->NextBytes();
    if (!seq.ok() || !cert_view.ok() || !wire.ok()) {
      ClusterMetrics::Get().bad_frame->Increment();
      return;
    }
    msg.prepared[*seq] = {*cert_view, ToBytes(*wire)};
  }
  std::unique_lock<std::mutex> lock(mu_);
  if (*new_view <= view_.load(std::memory_order_relaxed)) return;  // stale
  ClusterMetrics::Get().viewchange_recv->Increment();
  view_changes_[*new_view][from] = std::move(msg);
  // Join rule: once f+1 peers are electing new_view, at least one correct
  // node timed out — join rather than straggle (and as the would-be
  // leader, our own view-change is required for quorum).
  const size_t join_threshold = (transport_->cluster_size() - 1) / 3 + 1;
  if (view_target_ < *new_view &&
      (view_changes_[*new_view].size() >= join_threshold ||
       LeaderOf(*new_view) == transport_->self_id())) {
    // Joining starts this node's wait for the new leader: re-arm the
    // election timer, or it would escalate past new_view as soon as the
    // old leader's silence (not the new one's) outlasts the timeout.
    last_leader_seen_ns_ = transport_->NowNs();
    StartViewChangeLocked(*new_view);
  } else {
    MaybeCompleteElectionLocked(*new_view);
  }
}

void ClusterNode::MaybeCompleteElectionLocked(uint64_t target_view) {
  if (LeaderOf(target_view) != transport_->self_id()) return;
  if (new_view_sent_ >= target_view) return;
  auto it = view_changes_.find(target_view);
  if (it == view_changes_.end() ||
      it->second.size() < Quorum(transport_->cluster_size())) {
    return;
  }
  if (fault::FaultInjector::Global().ShouldFail("fault.net.view.election_crash")) {
    // The would-be leader dies mid-election: no kNewView. Replicas time
    // out again and elect the next candidate. Recovery = this node
    // adopting a later view like any other replica.
    fault_election_crashed_ = true;
    return;
  }
  new_view_sent_ = target_view;

  // Safety core of the view change: any block that could have committed
  // in an earlier view has a prepared certificate in at least one of the
  // 2f+1 collected messages (quorum intersection), so re-proposing the
  // highest-view certificate per seq preserves every possibly-committed
  // block. Seqs below the cluster's applied height are already final.
  uint64_t base = system_->node()->Height();
  uint32_t best_peer = transport_->self_id();
  for (const auto& [from, msg] : it->second) {
    if (msg.last_applied > base) {
      base = msg.last_applied;
      best_peer = from;
    }
  }
  std::map<uint64_t, std::pair<uint64_t, Bytes>> repropose;
  for (const auto& [from, msg] : it->second) {
    for (const auto& [seq, cert] : msg.prepared) {
      if (seq < base) continue;
      auto& slot = repropose[seq];
      if (slot.second.empty() || cert.first > slot.first) slot = cert;
    }
  }

  serialize::RlpWriter w;
  size_t mark = w.BeginList();
  w.WriteU64(target_view);
  w.WriteU64(repropose.size());
  for (const auto& [seq, cert] : repropose) {
    w.WriteU64(seq);
    w.WriteBytes(ByteView(cert.second));
  }
  w.EndList(mark);

  if (fault::FaultInjector::Global().ShouldFail("fault.net.view.stale_newview")) {
    // Forge a kNewView for the *current* (stale) view first: replicas
    // must reject it (cluster.newview.rejected.count) and still complete
    // the genuine election that follows.
    fault_stale_newview_sent_ = true;
    serialize::RlpWriter forged;
    size_t fmark = forged.BeginList();
    forged.WriteU64(view_.load(std::memory_order_relaxed));
    forged.WriteU64(0);
    forged.EndList(fmark);
    (void)transport_->Broadcast(MsgType::kNewView,
                                ByteView(std::move(forged).Take()));
  }
  ClusterMetrics::Get().view_elected->Increment();
  (void)transport_->Broadcast(MsgType::kNewView, ByteView(std::move(w).Take()));
  AdoptViewLocked(target_view);
  for (const auto& [seq, cert] : repropose) {
    InstallProposalLocked(target_view, seq, ByteView(cert.second),
                          transport_->self_id());
    MaybeAdvanceLocked(seq);
  }
  if (system_->node()->Height() < base) {
    // We won the election while behind the cluster tip: pull the missing
    // prefix from the most advanced peer before proposing anything new.
    // (Proposals at a stale seq are ignored by advanced replicas, so this
    // heals before progress resumes.)
    CONFIDE_LOG(kInfo, "cluster",
                "new leader behind cluster tip, fetching " +
                    std::to_string(base - system_->node()->Height()) +
                    " blocks from node " + std::to_string(best_peer));
    (void)FetchBlocksLocked(best_peer, system_->node()->Height(), base, RepairWaitMs());
  }
}

void ClusterNode::OnNewView(uint32_t from, ByteView body) {
  auto r = serialize::RlpReader::AtList(body);
  if (!r.ok()) {
    ClusterMetrics::Get().bad_frame->Increment();
    return;
  }
  auto new_view = r->NextU64();
  auto count = r->NextU64();
  if (!new_view.ok() || !count.ok()) {
    ClusterMetrics::Get().bad_frame->Increment();
    return;
  }
  std::vector<std::pair<uint64_t, Bytes>> certs;
  for (uint64_t i = 0; i < *count; ++i) {
    auto seq = r->NextU64();
    auto wire = r->NextBytes();
    if (!seq.ok() || !wire.ok()) {
      ClusterMetrics::Get().bad_frame->Increment();
      return;
    }
    certs.emplace_back(*seq, ToBytes(*wire));
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (LeaderOf(*new_view) != from) {
    // Only the leader of new_view may announce it.
    ClusterMetrics::Get().bad_frame->Increment();
    return;
  }
  if (*new_view <= view_.load(std::memory_order_relaxed)) {
    // Stale or forged: adopting it would roll the view number back and
    // re-admit a deposed leader.
    ClusterMetrics::Get().newview_rejected->Increment();
    return;
  }
  AdoptViewLocked(*new_view);
  uint64_t min_cert_seq = UINT64_MAX;
  for (const auto& [seq, wire] : certs) {
    if (seq < system_->node()->Height()) continue;
    min_cert_seq = std::min(min_cert_seq, seq);
    InstallProposalLocked(*new_view, seq, ByteView(wire), from);
    MaybeAdvanceLocked(seq);
  }
  if (min_cert_seq != UINT64_MAX) {
    // Re-proposals may start past our tip (we missed committed blocks).
    MaybeFetchGapLocked(min_cert_seq, from);
  }
}

void ClusterNode::AdoptViewLocked(uint64_t v) {
  const uint64_t old_view = view_.load(std::memory_order_relaxed);
  if (v <= old_view) return;
  view_.store(v, std::memory_order_release);
  if (view_target_ < v) view_target_ = v;
  failed_elections_ = 0;
  last_leader_seen_ns_ = transport_->NowNs();
  view_changes_.erase(view_changes_.begin(), view_changes_.upper_bound(v));
  ClusterMetrics::Get().view->Set(int64_t(v));
  ClusterMetrics::Get().view_adopted->Increment();
  if (fault_viewchange_dropped_) {
    fault_viewchange_dropped_ = false;
    fault::NoteRecovered("fault.net.view.viewchange_drop");
  }
  if (fault_election_crashed_) {
    fault_election_crashed_ = false;
    fault::NoteRecovered("fault.net.view.election_crash");
  }
  if (fault_stale_newview_sent_) {
    fault_stale_newview_sent_ = false;
    fault::NoteRecovered("fault.net.view.stale_newview");
  }
  if (fault_leader_silent_ && LeaderOf(v) != transport_->self_id()) {
    fault_leader_silent_ = false;
    fault::NoteRecovered("fault.net.leader_crash");
  }
  if (LeaderOf(old_view) == self_id() && LeaderOf(v) != self_id()) {
    // Deposed: drop what we proposed in the old view (the next leader
    // re-proposes whatever prepared).
    std::vector<uint64_t> own;
    for (const auto& [seq, p] : pending_) {
      if (p.view == old_view && !p.block_wire.empty()) own.push_back(seq);
    }
    for (uint64_t seq : own) AbandonProposalLocked(seq);
  }
}

Result<uint64_t> ClusterNode::ProposeOnce() {
  // Two packs at one height would equivocate.
  std::lock_guard<std::recursive_mutex> turn(propose_mu_);
  if (!is_leader()) {
    return Status::Unavailable("cluster: node " + std::to_string(self_id()) +
                               " is not the leader of view " +
                               std::to_string(view()));
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (fault_leader_silent_) {
      return Status::Unavailable("cluster: leader hung (fault.net.leader_crash)");
    }
  }
  chain::Node* node = system_->node();
  // This proposal takes the open batch; submissions from here on open the
  // next one.
  uint64_t batch_open = 0;
  {
    std::lock_guard<std::mutex> batch(batch_mu_);
    batch_open = std::exchange(batch_open_ns_, 0);
    batch_bytes_ = 0;
  }
  CONFIDE_RETURN_NOT_OK(node->PreVerify().status());
  CONFIDE_ASSIGN_OR_RETURN(chain::Block block, node->ProposeBlock());
  if (batch_open != 0 && node->VerifiedPoolSize() > 0) {
    // The block filled first: what it left behind is as old as the batch.
    std::lock_guard<std::mutex> batch(batch_mu_);
    if (batch_open_ns_ == 0 || batch_open < batch_open_ns_) batch_open_ns_ = batch_open;
  }
  if (block.transactions.empty()) {
    return Status::NotFound("cluster: pools empty, nothing to propose");
  }
  if (batch_open != 0) {
    ClusterMetrics::Get().batch_wait->Observe(transport_->NowNs() - batch_open);
  }
  const Bytes wire = block.Serialize();
  const uint64_t seq = block.header.height;
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t v = view_.load(std::memory_order_relaxed);
  Pending& p = pending_[seq];
  const crypto::Hash256 digest = crypto::Sha256::Digest(ByteView(wire));
  if (!p.block_wire.empty() && p.digest != digest) {
    // A superseded proposal (abandoned round, older view) occupied this
    // seq: its votes were for a different block and must not carry over.
    p = Pending{};
  }
  p.view = v;
  p.block_wire = wire;
  p.digest = digest;
  p.prepares[transport_->self_id()] = digest;
  p.sent_ns = transport_->NowNs();
  ClusterMetrics::Get().propose->Increment();
  (void)transport_->Broadcast(MsgType::kPrePrepare,
                              ByteView(EncodePrePrepare(v, seq, wire)));
  MaybeAdvanceLocked(seq);
  return seq;
}

void ClusterNode::ProposeWhileIdle(bool from_timer) {
  chain::Node* node = system_->node();
  // Raised before trying the turn, like an apply raises it: a holder that
  // releases the turn re-checks the flag, so no wake-up is lost.
  if (from_timer) propose_recheck_ = true;
  bool first = true;
  do {
    std::unique_lock<std::recursive_mutex> turn(propose_mu_, std::try_to_lock);
    if (!turn.owns_lock()) return;  // the holder re-checks the flag below
    // Later passes re-check for another thread: a block applied, or a
    // wake-up found the turn taken. They count as apply triggers.
    const bool timer_pass = std::exchange(first, false) && from_timer;
    propose_recheck_ = false;
    uint64_t batch_open = 0;
    {
      std::lock_guard<std::mutex> batch(batch_mu_);
      if (node->VerifiedPoolSize() + node->UnverifiedPoolSize() == 0) {
        batch_open_ns_ = 0;  // whatever the batch counted went out already
        batch_bytes_ = 0;
        continue;
      }
      batch_open = batch_open_ns_;
      if (batch_open != 0 && transport_->NowNs() < batch_open + window_ns_ &&
          batch_bytes_ < node->block_max_bytes()) {
        // Not yet due: re-check when the window closes. The wake-up the
        // batch opened with may have been spent on an earlier one.
        transport_->WakeAt(batch_open + window_ns_);
        continue;
      }
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      const uint64_t v = view_.load(std::memory_order_relaxed);
      const uint64_t tip = node->Height();
      // In a view this node leads, every pending block is its own.
      const bool in_flight =
          std::any_of(pending_.begin(), pending_.end(), [&](const auto& entry) {
            return entry.first >= tip && entry.second.view == v &&
                   !entry.second.block_wire.empty();
          });
      if (LeaderOf(v) != self_id() || fault_leader_silent_ || in_flight) continue;
    }
    auto seq = ProposeOnce();
    if (seq.ok()) {
      ClusterMetrics& m = ClusterMetrics::Get();
      (!timer_pass ? m.trigger_apply
                   : batch_open != 0 ? m.trigger_submit : m.trigger_beat)
          ->Increment();
    } else if (seq.status().code() != StatusCode::kNotFound) {
      CONFIDE_LOG(kWarn, "cluster", "propose: " + seq.status().ToString());
    }
  } while (propose_recheck_);
}

Status ClusterNode::Retransmit(uint64_t seq) {
  std::lock_guard<std::mutex> lock(mu_);
  return RetransmitLocked(seq);
}

Status ClusterNode::RetransmitLocked(uint64_t seq) {
  auto it = pending_.find(seq);
  if (it == pending_.end()) return Status::NotFound("cluster: seq not pending");
  it->second.sent_ns = transport_->NowNs();
  ClusterMetrics::Get().retransmit->Increment();
  (void)transport_->Broadcast(
      MsgType::kPrePrepare,
      ByteView(EncodePrePrepare(it->second.view, seq, it->second.block_wire)));
  return Status::OK();
}

void ClusterNode::RepairOwnProposalsLocked(uint64_t now) {
  const uint64_t v = view_.load(std::memory_order_relaxed);
  bool stalled = false;
  for (const auto& [seq, p] : pending_) {
    if (p.view != v || p.block_wire.empty() ||
        now < p.sent_ns + options_.view_timeout_ms * kNsPerMs) {
      continue;
    }
    (void)RetransmitLocked(seq);
    stalled = true;
  }
  const uint32_t n = uint32_t(transport_->cluster_size());
  if (!stalled || n < 2) return;
  // Replicas may have applied on commit votes this node never received.
  // Ask a different one each beat, so one dead peer cannot stall this.
  const uint32_t peer = uint32_t((self_id() + 1 + pull_beats_++ % (n - 1)) % n);
  const uint64_t tip = system_->node()->Height();
  (void)FetchBlocksLocked(peer, tip, tip + kFetchBatchBlocks, RepairWaitMs());
}

void ClusterNode::AbandonProposalLocked(uint64_t seq) {
  auto it = pending_.find(seq);
  if (it == pending_.end() || it->second.committed) return;
  ClusterMetrics::Get().abandoned->Increment();
  if (it->second.Count(it->second.prepares) >= Quorum(transport_->cluster_size())) {
    // Prepared: the next view's leader may carry this block forward
    // (quorum intersection guarantees it sees the certificate), so the
    // transactions must not be requeued — they could commit twice. The
    // entry stays for the view-change message; TryApplyLocked reaps it
    // once superseded or applied.
    return;
  }
  auto block = chain::Block::Deserialize(it->second.block_wire);
  if (block.ok()) {
    system_->node()->RequeueVerified(std::move(block->transactions));
  }
  pending_.erase(it);
}

Status ClusterNode::CatchUp(uint32_t peer) {
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    const uint64_t before = system_->node()->Height();
    const uint64_t generation = fetch_generation_;
    // A gap fetch already in flight is waited on like our own.
    CONFIDE_RETURN_NOT_OK(
        FetchBlocksLocked(peer, before, before + kFetchBatchBlocks, kFetchWaitMs));
    const bool got_reply = cv_.wait_for(
        lock, std::chrono::milliseconds(kFetchWaitMs),
        [&] { return fetch_generation_ != generation; });
    if (!got_reply) {
      fetch_deadline_ns_ = 0;
      return Status::Unavailable("cluster: catch-up fetch from peer " +
                                 std::to_string(peer) + " timed out");
    }
    if (system_->node()->Height() == before) return Status::OK();  // caught up
  }
}

uint64_t ClusterNode::NextJitterLocked() { return SplitMix64(&jitter_state_); }

uint64_t ClusterNode::CurrentTimeoutMsLocked() {
  const uint64_t shift = std::min<uint64_t>(failed_elections_, 4);
  uint64_t t = options_.view_timeout_ms << shift;
  t = std::min(t, options_.view_timeout_max_ms);
  const uint64_t jitter_span = std::max<uint64_t>(options_.view_timeout_ms / 2, 1);
  return t + NextJitterLocked() % jitter_span;
}

void ClusterNode::MonitorTick(bool beat) {
  // A batch's window closing, or the idle beat.
  if (options_.propose_tick_ms > 0) ProposeWhileIdle(/*from_timer=*/true);
  // The rest keeps the beat's cadence whatever the traffic: a wake-up
  // neither draws fault.net.leader_crash nor repairs nor heartbeats.
  if (!beat) return;
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t now = transport_->NowNs();
  if (stalled_tip_ != UINT64_MAX && now >= stalled_since_ns_ + tick_ns_) {
    // A tick after a leader frame showed our tip committed elsewhere and
    // it still has not applied here: its commit votes were lost.
    if (system_->node()->Height() == stalled_tip_) {
      (void)FetchBlocksLocked(stalled_peer_, stalled_tip_, stalled_tip_ + 1,
                              RepairWaitMs());
    }
    stalled_tip_ = UINT64_MAX;
  }
  if (is_leader()) {
    if (!fault_leader_silent_ && options_.heartbeat_ms > 0 &&
        fault::FaultInjector::Global().ShouldFail("fault.net.leader_crash")) {
      // The leader hangs: no heartbeats and no proposals from here on.
      // Recovery = the replicas' election removing it (AdoptViewLocked).
      fault_leader_silent_ = true;
    }
    if (fault_leader_silent_) return;
    RepairOwnProposalsLocked(now);
    if (options_.heartbeat_ms == 0 ||
        now < last_heartbeat_sent_ns_ + options_.heartbeat_ms * kNsPerMs) {
      return;
    }
    last_heartbeat_sent_ns_ = now;
    ClusterMetrics::Get().hb_sent->Increment();
    (void)transport_->Broadcast(
        MsgType::kHeartbeat,
        ByteView(EncodeHeartbeat(view_.load(std::memory_order_relaxed),
                                 system_->node()->Height())));
    return;
  }
  if (options_.heartbeat_ms == 0) return;
  const uint64_t timeout_ms = CurrentTimeoutMsLocked();
  if (now <= last_leader_seen_ns_ + timeout_ms * kNsPerMs) return;
  ClusterMetrics::Get().hb_miss->Increment();
  failed_elections_ = std::min<uint64_t>(failed_elections_ + 1, 16);
  last_leader_seen_ns_ = now;  // re-arm for the election itself
  const uint64_t target =
      std::max(view_.load(std::memory_order_relaxed), view_target_) + 1;
  CONFIDE_LOG(kInfo, "cluster",
              "node " + std::to_string(self_id()) + ": leader silent past " +
                  std::to_string(timeout_ms) + "ms, starting view change to " +
                  std::to_string(target));
  StartViewChangeLocked(target);
}

}  // namespace confide::net
