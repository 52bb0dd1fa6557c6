/// \file cluster.h
/// \brief PBFT-lite block replication over a Transport: N CONFIDE nodes
/// (one process each under TcpTransport, or one SimHub under
/// SimTransport) agree on a single block sequence.
///
/// Protocol (docs/WIRE_PROTOCOL.md §Consensus plane): the leader of the
/// current view (node `view % n`) drains its pools into a block and
/// broadcasts kPrePrepare [view, seq, block]; each replica answers with a
/// broadcast kPrepare [view, seq, digest] (the pre-prepare carries the
/// leader's implicit prepare), sends kCommit once 2f+1 prepares are in,
/// and applies the block once 2f+1 commits are in — in seq order, through
/// the same deterministic Node::ApplyBlock every path uses, so converged
/// heights imply converged tip hashes and state roots. f = (n-1)/3; n = 3
/// degenerates to f = 0 (crash tolerance only), n ≥ 4 gives f ≥ 1.
///
/// Leader failover (docs/WIRE_PROTOCOL.md §View change): the leader
/// broadcasts kHeartbeat [view, height] when idle. A replica that hears
/// nothing from the current leader for a randomized timeout broadcasts
/// kViewChange [new_view, last_applied, prepared certificates]; the
/// leader of new_view collects 2f+1 of them, re-proposes the highest
/// prepared-but-uncommitted entries in kNewView, and normal operation
/// resumes in the new view. Timeouts grow exponentially across
/// consecutive failed elections so a partitioned minority cannot livelock
/// the cluster. The failure detector runs only when
/// ClusterOptions::heartbeat_ms > 0, as a Transport timer: on a real
/// thread under TCP, in virtual time under SimHub (where elections are
/// deterministic per hub seed). Tests may also drive elections
/// explicitly via StartViewChange().
///
/// Lost frames (chaos drops, real packet loss) are repaired two ways:
/// the leader re-sends its stalled pre-prepare and pulls from a peer,
/// and a replica that sees seq jump past its tip pulls the gap with
/// kFetchBlocks [from, to) → kBlocksReply. The same pull path is the
/// crash/rejoin catch-up (docs/OPERATIONS.md §Rejoin): a restarted node
/// recovers its durable prefix from the WAL, then CatchUp() fetches the
/// rest from any live peer; its stale view heals the moment it sees a
/// heartbeat or pre-prepare from the legitimate leader of a newer view.
///
/// Who proposes: with ClusterOptions::propose_tick_ms > 0, the leader
/// itself, by one rule (docs/ARCHITECTURE.md §3.1): it leads the view,
/// nothing of its own is in flight, its pool is non-empty, and the oldest
/// pooled submission has waited the batching window or the pool already
/// fills a block. Three triggers check the rule: a kSubmitTx opening a
/// batch wakes the transport timer at the end of the window
/// (Transport::WakeAt), the thread that applied the previous block
/// re-checks at once, and the timer beat re-checks as the idle safety
/// net. With 0, the caller proposes.

#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>

#include "confide/system.h"
#include "net/frame.h"
#include "net/transport.h"

namespace confide::net {

/// \brief Blocks per kFetchBlocks request (bounded so a reply of
/// block_max_bytes blocks stays well under kMaxFramePayload).
inline constexpr uint64_t kFetchBatchBlocks = 256;

/// \brief Reply wait for a kFetchBlocks pull: CatchUp's per-batch wait,
/// and how long a repair pull suppresses the next one, capped there at
/// view_timeout_ms (a lost request or reply is retried once it passes).
inline constexpr uint64_t kFetchWaitMs = 5000;

struct ClusterOptions {
  /// When > 0, the leader proposes by itself (see the file comment): a
  /// submission waits at most the batching window (3 ms, capped at this
  /// value), and this is the idle beat — the safety net and the upper
  /// bound on how long a pooled transaction waits while the leader is
  /// idle. 0: the caller proposes.
  uint64_t propose_tick_ms = 0;
  /// Leader heartbeat cadence. 0 disables the failure detector entirely
  /// (tests then drive elections explicitly via StartViewChange).
  uint64_t heartbeat_ms = 0;
  /// Base replica silence budget before starting a view change. The
  /// effective timeout doubles per consecutive failed election (capped at
  /// view_timeout_max_ms) and carries a per-node random jitter of up to
  /// half the base so replicas do not stampede. A leader re-broadcasts a
  /// pre-prepare of its own after this long.
  uint64_t view_timeout_ms = 1000;
  uint64_t view_timeout_max_ms = 16000;
  /// Seed for the election jitter PRNG (mixed with the node id).
  uint64_t election_seed = 1;
};

/// \brief One cluster member: a bootstrapped ConfideSystem plus the
/// replication state machine, wired to a Transport. Thread-safe: the
/// frame handler runs on transport reader threads (and proposes from
/// there), CatchUp on the caller's thread, the failure detector and the
/// propose beat on the transport's timer.
class ClusterNode {
 public:
  /// \brief `system` must outlive the ClusterNode and is not owned.
  ClusterNode(core::ConfideSystem* system, std::unique_ptr<Transport> transport,
              ClusterOptions options = ClusterOptions{});
  ~ClusterNode();

  /// \brief Installs the frame handler and (when heartbeat_ms or
  /// propose_tick_ms is > 0) MonitorTick as the transport's timer, then
  /// starts the transport.
  Status Start();
  void Stop();

  uint32_t self_id() const { return transport_->self_id(); }
  /// \brief Current view (monotonic; bumped by completed elections).
  uint64_t view() const { return view_.load(std::memory_order_acquire); }
  /// \brief Leader of view v is node v % n.
  uint32_t LeaderOf(uint64_t v) const {
    return uint32_t(v % transport_->cluster_size());
  }
  uint32_t leader() const { return LeaderOf(view()); }
  bool is_leader() const { return leader() == self_id(); }
  Transport* transport() { return transport_.get(); }
  core::ConfideSystem* system() { return system_; }

  uint64_t Height() const { return system_->node()->Height(); }
  /// \brief Takes mu_: blocks apply under it, and the node's tip hash is
  /// not otherwise synchronized.
  crypto::Hash256 TipHash() const {
    std::lock_guard<std::mutex> lock(mu_);
    return system_->node()->TipHash();
  }

  /// \brief 2f+1 with f = (n-1)/3.
  static size_t Quorum(size_t n) { return 2 * ((n - 1) / 3) + 1; }

  /// \brief Leader: propose one block and broadcast its pre-prepare
  /// without waiting. Returns the block's seq (= height), NotFound when
  /// the pools are empty, or Unavailable when this node is not the
  /// leader of the current view. Never runs concurrently with itself.
  Result<uint64_t> ProposeOnce();

  /// \brief Re-broadcasts the pre-prepare for a still-pending seq.
  Status Retransmit(uint64_t seq);

  /// \brief Pulls blocks from `peer` in kFetchBatchBlocks batches until a
  /// batch makes no progress (caught up). Blocking; TCP deployment only.
  Status CatchUp(uint32_t peer);

  /// \brief Broadcasts a kViewChange for `target_view` (> view()),
  /// recording this node's own vote; when this node is the leader of
  /// `target_view` and 2f+1 view-changes are already in, it completes the
  /// election immediately. Re-invoking with the same target re-broadcasts
  /// (the retry path for lost view-change frames). No-op when
  /// target_view <= view(). The failure detector calls this on leader
  /// silence; deterministic tests call it directly.
  void StartViewChange(uint64_t target_view);

  /// \brief Test hook: true while a gap-repair fetch is outstanding.
  bool fetch_in_flight_for_test() const {
    std::lock_guard<std::mutex> lock(mu_);
    return transport_->NowNs() < fetch_deadline_ns_;
  }

 private:
  struct Pending {
    uint64_t view = 0;              ///< view the block was (re-)proposed in
    Bytes block_wire;               ///< empty until the pre-prepare arrives
    crypto::Hash256 digest{};       ///< sha256 of block_wire
    /// Voter node id (self included) → the digest it voted for. Votes may
    /// precede the pre-prepare; only those for `digest` count.
    std::map<uint32_t, crypto::Hash256> prepares;
    std::map<uint32_t, crypto::Hash256> commits;
    bool commit_sent = false;
    bool committed = false;
    uint64_t sent_ns = 0;  ///< transport clock of the last (re-)broadcast

    /// Votes for this entry's block (none while the block is unknown).
    size_t Count(const std::map<uint32_t, crypto::Hash256>& votes) const {
      if (block_wire.empty()) return 0;
      return size_t(std::count_if(votes.begin(), votes.end(),
                                  [&](const auto& vote) { return vote.second == digest; }));
    }
  };

  /// \brief One peer's kViewChange: its applied height plus the prepared
  /// certificates (seq → highest view + block) it carried.
  struct ViewChangeMsg {
    uint64_t last_applied = 0;
    std::map<uint64_t, std::pair<uint64_t, Bytes>> prepared;  // seq → (view, wire)
  };

  std::optional<OwnedFrame> HandleFrame(uint32_t from, MsgType type, ByteView body);

  std::optional<OwnedFrame> OnSubmitTx(ByteView body);
  std::optional<OwnedFrame> OnQueryReceipt(ByteView body);
  std::optional<OwnedFrame> OnQueryStatus();
  std::optional<OwnedFrame> OnQueryPkInfo();
  void OnPrePrepare(uint32_t from, ByteView body);
  void OnVote(uint32_t from, MsgType type, ByteView body);
  std::optional<OwnedFrame> OnFetchBlocks(ByteView body);
  void OnBlocksReply(ByteView body);
  void OnHeartbeat(uint32_t from, ByteView body);
  void OnViewChange(uint32_t from, ByteView body);
  void OnNewView(uint32_t from, ByteView body);

  /// \brief Advances one pending seq through the vote rounds: prepare
  /// quorum → broadcast commit; commit quorum → committed + apply sweep.
  void MaybeAdvanceLocked(uint64_t seq);
  /// \brief Applies committed pending blocks in seq order from the tip.
  void TryApplyLocked();
  /// \brief The one place a replicated block enters the node: decodes
  /// `wire` and runs Node::ApplyBlock on it, logging any failure. An
  /// undecodable wire is reported as Corruption.
  Status ApplyWireLocked(uint64_t seq, ByteView wire);
  /// \brief Gap repair when a leader's frame shows seq past the tip: pulls
  /// [Height(), seq) from `peer` at once when seq > tip + 1 or the tip
  /// entry holds no block. Otherwise the tip's own commit quorum may just
  /// be in flight, so the tip is marked stalled and MonitorTick pulls it
  /// a tick later if it still has not moved (at once without a timer).
  void MaybeFetchGapLocked(uint64_t seq, uint32_t peer);
  /// \brief The one kFetchBlocks sender: pulls [from, to) from `peer`
  /// unless a pull is outstanding. A pull stays outstanding until its
  /// reply lands or `wait_ms` passes on the transport clock, so a lost
  /// request or reply delays repair instead of stopping it; a failed send
  /// releases it at once and is returned.
  Status FetchBlocksLocked(uint32_t peer, uint64_t from, uint64_t to, uint64_t wait_ms);
  /// \brief How long a repair pull (gap, stalled tip, leader pull, new
  /// leader behind) stays outstanding: kFetchWaitMs, but no longer than
  /// view_timeout_ms, the cadence the leader retransmits at.
  uint64_t RepairWaitMs() const {
    return std::min(kFetchWaitMs, options_.view_timeout_ms);
  }
  /// \brief Broadcasts this node's kViewChange for target_view and, when
  /// it leads target_view with quorum, completes the election.
  void StartViewChangeLocked(uint64_t target_view);
  /// \brief New leader: with 2f+1 kViewChange for target_view collected,
  /// broadcast kNewView re-proposing the carried prepared certificates
  /// and adopt the view.
  void MaybeCompleteElectionLocked(uint64_t target_view);
  /// \brief Switches to view v: resets election state, clears injected
  /// fault flags (their recovery signal) and, when this node led the old
  /// view but not v, abandons its own uncommitted proposals.
  void AdoptViewLocked(uint64_t v);
  /// \brief Installs a (re-)proposed block into pending_[seq] under
  /// `view`, replacing any stale lower-view entry, and broadcasts this
  /// node's kPrepare. `proposer` contributes the implicit prepare.
  void InstallProposalLocked(uint64_t view, uint64_t seq, ByteView wire,
                             uint32_t proposer);
  /// \brief Drops an uncommitted proposal this node abandoned (deposed)
  /// and requeues its transactions unless a prepare
  /// quorum was already observed (then the entry may commit in the next
  /// view and must not be double-submitted).
  void AbandonProposalLocked(uint64_t seq);
  /// \brief Re-broadcasts each own pre-prepare that waited view_timeout_ms
  /// and then pulls [Height(), +kFetchBatchBlocks) from the next peer.
  void RepairOwnProposalsLocked(uint64_t now);
  Status RetransmitLocked(uint64_t seq);
  /// \brief Counts an accepted kSubmitTx of `bytes` into the open batch;
  /// the first one opens it and wakes the timer when the window closes,
  /// and one that fills a block wakes it at once.
  void NoteSubmitted(size_t bytes);
  /// \brief The proposing rule: proposes while this node leads, has no
  /// block of its own in flight, has transactions pooled, and the batch
  /// is due (its oldest submission waited the window, or it fills a
  /// block; an untracked pool is due at once). Returns at once if another
  /// thread holds the turn; that thread re-checks afterwards.
  /// `from_timer`: called by MonitorTick (a wake-up or the beat), else
  /// by the thread that applied a block.
  void ProposeWhileIdle(bool from_timer);
  /// \brief One step on the transport's clock. Every step re-checks the
  /// proposing rule. On the beat only, a tip stalled for a tick is pulled,
  /// the leader heartbeats every heartbeat_ms and repairs its stalled
  /// proposals, and a replica that has not heard the leader within the
  /// election timeout starts a view change (heartbeat_ms > 0).
  void MonitorTick(bool beat);
  uint64_t NextJitterLocked();
  /// \brief Current election timeout: base * 2^consecutive_failed capped
  /// at view_timeout_max_ms, plus jitter.
  uint64_t CurrentTimeoutMsLocked();

  core::ConfideSystem* system_;
  std::unique_ptr<Transport> transport_;
  ClusterOptions options_;

  std::recursive_mutex propose_mu_;  ///< one proposal at a time; before mu_
  /// A block applied or a wake-up fired: whoever holds the turn re-checks
  /// the proposing rule.
  std::atomic<bool> propose_recheck_{false};
  uint64_t pull_beats_ = 0;  ///< leader pulls so far (picks the peer); mu_
  uint64_t tick_ns_ = 0;     ///< MonitorTick period (0 = no timer); set by Start
  uint64_t window_ns_ = 0;   ///< batching window; set by Start

  // The open batch (propose_tick_ms > 0): submissions since the last
  // proposal began. Guarded by batch_mu_, which is never held across a
  // proposal and is taken before the node's pool lock.
  std::mutex batch_mu_;
  uint64_t batch_open_ns_ = 0;  ///< transport clock of its first submission; 0 = none
  uint64_t batch_bytes_ = 0;    ///< wire bytes submitted into it

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::map<uint64_t, Pending> pending_;
  uint64_t fetch_deadline_ns_ = 0;  ///< transport clock; pull outstanding until then
  uint64_t stalled_tip_ = UINT64_MAX;  ///< tip a leader frame showed stalled; none = max
  uint64_t stalled_since_ns_ = 0;      ///< transport clock of that frame
  uint32_t stalled_peer_ = 0;          ///< the leader that sent it
  uint64_t fetch_generation_ = 0;  ///< bumped when a kBlocksReply lands

  // View-change state (all guarded by mu_ except the published view_).
  std::atomic<uint64_t> view_{0};
  uint64_t view_target_ = 0;  ///< > view_ while an election is in progress
  uint64_t failed_elections_ = 0;  ///< consecutive; drives timeout growth
  std::map<uint64_t, std::map<uint32_t, ViewChangeMsg>> view_changes_;
  uint64_t new_view_sent_ = 0;  ///< highest view this node broadcast kNewView for
  uint64_t last_leader_seen_ns_ = 0;     ///< transport clock
  uint64_t last_heartbeat_sent_ns_ = 0;  ///< transport clock
  uint64_t jitter_state_ = 0;
  // Injected-fault flags awaiting their recovery signal (view adoption).
  bool fault_viewchange_dropped_ = false;
  bool fault_election_crashed_ = false;
  bool fault_stale_newview_sent_ = false;
  bool fault_leader_silent_ = false;  ///< fault.net.leader_crash drawn
};

}  // namespace confide::net
