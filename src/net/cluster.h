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
/// ClusterOptions::heartbeat_ms > 0; deterministic tests drive elections
/// explicitly via StartViewChange().
///
/// Lost frames (chaos drops, real packet loss) are repaired two ways:
/// the leader retransmits an unacknowledged pre-prepare, and a replica
/// that sees seq jump past its tip pulls the gap with
/// kFetchBlocks [from, to) → kBlocksReply. The same pull path is the
/// crash/rejoin catch-up (docs/OPERATIONS.md §Rejoin): a restarted node
/// recovers its durable prefix from the WAL, then CatchUp() fetches the
/// rest from any live peer; its stale view heals the moment it sees a
/// heartbeat or pre-prepare from the legitimate leader of a newer view.

#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <thread>

#include "confide/system.h"
#include "net/frame.h"
#include "net/transport.h"

namespace confide::net {

/// \brief Blocks per kFetchBlocks request (bounded so a reply of
/// block_max_bytes blocks stays well under kMaxFramePayload).
inline constexpr uint64_t kFetchBatchBlocks = 256;

struct ClusterOptions {
  /// Per-attempt quorum wait in LeaderTick before retransmitting.
  uint64_t propose_wait_ms = 1000;
  /// Retransmit attempts before LeaderTick gives up.
  uint32_t propose_retries = 5;
  /// CatchUp per-batch reply wait.
  uint64_t fetch_wait_ms = 5000;
  /// Leader heartbeat cadence. 0 disables the failure detector entirely
  /// (simulated tests drive elections explicitly via StartViewChange).
  uint64_t heartbeat_ms = 0;
  /// Base replica silence budget before starting a view change. The
  /// effective timeout doubles per consecutive failed election (capped at
  /// view_timeout_max_ms) and carries a per-node random jitter of up to
  /// half the base so replicas do not stampede.
  uint64_t view_timeout_ms = 1000;
  uint64_t view_timeout_max_ms = 16000;
  /// Seed for the election jitter PRNG (mixed with the node id).
  uint64_t election_seed = 1;
};

/// \brief One cluster member: a bootstrapped ConfideSystem plus the
/// replication state machine, wired to a Transport. Thread-safe: the
/// frame handler runs on transport reader threads, LeaderTick/CatchUp on
/// the caller's thread, the failure detector on its own thread.
class ClusterNode {
 public:
  /// \brief `system` must outlive the ClusterNode and is not owned.
  ClusterNode(core::ConfideSystem* system, std::unique_ptr<Transport> transport,
              ClusterOptions options = ClusterOptions{});
  ~ClusterNode();

  /// \brief Installs the frame handler, starts the transport and (when
  /// heartbeat_ms > 0) the heartbeat/election monitor thread.
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
  crypto::Hash256 TipHash() const { return system_->node()->TipHash(); }

  /// \brief 2f+1 with f = (n-1)/3.
  static size_t Quorum(size_t n) { return 2 * ((n - 1) / 3) + 1; }

  /// \brief Leader: pre-verify the pools and replicate one block end to
  /// end (propose, quorum, apply — retransmitting on timeout). Returns
  /// the number of transactions committed; 0 when the pools are empty.
  /// Aborts (requeueing the block's transactions) when this node loses
  /// the leadership view mid-round. Blocks until the cluster applies the
  /// block, so it is for the TCP deployment; simulated tests drive
  /// ProposeOnce + SimHub::DeliverAll.
  Result<size_t> LeaderTick();

  /// \brief Leader: propose one block and broadcast its pre-prepare
  /// without waiting. Returns the block's seq (= height), NotFound when
  /// the pools are empty, or Unavailable when this node is not the
  /// leader of the current view.
  Result<uint64_t> ProposeOnce();

  /// \brief Re-broadcasts the pre-prepare for a still-pending seq.
  Status Retransmit(uint64_t seq);

  /// \brief Blocks until this node has applied `seq` (Height() > seq).
  Status WaitApplied(uint64_t seq, uint64_t timeout_ms);

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
    return fetch_in_flight_;
  }

 private:
  struct Pending {
    uint64_t view = 0;              ///< view the block was (re-)proposed in
    Bytes block_wire;               ///< empty until the pre-prepare arrives
    crypto::Hash256 digest{};       ///< sha256 of block_wire
    std::set<uint32_t> prepares;    ///< voter node ids (self included)
    std::set<uint32_t> commits;
    bool commit_sent = false;
    bool committed = false;
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
  /// \brief Issues one gap-repair kFetchBlocks [Height(), seq) to `peer`
  /// when seq is past the tip, the tip block is missing, and no fetch is
  /// already outstanding. Unlocks `lock` around the send.
  void MaybeFetchGapLocked(std::unique_lock<std::mutex>& lock, uint64_t seq,
                           uint32_t peer);
  /// \brief Broadcasts this node's kViewChange for target_view and, when
  /// it leads target_view with quorum, completes the election.
  void StartViewChangeLocked(uint64_t target_view);
  /// \brief New leader: with 2f+1 kViewChange for target_view collected,
  /// broadcast kNewView re-proposing the carried prepared certificates
  /// and adopt the view.
  void MaybeCompleteElectionLocked(uint64_t target_view);
  /// \brief Switches to view v: resets election state, clears injected
  /// fault flags (their recovery signal), wakes waiters.
  void AdoptViewLocked(uint64_t v);
  /// \brief Installs a (re-)proposed block into pending_[seq] under
  /// `view`, replacing any stale lower-view entry, and broadcasts this
  /// node's kPrepare. `proposer` contributes the implicit prepare.
  void InstallProposalLocked(uint64_t view, uint64_t seq, ByteView wire,
                             uint32_t proposer);
  /// \brief Drops an uncommitted proposal this node abandoned (deposed or
  /// out of retries) and requeues its transactions unless a prepare
  /// quorum was already observed (then the entry may commit in the next
  /// view and must not be double-submitted).
  void AbandonProposalLocked(uint64_t seq);
  /// \brief Failure-detector / heartbeat loop (runs when heartbeat_ms > 0).
  void RunMonitor();
  uint64_t NextJitterLocked();
  /// \brief Current election timeout: base * 2^consecutive_failed capped
  /// at view_timeout_max_ms, plus jitter.
  uint64_t CurrentTimeoutMsLocked();

  core::ConfideSystem* system_;
  std::unique_ptr<Transport> transport_;
  ClusterOptions options_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::map<uint64_t, Pending> pending_;
  bool fetch_in_flight_ = false;  ///< one gap-repair pull at a time
  uint64_t fetch_generation_ = 0;  ///< bumped when a kBlocksReply lands
  size_t last_proposed_tx_count_ = 0;

  // View-change state (all guarded by mu_ except the published view_).
  std::atomic<uint64_t> view_{0};
  uint64_t view_target_ = 0;  ///< > view_ while an election is in progress
  uint64_t failed_elections_ = 0;  ///< consecutive; drives timeout growth
  std::map<uint64_t, std::map<uint32_t, ViewChangeMsg>> view_changes_;
  uint64_t new_view_sent_ = 0;  ///< highest view this node broadcast kNewView for
  std::chrono::steady_clock::time_point last_leader_seen_{};
  std::chrono::steady_clock::time_point last_heartbeat_sent_{};
  uint64_t jitter_state_ = 0;
  // Injected-fault flags awaiting their recovery signal (view adoption).
  bool fault_viewchange_dropped_ = false;
  bool fault_election_crashed_ = false;
  bool fault_stale_newview_sent_ = false;

  std::thread monitor_;
  std::atomic<bool> monitor_stop_{false};
  bool started_ = false;
};

}  // namespace confide::net
