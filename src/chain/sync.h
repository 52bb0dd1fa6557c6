/// \file sync.h
/// \brief Merkle-verified peer catch-up for crashed and lagging replicas.
///
/// A replica that was down for N blocks (or lost its disk entirely)
/// rejoins in three phases:
///
///   1. **Discover** — query every known SyncProvider for its latest
///      stable checkpoint and verify the 2f+1 certificate against the
///      consortium ValidatorSet. Forged or stale certificates are
///      rejected and the provider is skipped (re-selection).
///   2. **Transfer** — stream the checkpoint's fixed-size chunks, verify
///      each against the manifest's chunk hash and its Merkle path to the
///      signed chunks_root, and install the whole snapshot as ONE atomic
///      WriteBatch (a crash mid-sync leaves the local store untouched;
///      re-sync simply starts over). Confidential entries move as the
///      sealed ciphertext they are stored as — the sync path never sees
///      plaintext; the joining node's CS enclave re-provisions the
///      consortium keys through the existing RecoverConfidentialEngine /
///      KM flow (the `reprovision` hook) before any block replay, which
///      executes confidential transactions.
///   3. **Replay** — apply blocks from the checkpoint height to the
///      provider tip through the normal ApplyBlock path, checking after
///      every block that the locally recomputed tip hash equals the
///      provider's block hash (execution divergence fails loudly).
///
/// Chunk and block fetches ride a shared common::RetryPolicy (exponential
/// backoff, kSyncRetry); a provider that stops responding mid-stream is
/// failed over to the next one. Providers are called in process: sync
/// models no link time, and a provider is reachable until it dies. All
/// steps carry `fault.chain.sync.*` injection sites and `chain.sync.*`
/// metrics (docs/METRICS.md).

#pragma once

#include <atomic>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "chain/checkpoint.h"
#include "chain/node.h"
#include "common/retry.h"

namespace confide::chain {

/// \brief Retry/backoff for chunk and block fetches (and provider
/// failover); widened to one attempt per registered provider.
inline constexpr common::RetryOptions kSyncRetry{};

/// \brief Knobs for one StateSyncClient.
struct SyncOptions {
  /// Clock charged with the retry backoff; nullptr = real sleep.
  SimClock* clock = nullptr;
  /// Invoked once at sync start, before chunk transfer and block replay:
  /// the hook that re-provisions the CS enclave's consortium keys when
  /// the engine is dead (replay executes confidential transactions and
  /// synced sealed state must be readable before the node serves reads).
  std::function<Status()> reprovision;
};

/// \brief What one SyncToTip() run did (also mirrored in chain.sync.*).
struct SyncStats {
  uint64_t checkpoint_height = 0;  ///< 0 = no snapshot used (replay only)
  bool snapshot_installed = false;
  size_t chunks_fetched = 0;
  size_t chunks_verified = 0;
  size_t chunks_rejected = 0;   ///< failed hash/Merkle verification
  size_t blocks_replayed = 0;
  size_t provider_failovers = 0;
  size_t certificates_rejected = 0;  ///< forged or stale
  /// Certified checkpoints conflicting with a locally witnessed one at
  /// the same height (equivocating provider — fork evidence).
  size_t forks_detected = 0;
  uint64_t bytes_transferred = 0;
};

/// \brief Serving side of state sync: wraps a live peer's node +
/// checkpoint manager behind the `fault.chain.sync.*` injection sites.
/// Thread-compatible.
class SyncProvider {
 public:
  SyncProvider(std::string name, Node* node);

  const std::string& name() const { return name_; }

  /// \brief Latest certified checkpoint. NotFound when the peer has never
  /// checkpointed. Under `fault.chain.sync.forged_certificate` the served
  /// certificate is tampered; under `fault.chain.sync.stale_certificate`
  /// the oldest retained checkpoint is served as if it were the latest.
  Result<std::pair<CheckpointManifest, CheckpointCertificate>> LatestCheckpoint()
      const;

  /// \brief Chunk `index` of the checkpoint at `height`. Injection sites:
  /// `chunk_drop` (lost in transit), `chunk_corrupt` (bit flip),
  /// `provider_dead` (this and every later request fails).
  Result<Bytes> FetchChunk(uint64_t height, size_t index) const;

  /// \brief Serialized block at `height` (replay source).
  Result<Bytes> FetchBlock(uint64_t height) const;

  /// \brief The peer's durable chain height.
  Result<uint64_t> TipHeight() const;

  /// \brief True once the provider died (injected); all requests fail.
  bool dead() const { return dead_.load(std::memory_order_relaxed); }

  /// \brief Kills this provider deterministically (tests): every later
  /// request fails exactly as after an injected `provider_dead`.
  void Kill() { dead_.store(true, std::memory_order_relaxed); }

 private:
  /// \brief Dead-flag + injected-death check shared by every request.
  Status CheckReachable() const;

  std::string name_;
  Node* node_;
  mutable std::atomic<bool> dead_{false};
  /// Pinned store view the current transfer is served from (one per
  /// checkpoint height): chunk reads bypass the store lock entirely and
  /// survive a concurrent retention prune.
  mutable std::mutex serve_mutex_;
  mutable uint64_t serving_height_ = 0;
  mutable std::shared_ptr<storage::KvSnapshot> serving_view_;
};

/// \brief Client side: drives a rebooted or lagging node back to the live
/// tip from a set of providers.
class StateSyncClient {
 public:
  /// \brief `validators` verifies checkpoint certificates; must outlive
  /// the client.
  StateSyncClient(Node* node, const ValidatorSet* validators,
                  SyncOptions options);

  /// \brief Providers are tried in registration order; a failed provider
  /// rotates to the next.
  void AddProvider(SyncProvider* provider);

  /// \brief Runs discover → transfer → replay until the node matches the
  /// best provider's tip. Returns what was done; any verification failure
  /// that cannot be retried away fails loudly (never a wrong-state node).
  Result<SyncStats> SyncToTip();

 private:
  struct CheckpointChoice {
    CheckpointManifest manifest;
    CheckpointCertificate certificate;
    size_t provider_index = 0;
    bool found = false;
  };

  /// \brief Phase 1: query + verify certificates; picks the highest
  /// certified checkpoint strictly above the node's current height.
  Result<CheckpointChoice> DiscoverCheckpoint(SyncStats* stats);

  /// \brief Phase 2: fetch, verify and atomically install the snapshot.
  Status TransferSnapshot(const CheckpointChoice& choice, SyncStats* stats);

  /// \brief Phase 3: replay blocks [node height, provider tip).
  Status ReplayBlocks(SyncStats* stats);

  /// \brief Fetches one chunk with retry + provider failover.
  Result<Bytes> FetchVerifiedChunk(const CheckpointManifest& manifest,
                                   const crypto::MerkleTree& chunk_tree,
                                   size_t index, SyncStats* stats);

  /// \brief Advances to the next provider after a fetch failure.
  void RotateProvider(SyncStats* stats);

  /// \brief Retry options widened so every registered provider gets at
  /// least one attempt (rotation happens after a failure, so reaching all
  /// providers needs >= providers_.size() attempts).
  common::RetryOptions RotationRetryOptions() const;

  /// \brief On a successful sync, reports `fault.chain.sync.*.recovered`
  /// for every site that fired since the last acknowledgment (surviving an
  /// injected drop/corruption/death/forgery IS the recovery).
  void AcknowledgeRecoveredFaults();

  Node* node_;
  const ValidatorSet* validators_;
  SyncOptions options_;
  std::vector<SyncProvider*> providers_;
  size_t current_provider_ = 0;

  /// Fired-count watermark per fault site already reported as recovered,
  /// so repeated syncs do not over-report recoveries.
  std::map<std::string, uint64_t> acked_fires_;
};

}  // namespace confide::chain
