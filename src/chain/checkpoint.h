/// \file checkpoint.h
/// \brief Stable checkpoints: periodic, certified state snapshots.
///
/// PBFT requires stable checkpoints for log truncation and view-change
/// safety, and a TEE chain additionally needs integrity-verified state
/// transfer so a crashed or lagging replica can rejoin without replaying
/// the whole chain (cf. Ekiden's checkpoint-based persistence and the
/// Fabric+TEE line of work). Every `interval` blocks a node snapshots its
/// entire KV store — contract state (confidential entries stay sealed
/// ciphertext; the snapshot never sees plaintext), receipts, the tx→block
/// index and block bodies — into fixed-size chunks, hashes each chunk,
/// commits to the chunk set with a Merkle root, and wraps the manifest in
/// a simulated 2f+1-signed stable-checkpoint certificate. A joining
/// replica verifies the certificate against the consortium validator set,
/// verifies every chunk against the manifest, and replays the remaining
/// blocks (see sync.h).
///
/// Checkpoint blobs live in the node's own KV store under the `ckpt/`
/// prefix, which the snapshot iteration itself skips — two correct
/// replicas at the same height therefore produce byte-identical chunk
/// sets, so a client can fetch different chunks of one checkpoint from
/// different providers.

#pragma once

#include <functional>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "crypto/merkle.h"
#include "crypto/secp256k1.h"
#include "storage/kv_store.h"

namespace confide::chain {

/// \brief Checkpointing knobs (NodeOptions::checkpoint).
struct CheckpointOptions {
  /// Blocks between checkpoints; 0 disables checkpointing.
  uint64_t interval = 0;
  /// Target payload bytes per snapshot chunk (the unit of transfer,
  /// verification and re-fetch during state sync).
  size_t chunk_bytes = 2048;
  /// Checkpoints retained; older ones are deleted in the same batch that
  /// writes the new one (PBFT log truncation analogue).
  size_t keep = 2;
};

/// \brief Self-describing snapshot summary: what the certificate signs
/// and what every chunk is verified against.
struct CheckpointManifest {
  /// Snapshot covers blocks [0, height): taken after block height-1
  /// committed durably.
  uint64_t height = 0;
  crypto::Hash256 block_hash{};  ///< hash of block height-1
  crypto::Hash256 state_root{};  ///< chained state root after block height-1
  uint64_t total_entries = 0;    ///< KV entries across all chunks
  uint64_t total_bytes = 0;      ///< sum of chunk payload sizes
  /// Merkle root over the chunk payload hashes (leaf i = chunk_hashes[i]
  /// as a 32-byte leaf string).
  crypto::Hash256 chunks_root{};
  /// SHA-256 of each chunk payload, in chunk order.
  std::vector<crypto::Hash256> chunk_hashes;

  size_t chunk_count() const { return chunk_hashes.size(); }

  /// \brief Digest the certificate signs (hash of the serialized form).
  crypto::Hash256 Digest() const;

  Bytes Serialize() const;
  static Result<CheckpointManifest> Deserialize(ByteView wire);
};

/// \brief Simulated 2f+1 stable-checkpoint certificate: votes are real
/// ECDSA signatures over the manifest digest, indexed into the consortium
/// validator set. (A deployment would gossip CHECKPOINT messages; here
/// the provider-side manager signs for the quorum directly.)
struct CheckpointCertificate {
  crypto::Hash256 manifest_digest{};
  /// (validator index, signature over manifest_digest) pairs.
  std::vector<std::pair<uint32_t, crypto::Signature>> votes;

  Bytes Serialize() const;
  static Result<CheckpointCertificate> Deserialize(ByteView wire);
};

/// \brief The consortium validator set used to certify and verify
/// checkpoints. Simulated: one object holds every replica's key pair, so
/// tests can mint certificates; verification only ever touches the
/// public halves.
class ValidatorSet {
 public:
  /// \brief Generates `n` validator key pairs deterministically from
  /// `seed` (n = 3f+1 for the usual PBFT sizing).
  static ValidatorSet Generate(size_t n, uint64_t seed);

  size_t size() const { return keys_.size(); }

  /// \brief 2f+1 for n = 3f+1 replicas (rounded to a majority for other n).
  size_t QuorumSize() const;

  /// \brief Signs the manifest digest with the first QuorumSize()
  /// validators (the simulated quorum).
  Result<CheckpointCertificate> Certify(const CheckpointManifest& manifest) const;

  /// \brief Accepts iff the certificate carries >= QuorumSize() valid
  /// signatures from distinct known validators over the digest of
  /// `manifest`. A tampered manifest, forged signature, duplicate voter
  /// or sub-quorum vote count all reject.
  Status Verify(const CheckpointManifest& manifest,
                const CheckpointCertificate& certificate) const;

 private:
  std::vector<crypto::KeyPair> keys_;
};

/// \brief Per-node checkpoint producer + serving store.
///
/// Thread-compatible with the node's block lifecycle: MaybeCheckpoint is
/// called from whichever thread finalizes commits (never concurrently),
/// and the read accessors take the manager mutex.
class CheckpointManager {
 public:
  /// \brief `validators` must outlive the manager; required to certify.
  CheckpointManager(CheckpointOptions options,
                    std::shared_ptr<storage::KvStore> kv,
                    const ValidatorSet* validators);

  /// \brief Called after block height-1 finalized (durable chain height
  /// == `height`). Writes a checkpoint when the interval divides
  /// `height`; otherwise a no-op.
  Status MaybeCheckpoint(uint64_t height, const crypto::Hash256& block_hash,
                         const crypto::Hash256& state_root);

  /// \brief Unconditionally snapshots the store at chain height `height`.
  Status WriteCheckpoint(uint64_t height, const crypto::Hash256& block_hash,
                         const crypto::Hash256& state_root);

  /// \brief Rebuilds the latest-checkpoint cursor from the store after a
  /// restart (checkpoints are durable; the cursor is not).
  Status RecoverLatest();

  /// \brief Stores a checkpoint received (and already verified) from a
  /// peer, so a freshly synced node can immediately serve it onward.
  /// `chunks` must be the raw payloads in manifest order. A checkpoint
  /// at or below the current latest height is silently skipped.
  Status Adopt(const CheckpointManifest& manifest,
               const CheckpointCertificate& certificate,
               const std::vector<Bytes>& chunks);

  /// \brief Height of the newest durable checkpoint (0 = none).
  uint64_t LatestHeight() const;

  /// \brief Heights of every retained checkpoint, oldest first.
  std::vector<uint64_t> RetainedHeights() const;

  Result<CheckpointManifest> ManifestAt(uint64_t height) const;
  Result<CheckpointCertificate> CertificateAt(uint64_t height) const;

  /// \brief Raw payload of chunk `index` of the checkpoint at `height`.
  Result<Bytes> ChunkAt(uint64_t height, size_t index) const;

  /// \brief Pins a read view of the store for serving an entire snapshot
  /// transfer: chunk fetches against it run lock-free, and a retention
  /// prune mid-transfer cannot yank chunks the client has yet to fetch.
  std::shared_ptr<storage::KvSnapshot> PinView() const;

  /// \brief ChunkAt against a pinned view.
  static Result<Bytes> ChunkAt(const storage::KvSnapshot& view,
                               uint64_t height, size_t index);

  const CheckpointOptions& options() const { return options_; }
  const ValidatorSet* validators() const { return validators_; }

  /// \brief Fork-alarm callback: (height, witnessed state root, conflicting
  /// state root). Fired when a *certified* checkpoint conflicts with one
  /// this node previously witnessed at the same height — two 2f+1
  /// certificates over divergent state, i.e. consortium equivocation.
  using ForkAlarm = std::function<void(uint64_t, const crypto::Hash256&,
                                       const crypto::Hash256&)>;
  void SetForkAlarm(ForkAlarm alarm);

  /// \brief Records `height -> {block_hash, state_root}` in the local
  /// witnessed-roots log (`ckpt/w/`, excluded from snapshots — fork
  /// evidence never transfers). A later certified checkpoint at the same
  /// height with a different hash/root is a fail-loud fork: the
  /// `chain.fork.detected.count` metric increments, the fork alarm fires,
  /// and PermissionDenied("...fork...") is returned. Re-witnessing an
  /// identical checkpoint is a no-op.
  Status WitnessCheckpoint(uint64_t height, const crypto::Hash256& block_hash,
                           const crypto::Hash256& state_root);

  /// \brief Parses a chunk payload back into KV entries.
  static Result<std::vector<std::pair<std::string, Bytes>>> ParseChunk(
      ByteView payload);

 private:
  static std::string ManifestKey(uint64_t height);
  static std::string CertificateKey(uint64_t height);
  static std::string ChunkKey(uint64_t height, size_t index);
  static std::string WitnessKey(uint64_t height);

  /// \brief Adds `height` to the retention set, queueing pruned
  /// checkpoint blobs for deletion in `batch`. Returns the new retained
  /// list to install once the batch commits. Requires `mutex_` held.
  std::vector<uint64_t> RetainLocked(storage::WriteBatch* batch,
                                     uint64_t height);

  CheckpointOptions options_;
  std::shared_ptr<storage::KvStore> kv_;
  const ValidatorSet* validators_;

  mutable std::mutex mutex_;
  uint64_t latest_height_ = 0;
  std::vector<uint64_t> retained_;  ///< oldest first
  ForkAlarm fork_alarm_;
};

}  // namespace confide::chain
