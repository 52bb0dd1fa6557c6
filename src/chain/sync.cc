#include "chain/sync.h"

#include <algorithm>
#include <utility>

#include "common/fault.h"
#include "common/metrics.h"

namespace confide::chain {

namespace {

constexpr const char* kFaultProviderDead = "fault.chain.sync.provider_dead";
constexpr const char* kFaultChunkDrop = "fault.chain.sync.chunk_drop";
constexpr const char* kFaultChunkCorrupt = "fault.chain.sync.chunk_corrupt";
constexpr const char* kFaultForgedCert = "fault.chain.sync.forged_certificate";
constexpr const char* kFaultStaleCert = "fault.chain.sync.stale_certificate";
constexpr const char* kFaultClientCrash = "fault.chain.sync.crash";
/// A colluding-quorum fork: the provider serves a checkpoint whose state
/// root was tampered *and re-certified with real validator keys*, so the
/// certificate verifies — only the client's witnessed-roots log can catch
/// the conflict with the checkpoint it saw before.
constexpr const char* kFaultEquivocatingCert =
    "fault.chain.sync.equivocating_certificate";

struct SyncMetrics {
  metrics::Counter* runs = metrics::GetCounter("chain.sync.runs.count");
  metrics::Counter* success = metrics::GetCounter("chain.sync.success.count");
  metrics::Counter* failure = metrics::GetCounter("chain.sync.failure.count");
  metrics::Counter* chunks_fetched =
      metrics::GetCounter("chain.sync.chunks.fetched");
  metrics::Counter* chunks_verified =
      metrics::GetCounter("chain.sync.chunks.verified");
  metrics::Counter* chunks_rejected =
      metrics::GetCounter("chain.sync.chunks.rejected");
  metrics::Counter* blocks_replayed =
      metrics::GetCounter("chain.sync.blocks.replayed");
  metrics::Counter* bytes = metrics::GetCounter("chain.sync.bytes");
  metrics::Counter* failovers =
      metrics::GetCounter("chain.sync.provider_failover.count");
  metrics::Counter* certs_rejected =
      metrics::GetCounter("chain.sync.certificate.rejected");
  metrics::Counter* fork_offers_rejected =
      metrics::GetCounter("chain.fork.rejected_offer.count");
  metrics::Histogram* latency = metrics::GetHistogram("chain.sync.latency_ns");

  static const SyncMetrics& Get() {
    static const SyncMetrics instruments;
    return instruments;
  }
};

}  // namespace

// ---------------------------------------------------------------------------
// SyncProvider
// ---------------------------------------------------------------------------

SyncProvider::SyncProvider(std::string name, Node* node)
    : name_(std::move(name)), node_(node) {}

Status SyncProvider::CheckReachable() const {
  if (dead_.load(std::memory_order_relaxed)) {
    return Status::Unavailable("sync: provider " + name_ + " is dead");
  }
  if (fault::FaultInjector::Global().ShouldFail(kFaultProviderDead)) {
    // Permanent death mid-stream: this and every later request fails, so
    // the client has to fail over to another provider.
    dead_.store(true, std::memory_order_relaxed);
    return Status::Unavailable("sync: provider " + name_ +
                               " died (injected)");
  }
  return Status::OK();
}

Result<std::pair<CheckpointManifest, CheckpointCertificate>>
SyncProvider::LatestCheckpoint() const {
  CONFIDE_RETURN_NOT_OK(CheckReachable());
  CheckpointManager* manager = node_->checkpoints();
  if (manager == nullptr || manager->LatestHeight() == 0) {
    return Status::NotFound("sync: provider " + name_ + " has no checkpoint");
  }
  uint64_t height = manager->LatestHeight();
  if (fault::FaultInjector::Global().ShouldFail(kFaultStaleCert)) {
    // A stale provider advertises its oldest retained checkpoint as the
    // latest one; the client must notice it does not advance its chain.
    std::vector<uint64_t> retained = manager->RetainedHeights();
    if (!retained.empty()) height = retained.front();
  }
  CONFIDE_ASSIGN_OR_RETURN(CheckpointManifest manifest,
                           manager->ManifestAt(height));
  CONFIDE_ASSIGN_OR_RETURN(CheckpointCertificate certificate,
                           manager->CertificateAt(height));
  if (fault::FaultInjector::Global().ShouldFail(kFaultForgedCert)) {
    // Forge the certificate: flip one bit of the first vote's signature
    // (or of the claimed digest when no votes survived serialization).
    if (!certificate.votes.empty()) {
      certificate.votes.front().second[0] ^= 0x01;
    } else {
      certificate.manifest_digest[0] ^= 0x01;
    }
  }
  if (fault::FaultInjector::Global().ShouldFail(kFaultEquivocatingCert)) {
    // Equivocation: serve a *different* state root at the same height,
    // re-certified with the real validator keys (a colluding quorum).
    // Certificate verification cannot reject this; only the client's
    // witnessed-roots log exposes the conflict.
    manifest.state_root[0] ^= 0x01;
    if (const ValidatorSet* vs = manager->validators(); vs != nullptr) {
      auto recertified = vs->Certify(manifest);
      if (recertified.ok()) certificate = std::move(*recertified);
    }
  }
  return std::make_pair(std::move(manifest), std::move(certificate));
}

Result<Bytes> SyncProvider::FetchChunk(uint64_t height, size_t index) const {
  CONFIDE_RETURN_NOT_OK(CheckReachable());
  CheckpointManager* manager = node_->checkpoints();
  if (manager == nullptr) {
    return Status::NotFound("sync: provider " + name_ + " has no checkpoint");
  }
  if (fault::FaultInjector::Global().ShouldFail(kFaultChunkDrop)) {
    return Status::Unavailable("sync: chunk dropped in transit (injected)");
  }
  // Serve the whole transfer from one pinned view per height: every
  // chunk read runs lock-free against the snapshot instead of taking the
  // provider's store lock while it keeps committing blocks.
  std::shared_ptr<storage::KvSnapshot> view;
  {
    std::lock_guard<std::mutex> lock(serve_mutex_);
    if (serving_view_ == nullptr || serving_height_ != height) {
      serving_view_ = manager->PinView();
      serving_height_ = height;
    }
    view = serving_view_;
  }
  CONFIDE_ASSIGN_OR_RETURN(Bytes payload,
                           CheckpointManager::ChunkAt(*view, height, index));
  if (!payload.empty() &&
      fault::FaultInjector::Global().ShouldFail(kFaultChunkCorrupt)) {
    payload[payload.size() / 2] ^= 0x01;  // bit flip in transit
  }
  return payload;
}

Result<Bytes> SyncProvider::FetchBlock(uint64_t height) const {
  CONFIDE_RETURN_NOT_OK(CheckReachable());
  return node_->blocks()->GetByHeight(height);
}

Result<uint64_t> SyncProvider::TipHeight() const {
  CONFIDE_RETURN_NOT_OK(CheckReachable());
  return node_->Height();
}

// ---------------------------------------------------------------------------
// StateSyncClient
// ---------------------------------------------------------------------------

StateSyncClient::StateSyncClient(Node* node, const ValidatorSet* validators,
                                 SyncOptions options)
    : node_(node), validators_(validators), options_(std::move(options)) {}

void StateSyncClient::AddProvider(SyncProvider* provider) {
  providers_.push_back(provider);
}

common::RetryOptions StateSyncClient::RotationRetryOptions() const {
  // Rotation happens *after* a failed attempt, so visiting every
  // registered provider takes providers_.size() attempts — with N dead
  // providers ahead of the one live one, max_attempts == N stops exactly
  // one rotation short of it. Guarantee at least one attempt per provider.
  common::RetryOptions effective = kSyncRetry;
  effective.max_attempts = std::max<uint32_t>(
      effective.max_attempts, static_cast<uint32_t>(providers_.size()));
  return effective;
}

void StateSyncClient::RotateProvider(SyncStats* stats) {
  if (providers_.size() < 2) return;
  current_provider_ = (current_provider_ + 1) % providers_.size();
  ++stats->provider_failovers;
  SyncMetrics::Get().failovers->Increment();
}

void StateSyncClient::AcknowledgeRecoveredFaults() {
  fault::FaultInjector& injector = fault::FaultInjector::Global();
  for (const char* site :
       {kFaultProviderDead, kFaultChunkDrop, kFaultChunkCorrupt,
        kFaultForgedCert, kFaultStaleCert, kFaultClientCrash,
        kFaultEquivocatingCert}) {
    uint64_t fired = injector.FiredCount(site);
    uint64_t& acked = acked_fires_[site];
    if (fired > acked) {
      fault::NoteRecovered(site);
      acked = fired;
    }
  }
}

Result<SyncStats> StateSyncClient::SyncToTip() {
  const SyncMetrics& sm = SyncMetrics::Get();
  sm.runs->Increment();
  metrics::ScopedLatencyTimer timer(sm.latency);

  SyncStats stats;
  auto fail = [&sm](Status status) -> Result<SyncStats> {
    sm.failure->Increment();
    return status;
  };
  if (providers_.empty()) {
    return fail(Status::InvalidArgument("sync: no providers registered"));
  }
  if (validators_ == nullptr) {
    return fail(Status::InvalidArgument("sync: no validator set to verify "
                                        "checkpoint certificates against"));
  }

  // Confidential keys first: block replay executes confidential
  // transactions inside the CS enclave, and the synced sealed state must
  // be readable before this node serves reads.
  if (options_.reprovision) {
    Status provisioned = options_.reprovision();
    if (!provisioned.ok()) return fail(std::move(provisioned));
  }

  auto choice = DiscoverCheckpoint(&stats);
  if (!choice.ok()) return fail(choice.status());
  if (choice->found) {
    Status transferred = TransferSnapshot(*choice, &stats);
    if (!transferred.ok()) return fail(std::move(transferred));
  }

  Status replayed = ReplayBlocks(&stats);
  if (!replayed.ok()) return fail(std::move(replayed));

  sm.success->Increment();
  AcknowledgeRecoveredFaults();
  return stats;
}

Result<StateSyncClient::CheckpointChoice> StateSyncClient::DiscoverCheckpoint(
    SyncStats* stats) {
  const SyncMetrics& sm = SyncMetrics::Get();
  CheckpointChoice best;
  const uint64_t own_height = node_->Height();
  for (size_t i = 0; i < providers_.size(); ++i) {
    auto checkpoint = providers_[i]->LatestCheckpoint();
    if (!checkpoint.ok()) continue;  // no checkpoint / unreachable: skip
    CheckpointManifest& manifest = checkpoint->first;
    const CheckpointCertificate& certificate = checkpoint->second;
    // A forged or under-quorum certificate means this provider cannot be
    // trusted for snapshots; reject it and re-select among the others.
    Status verdict = validators_->Verify(manifest, certificate);
    if (!verdict.ok()) {
      ++stats->certificates_rejected;
      sm.certs_rejected->Increment();
      continue;
    }
    // Stale checkpoint: it would not advance this node at all. Blocks can
    // still be replayed from live providers, so just reject the snapshot.
    if (manifest.height <= own_height) {
      ++stats->certificates_rejected;
      sm.certs_rejected->Increment();
      continue;
    }
    // Cross-check the certified offer against every checkpoint this node
    // has witnessed: a *valid* certificate over a different root at the
    // same height is consortium equivocation (fork) — reject the provider
    // and record the evidence, never install its snapshot.
    if (node_->checkpoints() != nullptr) {
      Status witnessed = node_->checkpoints()->WitnessCheckpoint(
          manifest.height, manifest.block_hash, manifest.state_root);
      if (!witnessed.ok()) {
        if (witnessed.code() != StatusCode::kPermissionDenied) {
          return witnessed;
        }
        ++stats->forks_detected;
        ++stats->certificates_rejected;
        sm.fork_offers_rejected->Increment();
        sm.certs_rejected->Increment();
        continue;
      }
    }
    if (!best.found || manifest.height > best.manifest.height) {
      best.manifest = std::move(manifest);
      best.certificate = certificate;
      best.provider_index = i;
      best.found = true;
    }
  }
  return best;
}

Result<Bytes> StateSyncClient::FetchVerifiedChunk(
    const CheckpointManifest& manifest, const crypto::MerkleTree& chunk_tree,
    size_t index, SyncStats* stats) {
  const SyncMetrics& sm = SyncMetrics::Get();
  common::RetryPolicy retry(RotationRetryOptions(), options_.clock);
  Bytes verified;
  Status status = retry.Run("sync chunk fetch", [&]() -> Status {
    SyncProvider* provider = providers_[current_provider_];
    auto fetched = provider->FetchChunk(manifest.height, index);
    ++stats->chunks_fetched;
    sm.chunks_fetched->Increment();
    if (!fetched.ok()) {
      // Dropped in transit, provider dead, or the provider pruned this
      // checkpoint: try the next provider (same manifest —
      // correct replicas serve byte-identical chunk sets).
      RotateProvider(stats);
      return fetched.status();
    }
    // Verify the payload hash AND its Merkle path to the certificate-signed
    // chunks_root before a single byte is trusted.
    crypto::Hash256 digest = crypto::Sha256::Digest(*fetched);
    auto proof = chunk_tree.Prove(index);
    bool merkle_ok =
        proof.ok() &&
        crypto::MerkleTree::Verify(manifest.chunks_root,
                                   ByteView(digest.data(), digest.size()),
                                   *proof);
    if (digest != manifest.chunk_hashes[index] || !merkle_ok) {
      ++stats->chunks_rejected;
      sm.chunks_rejected->Increment();
      // Re-fetch (same provider first — a transit corruption is transient).
      return Status::Corruption("sync: chunk " + std::to_string(index) +
                                " failed Merkle verification");
    }
    stats->bytes_transferred += fetched->size();
    sm.bytes->Increment(fetched->size());
    verified = std::move(*fetched);
    return Status::OK();
  });
  CONFIDE_RETURN_NOT_OK(status);
  return verified;
}

Status StateSyncClient::TransferSnapshot(const CheckpointChoice& choice,
                                         SyncStats* stats) {
  const SyncMetrics& sm = SyncMetrics::Get();
  const CheckpointManifest& manifest = choice.manifest;

  // The certificate signs the manifest, and the manifest's chunks_root
  // must commit to the chunk hash list chunks are verified against.
  std::vector<Bytes> leaves;
  leaves.reserve(manifest.chunk_hashes.size());
  for (const crypto::Hash256& h : manifest.chunk_hashes) {
    leaves.push_back(ToBytes(crypto::HashView(h)));
  }
  crypto::MerkleTree chunk_tree(leaves);
  if (chunk_tree.Root() != manifest.chunks_root) {
    return Status::Corruption(
        "sync: manifest chunk hashes do not match the signed chunks root");
  }

  current_provider_ = choice.provider_index;

  // Buffer every verified chunk into ONE batch: the local store is not
  // touched until the complete snapshot verified, so a crash anywhere
  // mid-transfer leaves the node exactly where it started.
  storage::WriteBatch install;
  std::vector<Bytes> raw_chunks;
  raw_chunks.reserve(manifest.chunk_count());
  uint64_t entries = 0;
  for (size_t index = 0; index < manifest.chunk_count(); ++index) {
    CONFIDE_ASSIGN_OR_RETURN(
        Bytes payload, FetchVerifiedChunk(manifest, chunk_tree, index, stats));
    CONFIDE_ASSIGN_OR_RETURN(auto parsed, CheckpointManager::ParseChunk(payload));
    for (auto& [key, value] : parsed) {
      install.Put(key, std::move(value));
      ++entries;
    }
    raw_chunks.push_back(std::move(payload));
    ++stats->chunks_verified;
    sm.chunks_verified->Increment();
    // Injected client crash at the chunk boundary: abandon the sync with
    // nothing installed; the caller restarts it from scratch.
    if (fault::FaultInjector::Global().ShouldFail(kFaultClientCrash)) {
      return Status::Unavailable(
          "sync: injected client crash at chunk boundary " +
          std::to_string(index));
    }
  }
  if (entries != manifest.total_entries) {
    return Status::Corruption("sync: snapshot entry count mismatch");
  }

  CONFIDE_RETURN_NOT_OK(node_->state()->backing()->Write(install));
  CONFIDE_RETURN_NOT_OK(node_->ResyncFromStore());

  // The adopted chain must land exactly on the certified checkpoint.
  if (node_->Height() != manifest.height) {
    return Status::Corruption("sync: installed snapshot height mismatch");
  }
  if (node_->TipHash() != manifest.block_hash) {
    return Status::Corruption("sync: installed snapshot tip hash mismatch");
  }
  if (node_->state()->StateRoot() != manifest.state_root) {
    return Status::Corruption("sync: installed snapshot state root mismatch");
  }
  stats->checkpoint_height = manifest.height;
  stats->snapshot_installed = true;

  // Adopt the verified checkpoint into our own manager: a freshly synced
  // replica immediately becomes a provider for the same stable
  // checkpoint instead of waiting for its next interval boundary.
  if (node_->checkpoints() != nullptr) {
    CONFIDE_RETURN_NOT_OK(
        node_->checkpoints()->Adopt(manifest, choice.certificate, raw_chunks));
  }
  return Status::OK();
}

Status StateSyncClient::ReplayBlocks(SyncStats* stats) {
  const SyncMetrics& sm = SyncMetrics::Get();
  uint64_t tip = node_->Height();
  for (SyncProvider* provider : providers_) {
    auto height = provider->TipHeight();
    if (height.ok()) tip = std::max(tip, *height);
  }

  while (node_->Height() < tip) {
    const uint64_t height = node_->Height();
    common::RetryPolicy retry(RotationRetryOptions(), options_.clock);
    Bytes wire;
    Status fetched = retry.Run("sync block fetch", [&]() -> Status {
      auto block = providers_[current_provider_]->FetchBlock(height);
      if (!block.ok()) {
        RotateProvider(stats);
        return block.status();
      }
      wire = std::move(*block);
      return Status::OK();
    });
    CONFIDE_RETURN_NOT_OK(fetched);

    CONFIDE_ASSIGN_OR_RETURN(Block block, Block::Deserialize(wire));
    const crypto::Hash256 expected = block.header.Hash();
    auto receipts = node_->ApplyBlock(block);
    CONFIDE_RETURN_NOT_OK(receipts.status());
    // ApplyBlock re-executed the block and recomputed every commitment;
    // any divergence from the provider's header is an execution split.
    if (node_->TipHash() != expected) {
      return Status::Corruption("sync: replay diverged from provider at "
                                "height " +
                                std::to_string(height));
    }
    stats->bytes_transferred += wire.size();
    sm.bytes->Increment(wire.size());
    ++stats->blocks_replayed;
    sm.blocks_replayed->Increment();
  }
  return Status::OK();
}

}  // namespace confide::chain
