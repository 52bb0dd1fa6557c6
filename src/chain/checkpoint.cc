#include "chain/checkpoint.h"

#include <algorithm>

#include "common/endian.h"
#include "common/fault.h"
#include "common/metrics.h"
#include "crypto/drbg.h"
#include "serialize/rlp.h"

namespace confide::chain {

namespace {

using serialize::RlpReader;
using serialize::RlpWriter;

constexpr std::string_view kCheckpointPrefix = "ckpt/";
constexpr std::string_view kFreshnessPrefix = "fresh/";
constexpr const char* kIndexKey = "ckpt/index";

struct CheckpointMetrics {
  metrics::Counter* count = metrics::GetCounter("chain.checkpoint.count");
  metrics::Counter* chunks = metrics::GetCounter("chain.checkpoint.chunks");
  metrics::Counter* bytes = metrics::GetCounter("chain.checkpoint.bytes");
  metrics::Counter* entries = metrics::GetCounter("chain.checkpoint.entries");
  metrics::Counter* pruned = metrics::GetCounter("chain.checkpoint.pruned.count");
  metrics::Counter* adopted =
      metrics::GetCounter("chain.checkpoint.adopted.count");
  metrics::Counter* forks_detected =
      metrics::GetCounter("chain.fork.detected.count");
  metrics::Counter* witnessed =
      metrics::GetCounter("chain.fork.witnessed.count");
  metrics::Histogram* build_latency =
      metrics::GetHistogram("chain.checkpoint.build.latency_ns");

  static const CheckpointMetrics& Get() {
    static const CheckpointMetrics instruments;
    return instruments;
  }
};

}  // namespace

// ---------------------------------------------------------------------------
// CheckpointManifest
// ---------------------------------------------------------------------------

Bytes CheckpointManifest::Serialize() const {
  RlpWriter w(160 + 32 * chunk_hashes.size());
  size_t mark = w.BeginList();
  w.WriteU64(height);
  w.WriteBytes(block_hash);
  w.WriteBytes(state_root);
  w.WriteU64(total_entries);
  w.WriteU64(total_bytes);
  w.WriteBytes(chunks_root);
  // Chunk hashes travel as one concatenated string (32 bytes each).
  Bytes hashes;
  hashes.reserve(32 * chunk_hashes.size());
  for (const crypto::Hash256& h : chunk_hashes) Append(&hashes, h);
  w.WriteBytes(hashes);
  w.EndList(mark);
  return std::move(w).Take();
}

Result<CheckpointManifest> CheckpointManifest::Deserialize(ByteView wire) {
  CONFIDE_ASSIGN_OR_RETURN(RlpReader r, RlpReader::AtList(wire));
  CheckpointManifest manifest;
  CONFIDE_ASSIGN_OR_RETURN(manifest.height, r.NextU64());
  CONFIDE_RETURN_NOT_OK(r.NextInto(&manifest.block_hash, "checkpoint block hash"));
  CONFIDE_RETURN_NOT_OK(r.NextInto(&manifest.state_root, "checkpoint state root"));
  CONFIDE_ASSIGN_OR_RETURN(manifest.total_entries, r.NextU64());
  CONFIDE_ASSIGN_OR_RETURN(manifest.total_bytes, r.NextU64());
  CONFIDE_RETURN_NOT_OK(r.NextInto(&manifest.chunks_root, "checkpoint chunks root"));
  CONFIDE_ASSIGN_OR_RETURN(ByteView hashes, r.NextBytes());
  CONFIDE_RETURN_NOT_OK(r.ExpectEnd("checkpoint manifest"));
  if (hashes.size() % 32 != 0) {
    return Status::Corruption("checkpoint: malformed chunk hash list");
  }
  manifest.chunk_hashes.resize(hashes.size() / 32);
  for (size_t i = 0; i < manifest.chunk_hashes.size(); ++i) {
    std::copy_n(hashes.begin() + ptrdiff_t(32 * i), 32,
                manifest.chunk_hashes[i].begin());
  }
  return manifest;
}

crypto::Hash256 CheckpointManifest::Digest() const {
  return crypto::Sha256::Digest(Serialize());
}

// ---------------------------------------------------------------------------
// CheckpointCertificate
// ---------------------------------------------------------------------------

Bytes CheckpointCertificate::Serialize() const {
  RlpWriter w(40 + 70 * votes.size());
  size_t mark = w.BeginList();
  w.WriteBytes(manifest_digest);
  size_t vote_list = w.BeginList();
  for (const auto& [signer, sig] : votes) {
    size_t vote = w.BeginList();
    w.WriteU64(signer);
    w.WriteBytes(sig);
    w.EndList(vote);
  }
  w.EndList(vote_list);
  w.EndList(mark);
  return std::move(w).Take();
}

Result<CheckpointCertificate> CheckpointCertificate::Deserialize(ByteView wire) {
  CONFIDE_ASSIGN_OR_RETURN(RlpReader r, RlpReader::AtList(wire));
  CheckpointCertificate certificate;
  CONFIDE_RETURN_NOT_OK(
      r.NextInto(&certificate.manifest_digest, "checkpoint manifest digest"));
  CONFIDE_ASSIGN_OR_RETURN(RlpReader vote_list, r.NextList());
  CONFIDE_RETURN_NOT_OK(r.ExpectEnd("checkpoint certificate"));
  while (!vote_list.AtEnd()) {
    CONFIDE_ASSIGN_OR_RETURN(RlpReader vote, vote_list.NextList());
    CONFIDE_ASSIGN_OR_RETURN(uint64_t signer, vote.NextU64());
    if (signer > UINT32_MAX) {
      return Status::Corruption("checkpoint: vote signer out of range");
    }
    crypto::Signature sig;
    CONFIDE_RETURN_NOT_OK(vote.NextInto(&sig, "checkpoint vote signature"));
    CONFIDE_RETURN_NOT_OK(vote.ExpectEnd("checkpoint vote"));
    certificate.votes.emplace_back(uint32_t(signer), sig);
  }
  return certificate;
}

// ---------------------------------------------------------------------------
// ValidatorSet
// ---------------------------------------------------------------------------

ValidatorSet ValidatorSet::Generate(size_t n, uint64_t seed) {
  ValidatorSet set;
  crypto::Drbg rng(seed ^ 0xc4ec9017ull);
  for (size_t i = 0; i < n; ++i) {
    set.keys_.push_back(crypto::GenerateKeyPair(&rng));
  }
  return set;
}

size_t ValidatorSet::QuorumSize() const {
  // n = 3f+1 -> 2f+1; for other n this is still a strict majority that
  // intersects any two quorums.
  size_t f = (keys_.size() - 1) / 3;
  return std::min(keys_.size(), 2 * f + 1);
}

Result<CheckpointCertificate> ValidatorSet::Certify(
    const CheckpointManifest& manifest) const {
  if (keys_.empty()) {
    return Status::InvalidArgument("checkpoint: empty validator set");
  }
  CheckpointCertificate certificate;
  certificate.manifest_digest = manifest.Digest();
  for (size_t i = 0; i < QuorumSize(); ++i) {
    CONFIDE_ASSIGN_OR_RETURN(
        crypto::Signature sig,
        crypto::EcdsaSign(keys_[i].priv, certificate.manifest_digest));
    certificate.votes.emplace_back(uint32_t(i), sig);
  }
  return certificate;
}

Status ValidatorSet::Verify(const CheckpointManifest& manifest,
                            const CheckpointCertificate& certificate) const {
  crypto::Hash256 digest = manifest.Digest();
  if (digest != certificate.manifest_digest) {
    return Status::PermissionDenied(
        "checkpoint: certificate signs a different manifest");
  }
  std::vector<bool> voted(keys_.size(), false);
  size_t valid = 0;
  for (const auto& [signer, sig] : certificate.votes) {
    if (signer >= keys_.size()) {
      return Status::PermissionDenied("checkpoint: unknown validator in vote");
    }
    if (voted[signer]) {
      return Status::PermissionDenied("checkpoint: duplicate validator vote");
    }
    if (!crypto::EcdsaVerify(keys_[signer].pub, digest, sig)) {
      return Status::PermissionDenied("checkpoint: forged validator signature");
    }
    voted[signer] = true;
    ++valid;
  }
  if (valid < QuorumSize()) {
    return Status::PermissionDenied("checkpoint: certificate below 2f+1 quorum");
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// CheckpointManager
// ---------------------------------------------------------------------------

CheckpointManager::CheckpointManager(CheckpointOptions options,
                                     std::shared_ptr<storage::KvStore> kv,
                                     const ValidatorSet* validators)
    : options_(options), kv_(std::move(kv)), validators_(validators) {}

std::string CheckpointManager::ManifestKey(uint64_t height) {
  uint8_t be[8];
  StoreBe64(be, height);
  return "ckpt/m/" + HexEncode(ByteView(be, 8));
}

std::string CheckpointManager::CertificateKey(uint64_t height) {
  uint8_t be[8];
  StoreBe64(be, height);
  return "ckpt/s/" + HexEncode(ByteView(be, 8));
}

std::string CheckpointManager::ChunkKey(uint64_t height, size_t index) {
  uint8_t be[16];
  StoreBe64(be, height);
  StoreBe64(be + 8, index);
  return "ckpt/c/" + HexEncode(ByteView(be, 16));
}

std::string CheckpointManager::WitnessKey(uint64_t height) {
  uint8_t be[8];
  StoreBe64(be, height);
  return "ckpt/w/" + HexEncode(ByteView(be, 8));
}

void CheckpointManager::SetForkAlarm(ForkAlarm alarm) {
  std::lock_guard<std::mutex> lock(mutex_);
  fork_alarm_ = std::move(alarm);
}

Status CheckpointManager::WitnessCheckpoint(uint64_t height,
                                            const crypto::Hash256& block_hash,
                                            const crypto::Hash256& state_root) {
  ForkAlarm alarm;
  crypto::Hash256 seen_root{};
  bool conflict = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    Result<Bytes> existing = kv_->Get(WitnessKey(height));
    if (existing.ok()) {
      CONFIDE_ASSIGN_OR_RETURN(RlpReader r, RlpReader::AtList(*existing));
      crypto::Hash256 seen_hash;
      CONFIDE_RETURN_NOT_OK(r.NextInto(&seen_hash, "witnessed block hash"));
      CONFIDE_RETURN_NOT_OK(r.NextInto(&seen_root, "witnessed state root"));
      CONFIDE_RETURN_NOT_OK(r.ExpectEnd("checkpoint witness record"));
      if (seen_hash == block_hash && seen_root == state_root) {
        return Status::OK();  // same checkpoint re-witnessed
      }
      conflict = true;
      alarm = fork_alarm_;
      CheckpointMetrics::Get().forks_detected->Increment();
    } else if (existing.status().IsNotFound()) {
      RlpWriter record(70);
      size_t mark = record.BeginList();
      record.WriteBytes(block_hash);
      record.WriteBytes(state_root);
      record.EndList(mark);
      CONFIDE_RETURN_NOT_OK(kv_->Put(WitnessKey(height), std::move(record).Take()));
      CheckpointMetrics::Get().witnessed->Increment();
    } else {
      return existing.status();
    }
  }
  if (!conflict) return Status::OK();
  // Two 2f+1-certified checkpoints over divergent state at one height:
  // consortium equivocation. Alarm outside the manager lock.
  if (alarm) alarm(height, seen_root, state_root);
  return Status::PermissionDenied(
      "checkpoint: fork detected — conflicting certified checkpoint at height " +
      std::to_string(height));
}

Status CheckpointManager::MaybeCheckpoint(uint64_t height,
                                          const crypto::Hash256& block_hash,
                                          const crypto::Hash256& state_root) {
  if (options_.interval == 0 || height == 0 || height % options_.interval != 0) {
    return Status::OK();
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (height <= latest_height_) return Status::OK();  // already covered
  }
  return WriteCheckpoint(height, block_hash, state_root);
}

Status CheckpointManager::WriteCheckpoint(uint64_t height,
                                          const crypto::Hash256& block_hash,
                                          const crypto::Hash256& state_root) {
  if (validators_ == nullptr) {
    return Status::InvalidArgument(
        "checkpoint: no validator set to certify with");
  }
  const CheckpointMetrics& cm = CheckpointMetrics::Get();
  metrics::ScopedLatencyTimer timer(cm.build_latency);

  if (fault::FaultInjector::Global().ShouldFail("fault.chain.checkpoint.write")) {
    return Status::Unavailable("checkpoint: injected write failure");
  }

  // Fork evidence first: producing a checkpoint that conflicts with one
  // already witnessed at this height means this replica itself diverged.
  CONFIDE_RETURN_NOT_OK(WitnessCheckpoint(height, block_hash, state_root));

  // Chunked iteration of the full store (state, receipts, tx index, block
  // bodies) — everything except previous checkpoint blobs, so peers at
  // the same height snapshot identical chunk sets.
  CheckpointManifest manifest;
  manifest.height = height;
  manifest.block_hash = block_hash;
  manifest.state_root = state_root;

  storage::WriteBatch batch;
  Bytes chunk;
  size_t chunk_index = 0;
  auto flush_chunk = [&] {
    if (chunk.empty()) return;
    manifest.chunk_hashes.push_back(crypto::Sha256::Digest(chunk));
    manifest.total_bytes += chunk.size();
    batch.Put(ChunkKey(height, chunk_index), std::move(chunk));
    chunk.clear();
    ++chunk_index;
  };

  // Scan a sequence-pinned snapshot: the whole chunking pass runs without
  // the store lock, so it cannot contend with the commit path while the
  // node keeps finalizing blocks.
  std::unique_ptr<storage::KvSnapshot> snapshot = kv_->GetSnapshot();
  std::unique_ptr<storage::KvIterator> it = snapshot->NewIterator();
  for (it->SeekToFirst(); it->Valid(); it->Next()) {
    const std::string& key = it->key();
    if (key.rfind(kCheckpointPrefix, 0) == 0) continue;
    // Freshness headers are node-local trust state (like the witness
    // log): they bind to *this* platform's sealing key and must never
    // transfer to a peer.
    if (key.rfind(kFreshnessPrefix, 0) == 0) continue;
    uint8_t len[4];
    StoreBe32(len, uint32_t(key.size()));
    chunk.insert(chunk.end(), len, len + 4);
    chunk.insert(chunk.end(), key.begin(), key.end());
    StoreBe32(len, uint32_t(it->value().size()));
    chunk.insert(chunk.end(), len, len + 4);
    chunk.insert(chunk.end(), it->value().begin(), it->value().end());
    ++manifest.total_entries;
    if (chunk.size() >= options_.chunk_bytes) flush_chunk();
  }
  flush_chunk();

  std::vector<Bytes> leaves;
  for (const crypto::Hash256& h : manifest.chunk_hashes) {
    leaves.push_back(ToBytes(crypto::HashView(h)));
  }
  manifest.chunks_root = crypto::MerkleTree(leaves).Root();

  CONFIDE_ASSIGN_OR_RETURN(CheckpointCertificate certificate,
                           validators_->Certify(manifest));

  std::lock_guard<std::mutex> lock(mutex_);
  batch.Put(ManifestKey(height), manifest.Serialize());
  batch.Put(CertificateKey(height), certificate.Serialize());
  std::vector<uint64_t> retained = RetainLocked(&batch, height);

  CONFIDE_RETURN_NOT_OK(kv_->Write(batch));
  retained_ = std::move(retained);
  latest_height_ = height;

  cm.count->Increment();
  cm.chunks->Increment(manifest.chunk_count());
  cm.bytes->Increment(manifest.total_bytes);
  cm.entries->Increment(manifest.total_entries);
  return Status::OK();
}

std::vector<uint64_t> CheckpointManager::RetainLocked(
    storage::WriteBatch* batch, uint64_t height) {
  // Retention: drop the oldest retained checkpoint in the same atomic
  // batch (stable-checkpoint log truncation).
  const CheckpointMetrics& cm = CheckpointMetrics::Get();
  std::vector<uint64_t> retained = retained_;
  retained.push_back(height);
  while (retained.size() > std::max<size_t>(1, options_.keep)) {
    uint64_t victim = retained.front();
    retained.erase(retained.begin());
    auto victim_manifest = ManifestAt(victim);
    if (victim_manifest.ok()) {
      for (size_t i = 0; i < victim_manifest->chunk_count(); ++i) {
        batch->Delete(ChunkKey(victim, i));
      }
    }
    batch->Delete(ManifestKey(victim));
    batch->Delete(CertificateKey(victim));
    cm.pruned->Increment();
  }
  RlpWriter index(2 + 9 * retained.size());
  size_t mark = index.BeginList();
  for (uint64_t h : retained) index.WriteU64(h);
  index.EndList(mark);
  batch->Put(kIndexKey, std::move(index).Take());
  return retained;
}

Status CheckpointManager::Adopt(const CheckpointManifest& manifest,
                                const CheckpointCertificate& certificate,
                                const std::vector<Bytes>& chunks) {
  if (chunks.size() != manifest.chunk_count()) {
    return Status::InvalidArgument("checkpoint: adopt chunk count mismatch");
  }
  // Cross-check against the witnessed-roots log before any install: an
  // equivocating peer serving a second certified checkpoint at a height
  // we already saw must fail loudly, not overwrite.
  CONFIDE_RETURN_NOT_OK(
      WitnessCheckpoint(manifest.height, manifest.block_hash, manifest.state_root));
  const CheckpointMetrics& cm = CheckpointMetrics::Get();
  std::lock_guard<std::mutex> lock(mutex_);
  if (manifest.height <= latest_height_) return Status::OK();

  storage::WriteBatch batch;
  for (size_t i = 0; i < chunks.size(); ++i) {
    batch.Put(ChunkKey(manifest.height, i), chunks[i]);
  }
  batch.Put(ManifestKey(manifest.height), manifest.Serialize());
  batch.Put(CertificateKey(manifest.height), certificate.Serialize());
  std::vector<uint64_t> retained = RetainLocked(&batch, manifest.height);

  CONFIDE_RETURN_NOT_OK(kv_->Write(batch));
  retained_ = std::move(retained);
  latest_height_ = manifest.height;

  cm.adopted->Increment();
  cm.chunks->Increment(manifest.chunk_count());
  cm.bytes->Increment(manifest.total_bytes);
  return Status::OK();
}

Status CheckpointManager::RecoverLatest() {
  auto index = kv_->Get(kIndexKey);
  if (index.status().IsNotFound()) return Status::OK();  // never checkpointed
  CONFIDE_RETURN_NOT_OK(index.status());
  CONFIDE_ASSIGN_OR_RETURN(RlpReader r, RlpReader::AtList(*index));
  std::vector<uint64_t> retained;
  while (!r.AtEnd()) {
    CONFIDE_ASSIGN_OR_RETURN(uint64_t h, r.NextU64());
    retained.push_back(h);
  }
  std::lock_guard<std::mutex> lock(mutex_);
  retained_ = std::move(retained);
  latest_height_ = retained_.empty() ? 0 : retained_.back();
  return Status::OK();
}

uint64_t CheckpointManager::LatestHeight() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return latest_height_;
}

std::vector<uint64_t> CheckpointManager::RetainedHeights() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return retained_;
}

Result<CheckpointManifest> CheckpointManager::ManifestAt(uint64_t height) const {
  CONFIDE_ASSIGN_OR_RETURN(Bytes wire, kv_->Get(ManifestKey(height)));
  return CheckpointManifest::Deserialize(wire);
}

Result<CheckpointCertificate> CheckpointManager::CertificateAt(
    uint64_t height) const {
  CONFIDE_ASSIGN_OR_RETURN(Bytes wire, kv_->Get(CertificateKey(height)));
  return CheckpointCertificate::Deserialize(wire);
}

Result<Bytes> CheckpointManager::ChunkAt(uint64_t height, size_t index) const {
  return kv_->Get(ChunkKey(height, index));
}

std::shared_ptr<storage::KvSnapshot> CheckpointManager::PinView() const {
  return std::shared_ptr<storage::KvSnapshot>(kv_->GetSnapshot());
}

Result<Bytes> CheckpointManager::ChunkAt(const storage::KvSnapshot& view,
                                         uint64_t height, size_t index) {
  return view.Get(ChunkKey(height, index));
}

Result<std::vector<std::pair<std::string, Bytes>>> CheckpointManager::ParseChunk(
    ByteView payload) {
  std::vector<std::pair<std::string, Bytes>> entries;
  size_t off = 0;
  while (off < payload.size()) {
    if (off + 4 > payload.size()) {
      return Status::Corruption("checkpoint: truncated chunk key length");
    }
    uint32_t key_len = LoadBe32(payload.data() + off);
    off += 4;
    if (off + key_len + 4 > payload.size()) {
      return Status::Corruption("checkpoint: truncated chunk key");
    }
    std::string key(reinterpret_cast<const char*>(payload.data() + off), key_len);
    off += key_len;
    uint32_t value_len = LoadBe32(payload.data() + off);
    off += 4;
    if (off + value_len > payload.size()) {
      return Status::Corruption("checkpoint: truncated chunk value");
    }
    entries.emplace_back(std::move(key),
                         Bytes(payload.data() + off, payload.data() + off + value_len));
    off += value_len;
  }
  return entries;
}

}  // namespace confide::chain
