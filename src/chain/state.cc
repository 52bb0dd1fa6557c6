#include "chain/state.h"

namespace confide::chain {

std::string StateDb::StateKey(const Address& contract, ByteView key) {
  return AddressToString(contract) + "/" + ToString(key);
}

// ---------------------------------------------------------------------------
// CommitStateDb
// ---------------------------------------------------------------------------

Result<Bytes> CommitStateDb::Get(const Address& contract, ByteView key) const {
  std::string full_key = StateKey(contract, key);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = overlay_.find(full_key);
    if (it != overlay_.end()) return it->second;
  }
  return kv_->Get(full_key);
}

std::vector<Result<Bytes>> StateDb::GetMany(
    const std::vector<std::pair<Address, Bytes>>& keys) const {
  std::vector<Result<Bytes>> out;
  out.reserve(keys.size());
  for (const auto& [contract, key] : keys) out.push_back(Get(contract, key));
  return out;
}

std::vector<Result<Bytes>> CommitStateDb::GetMany(
    const std::vector<std::pair<Address, Bytes>>& keys) const {
  std::vector<Result<Bytes>> out;
  out.reserve(keys.size());
  std::vector<size_t> unresolved;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (size_t i = 0; i < keys.size(); ++i) {
      auto it = overlay_.find(StateKey(keys[i].first, keys[i].second));
      if (it != overlay_.end()) {
        out.push_back(it->second);
        continue;
      }
      out.push_back(Status::NotFound("state: unresolved"));  // placeholder
      unresolved.push_back(i);
    }
  }
  if (!unresolved.empty()) {
    // One pinned snapshot answers every store-level miss. Taking it after
    // the lock above is safe: FinalizeCommit clears the overlay only after
    // its batch landed in the store, so the snapshot can never be older
    // than the overlay just consulted.
    std::unique_ptr<storage::KvSnapshot> snapshot = kv_->GetSnapshot();
    for (size_t i : unresolved) {
      out[i] = snapshot->Get(StateKey(keys[i].first, keys[i].second));
    }
  }
  return out;
}

void CommitStateDb::Put(const Address& contract, ByteView key, Bytes value) {
  std::string full_key = StateKey(contract, key);
  std::lock_guard<std::mutex> lock(mutex_);
  overlay_[full_key] = std::move(value);
}

size_t CommitStateDb::PendingWrites() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return overlay_.size();
}

void CommitStateDb::StageCommit(storage::WriteBatch* batch,
                                crypto::Hash256* new_root) const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (overlay_.empty()) {
    *new_root = state_root_;
    return;
  }
  crypto::Sha256 root_ctx;
  root_ctx.Update(crypto::HashView(state_root_));
  for (const auto& [key, value] : overlay_) {
    root_ctx.Update(AsByteView(key));
    root_ctx.Update(value);
    batch->Put(key, value);  // copy: the overlay keeps serving reads
  }
  *new_root = root_ctx.Finish();
}

void CommitStateDb::FinalizeCommit(const crypto::Hash256& new_root) {
  std::lock_guard<std::mutex> lock(mutex_);
  overlay_.clear();
  state_root_ = new_root;
}

Status CommitStateDb::Commit() {
  storage::WriteBatch batch;
  crypto::Hash256 new_root;
  StageCommit(&batch, &new_root);
  if (!batch.ops().empty()) {
    Status written = kv_->Write(batch);
    if (!written.ok()) {
      Discard();  // the caller re-executes against the durable state
      return written;
    }
  }
  FinalizeCommit(new_root);
  return Status::OK();
}

void CommitStateDb::Discard() {
  std::lock_guard<std::mutex> lock(mutex_);
  overlay_.clear();
}

crypto::Hash256 CommitStateDb::StateRoot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return state_root_;
}

void CommitStateDb::RestoreRoot(const crypto::Hash256& root) {
  std::lock_guard<std::mutex> lock(mutex_);
  overlay_.clear();
  state_root_ = root;
}

// ---------------------------------------------------------------------------
// OverlayStateDb
// ---------------------------------------------------------------------------

Result<Bytes> OverlayStateDb::Get(const Address& contract, ByteView key) const {
  auto it = writes_.find(StateKey(contract, key));
  if (it != writes_.end()) return it->second.second;
  return parent_->Get(contract, key);
}

void OverlayStateDb::Put(const Address& contract, ByteView key, Bytes value) {
  writes_[StateKey(contract, key)] = {{contract, ToBytes(key)}, std::move(value)};
}

Status OverlayStateDb::Commit() {
  for (auto& [full_key, entry] : writes_) {
    parent_->Put(entry.first.first, entry.first.second, std::move(entry.second));
  }
  writes_.clear();
  return Status::OK();
}

}  // namespace confide::chain
