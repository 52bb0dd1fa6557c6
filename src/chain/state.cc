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
    // Staged-but-not-yet-durable writes, newest generation first: a
    // commit group executes block N+1 against block N's staged state.
    for (auto gen = pending_.rbegin(); gen != pending_.rend(); ++gen) {
      auto hit = gen->values.find(full_key);
      if (hit != gen->values.end()) return hit->second;
    }
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
      std::string full_key = StateKey(keys[i].first, keys[i].second);
      auto it = overlay_.find(full_key);
      if (it != overlay_.end()) {
        out.push_back(it->second);
        continue;
      }
      bool staged = false;
      for (auto gen = pending_.rbegin(); gen != pending_.rend(); ++gen) {
        auto hit = gen->values.find(full_key);
        if (hit != gen->values.end()) {
          out.push_back(hit->second);
          staged = true;
          break;
        }
      }
      if (staged) continue;
      out.push_back(Status::NotFound("state: unresolved"));  // placeholder
      unresolved.push_back(i);
    }
  }
  if (!unresolved.empty()) {
    // One pinned snapshot answers every store-level miss. Taking it after
    // the lock above is safe: FinalizeCommit drops a pending generation
    // only after its batch landed in the store, so the snapshot can never
    // be older than the staged state just consulted.
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
                                crypto::Hash256* new_root) {
  std::lock_guard<std::mutex> lock(mutex_);
  PendingGeneration gen;
  if (overlay_.empty()) {
    // An empty generation keeps the StageCommit/FinalizeCommit pairing
    // 1:1, which is what lets the commit stage finalize blindly in FIFO
    // order.
    gen.root = staged_root_;
    *new_root = staged_root_;
    pending_.push_back(std::move(gen));
    return;
  }
  crypto::Sha256 root_ctx;
  root_ctx.Update(crypto::HashView(staged_root_));
  for (auto& [key, value] : overlay_) {
    root_ctx.Update(AsByteView(key));
    root_ctx.Update(value);
    batch->Put(key, value);  // copy: the pending generation keeps serving reads
  }
  gen.values = std::move(overlay_);
  overlay_.clear();
  gen.root = root_ctx.Finish();
  staged_root_ = gen.root;
  *new_root = gen.root;
  pending_.push_back(std::move(gen));
}

void CommitStateDb::FinalizeCommit(const crypto::Hash256& new_root) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!pending_.empty()) pending_.pop_front();
  state_root_ = new_root;
  if (pending_.empty()) staged_root_ = state_root_;
}

void CommitStateDb::RollbackPending() {
  std::lock_guard<std::mutex> lock(mutex_);
  pending_.clear();
  overlay_.clear();
  staged_root_ = state_root_;
}

size_t CommitStateDb::PendingGenerations() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return pending_.size();
}

Status CommitStateDb::Commit() {
  storage::WriteBatch batch;
  crypto::Hash256 new_root;
  StageCommit(&batch, &new_root);
  if (batch.ops().empty()) {
    FinalizeCommit(new_root);  // pop the empty generation
    return Status::OK();
  }
  Status written = kv_->Write(batch);
  if (!written.ok()) {
    // Drop the just-staged generation so the caller re-executes against
    // the durable state.
    RollbackPending();
    return written;
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
  pending_.clear();
  state_root_ = root;
  staged_root_ = root;
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
