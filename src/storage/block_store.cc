#include "storage/block_store.h"

#include "common/endian.h"

namespace confide::storage {

namespace {

/// Cloud-SSD write model: fixed submission+commit latency per block
/// write, plus a throughput-dependent cost per KiB.
constexpr uint64_t kSsdWriteLatencyNs = 6'000'000;
constexpr uint64_t kSsdWriteNsPerKib = 4'000;

}  // namespace

std::string BlockStore::HeightKey(uint64_t height) {
  uint8_t be[8];
  StoreBe64(be, height);
  return "blk/h/" + HexEncode(ByteView(be, 8));
}

std::string BlockStore::HashKey(const crypto::Hash256& hash) {
  return "blk/x/" + HexEncode(crypto::HashView(hash));
}

Status BlockStore::StageAppend(uint64_t height, const crypto::Hash256& hash,
                               Bytes block, WriteBatch* batch) {
  if (height != NextHeight()) {
    return Status::InvalidArgument("non-contiguous block height");
  }
  if (clock_ != nullptr) {
    clock_->AdvanceNs(kSsdWriteLatencyNs +
                      kSsdWriteNsPerKib * (block.size() / 1024));
  }
  uint8_t be[8];
  StoreBe64(be, height);
  batch->Put(HashKey(hash), Bytes(be, be + 8));
  batch->Put(HeightKey(height), std::move(block));
  return Status::OK();
}

void BlockStore::FinalizeAppend() {
  std::lock_guard<std::mutex> lock(mutex_);
  ++next_height_;
}

uint64_t BlockStore::NextHeight() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return next_height_;
}

Status BlockStore::RecoverTip() {
  uint64_t height = 0;
  for (;;) {
    auto block = kv_->Get(HeightKey(height));
    if (block.status().IsNotFound()) break;
    CONFIDE_RETURN_NOT_OK(block.status());
    ++height;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  next_height_ = height;
  return Status::OK();
}

Status BlockStore::Append(uint64_t height, const crypto::Hash256& hash, Bytes block) {
  WriteBatch batch;
  CONFIDE_RETURN_NOT_OK(StageAppend(height, hash, std::move(block), &batch));
  CONFIDE_RETURN_NOT_OK(kv_->Write(batch));
  FinalizeAppend();
  return Status::OK();
}

Result<Bytes> BlockStore::GetByHeight(uint64_t height) const {
  return kv_->Get(HeightKey(height));
}

Result<Bytes> BlockStore::GetByHash(const crypto::Hash256& hash) const {
  CONFIDE_ASSIGN_OR_RETURN(Bytes height_bytes, kv_->Get(HashKey(hash)));
  if (height_bytes.size() != 8) return Status::Corruption("bad height index entry");
  return GetByHeight(LoadBe64(height_bytes.data()));
}

}  // namespace confide::storage
