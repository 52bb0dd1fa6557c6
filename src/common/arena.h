/// \file arena.h
/// \brief Bump-pointer arena for decode paths that must own.
///
/// The zero-copy RlpReader (serialize/rlp.h) hands out ByteViews that
/// alias the wire buffer. When a decoded value has to outlive that
/// buffer — a prefetched sealed state value cached across an ocall
/// response, say — it is copied ONCE into an Arena whose lifetime the
/// owner controls, instead of paying a heap allocation per field.
/// Views returned by Dup stay stable until Reset()/destruction: blocks
/// are never reallocated, only chained.

#pragma once

#include <cstdint>
#include <cstring>
#include <memory>
#include <string_view>
#include <vector>

#include "common/bytes.h"

namespace confide {

class Arena {
 public:
  static constexpr size_t kDefaultBlockBytes = 4096;

  explicit Arena(size_t block_bytes = kDefaultBlockBytes)
      : block_bytes_(block_bytes == 0 ? kDefaultBlockBytes : block_bytes) {}

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// \brief Allocates `n` bytes (8-byte aligned). Never returns null;
  /// oversized requests get a dedicated block.
  uint8_t* Alloc(size_t n) {
    size_t rounded = (n + 7) & ~size_t(7);
    if (rounded < n) rounded = n;  // n near SIZE_MAX: skip the round-up
    if (rounded > remaining_) NewBlock(rounded);
    uint8_t* out = next_;
    next_ += rounded;
    remaining_ -= rounded;
    bytes_used_ += n;
    return out;
  }

  /// \brief Copies `src` into the arena; the returned view is stable for
  /// the arena's lifetime (or until Reset).
  ByteView Dup(ByteView src) {
    if (src.empty()) return {};
    uint8_t* dst = Alloc(src.size());
    std::memcpy(dst, src.data(), src.size());
    return ByteView(dst, src.size());
  }

  std::string_view DupString(std::string_view src) {
    ByteView v = Dup(AsByteView(src));
    return std::string_view(reinterpret_cast<const char*>(v.data()), v.size());
  }

  /// \brief Drops every allocation. Outstanding views become dangling.
  void Reset() {
    blocks_.clear();
    next_ = nullptr;
    remaining_ = 0;
    bytes_used_ = 0;
  }

  size_t bytes_used() const { return bytes_used_; }
  size_t block_count() const { return blocks_.size(); }

 private:
  void NewBlock(size_t at_least) {
    size_t size = at_least > block_bytes_ ? at_least : block_bytes_;
    blocks_.push_back(std::make_unique<uint8_t[]>(size));
    next_ = blocks_.back().get();
    remaining_ = size;
  }

  size_t block_bytes_;
  std::vector<std::unique_ptr<uint8_t[]>> blocks_;
  uint8_t* next_ = nullptr;
  size_t remaining_ = 0;
  size_t bytes_used_ = 0;
};

}  // namespace confide
