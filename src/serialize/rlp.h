/// \file rlp.h
/// \brief Recursive Length Prefix encoding (the Ethereum wire/storage
/// format the paper cites for enclave-boundary serialization, §5.3).
///
/// One codec: RlpWriter streams every encode into one growing buffer, and
/// RlpReader walks every decode in place, returning ByteView slices into
/// the input (zero-copy) through one overflow-safe header parser. Each
/// wire format has one owner — a Serialize/Deserialize pair next to its
/// struct — built on these two, so a record decodes with the same
/// canonical-form checks wherever it is read.

#pragma once

#include <algorithm>
#include <array>
#include <string_view>

#include "common/bytes.h"
#include "common/status.h"

namespace confide::serialize {

/// \brief Decodes a minimal big-endian integer payload (the content of an
/// RLP byte-string item) into a u64. Rejects >8 bytes and leading zeros.
Result<uint64_t> RlpU64Payload(ByteView payload);

/// \brief Zero-copy sequential reader over one RLP list's items.
///
/// Construct with AtList over a complete wire encoding; Next* calls then
/// consume the list's items in order. Returned ByteViews alias the input
/// buffer — callers that outlive the buffer must copy (see common/arena.h
/// and DESIGN.md §Zero-copy serialization). All length arithmetic is
/// overflow-safe: lengths are validated against the remaining input, so a
/// crafted 8-byte length near SIZE_MAX fails with Corruption instead of
/// wrapping the bounds check.
class RlpReader {
 public:
  /// \brief Parses `wire` as exactly one list item consuming the full
  /// input; the reader iterates the list's payload.
  static Result<RlpReader> AtList(ByteView wire);

  /// \brief Reader over a bare list payload (no outer header) — e.g. a
  /// span previously captured via payload().
  static RlpReader OverPayload(ByteView payload) { return RlpReader(payload); }

  bool AtEnd() const { return pos_ == data_.size(); }
  size_t Remaining() const { return data_.size() - pos_; }

  /// \brief Corruption unless every item has been consumed (decoders use
  /// this to reject trailing fields).
  Status ExpectEnd(const char* what) const;

  /// \brief Next item; must be a byte string. Returns a borrowed view.
  Result<ByteView> NextBytes();

  /// \brief Next item; must be a byte string of exactly `n` bytes.
  Result<ByteView> NextFixed(size_t n, const char* what);

  /// \brief NextFixed(N) copied into `out` (hashes, keys, signatures).
  template <size_t N>
  Status NextInto(std::array<uint8_t, N>* out, const char* what) {
    CONFIDE_ASSIGN_OR_RETURN(ByteView b, NextFixed(N, what));
    std::copy(b.begin(), b.end(), out->begin());
    return Status::OK();
  }

  /// \brief Next item; must be a minimal big-endian integer <= 64 bits.
  Result<uint64_t> NextU64();

  /// \brief Next item; must be a list. Returns a reader over its payload.
  Result<RlpReader> NextList();

  /// \brief Next item's complete encoding (header + payload), any kind.
  Result<ByteView> NextItem();

  /// \brief Validating scan counting the items left (does not consume).
  Result<size_t> CountRemaining() const;

  /// \brief The full list payload this reader iterates (borrowed).
  ByteView payload() const { return data_; }

 private:
  explicit RlpReader(ByteView payload) : data_(payload) {}

  ByteView data_;
  size_t pos_ = 0;
};

/// \brief Streaming RLP encoder. Items append to one growing buffer;
/// lists are written as BeginList / items / EndList(mark), which patches
/// the length header in at the mark (one memmove, no item tree).
class RlpWriter {
 public:
  RlpWriter() = default;
  explicit RlpWriter(size_t reserve) { buf_.reserve(reserve); }

  void WriteBytes(ByteView b);
  void WriteString(std::string_view s) { WriteBytes(AsByteView(s)); }
  void WriteU64(uint64_t v);

  /// \brief Opens a list; returns the mark to pass to EndList.
  size_t BeginList() { return buf_.size(); }

  /// \brief Closes the list opened at `mark`, inserting its header.
  void EndList(size_t mark);

  size_t size() const { return buf_.size(); }
  const Bytes& buffer() const { return buf_; }
  Bytes Take() && { return std::move(buf_); }

 private:
  Bytes buf_;
};

}  // namespace confide::serialize
