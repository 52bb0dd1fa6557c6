#include "serialize/rlp.h"

namespace confide::serialize {

namespace {

void EncodeLength(Bytes* out, size_t len, uint8_t offset) {
  if (len < 56) {
    out->push_back(uint8_t(offset + len));
    return;
  }
  // Minimal big-endian length-of-length form.
  uint8_t buf[8];
  int n = 0;
  size_t tmp = len;
  while (tmp > 0) {
    buf[n++] = uint8_t(tmp & 0xff);
    tmp >>= 8;
  }
  out->push_back(uint8_t(offset + 55 + n));
  for (int i = n - 1; i >= 0; --i) out->push_back(buf[i]);
}

/// Parsed item header. On success the payload occupies
/// [*pos, *pos + payload_len) and is guaranteed to lie inside `data`.
struct ItemHeader {
  bool is_list = false;
  size_t payload_len = 0;
};

/// Parses the prefix (and long-form length, if any) of the item starting
/// at *pos, leaving *pos at the first payload byte. For an inline single
/// byte (< 0x80) *pos stays on the byte itself with payload_len = 1.
///
/// Every guard here is written against the *remaining* input
/// (`len > data.size() - *pos`), never as `*pos + len > data.size()`:
/// `len` is attacker-controlled up to 2^64-1 and the addition form wraps
/// past SIZE_MAX, letting an out-of-bounds read through the check.
Result<ItemHeader> ParseItemHeader(ByteView data, size_t* pos) {
  if (*pos >= data.size()) return Status::Corruption("rlp: empty input");
  uint8_t prefix = data[(*pos)++];
  auto remaining = [&] { return data.size() - *pos; };

  // Long-form length: `len_of_len` big-endian bytes, minimal, >= 56.
  auto read_long_length = [&](size_t len_of_len) -> Result<size_t> {
    if (len_of_len > remaining()) {
      return Status::Corruption("rlp: truncated length");
    }
    if (data[*pos] == 0) {
      return Status::Corruption("rlp: non-minimal length encoding");
    }
    size_t len = 0;
    for (size_t i = 0; i < len_of_len; ++i) len = (len << 8) | data[(*pos)++];
    if (len < 56) return Status::Corruption("rlp: non-canonical long length");
    return len;
  };

  if (prefix < 0x80) {
    --*pos;  // the prefix byte IS the one-byte payload
    return ItemHeader{false, 1};
  }
  if (prefix <= 0xb7) {
    size_t len = prefix - 0x80;
    if (len > remaining()) return Status::Corruption("rlp: truncated string");
    if (len == 1 && data[*pos] < 0x80) {
      return Status::Corruption("rlp: non-canonical single byte");
    }
    return ItemHeader{false, len};
  }
  if (prefix <= 0xbf) {
    CONFIDE_ASSIGN_OR_RETURN(size_t len, read_long_length(prefix - 0xb7));
    if (len > remaining()) return Status::Corruption("rlp: truncated string");
    return ItemHeader{false, len};
  }
  if (prefix <= 0xf7) {
    size_t len = prefix - 0xc0;
    if (len > remaining()) return Status::Corruption("rlp: truncated list");
    return ItemHeader{true, len};
  }
  CONFIDE_ASSIGN_OR_RETURN(size_t len, read_long_length(prefix - 0xf7));
  if (len > remaining()) return Status::Corruption("rlp: truncated list");
  return ItemHeader{true, len};
}

}  // namespace

Result<uint64_t> RlpU64Payload(ByteView payload) {
  if (payload.size() > 8) return Status::OutOfRange("rlp: integer exceeds 64 bits");
  if (!payload.empty() && payload[0] == 0) {
    return Status::Corruption("rlp: non-minimal integer");
  }
  uint64_t v = 0;
  for (uint8_t byte : payload) v = (v << 8) | byte;
  return v;
}

Result<RlpReader> RlpReader::AtList(ByteView wire) {
  size_t pos = 0;
  CONFIDE_ASSIGN_OR_RETURN(ItemHeader header, ParseItemHeader(wire, &pos));
  if (!header.is_list) return Status::Corruption("rlp: expected a list");
  if (pos + header.payload_len != wire.size()) {
    return Status::Corruption("rlp: trailing bytes after item");
  }
  return RlpReader(wire.subspan(pos, header.payload_len));
}

Status RlpReader::ExpectEnd(const char* what) const {
  if (!AtEnd()) {
    return Status::Corruption(std::string(what) + ": unexpected extra fields");
  }
  return Status::OK();
}

Result<ByteView> RlpReader::NextBytes() {
  CONFIDE_ASSIGN_OR_RETURN(ItemHeader header, ParseItemHeader(data_, &pos_));
  if (header.is_list) return Status::Corruption("rlp: expected bytes, found list");
  ByteView payload = data_.subspan(pos_, header.payload_len);
  pos_ += header.payload_len;
  return payload;
}

Result<ByteView> RlpReader::NextFixed(size_t n, const char* what) {
  CONFIDE_ASSIGN_OR_RETURN(ByteView b, NextBytes());
  if (b.size() != n) {
    return Status::Corruption(std::string("rlp: bad ") + what);
  }
  return b;
}

Result<uint64_t> RlpReader::NextU64() {
  CONFIDE_ASSIGN_OR_RETURN(ByteView b, NextBytes());
  return RlpU64Payload(b);
}

Result<RlpReader> RlpReader::NextList() {
  CONFIDE_ASSIGN_OR_RETURN(ItemHeader header, ParseItemHeader(data_, &pos_));
  if (!header.is_list) return Status::Corruption("rlp: expected list, found bytes");
  RlpReader sub(data_.subspan(pos_, header.payload_len));
  pos_ += header.payload_len;
  return sub;
}

Result<ByteView> RlpReader::NextItem() {
  size_t start = pos_;
  CONFIDE_ASSIGN_OR_RETURN(ItemHeader header, ParseItemHeader(data_, &pos_));
  size_t end = pos_ + header.payload_len;
  // An inline single byte leaves pos_ on the byte itself; the raw
  // encoding still spans [start, end).
  pos_ = end;
  return data_.subspan(start, end - start);
}

Result<size_t> RlpReader::CountRemaining() const {
  RlpReader scan(data_.subspan(pos_));
  size_t count = 0;
  while (!scan.AtEnd()) {
    CONFIDE_ASSIGN_OR_RETURN(ByteView item, scan.NextItem());
    (void)item;
    ++count;
  }
  return count;
}

void RlpWriter::WriteBytes(ByteView b) {
  if (b.size() == 1 && b[0] < 0x80) {
    buf_.push_back(b[0]);
    return;
  }
  EncodeLength(&buf_, b.size(), 0x80);
  Append(&buf_, b);
}

void RlpWriter::WriteU64(uint64_t v) {
  uint8_t buf[8];
  int n = 0;
  while (v > 0) {
    buf[n++] = uint8_t(v & 0xff);
    v >>= 8;
  }
  // Reverse into big-endian minimal form.
  uint8_t be[8];
  for (int i = 0; i < n; ++i) be[i] = buf[n - 1 - i];
  WriteBytes(ByteView(be, size_t(n)));
}

void RlpWriter::EndList(size_t mark) {
  size_t payload_len = buf_.size() - mark;
  Bytes header;
  EncodeLength(&header, payload_len, 0xc0);
  buf_.insert(buf_.begin() + ptrdiff_t(mark), header.begin(), header.end());
}

}  // namespace confide::serialize
