#include "confide/freshness.h"

#include "serialize/rlp.h"

namespace confide::core {

using serialize::RlpReader;
using serialize::RlpWriter;

namespace {

/// RLP [counter, height, state_root(, mac)]: the MAC body is the header
/// without its trailing MAC.
Bytes EncodeHeader(uint64_t counter, uint64_t height,
                   const crypto::Hash256& state_root, const crypto::Hash256* mac) {
  RlpWriter w(90);
  size_t mark = w.BeginList();
  w.WriteU64(counter);
  w.WriteU64(height);
  w.WriteBytes(state_root);
  if (mac != nullptr) w.WriteBytes(*mac);
  w.EndList(mark);
  return std::move(w).Take();
}

}  // namespace

Bytes FreshnessMacBody(uint64_t counter, uint64_t height,
                       const crypto::Hash256& state_root) {
  return EncodeHeader(counter, height, state_root, nullptr);
}

Bytes FreshnessHeader::Serialize() const {
  return EncodeHeader(counter, height, state_root, &mac);
}

Result<FreshnessHeader> FreshnessHeader::Deserialize(ByteView wire) {
  CONFIDE_ASSIGN_OR_RETURN(RlpReader r, RlpReader::AtList(wire));
  FreshnessHeader header;
  CONFIDE_ASSIGN_OR_RETURN(header.counter, r.NextU64());
  CONFIDE_ASSIGN_OR_RETURN(header.height, r.NextU64());
  CONFIDE_RETURN_NOT_OK(r.NextInto(&header.state_root, "freshness state root"));
  CONFIDE_RETURN_NOT_OK(r.NextInto(&header.mac, "freshness mac"));
  CONFIDE_RETURN_NOT_OK(r.ExpectEnd("freshness header"));
  return header;
}

}  // namespace confide::core
