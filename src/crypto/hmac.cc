#include "crypto/hmac.h"

#include <cstring>

namespace confide::crypto {

Hash256 HmacSha256(ByteView key, ByteView data) {
  uint8_t block_key[64] = {0};
  if (key.size() > 64) {
    Hash256 kh = Sha256::Digest(key);
    std::memcpy(block_key, kh.data(), kh.size());
  } else if (!key.empty()) {  // an empty key may carry a null data()
    std::memcpy(block_key, key.data(), key.size());
  }

  uint8_t ipad[64], opad[64];
  for (int i = 0; i < 64; ++i) {
    ipad[i] = block_key[i] ^ 0x36;
    opad[i] = block_key[i] ^ 0x5c;
  }

  Sha256 inner;
  inner.Update(ByteView(ipad, 64));
  inner.Update(data);
  Hash256 inner_hash = inner.Finish();

  Sha256 outer;
  outer.Update(ByteView(opad, 64));
  outer.Update(HashView(inner_hash));
  return outer.Finish();
}

Hash256 HkdfExtract(ByteView salt, ByteView ikm) {
  return HmacSha256(salt, ikm);
}

Bytes HkdfExpand(const Hash256& prk, ByteView info, size_t out_len) {
  Bytes out;
  out.reserve(out_len);
  Bytes t;
  uint8_t counter = 1;
  while (out.size() < out_len) {
    Bytes input = Concat(ByteView(t), info, ByteView(&counter, 1));
    Hash256 block = HmacSha256(HashView(prk), input);
    t.assign(block.begin(), block.end());
    size_t take = std::min(t.size(), out_len - out.size());
    out.insert(out.end(), t.begin(), t.begin() + take);
    ++counter;
  }
  return out;
}

Bytes Hkdf(ByteView salt, ByteView ikm, ByteView info, size_t out_len) {
  return HkdfExpand(HkdfExtract(salt, ikm), info, out_len);
}

}  // namespace confide::crypto
