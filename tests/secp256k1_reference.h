/// \file secp256k1_reference.h
/// \brief Test-only oracle: the original double-and-add secp256k1.
///
/// This is the portable first implementation of src/crypto/secp256k1.cc,
/// kept verbatim (minus the op counters, an unused declaration and
/// PublicKeyToAddress, which did not change) so the differential tests in
/// crypto_test.cc can compare the optimized code against it: plain
/// binary double-and-add scalar multiplication, Fermat inversion, and
/// affine conversion after every multiply. It branches on secret bits and
/// is slow; nothing outside tests/ may include it.

#pragma once

#include <array>
#include <cstdint>
#include <cstring>

#include "common/bytes.h"
#include "common/endian.h"
#include "common/status.h"
#include "crypto/drbg.h"
#include "crypto/hmac.h"
#include "crypto/secp256k1.h"
#include "crypto/sha256.h"

namespace confide::crypto::reference {

// ---------------------------------------------------------------------------
// 256-bit unsigned integers, 4x64 little-endian limbs.
// ---------------------------------------------------------------------------

struct U256 {
  uint64_t v[4] = {0, 0, 0, 0};

  static U256 FromU64(uint64_t x) {
    U256 r;
    r.v[0] = x;
    return r;
  }

  static U256 FromBytesBe(const uint8_t b[32]) {
    U256 r;
    for (int i = 0; i < 4; ++i) r.v[3 - i] = LoadBe64(b + 8 * i);
    return r;
  }

  void ToBytesBe(uint8_t b[32]) const {
    for (int i = 0; i < 4; ++i) StoreBe64(b + 8 * i, v[3 - i]);
  }

  bool IsZero() const { return (v[0] | v[1] | v[2] | v[3]) == 0; }

  bool Bit(int i) const { return (v[i >> 6] >> (i & 63)) & 1; }

  bool operator==(const U256& o) const {
    return v[0] == o.v[0] && v[1] == o.v[1] && v[2] == o.v[2] && v[3] == o.v[3];
  }
};

inline int Cmp(const U256& a, const U256& b) {
  for (int i = 3; i >= 0; --i) {
    if (a.v[i] < b.v[i]) return -1;
    if (a.v[i] > b.v[i]) return 1;
  }
  return 0;
}

// a + b; returns carry out.
inline uint64_t AddCarry(const U256& a, const U256& b, U256* out) {
  unsigned __int128 carry = 0;
  for (int i = 0; i < 4; ++i) {
    unsigned __int128 s = (unsigned __int128)a.v[i] + b.v[i] + carry;
    out->v[i] = (uint64_t)s;
    carry = s >> 64;
  }
  return (uint64_t)carry;
}

// a - b; returns borrow out (1 if a < b).
inline uint64_t SubBorrow(const U256& a, const U256& b, U256* out) {
  unsigned __int128 borrow = 0;
  for (int i = 0; i < 4; ++i) {
    unsigned __int128 d = (unsigned __int128)a.v[i] - b.v[i] - borrow;
    out->v[i] = (uint64_t)d;
    borrow = (d >> 64) & 1;
  }
  return (uint64_t)borrow;
}

struct U512 {
  uint64_t v[8] = {0};
};

inline U512 Mul(const U256& a, const U256& b) {
  U512 r;
  for (int i = 0; i < 4; ++i) {
    unsigned __int128 carry = 0;
    for (int j = 0; j < 4; ++j) {
      unsigned __int128 cur =
          (unsigned __int128)a.v[i] * b.v[j] + r.v[i + j] + carry;
      r.v[i + j] = (uint64_t)cur;
      carry = cur >> 64;
    }
    r.v[i + 4] += (uint64_t)carry;
  }
  return r;
}

// ---------------------------------------------------------------------------
// Field arithmetic mod p = 2^256 - 2^32 - 977.
// ---------------------------------------------------------------------------

inline const U256 kP = [] {
  U256 p;
  p.v[0] = 0xFFFFFFFEFFFFFC2FULL;
  p.v[1] = 0xFFFFFFFFFFFFFFFFULL;
  p.v[2] = 0xFFFFFFFFFFFFFFFFULL;
  p.v[3] = 0xFFFFFFFFFFFFFFFFULL;
  return p;
}();

// 2^256 mod p = 2^32 + 977.
inline constexpr uint64_t kPComplement = 0x1000003D1ULL;

inline const U256 kN = [] {
  U256 n;
  n.v[0] = 0xBFD25E8CD0364141ULL;
  n.v[1] = 0xBAAEDCE6AF48A03BULL;
  n.v[2] = 0xFFFFFFFFFFFFFFFEULL;
  n.v[3] = 0xFFFFFFFFFFFFFFFFULL;
  return n;
}();

// (n - 1) / 2: the low-s bound. EcdsaSign normalizes s to at most this
// value and EcdsaVerify rejects anything above it (malleability guard).
inline const U256 kHalfN = [] {
  U256 half;
  for (int i = 0; i < 4; ++i) {
    half.v[i] = (kN.v[i] >> 1) | (i < 3 ? (kN.v[i + 1] << 63) : 0);
  }
  return half;
}();

// 2^256 mod n (= 2^256 - n since n > 2^255).
inline const U256 kNComplement = [] {
  U256 zero;
  U256 r;
  SubBorrow(zero, kN, &r);  // 2^256 - n via wraparound.
  return r;
}();

// Reduces a 512-bit value mod p using 2^256 ≡ kPComplement.
inline U256 ReduceP(const U512& x) {
  // x = hi * 2^256 + lo  ->  lo + hi * c, where c fits in 64+ bits.
  U256 lo, hi;
  std::memcpy(lo.v, x.v, 32);
  std::memcpy(hi.v, x.v + 4, 32);

  // hi * c: 256 x 33 bits -> at most 289 bits; track the overflow limb.
  U256 prod;
  uint64_t overflow = 0;
  {
    unsigned __int128 carry = 0;
    for (int i = 0; i < 4; ++i) {
      unsigned __int128 cur = (unsigned __int128)hi.v[i] * kPComplement + carry;
      prod.v[i] = (uint64_t)cur;
      carry = cur >> 64;
    }
    overflow = (uint64_t)carry;
  }

  U256 acc;
  uint64_t carry = AddCarry(lo, prod, &acc);
  uint64_t extra = overflow + carry;  // quantity of 2^256 still outstanding

  while (extra > 0) {
    // Fold extra * 2^256 ≡ extra * c.
    U256 fold;
    unsigned __int128 f = (unsigned __int128)extra * kPComplement;
    fold.v[0] = (uint64_t)f;
    fold.v[1] = (uint64_t)(f >> 64);
    extra = AddCarry(acc, fold, &acc);
  }
  while (Cmp(acc, kP) >= 0) {
    SubBorrow(acc, kP, &acc);
  }
  return acc;
}

inline U256 FAdd(const U256& a, const U256& b) {
  U256 r;
  uint64_t carry = AddCarry(a, b, &r);
  if (carry || Cmp(r, kP) >= 0) SubBorrow(r, kP, &r);
  return r;
}

inline U256 FSub(const U256& a, const U256& b) {
  U256 r;
  uint64_t borrow = SubBorrow(a, b, &r);
  if (borrow) AddCarry(r, kP, &r);
  return r;
}

inline U256 FMul(const U256& a, const U256& b) { return ReduceP(Mul(a, b)); }
inline U256 FSqr(const U256& a) { return FMul(a, a); }

inline U256 FPow(const U256& base, const U256& exp) {
  U256 result = U256::FromU64(1);
  U256 acc = base;
  for (int i = 0; i < 256; ++i) {
    if (exp.Bit(i)) result = FMul(result, acc);
    acc = FSqr(acc);
  }
  return result;
}

inline U256 FInv(const U256& a) {
  U256 p_minus_2;
  SubBorrow(kP, U256::FromU64(2), &p_minus_2);
  return FPow(a, p_minus_2);
}

// ---------------------------------------------------------------------------
// Scalar arithmetic mod n.
// ---------------------------------------------------------------------------

// Reduces a 512-bit value mod n using 2^256 ≡ kNComplement (129 bits).
inline U256 ReduceN(const U512& x) {
  U256 lo, hi;
  std::memcpy(lo.v, x.v, 32);
  std::memcpy(hi.v, x.v + 4, 32);

  // Iterate: value = lo + hi * kNComplement until hi part vanishes.
  while (!hi.IsZero()) {
    U512 prod = Mul(hi, kNComplement);
    U256 plo, phi;
    std::memcpy(plo.v, prod.v, 32);
    std::memcpy(phi.v, prod.v + 4, 32);
    U256 acc;
    uint64_t carry = AddCarry(lo, plo, &acc);
    lo = acc;
    hi = phi;
    // Propagate the addition carry into hi.
    if (carry) {
      U256 one = U256::FromU64(1);
      AddCarry(hi, one, &hi);
    }
  }
  while (Cmp(lo, kN) >= 0) SubBorrow(lo, kN, &lo);
  return lo;
}

inline U256 NAdd(const U256& a, const U256& b) {
  U256 r;
  uint64_t carry = AddCarry(a, b, &r);
  if (carry) {
    // r + 2^256 ≡ r + kNComplement.
    AddCarry(r, kNComplement, &r);
  }
  while (Cmp(r, kN) >= 0) SubBorrow(r, kN, &r);
  return r;
}

inline U256 NMul(const U256& a, const U256& b) { return ReduceN(Mul(a, b)); }

inline U256 NPow(const U256& base, const U256& exp) {
  U256 result = U256::FromU64(1);
  U256 acc = base;
  for (int i = 0; i < 256; ++i) {
    if (exp.Bit(i)) result = NMul(result, acc);
    acc = NMul(acc, acc);
  }
  return result;
}

inline U256 NInv(const U256& a) {
  U256 n_minus_2;
  SubBorrow(kN, U256::FromU64(2), &n_minus_2);
  return NPow(a, n_minus_2);
}

// Reduces a 256-bit big-endian byte string mod n.
inline U256 ReduceBytesModN(const uint8_t b[32]) {
  U256 x = U256::FromBytesBe(b);
  while (Cmp(x, kN) >= 0) SubBorrow(x, kN, &x);
  return x;
}

// ---------------------------------------------------------------------------
// Curve points. Jacobian coordinates (X, Z) with infinity flagged by Z == 0.
// ---------------------------------------------------------------------------

struct JacobianPoint {
  U256 x, y, z;
  bool IsInfinity() const { return z.IsZero(); }
  static JacobianPoint Infinity() {
    JacobianPoint p;
    p.x = U256::FromU64(1);
    p.y = U256::FromU64(1);
    p.z = U256();  // zero
    return p;
  }
};

struct AffinePoint {
  U256 x, y;
  bool infinity = false;
};

inline const AffinePoint kG = [] {
  AffinePoint g;
  g.x.v[3] = 0x79BE667EF9DCBBACULL;
  g.x.v[2] = 0x55A06295CE870B07ULL;
  g.x.v[1] = 0x029BFCDB2DCE28D9ULL;
  g.x.v[0] = 0x59F2815B16F81798ULL;
  g.y.v[3] = 0x483ADA7726A3C465ULL;
  g.y.v[2] = 0x5DA4FBFC0E1108A8ULL;
  g.y.v[1] = 0xFD17B448A6855419ULL;
  g.y.v[0] = 0x9C47D08FFB10D4B8ULL;
  return g;
}();

inline JacobianPoint ToJacobian(const AffinePoint& p) {
  JacobianPoint j;
  if (p.infinity) return JacobianPoint::Infinity();
  j.x = p.x;
  j.y = p.y;
  j.z = U256::FromU64(1);
  return j;
}

inline AffinePoint ToAffine(const JacobianPoint& p) {
  AffinePoint a;
  if (p.IsInfinity()) {
    a.infinity = true;
    return a;
  }
  U256 zinv = FInv(p.z);
  U256 zinv2 = FSqr(zinv);
  U256 zinv3 = FMul(zinv2, zinv);
  a.x = FMul(p.x, zinv2);
  a.y = FMul(p.y, zinv3);
  return a;
}

// Point doubling (dbl-2009-l formulas specialized for a = 0).
inline JacobianPoint Double(const JacobianPoint& p) {
  if (p.IsInfinity() || p.y.IsZero()) return JacobianPoint::Infinity();
  U256 a = FSqr(p.x);                       // X^2
  U256 b = FSqr(p.y);                       // Y^2
  U256 c = FSqr(b);                         // Y^4
  // D = 2*((X+B)^2 - A - C)
  U256 xb = FAdd(p.x, b);
  U256 d = FSub(FSub(FSqr(xb), a), c);
  d = FAdd(d, d);
  U256 e = FAdd(FAdd(a, a), a);             // 3*X^2
  U256 f = FSqr(e);
  JacobianPoint r;
  r.x = FSub(f, FAdd(d, d));                // F - 2D
  U256 c8 = FAdd(c, c);
  c8 = FAdd(c8, c8);
  c8 = FAdd(c8, c8);                        // 8*Y^4
  r.y = FSub(FMul(e, FSub(d, r.x)), c8);
  U256 yz = FMul(p.y, p.z);
  r.z = FAdd(yz, yz);                       // 2*Y*Z
  return r;
}

// General Jacobian addition.
inline JacobianPoint Add(const JacobianPoint& p, const JacobianPoint& q) {
  if (p.IsInfinity()) return q;
  if (q.IsInfinity()) return p;
  U256 z1z1 = FSqr(p.z);
  U256 z2z2 = FSqr(q.z);
  U256 u1 = FMul(p.x, z2z2);
  U256 u2 = FMul(q.x, z1z1);
  U256 s1 = FMul(FMul(p.y, q.z), z2z2);
  U256 s2 = FMul(FMul(q.y, p.z), z1z1);
  if (u1 == u2) {
    if (s1 == s2) return Double(p);
    return JacobianPoint::Infinity();
  }
  U256 h = FSub(u2, u1);
  U256 i = FSqr(FAdd(h, h));
  U256 j = FMul(h, i);
  U256 r2 = FSub(s2, s1);
  r2 = FAdd(r2, r2);
  U256 v = FMul(u1, i);
  JacobianPoint r;
  r.x = FSub(FSub(FSqr(r2), j), FAdd(v, v));
  U256 s1j = FMul(s1, j);
  r.y = FSub(FMul(r2, FSub(v, r.x)), FAdd(s1j, s1j));
  // Z3 = ((Z1+Z2)^2 - Z1Z1 - Z2Z2) * H
  U256 zsum = FAdd(p.z, q.z);
  r.z = FMul(FSub(FSub(FSqr(zsum), z1z1), z2z2), h);
  return r;
}

inline JacobianPoint ScalarMult(const U256& k, const AffinePoint& base) {
  JacobianPoint result = JacobianPoint::Infinity();
  JacobianPoint acc = ToJacobian(base);
  for (int i = 0; i < 256; ++i) {
    if (k.Bit(i)) result = Add(result, acc);
    acc = Double(acc);
  }
  return result;
}

inline bool IsOnCurve(const U256& x, const U256& y) {
  // y^2 == x^3 + 7 (mod p)
  U256 lhs = FSqr(y);
  U256 rhs = FAdd(FMul(FSqr(x), x), U256::FromU64(7));
  return lhs == rhs;
}

inline U256 PrivToScalar(const PrivateKey& priv) {
  return U256::FromBytesBe(priv.data());
}

inline bool ScalarValid(const U256& s) { return !s.IsZero() && Cmp(s, kN) < 0; }

inline void EncodePoint(const AffinePoint& p, PublicKey* out) {
  p.x.ToBytesBe(out->data());
  p.y.ToBytesBe(out->data() + 32);
}

inline Result<AffinePoint> DecodePoint(const PublicKey& pub) {
  AffinePoint p;
  p.x = U256::FromBytesBe(pub.data());
  p.y = U256::FromBytesBe(pub.data() + 32);
  if (Cmp(p.x, kP) >= 0 || Cmp(p.y, kP) >= 0 || !IsOnCurve(p.x, p.y)) {
    return Status::CryptoError("public key is not a curve point");
  }
  return p;
}

inline KeyPair GenerateKeyPair(Drbg* rng) {
  KeyPair kp;
  for (;;) {
    rng->Fill(kp.priv.data(), kp.priv.size());
    U256 d = PrivToScalar(kp.priv);
    if (!ScalarValid(d)) continue;
    AffinePoint pub = ToAffine(ScalarMult(d, kG));
    EncodePoint(pub, &kp.pub);
    return kp;
  }
}

inline Result<PublicKey> DerivePublicKey(const PrivateKey& priv) {
  U256 d = PrivToScalar(priv);
  if (!ScalarValid(d)) {
    return Status::InvalidArgument("private key scalar out of range");
  }
  AffinePoint pub = ToAffine(ScalarMult(d, kG));
  PublicKey out;
  EncodePoint(pub, &out);
  return out;
}

inline bool IsValidPublicKey(const PublicKey& pub) {
  return DecodePoint(pub).ok();
}

inline Result<Signature> EcdsaSign(const PrivateKey& priv, const Hash256& digest) {
  U256 d = PrivToScalar(priv);
  if (!ScalarValid(d)) {
    return Status::InvalidArgument("private key scalar out of range");
  }
  U256 z = ReduceBytesModN(digest.data());

  // Deterministic nonce: HMAC(priv, digest || counter), RFC-6979 flavoured.
  for (uint32_t counter = 0;; ++counter) {
    uint8_t ctr_bytes[4];
    StoreBe32(ctr_bytes, counter);
    Bytes nonce_input = Concat(HashView(digest), ByteView(ctr_bytes, 4));
    Hash256 k_bytes = HmacSha256(ByteView(priv.data(), priv.size()), nonce_input);
    U256 k = ReduceBytesModN(k_bytes.data());
    if (!ScalarValid(k)) continue;

    AffinePoint kg = ToAffine(ScalarMult(k, kG));
    if (kg.infinity) continue;
    U256 r = kg.x;
    while (Cmp(r, kN) >= 0) SubBorrow(r, kN, &r);
    if (r.IsZero()) continue;

    U256 s = NMul(NInv(k), NAdd(z, NMul(r, d)));
    if (s.IsZero()) continue;

    // Normalize s to the low half (malleability guard).
    if (Cmp(s, kHalfN) > 0) SubBorrow(kN, s, &s);

    Signature sig;
    r.ToBytesBe(sig.data());
    s.ToBytesBe(sig.data() + 32);
    return sig;
  }
}

inline bool EcdsaVerify(const PublicKey& pub, const Hash256& digest, const Signature& sig) {
  auto point = DecodePoint(pub);
  if (!point.ok()) return false;

  U256 r = U256::FromBytesBe(sig.data());
  U256 s = U256::FromBytesBe(sig.data() + 32);
  if (!ScalarValid(r) || !ScalarValid(s)) return false;
  // (r, n - s) verifies whenever (r, s) does; accepting only the low half
  // gives every message one valid encoding per nonce.
  if (Cmp(s, kHalfN) > 0) return false;

  U256 z = ReduceBytesModN(digest.data());
  U256 s_inv = NInv(s);
  U256 u1 = NMul(z, s_inv);
  U256 u2 = NMul(r, s_inv);

  JacobianPoint sum = Add(ScalarMult(u1, kG), ScalarMult(u2, *point));
  if (sum.IsInfinity()) return false;
  AffinePoint rp = ToAffine(sum);
  U256 rx = rp.x;
  while (Cmp(rx, kN) >= 0) SubBorrow(rx, kN, &rx);
  return rx == r;
}

inline Result<Hash256> EcdhSharedSecret(const PrivateKey& priv, const PublicKey& pub) {
  U256 d = PrivToScalar(priv);
  if (!ScalarValid(d)) {
    return Status::InvalidArgument("private key scalar out of range");
  }
  CONFIDE_ASSIGN_OR_RETURN(AffinePoint q, DecodePoint(pub));
  JacobianPoint shared = ScalarMult(d, q);
  if (shared.IsInfinity()) {
    return Status::CryptoError("ECDH produced the point at infinity");
  }
  AffinePoint a = ToAffine(shared);
  uint8_t x_bytes[32];
  a.x.ToBytesBe(x_bytes);
  return Sha256::Digest(ByteView(x_bytes, 32));
}

}  // namespace confide::crypto::reference
