#include "crypto/secp256k1.h"

#include <algorithm>
#include <array>
#include <cstring>

#include "common/endian.h"
#include "common/metrics.h"
#include "crypto/hmac.h"
#include "crypto/keccak.h"

namespace confide::crypto {

namespace {

using u128 = unsigned __int128;

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

  // Most significant limb first, as the constants are written.
  static constexpr U256 FromLimbs(uint64_t v3, uint64_t v2, uint64_t v1, uint64_t v0) {
    U256 r;
    r.v[0] = v0;
    r.v[1] = v1;
    r.v[2] = v2;
    r.v[3] = v3;
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

  bool IsOne() const { return ((v[0] ^ 1) | v[1] | v[2] | v[3]) == 0; }

  bool Bit(int i) const { return (v[i >> 6] >> (i & 63)) & 1; }

  bool operator==(const U256& o) const {
    return v[0] == o.v[0] && v[1] == o.v[1] && v[2] == o.v[2] && v[3] == o.v[3];
  }
};

int Cmp(const U256& a, const U256& b) {
  for (int i = 3; i >= 0; --i) {
    if (a.v[i] < b.v[i]) return -1;
    if (a.v[i] > b.v[i]) return 1;
  }
  return 0;
}

// a + b; returns carry out.
uint64_t AddCarry(const U256& a, const U256& b, U256* out) {
  u128 carry = 0;
  for (int i = 0; i < 4; ++i) {
    u128 s = (u128)a.v[i] + b.v[i] + carry;
    out->v[i] = (uint64_t)s;
    carry = s >> 64;
  }
  return (uint64_t)carry;
}

// a - b; returns borrow out (1 if a < b).
uint64_t SubBorrow(const U256& a, const U256& b, U256* out) {
  u128 borrow = 0;
  for (int i = 0; i < 4; ++i) {
    u128 d = (u128)a.v[i] - b.v[i] - borrow;
    out->v[i] = (uint64_t)d;
    borrow = (d >> 64) & 1;
  }
  return (uint64_t)borrow;
}

// r += m for a single-limb m; returns carry out.
uint64_t AddSmall(U256* r, uint64_t m) {
  u128 carry = m;
  for (int i = 0; i < 4; ++i) {
    carry += r->v[i];
    r->v[i] = (uint64_t)carry;
    carry >>= 64;
  }
  return (uint64_t)carry;
}

// r >>= 1, shifting `top` in as bit 255.
void ShiftRight1(U256* r, uint64_t top) {
  for (int i = 0; i < 3; ++i) r->v[i] = (r->v[i] >> 1) | (r->v[i + 1] << 63);
  r->v[3] = (r->v[3] >> 1) | (top << 63);
}

// `count` (<= 8) bits of k starting at bit `pos`; bits at 256 and up read as
// zero. Branches only on the (public) position, never on k.
uint32_t Bits(const U256& k, int pos, int count) {
  int limb = pos >> 6, off = pos & 63;
  uint64_t w = limb < 4 ? k.v[limb] >> off : 0;
  if (off + count > 64 && limb < 3) w |= k.v[limb + 1] << (64 - off);
  return uint32_t(w & ((1u << count) - 1));
}

struct U512 {
  uint64_t v[8] = {0};
};

U512 Mul(const U256& a, const U256& b) {
  U512 r;
  for (int i = 0; i < 4; ++i) {
    u128 carry = 0;
    for (int j = 0; j < 4; ++j) {
      u128 cur = (u128)a.v[i] * b.v[j] + r.v[i + j] + carry;
      r.v[i + j] = (uint64_t)cur;
      carry = cur >> 64;
    }
    r.v[i + 4] += (uint64_t)carry;
  }
  return r;
}

// ---------------------------------------------------------------------------
// Constant-time selection. Masks are all-ones or zero; the empty asm keeps
// the compiler from proving that and turning a select back into a branch.
// ---------------------------------------------------------------------------

uint64_t MaskOf(uint64_t bit) {
  uint64_t m = 0 - bit;
  __asm__("" : "+r"(m));
  return m;
}

// mask ? a : b.
U256 Select(uint64_t mask, const U256& a, const U256& b) {
  U256 r;
  for (int i = 0; i < 4; ++i) r.v[i] = (a.v[i] & mask) | (b.v[i] & ~mask);
  return r;
}

// ---------------------------------------------------------------------------
// Field arithmetic mod p = 2^256 - 2^32 - 977, on five 52-bit limbs (the
// libsecp256k1 representation): the 12 spare bits per limb absorb carries,
// so additions need no carry chain and products sum into 128-bit columns.
// Every routine runs in constant time.
//
// Elements are kept "weakly normal": limbs 0-3 below 2^52 + 2^42 and limb 4
// below 2^48 + 2^4, so the value is below 2^257 but not necessarily below p.
// Every operation takes and returns weakly normal elements; FeToU256 fully
// reduces for comparisons and encoding.
// ---------------------------------------------------------------------------

const U256 kP = [] {
  U256 p;
  p.v[0] = 0xFFFFFFFEFFFFFC2FULL;
  p.v[1] = 0xFFFFFFFFFFFFFFFFULL;
  p.v[2] = 0xFFFFFFFFFFFFFFFFULL;
  p.v[3] = 0xFFFFFFFFFFFFFFFFULL;
  return p;
}();

// 2^256 mod p = 2^32 + 977.
constexpr uint64_t kPComplement = 0x1000003D1ULL;
// 2^260 mod p: limb 5 of a product folds into limb 0 times this.
constexpr uint64_t kR52 = kPComplement << 4;
constexpr uint64_t kM52 = (1ULL << 52) - 1;
constexpr uint64_t kM48 = (1ULL << 48) - 1;

struct Fe {
  uint64_t n[5] = {0, 0, 0, 0, 0};
};

// p and 2p in limbs. FSub adds 2p so that no limb goes negative.
constexpr Fe kP52 = {{0xFFFFEFFFFFC2FULL, kM52, kM52, kM52, kM48}};
constexpr Fe kTwoP = {{2 * kP52.n[0], 2 * kM52, 2 * kM52, 2 * kM52, 2 * kM48}};

Fe FeFromU256(const U256& a) {
  return {{a.v[0] & kM52, (a.v[0] >> 52 | a.v[1] << 12) & kM52,
           (a.v[1] >> 40 | a.v[2] << 24) & kM52, (a.v[2] >> 28 | a.v[3] << 36) & kM52,
           a.v[3] >> 16}};
}

// Returns limbs below 2^55 to weakly normal in one parallel step: each limb
// keeps its low 52 bits (48 for limb 4) plus the carry out of the limb below,
// and bits 256 and up fold into limb 0 (2^256 ≡ 2^32 + 977).
Fe Weak(const Fe& a) {
  return {{(a.n[0] & kM52) + (a.n[4] >> 48) * kPComplement, (a.n[1] & kM52) + (a.n[0] >> 52),
           (a.n[2] & kM52) + (a.n[1] >> 52), (a.n[3] & kM52) + (a.n[2] >> 52),
           (a.n[4] & kM48) + (a.n[3] >> 52)}};
}

// r mod p for any r < 2^256 (at most one subtraction of p): r >= p exactly
// when r + (2^256 - p) carries, and then that sum is r - p.
U256 CondSubP(const U256& r) {
  U256 w = r;
  uint64_t carry = AddSmall(&w, kPComplement);
  return Select(MaskOf(carry), w, r);
}

// The fully reduced value in [0, p).
U256 FeToU256(const Fe& a) {
  // Carry limbs 0-3 down to exactly 52 bits, twice: the first pass can leave
  // limb 4 a few units past 48 bits, and only when its low 48 bits are then
  // tiny, so the second pass's fold leaves a value below 2^256.
  Fe t = a;
  for (int pass = 0; pass < 2; ++pass) {
    t.n[0] += (t.n[4] >> 48) * kPComplement;
    t.n[4] &= kM48;
    for (int i = 0; i < 4; ++i) {
      t.n[i + 1] += t.n[i] >> 52;
      t.n[i] &= kM52;
    }
  }
  U256 r;
  r.v[0] = t.n[0] | t.n[1] << 52;
  r.v[1] = t.n[1] >> 12 | t.n[2] << 40;
  r.v[2] = t.n[2] >> 24 | t.n[3] << 28;
  r.v[3] = t.n[3] >> 36 | t.n[4] << 16;
  return CondSubP(r);
}

bool FIsZero(const Fe& a) { return FeToU256(a).IsZero(); }

// mask ? a : b.
Fe Select(uint64_t mask, const Fe& a, const Fe& b) {
  Fe r;
  for (int i = 0; i < 5; ++i) r.n[i] = (a.n[i] & mask) | (b.n[i] & ~mask);
  return r;
}

Fe FAdd(const Fe& a, const Fe& b) {
  Fe r;
  for (int i = 0; i < 5; ++i) r.n[i] = a.n[i] + b.n[i];
  return Weak(r);
}

// a + 2p - b: every limb of 2p exceeds the matching limb of a weakly normal b.
Fe FSub(const Fe& a, const Fe& b) {
  Fe r;
  for (int i = 0; i < 5; ++i) r.n[i] = a.n[i] + kTwoP.n[i] - b.n[i];
  return Weak(r);
}

Fe FNeg(const Fe& a) { return FSub(Fe(), a); }

// a·k for a small k (k <= 4).
Fe FMulInt(const Fe& a, uint64_t k) {
  Fe r;
  for (int i = 0; i < 5; ++i) r.n[i] = a.n[i] * k;
  return Weak(r);
}

// a/2 mod p. The represented integer's parity is limb 0's; an odd one gets p
// (odd) added first, then every limb shifts right taking the low bit of the
// limb above.
Fe FHalf(const Fe& a) {
  uint64_t odd = MaskOf(a.n[0] & 1);
  Fe t;
  for (int i = 0; i < 5; ++i) t.n[i] = a.n[i] + (kP52.n[i] & odd);
  Fe r;
  for (int i = 0; i < 4; ++i) r.n[i] = (t.n[i] >> 1) + ((t.n[i + 1] & 1) << 51);
  r.n[4] = t.n[4] >> 1;
  return Weak(r);
}

bool FEqual(const Fe& a, const Fe& b) { return FIsZero(FSub(a, b)); }

// Reduces the nine 128-bit product columns c[k] (weight 2^(52k)). Columns 5-8
// fold into columns 0-4 times 2^260 mod p after carrying them down to 52
// bits, then the low columns carry upward and bit 256 folds once more.
// With weakly normal inputs every column is below 2^108, so no sum overflows.
Fe ReduceColumns(u128 c[9]) {
  c[6] += c[5] >> 52;
  c[7] += c[6] >> 52;
  c[8] += c[7] >> 52;
  c[0] += (u128)((uint64_t)c[5] & kM52) * kR52;
  c[1] += (u128)((uint64_t)c[6] & kM52) * kR52;
  c[2] += (u128)((uint64_t)c[7] & kM52) * kR52;
  c[3] += (u128)((uint64_t)c[8] & kM52) * kR52;
  c[4] += (u128)(uint64_t)(c[8] >> 52) * kR52;
  c[1] += c[0] >> 52;
  c[2] += c[1] >> 52;
  c[3] += c[2] >> 52;
  c[4] += c[3] >> 52;
  u128 t = (u128)(uint64_t)(c[4] >> 48) * kPComplement + ((uint64_t)c[0] & kM52);
  Fe r;
  r.n[0] = (uint64_t)t & kM52;
  r.n[1] = ((uint64_t)c[1] & kM52) + (uint64_t)(t >> 52);
  r.n[2] = (uint64_t)c[2] & kM52;
  r.n[3] = (uint64_t)c[3] & kM52;
  r.n[4] = (uint64_t)c[4] & kM48;
  return r;
}

Fe FMul(const Fe& x, const Fe& y) {
  const uint64_t *a = x.n, *b = y.n;
  u128 c[9];
  c[0] = (u128)a[0] * b[0];
  c[1] = (u128)a[0] * b[1] + (u128)a[1] * b[0];
  c[2] = (u128)a[0] * b[2] + (u128)a[1] * b[1] + (u128)a[2] * b[0];
  c[3] = (u128)a[0] * b[3] + (u128)a[1] * b[2] + (u128)a[2] * b[1] + (u128)a[3] * b[0];
  c[4] = (u128)a[0] * b[4] + (u128)a[1] * b[3] + (u128)a[2] * b[2] + (u128)a[3] * b[1] +
         (u128)a[4] * b[0];
  c[5] = (u128)a[1] * b[4] + (u128)a[2] * b[3] + (u128)a[3] * b[2] + (u128)a[4] * b[1];
  c[6] = (u128)a[2] * b[4] + (u128)a[3] * b[3] + (u128)a[4] * b[2];
  c[7] = (u128)a[3] * b[4] + (u128)a[4] * b[3];
  c[8] = (u128)a[4] * b[4];
  return ReduceColumns(c);
}

// Squaring computes each cross product a_i·a_j (i < j) once, doubled: 15
// limb multiplications instead of 25.
Fe FSqr(const Fe& x) {
  const uint64_t* a = x.n;
  uint64_t a0 = a[0] * 2, a1 = a[1] * 2, a2 = a[2] * 2, a3 = a[3] * 2;
  u128 c[9];
  c[0] = (u128)a[0] * a[0];
  c[1] = (u128)a0 * a[1];
  c[2] = (u128)a0 * a[2] + (u128)a[1] * a[1];
  c[3] = (u128)a0 * a[3] + (u128)a1 * a[2];
  c[4] = (u128)a0 * a[4] + (u128)a1 * a[3] + (u128)a[2] * a[2];
  c[5] = (u128)a1 * a[4] + (u128)a2 * a[3];
  c[6] = (u128)a2 * a[4] + (u128)a[3] * a[3];
  c[7] = (u128)a3 * a[4];
  c[8] = (u128)a[4] * a[4];
  return ReduceColumns(c);
}

Fe FSqrN(Fe a, int n) {
  while (n-- > 0) a = FSqr(a);
  return a;
}

// a^(p-2) by an addition chain. p - 2 has runs of ones of lengths 223, 22, 1,
// 2 and 1 (high to low); x_k below is a^(2^k - 1). 255 squarings and 15
// multiplications, the same sequence for every input (chain from
// libsecp256k1's field inverse).
Fe FInv(const Fe& a) {
  Fe x2 = FMul(FSqr(a), a);
  Fe x3 = FMul(FSqr(x2), a);
  Fe x6 = FMul(FSqrN(x3, 3), x3);
  Fe x9 = FMul(FSqrN(x6, 3), x3);
  Fe x11 = FMul(FSqrN(x9, 2), x2);
  Fe x22 = FMul(FSqrN(x11, 11), x11);
  Fe x44 = FMul(FSqrN(x22, 22), x22);
  Fe x88 = FMul(FSqrN(x44, 44), x44);
  Fe x176 = FMul(FSqrN(x88, 88), x88);
  Fe x220 = FMul(FSqrN(x176, 44), x44);
  Fe x223 = FMul(FSqrN(x220, 3), x3);
  Fe t = FMul(FSqrN(x223, 23), x22);
  t = FMul(FSqrN(t, 5), a);
  t = FMul(FSqrN(t, 3), x2);
  return FMul(FSqrN(t, 2), a);
}

// ---------------------------------------------------------------------------
// Scalar arithmetic mod n. Variable time (see the header comment).
// ---------------------------------------------------------------------------

const U256 kN = [] {
  U256 n;
  n.v[0] = 0xBFD25E8CD0364141ULL;
  n.v[1] = 0xBAAEDCE6AF48A03BULL;
  n.v[2] = 0xFFFFFFFFFFFFFFFEULL;
  n.v[3] = 0xFFFFFFFFFFFFFFFFULL;
  return n;
}();

// (n - 1) / 2: the low-s bound. EcdsaSign normalizes s to at most this
// value and EcdsaVerify rejects anything above it (malleability guard).
const U256 kHalfN = [] {
  U256 half;
  for (int i = 0; i < 4; ++i) {
    half.v[i] = (kN.v[i] >> 1) | (i < 3 ? (kN.v[i + 1] << 63) : 0);
  }
  return half;
}();

// 2^256 mod n (= 2^256 - n since n > 2^255).
const U256 kNComplement = [] {
  U256 zero;
  U256 r;
  SubBorrow(zero, kN, &r);  // 2^256 - n via wraparound.
  return r;
}();

// Reduces a 512-bit value mod n using 2^256 ≡ kNComplement (129 bits).
U256 ReduceN(const U512& x) {
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
    if (carry) AddSmall(&hi, 1);
  }
  while (Cmp(lo, kN) >= 0) SubBorrow(lo, kN, &lo);
  return lo;
}

U256 NAdd(const U256& a, const U256& b) {
  U256 r;
  uint64_t carry = AddCarry(a, b, &r);
  if (carry) {
    // r + 2^256 ≡ r + kNComplement.
    AddCarry(r, kNComplement, &r);
  }
  while (Cmp(r, kN) >= 0) SubBorrow(r, kN, &r);
  return r;
}

U256 NSub(const U256& a, const U256& b) {
  U256 r;
  if (SubBorrow(a, b, &r)) AddCarry(r, kN, &r);
  return r;
}

U256 NMul(const U256& a, const U256& b) { return ReduceN(Mul(a, b)); }

// a^(n-2) (Fermat) for sign's secret nonce: the square-and-multiply
// sequence is fixed by n, where the Euclidean inverse below would branch on
// every bit of the nonce. (NMul's reduction still branches on data.)
U256 NInv(const U256& a) {
  U256 n_minus_2;
  SubBorrow(kN, U256::FromU64(2), &n_minus_2);
  U256 result = U256::FromU64(1);
  U256 acc = a;
  for (int i = 0; i < 256; ++i) {
    if (n_minus_2.Bit(i)) result = NMul(result, acc);
    acc = NMul(acc, acc);
  }
  return result;
}

// x / 2 mod n.
void NHalve(U256* x) {
  uint64_t top = 0;
  if (x->v[0] & 1) top = AddCarry(*x, kN, x);
  ShiftRight1(x, top);
}

// a^-1 mod n for a in [1, n-1] by the binary extended Euclidean algorithm.
// Variable time: only for public inputs (verify's s).
U256 NInvVar(const U256& a) {
  // Invariants: x1·a ≡ u and x2·a ≡ v (mod n); gcd(u, v) = 1 throughout.
  U256 u = a, v = kN, x1 = U256::FromU64(1), x2;
  while (!u.IsOne() && !v.IsOne()) {
    while (!(u.v[0] & 1)) {
      ShiftRight1(&u, 0);
      NHalve(&x1);
    }
    while (!(v.v[0] & 1)) {
      ShiftRight1(&v, 0);
      NHalve(&x2);
    }
    if (Cmp(u, v) >= 0) {
      SubBorrow(u, v, &u);
      x1 = NSub(x1, x2);
    } else {
      SubBorrow(v, u, &v);
      x2 = NSub(x2, x1);
    }
  }
  return u.IsOne() ? x1 : x2;
}

// Reduces a 256-bit big-endian byte string mod n.
U256 ReduceBytesModN(const uint8_t b[32]) {
  U256 x = U256::FromBytesBe(b);
  while (Cmp(x, kN) >= 0) SubBorrow(x, kN, &x);
  return x;
}

// ---------------------------------------------------------------------------
// The GLV endomorphism: (x, y) -> (β·x, y) is multiplication by λ, where β
// and λ are cube roots of unity mod p and mod n. Splitting a scalar as
// k = k1 + k2·λ with |k1|, |k2| < 2^129 halves the doublings of a
// multiplication. Constants and the rounding split follow libsecp256k1's
// scalar_split_lambda.
// ---------------------------------------------------------------------------

constexpr U256 kLambda = U256::FromLimbs(0x5363AD4CC05C30E0ULL, 0xA5261C028812645AULL,
                                         0x122E22EA20816678ULL, 0xDF02967C1B23BD72ULL);
constexpr U256 kBeta = U256::FromLimbs(0x7AE96A2B657C0710ULL, 0x6E64479EAC3434E9ULL,
                                       0x9CF0497512F58995ULL, 0xC1396C28719501EEULL);
// For a short basis {(a1, b1), (a2, b2)} of the lattice
// {(x, y) : x + y·λ ≡ 0 (mod n)}: g1 = round(2^384·b2/n) and
// g2 = round(2^384·(-b1)/n) give c1 ≈ k·b2/n and c2 ≈ -k·b1/n, and then
// k2 = c1·(-b1) + c2·(-b2) and k1 = k - k2·λ are short.
constexpr U256 kMinusB1 = U256::FromLimbs(0, 0, 0xE4437ED6010E8828ULL, 0x6F547FA90ABFE4C3ULL);
constexpr U256 kMinusB2 = U256::FromLimbs(0xFFFFFFFFFFFFFFFFULL, 0xFFFFFFFFFFFFFFFEULL,
                                          0x8A280AC50774346DULL, 0xD765CDA83DB1562CULL);
constexpr U256 kG1 = U256::FromLimbs(0x3086D221A7D46BCDULL, 0xE86C90E49284EB15ULL,
                                     0x3DAA8A1471E8CA7FULL, 0xE893209A45DBB031ULL);
constexpr U256 kG2 = U256::FromLimbs(0xE4437ED6010E8828ULL, 0x6F547FA90ABFE4C4ULL,
                                     0x221208AC9DF506C6ULL, 0x1571B4AE8AC47F71ULL);

// round(k·g / 2^384).
U256 MulShift384(const U256& k, const U256& g) {
  U512 prod = Mul(k, g);
  U256 r;
  r.v[0] = prod.v[6];
  r.v[1] = prod.v[7];
  AddSmall(&r, prod.v[5] >> 63);
  return r;
}

U256 NNeg(const U256& a) { return NSub(U256(), a); }

// k = k1 + k2·λ (mod n). Each half is returned as a magnitude below 2^129
// and a sign.
struct SplitScalar {
  U256 k1, k2;
  bool neg1, neg2;
};

SplitScalar SplitLambda(const U256& k) {
  U256 c1 = NMul(MulShift384(k, kG1), kMinusB1);
  U256 c2 = NMul(MulShift384(k, kG2), kMinusB2);
  SplitScalar out;
  out.k2 = NAdd(c1, c2);
  out.k1 = NSub(k, NMul(out.k2, kLambda));
  out.neg1 = Cmp(out.k1, kHalfN) > 0;
  out.neg2 = Cmp(out.k2, kHalfN) > 0;
  if (out.neg1) out.k1 = NNeg(out.k1);
  if (out.neg2) out.k2 = NNeg(out.k2);
  return out;
}

// ---------------------------------------------------------------------------
// Curve points. Jacobian (X, Y, Z) stands for (X/Z^2, Y/Z^3); Z == 0 is the
// point at infinity.
// ---------------------------------------------------------------------------

struct JacobianPoint {
  Fe x, y, z;
  bool IsInfinity() const { return FIsZero(z); }
};

struct AffinePoint {
  Fe x, y;
};

const AffinePoint kG = [] {
  U256 x, y;
  x.v[3] = 0x79BE667EF9DCBBACULL;
  x.v[2] = 0x55A06295CE870B07ULL;
  x.v[1] = 0x029BFCDB2DCE28D9ULL;
  x.v[0] = 0x59F2815B16F81798ULL;
  y.v[3] = 0x483ADA7726A3C465ULL;
  y.v[2] = 0x5DA4FBFC0E1108A8ULL;
  y.v[1] = 0xFD17B448A6855419ULL;
  y.v[0] = 0x9C47D08FFB10D4B8ULL;
  return AffinePoint{FeFromU256(x), FeFromU256(y)};
}();

JacobianPoint ToJacobian(const AffinePoint& p) { return {p.x, p.y, Fe{{1, 0, 0, 0, 0}}}; }
const JacobianPoint& ToJacobian(const JacobianPoint& p) { return p; }

// Requires p not at infinity.
AffinePoint ToAffine(const JacobianPoint& p) {
  Fe zinv = FInv(p.z);
  Fe zinv2 = FSqr(zinv);
  return {FMul(p.x, zinv2), FMul(p.y, FMul(zinv2, zinv))};
}

template <typename Point>
Point Negate(Point p) {
  p.y = FNeg(p.y);
  return p;
}

// Point doubling, 3M + 4S, in libsecp256k1's form: with L = 3X^2/2,
// S = Y^2 and T = -X·S the double is X3 = L^2 + 2T, Y3 = -(L·(X3 + T) + S^2),
// Z3 = Y·Z (the usual formulas scaled by 1/2, 1/4, 1/8). No branches:
// infinity (Z = 0) stays infinity, and secp256k1 has no point with Y = 0.
JacobianPoint Double(const JacobianPoint& p) {
  JacobianPoint r;
  r.z = FMul(p.y, p.z);
  Fe s = FSqr(p.y);
  Fe l = FHalf(FMulInt(FSqr(p.x), 3));
  Fe t = FNeg(FMul(s, p.x));
  r.x = FAdd(FSqr(l), FAdd(t, t));
  r.y = FNeg(FAdd(FMul(l, FAdd(r.x, t)), FSqr(s)));
  return r;
}

// P + Q in the form shared by both addition flavours: U1 = X1·Z2^2 and
// S1 = Y1·Z2^3 are P brought to Q's scale, H = U2 - U1, R = S2 - S1, and
// Z3 = Z1·Z2·H. H == 0 means P = ±Q.
struct AddTerms {
  Fe u1, s1, h, r, z3;
};

AddTerms Terms(const JacobianPoint& p, const JacobianPoint& q) {
  Fe z1z1 = FSqr(p.z), z2z2 = FSqr(q.z);
  Fe u1 = FMul(p.x, z2z2);
  Fe s1 = FMul(p.y, FMul(q.z, z2z2));
  Fe h = FSub(FMul(q.x, z1z1), u1);
  Fe r = FSub(FMul(q.y, FMul(p.z, z1z1)), s1);
  return {u1, s1, h, r, FMul(FMul(p.z, q.z), h)};
}

// Mixed Jacobian + affine (Z2 = 1): a squaring and four multiplications
// fewer.
AddTerms Terms(const JacobianPoint& p, const AffinePoint& q) {
  Fe z1z1 = FSqr(p.z);
  Fe h = FSub(FMul(q.x, z1z1), p.x);
  Fe r = FSub(FMul(q.y, FMul(p.z, z1z1)), p.y);
  return {p.x, p.y, h, r, FMul(p.z, h)};
}

JacobianPoint FinishAdd(const AddTerms& t) {
  Fe hh = FSqr(t.h);
  Fe hhh = FMul(t.h, hh);
  Fe v = FMul(t.u1, hh);
  JacobianPoint out;
  out.x = FSub(FSub(FSqr(t.r), hhh), FAdd(v, v));
  out.y = FSub(FMul(t.r, FSub(v, out.x)), FMul(t.s1, hhh));
  out.z = t.z3;
  return out;
}

// P + Q with no branches. Valid only when P ≠ ±Q and neither is infinity;
// the callers (odd-multiple tables, the fixed-window ladder) never reach
// those cases.
template <typename Point>
JacobianPoint Add(const JacobianPoint& p, const Point& q) {
  return FinishAdd(Terms(p, q));
}

// P + Q for any P and a finite Q, branching on the exceptional cases.
// Variable time: verify only.
template <typename Point>
JacobianPoint AddVar(const JacobianPoint& p, const Point& q) {
  if (p.IsInfinity()) return ToJacobian(q);
  AddTerms t = Terms(p, q);
  if (FIsZero(t.h)) {
    if (FIsZero(t.r)) return Double(p);
    return JacobianPoint{};  // P = -Q
  }
  return FinishAdd(t);
}

// table[i] = (2i+1)·P for i < count.
void OddMultiples(const JacobianPoint& p, JacobianPoint* table, int count) {
  JacobianPoint twice = Double(p);
  table[0] = p;
  for (int i = 1; i < count; ++i) table[i] = Add(table[i - 1], twice);
}

// Window widths. Verify splits u1 and u2 with the endomorphism and recodes
// the halves of u1 in width-8 NAF against static tables of the 64 smallest
// odd multiples of G and of λ·G, and the halves of u2 in width-5 NAF
// against per-call tables of Q's and λ·Q's 8 smallest. The constant-time
// ladder takes signed odd base-16 digits, so it needs the same 8 odd
// multiples (1..15)·P; for G those are the first 8 entries of the verify
// table.
constexpr int kGWindow = 8;
constexpr int kGTableSize = 1 << (kGWindow - 2);
constexpr int kQWindow = 5;
constexpr int kQTableSize = 1 << (kQWindow - 2);
constexpr int kLadderTableSize = 8;
static_assert(kQTableSize == kLadderTableSize);

// λ·P for P in either coordinate form: x (or X) times β.
template <typename Point>
Point MulLambda(Point p) {
  p.x = FMul(p.x, FeFromU256(kBeta));
  return p;
}

// The affine odd multiples (1, 3, ..., 127)·G, built on first use.
const AffinePoint* GTable() {
  static const std::array<AffinePoint, kGTableSize> table = [] {
    std::array<JacobianPoint, kGTableSize> jac;
    OddMultiples(ToJacobian(kG), jac.data(), kGTableSize);
    std::array<AffinePoint, kGTableSize> out;
    for (int i = 0; i < kGTableSize; ++i) out[i] = ToAffine(jac[i]);
    return out;
  }();
  return table.data();
}

// The same multiples of λ·G.
const AffinePoint* GLambdaTable() {
  static const std::array<AffinePoint, kGTableSize> table = [] {
    std::array<AffinePoint, kGTableSize> out;
    for (int i = 0; i < kGTableSize; ++i) out[i] = MulLambda(GTable()[i]);
    return out;
  }();
  return table.data();
}

// Width-w NAF of k: every nonzero digit is odd with |d| < 2^(w-1), and any w
// consecutive digits hold at most one nonzero. A k near 2^256 can carry into
// digit 256. Returns the number of digits through the last nonzero one.
constexpr int kNafLen = 257;
int Wnaf(const U256& k, int w, int naf[kNafLen]) {
  std::fill(naf, naf + kNafLen, 0);
  int carry = 0, len = 0;
  for (int bit = 0; bit < 256;) {
    if (int(k.Bit(bit)) == carry) {
      ++bit;
      continue;
    }
    int now = std::min(w, 256 - bit);
    int word = int(Bits(k, bit, now)) + carry;
    carry = (word >> (w - 1)) & 1;
    naf[bit] = word - (carry << w);
    len = bit + 1;
    bit += now;
  }
  if (carry) {
    naf[256] = 1;
    len = kNafLen;
  }
  return len;
}

// One scalar half in wNAF, its digits negated when the half is.
struct NafStream {
  int naf[kNafLen];
  int len;
};

NafStream Recode(const U256& magnitude, bool negative, int w) {
  NafStream s;
  s.len = Wnaf(magnitude, w, s.naf);
  if (negative) {
    for (int i = 0; i < s.len; ++i) s.naf[i] = -s.naf[i];
  }
  return s;
}

template <typename Point>
void AddDigitVar(JacobianPoint* acc, const Point* table, int digit) {
  if (digit > 0) *acc = AddVar(*acc, table[digit / 2]);
  else if (digit < 0) *acc = AddVar(*acc, Negate(table[-digit / 2]));
}

// u1·G + u2·Q in one Shamir pass over the four endomorphism halves
// u1 = a1 + b1·λ and u2 = a2 + b2·λ: about 129 shared doublings, and each
// half adds a table entry at its nonzero wNAF digits. Variable time.
JacobianPoint MulShamirVar(const U256& u1, const U256& u2, const AffinePoint& q) {
  SplitScalar s1 = SplitLambda(u1), s2 = SplitLambda(u2);
  NafStream g_lo = Recode(s1.k1, s1.neg1, kGWindow);
  NafStream g_hi = Recode(s1.k2, s1.neg2, kGWindow);
  NafStream q_lo = Recode(s2.k1, s2.neg1, kQWindow);
  NafStream q_hi = Recode(s2.k2, s2.neg2, kQWindow);
  JacobianPoint qt[kQTableSize], qlt[kQTableSize];
  OddMultiples(ToJacobian(q), qt, kQTableSize);
  for (int i = 0; i < kQTableSize; ++i) qlt[i] = MulLambda(qt[i]);
  const AffinePoint* gt = GTable();
  const AffinePoint* glt = GLambdaTable();
  JacobianPoint acc{};
  for (int i = std::max({g_lo.len, g_hi.len, q_lo.len, q_hi.len}) - 1; i >= 0; --i) {
    acc = Double(acc);
    AddDigitVar(&acc, qt, q_lo.naf[i]);
    AddDigitVar(&acc, qlt, q_hi.naf[i]);
    AddDigitVar(&acc, gt, g_lo.naf[i]);
    AddDigitVar(&acc, glt, g_hi.naf[i]);
  }
  return acc;
}

void CondMove(uint64_t mask, const Fe& src, Fe* dst) { *dst = Select(mask, src, *dst); }

void CondMove(uint64_t mask, const AffinePoint& src, AffinePoint* dst) {
  CondMove(mask, src.x, &dst->x);
  CondMove(mask, src.y, &dst->y);
}

void CondMove(uint64_t mask, const JacobianPoint& src, JacobianPoint* dst) {
  CondMove(mask, src.x, &dst->x);
  CondMove(mask, src.y, &dst->y);
  CondMove(mask, src.z, &dst->z);
}

// digit·P for an odd digit in [-15, 15], reading every table entry.
template <typename Point>
Point LookupConst(const Point table[kLadderTableSize], int digit) {
  uint32_t sign = uint32_t(digit >> 31);  // all-ones when negative
  uint32_t index = ((uint32_t(digit) ^ sign) - sign) >> 1;
  Point out{};
  for (uint32_t j = 0; j < kLadderTableSize; ++j) {
    CondMove(MaskOf(((j ^ index) - 1) >> 31), table[j], &out);
  }
  out.y = Select(MaskOf(sign & 1), FNeg(out.y), out.y);
  return out;
}

// k·P for a secret k in [1, n-1] in constant time, given table[i] =
// (2i+1)·P: the same doublings, additions and full-table scans for every k.
//
// An even k is replaced by the odd n - k and the result negated. An odd e <
// 2^256 then has the regular signed-digit form e = 16^64 + Σ d_i·16^i with
// every d_i odd in [-15, 15]: d_i = (bits 4i..4i+4 of e | 1) - 16. Before
// adding d_i the accumulator holds (e - Σ_{j<=i} d_j·16^j)/16^i · P, never
// ±d_i·P or infinity for e in [1, n-1] (for i = 0 this uses n ≡ 1 mod 32),
// so the branch-free additions stay valid.
template <typename Point>
JacobianPoint MulConst(const U256& k, const Point table[kLadderTableSize]) {
  U256 neg_k;
  SubBorrow(kN, k, &neg_k);
  uint64_t flip = MaskOf((k.v[0] & 1) ^ 1);
  U256 e = Select(flip, neg_k, k);
  JacobianPoint acc = ToJacobian(table[0]);  // the top digit is always 1
  for (int i = 63; i >= 0; --i) {
    for (int j = 0; j < 4; ++j) acc = Double(acc);
    acc = Add(acc, LookupConst(table, int(Bits(e, 4 * i, 5) | 1) - 16));
  }
  acc.y = Select(flip, FNeg(acc.y), acc.y);
  return acc;
}

JacobianPoint MulGConst(const U256& k) { return MulConst(k, GTable()); }

bool IsOnCurve(const Fe& x, const Fe& y) {
  // y^2 == x^3 + 7 (mod p)
  return FEqual(FSqr(y), FAdd(FMul(FSqr(x), x), Fe{{7, 0, 0, 0, 0}}));
}

U256 PrivToScalar(const PrivateKey& priv) {
  return U256::FromBytesBe(priv.data());
}

bool ScalarValid(const U256& s) { return !s.IsZero() && Cmp(s, kN) < 0; }

void EncodePoint(const AffinePoint& p, PublicKey* out) {
  FeToU256(p.x).ToBytesBe(out->data());
  FeToU256(p.y).ToBytesBe(out->data() + 32);
}

Result<AffinePoint> DecodePoint(const PublicKey& pub) {
  U256 x = U256::FromBytesBe(pub.data());
  U256 y = U256::FromBytesBe(pub.data() + 32);
  AffinePoint p{FeFromU256(x), FeFromU256(y)};
  if (Cmp(x, kP) >= 0 || Cmp(y, kP) >= 0 || !IsOnCurve(p.x, p.y)) {
    return Status::CryptoError("public key is not a curve point");
  }
  return p;
}

}  // namespace

KeyPair GenerateKeyPair(Drbg* rng) {
  KeyPair kp;
  for (;;) {
    rng->Fill(kp.priv.data(), kp.priv.size());
    U256 d = PrivToScalar(kp.priv);
    if (!ScalarValid(d)) continue;
    EncodePoint(ToAffine(MulGConst(d)), &kp.pub);
    return kp;
  }
}

Result<PublicKey> DerivePublicKey(const PrivateKey& priv) {
  U256 d = PrivToScalar(priv);
  if (!ScalarValid(d)) {
    return Status::InvalidArgument("private key scalar out of range");
  }
  PublicKey out;
  EncodePoint(ToAffine(MulGConst(d)), &out);
  return out;
}

bool IsValidPublicKey(const PublicKey& pub) {
  return DecodePoint(pub).ok();
}

Result<Signature> EcdsaSign(const PrivateKey& priv, const Hash256& digest) {
  static metrics::Counter* ops = metrics::GetCounter("crypto.ecdsa.sign.count");
  ops->Increment();
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

    U256 r = FeToU256(ToAffine(MulGConst(k)).x);
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

bool EcdsaVerify(const PublicKey& pub, const Hash256& digest, const Signature& sig) {
  static metrics::Counter* ops = metrics::GetCounter("crypto.ecdsa.verify.count");
  ops->Increment();
  auto point = DecodePoint(pub);
  if (!point.ok()) return false;

  U256 r = U256::FromBytesBe(sig.data());
  U256 s = U256::FromBytesBe(sig.data() + 32);
  if (!ScalarValid(r) || !ScalarValid(s)) return false;
  // (r, n - s) verifies whenever (r, s) does; accepting only the low half
  // gives every message one valid encoding per nonce.
  if (Cmp(s, kHalfN) > 0) return false;

  U256 z = ReduceBytesModN(digest.data());
  U256 s_inv = NInvVar(s);
  JacobianPoint sum = MulShamirVar(NMul(z, s_inv), NMul(r, s_inv), *point);
  if (sum.IsInfinity()) return false;

  // x(R) = X/Z^2 is below p < 2n, so x(R) ≡ r (mod n) means x(R) is r or
  // r + n. Comparing r·Z^2 with X skips the field inversion.
  Fe zz = FSqr(sum.z);
  if (FEqual(FMul(FeFromU256(r), zz), sum.x)) return true;
  U256 r_plus_n;
  if (AddCarry(r, kN, &r_plus_n) || Cmp(r_plus_n, kP) >= 0) return false;
  return FEqual(FMul(FeFromU256(r_plus_n), zz), sum.x);
}

Result<Hash256> EcdhSharedSecret(const PrivateKey& priv, const PublicKey& pub) {
  static metrics::Counter* ops = metrics::GetCounter("crypto.ecdh.count");
  ops->Increment();
  U256 d = PrivToScalar(priv);
  if (!ScalarValid(d)) {
    return Status::InvalidArgument("private key scalar out of range");
  }
  CONFIDE_ASSIGN_OR_RETURN(AffinePoint q, DecodePoint(pub));
  JacobianPoint table[kLadderTableSize];
  OddMultiples(ToJacobian(q), table, kLadderTableSize);
  JacobianPoint shared = MulConst(d, table);
  if (shared.IsInfinity()) {
    return Status::CryptoError("ECDH produced the point at infinity");
  }
  uint8_t x_bytes[32];
  FeToU256(ToAffine(shared).x).ToBytesBe(x_bytes);
  return Sha256::Digest(ByteView(x_bytes, 32));
}

std::array<uint8_t, 20> PublicKeyToAddress(const PublicKey& pub) {
  Hash256 h = Keccak256::Digest(ByteView(pub.data(), pub.size()));
  std::array<uint8_t, 20> addr;
  std::memcpy(addr.data(), h.data() + 12, 20);
  return addr;
}

}  // namespace confide::crypto
