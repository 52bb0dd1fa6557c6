#include "crypto/sha256.h"

#include <algorithm>
#include <cstring>
#include <iterator>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#include <immintrin.h>
#endif

#include "common/endian.h"
#include "common/metrics.h"

namespace confide::crypto {

namespace {

/// FIPS 180-4 §5.3.3.
constexpr uint32_t kInitialState[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                                       0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};

constexpr uint32_t kK[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
};

/// The portable compression function (FIPS 180-4 §6.2.2), one block at a
/// time.
void CompressPortable(uint32_t state[8], const uint8_t* data, size_t blocks) {
  for (; blocks > 0; --blocks, data += 64) {
    const uint8_t* block = data;
    uint32_t w[64];
    for (int i = 0; i < 16; ++i) w[i] = LoadBe32(block + 4 * i);
    for (int i = 16; i < 64; ++i) {
      uint32_t s0 = RotR32(w[i - 15], 7) ^ RotR32(w[i - 15], 18) ^ (w[i - 15] >> 3);
      uint32_t s1 = RotR32(w[i - 2], 17) ^ RotR32(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

    for (int i = 0; i < 64; ++i) {
      uint32_t s1 = RotR32(e, 6) ^ RotR32(e, 11) ^ RotR32(e, 25);
      uint32_t ch = (e & f) ^ (~e & g);
      uint32_t t1 = h + s1 + ch + kK[i] + w[i];
      uint32_t s0 = RotR32(a, 2) ^ RotR32(a, 13) ^ RotR32(a, 22);
      uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      uint32_t t2 = s0 + maj;
      h = g; g = f; f = e; e = d + t1;
      d = c; c = b; b = a; a = t1 + t2;
    }

    state[0] += a; state[1] += b; state[2] += c; state[3] += d;
    state[4] += e; state[5] += f; state[6] += g; state[7] += h;
  }
}

#if defined(__x86_64__) || defined(__i386__)

/// The SHA-NI compression function. The state lives in two registers as
/// ABEF and CDGH, the layout SHA256RNDS2 expects; each 4-round group
/// adds its schedule words to K[4g..4g+3], runs two double rounds and
/// extends the schedule with SHA256MSG1/MSG2 four words ahead.
__attribute__((target("sha,sse4.1"))) void CompressShaNi(uint32_t state[8],
                                                          const uint8_t* data,
                                                          size_t blocks) {
  const __m128i kBswap = _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
  __m128i tmp = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));  // DCBA
  __m128i state1 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4));  // HGFE
  tmp = _mm_shuffle_epi32(tmp, 0xB1);          // CDAB
  state1 = _mm_shuffle_epi32(state1, 0x1B);    // EFGH
  __m128i state0 = _mm_alignr_epi8(tmp, state1, 8);  // ABEF
  state1 = _mm_blend_epi16(state1, tmp, 0xF0);       // CDGH

  for (; blocks > 0; --blocks, data += 64) {
    const __m128i abef = state0;
    const __m128i cdgh = state1;
    __m128i w[4];
#pragma GCC unroll 16
    for (int g = 0; g < 16; ++g) {
      if (g < 4) {
        w[g] = _mm_shuffle_epi8(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16 * g)), kBswap);
      }
      __m128i msg = _mm_add_epi32(
          w[g % 4], _mm_loadu_si128(reinterpret_cast<const __m128i*>(kK + 4 * g)));
      state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
      if (g >= 3 && g <= 14) {
        // W[4(g+1)..] = msg2(msg1(W[4(g-3)..]) + W[4(g-2)+1..4(g-1)], W[4g..]).
        __m128i& next = w[(g + 1) % 4];
        next = _mm_add_epi32(next, _mm_alignr_epi8(w[g % 4], w[(g + 3) % 4], 4));
        next = _mm_sha256msg2_epu32(next, w[g % 4]);
      }
      msg = _mm_shuffle_epi32(msg, 0x0E);
      state0 = _mm_sha256rnds2_epu32(state0, state1, msg);
      if (g >= 1 && g <= 12) {
        w[(g + 3) % 4] = _mm_sha256msg1_epu32(w[(g + 3) % 4], w[g % 4]);
      }
    }
    state0 = _mm_add_epi32(state0, abef);
    state1 = _mm_add_epi32(state1, cdgh);
  }

  tmp = _mm_shuffle_epi32(state0, 0x1B);        // FEBA
  state1 = _mm_shuffle_epi32(state1, 0xB1);     // DCHG
  state0 = _mm_blend_epi16(tmp, state1, 0xF0);  // DCBA
  state1 = _mm_alignr_epi8(state1, tmp, 8);     // HGFE
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state), state0);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4), state1);
}

bool CpuHasShaNi() {
  unsigned a = 0, b = 0, c = 0, d = 0;
  if (!__get_cpuid(1, &a, &b, &c, &d) || !(c & bit_SSE4_1)) return false;
  if (!__get_cpuid_count(7, 0, &a, &b, &c, &d)) return false;
  return (b & (1u << 29)) != 0;
}

#else

void CompressShaNi(uint32_t state[8], const uint8_t* data, size_t blocks) {
  CompressPortable(state, data, blocks);
}

bool CpuHasShaNi() { return false; }

#endif

/// Absorbs `blocks` consecutive 64-byte blocks into `state`.
using CompressFn = void (*)(uint32_t state[8], const uint8_t* data, size_t blocks);

/// The compression function every context uses, chosen on first use.
CompressFn Compress() {
  static const CompressFn chosen = Sha256::HasShaNi() ? CompressShaNi : CompressPortable;
  return chosen;
}

}  // namespace

bool Sha256::HasShaNi() {
  static const bool has = CpuHasShaNi();
  return has;
}

void Sha256::Reset() {
  std::copy(std::begin(kInitialState), std::end(kInitialState), state_.begin());
  total_len_ = 0;
  buf_len_ = 0;
}

void Sha256::Update(ByteView data) {
  const CompressFn compress = Compress();
  total_len_ += data.size();
  size_t pos = 0;
  if (buf_len_ > 0) {
    size_t take = std::min(data.size(), size_t(64) - buf_len_);
    std::memcpy(buf_ + buf_len_, data.data(), take);
    buf_len_ += take;
    pos = take;
    if (buf_len_ == 64) {
      compress(state_.data(), buf_, 1);
      buf_len_ = 0;
    }
  }
  if (const size_t blocks = (data.size() - pos) / 64; blocks > 0) {
    compress(state_.data(), data.data() + pos, blocks);
    pos += 64 * blocks;
  }
  if (pos < data.size()) {
    std::memcpy(buf_, data.data() + pos, data.size() - pos);
    buf_len_ = data.size() - pos;
  }
}

Hash256 Sha256::Finish() {
  uint64_t bit_len = total_len_ * 8;
  uint8_t pad[72];
  size_t pad_len = (buf_len_ < 56) ? (56 - buf_len_) : (120 - buf_len_);
  pad[0] = 0x80;
  std::memset(pad + 1, 0, pad_len - 1);
  StoreBe64(pad + pad_len, bit_len);
  Update(ByteView(pad, pad_len + 8));

  Hash256 out;
  for (int i = 0; i < 8; ++i) StoreBe32(out.data() + 4 * i, state_[i]);
  return out;
}

Hash256 Sha256::Digest(ByteView data) {
  static metrics::Counter* ops = metrics::GetCounter("crypto.sha256.count");
  static metrics::Counter* bytes = metrics::GetCounter("crypto.sha256.bytes");
  ops->Increment();
  bytes->Increment(data.size());
  Sha256 ctx;
  ctx.Update(data);
  return ctx.Finish();
}

Hash256 Sha256PortableDigest(ByteView data) {
  // FIPS 180-4 §5.1.1 padding: 0x80, zeros to 56 mod 64, the bit length.
  Bytes padded(data.begin(), data.end());
  padded.push_back(0x80);
  while (padded.size() % 64 != 56) padded.push_back(0);
  padded.resize(padded.size() + 8);
  StoreBe64(padded.data() + padded.size() - 8, uint64_t(data.size()) * 8);
  uint32_t state[8];
  std::copy(std::begin(kInitialState), std::end(kInitialState), state);
  CompressPortable(state, padded.data(), padded.size() / 64);
  Hash256 out;
  for (int i = 0; i < 8; ++i) StoreBe32(out.data() + 4 * i, state[i]);
  return out;
}

}  // namespace confide::crypto
