/// \file sha256.h
/// \brief SHA-256 (FIPS 180-4), implemented from scratch.
///
/// Used for transaction hashes, enclave measurement, Merkle trees, HMAC and
/// HKDF key derivation throughout CONFIDE.
///
/// Two compression functions produce the same digests: a portable one and
/// one on the x86 SHA extensions (SHA-NI). Every context uses SHA-NI when
/// CPUID reports it, chosen once per process; Sha256PortableDigest keeps
/// the portable one callable as the reference the tests compare against.

#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "common/bytes.h"

namespace confide::crypto {

/// \brief 32-byte digest type.
using Hash256 = std::array<uint8_t, 32>;

/// \brief Incremental SHA-256 context.
class Sha256 {
 public:
  /// \brief True when this CPU has the SHA extensions (CPUID leaf 7, EBX
  /// bit 29) and the SSE4.1 the SHA-NI path also uses.
  static bool HasShaNi();

  Sha256() { Reset(); }

  /// \brief Resets to the initial state.
  void Reset();

  /// \brief Absorbs `data`.
  void Update(ByteView data);

  /// \brief Finalizes and returns the digest. The context must be Reset()
  /// before reuse.
  Hash256 Finish();

  /// \brief One-shot convenience.
  static Hash256 Digest(ByteView data);

 private:
  std::array<uint32_t, 8> state_;
  uint64_t total_len_ = 0;
  uint8_t buf_[64];
  size_t buf_len_ = 0;
};

/// \brief One-shot SHA-256 on the portable compression function alone,
/// whatever the CPU has: the reference for the dispatched path.
Hash256 Sha256PortableDigest(ByteView data);

/// \brief Converts a Hash256 to an owning Bytes buffer.
inline Bytes HashToBytes(const Hash256& h) { return Bytes(h.begin(), h.end()); }

/// \brief Views a Hash256 as bytes.
inline ByteView HashView(const Hash256& h) { return ByteView(h.data(), h.size()); }

}  // namespace confide::crypto
