/// \file secp256k1.h
/// \brief secp256k1 elliptic-curve cryptography from scratch.
///
/// Provides ECDSA (transaction signatures, attestation report signatures)
/// and ECDH (T-Protocol envelope key agreement, K-Protocol MAP channels).
/// Field/scalar arithmetic uses 4x64-bit limbs with special-form reduction
/// for p = 2^256 - 2^32 - 977; points use Jacobian coordinates.
///
/// This is a correctness-first portable implementation (not constant-time
/// hardened — the host is a simulator, not production silicon).

#pragma once

#include <array>
#include <cstdint>
#include <optional>

#include "common/bytes.h"
#include "common/status.h"
#include "crypto/drbg.h"
#include "crypto/sha256.h"

namespace confide::crypto {

/// \brief 32-byte big-endian scalar (private key).
using PrivateKey = std::array<uint8_t, 32>;

/// \brief Uncompressed public key: 32-byte X || 32-byte Y (big-endian).
using PublicKey = std::array<uint8_t, 64>;

/// \brief ECDSA signature: 32-byte r || 32-byte s (big-endian), s normalized
/// to the low half-order.
using Signature = std::array<uint8_t, 64>;

/// \brief Key pair container.
struct KeyPair {
  PrivateKey priv;
  PublicKey pub;
};

/// \brief Derives a valid key pair from a DRBG (rejection-samples until the
/// scalar is in [1, n-1]).
KeyPair GenerateKeyPair(Drbg* rng);

/// \brief Computes the public key for a private key; fails on zero or
/// out-of-range scalars.
Result<PublicKey> DerivePublicKey(const PrivateKey& priv);

/// \brief Returns true iff `pub` encodes a point on the curve.
bool IsValidPublicKey(const PublicKey& pub);

/// \brief ECDSA-signs a 32-byte message digest. Nonces are deterministic
/// (RFC-6979 flavoured: HMAC over key || digest), so signatures are
/// reproducible across runs.
Result<Signature> EcdsaSign(const PrivateKey& priv, const Hash256& digest);

/// \brief Verifies an ECDSA signature over a 32-byte digest. Rejects
/// high-s signatures (s > n/2), which EcdsaSign never produces.
bool EcdsaVerify(const PublicKey& pub, const Hash256& digest, const Signature& sig);

/// \brief ECDH: SHA-256 of the shared point's X coordinate.
Result<Hash256> EcdhSharedSecret(const PrivateKey& priv, const PublicKey& pub);

/// \brief 20-byte address derived Ethereum-style: last 20 bytes of
/// Keccak-256(pubkey).
std::array<uint8_t, 20> PublicKeyToAddress(const PublicKey& pub);

}  // namespace confide::crypto
