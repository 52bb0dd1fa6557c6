/// \file secp256k1.h
/// \brief secp256k1 elliptic-curve cryptography from scratch.
///
/// Provides ECDSA (transaction signatures, attestation report signatures)
/// and ECDH (T-Protocol envelope key agreement, K-Protocol MAP channels).
/// The techniques follow libsecp256k1 (github.com/bitcoin-core/secp256k1);
/// no code is imported from it.
///
/// Algorithms:
///  - Field elements mod p = 2^256 - 2^32 - 977 use five 52-bit limbs with
///    weak normalization; products fold with 2^256 ≡ 2^32 + 977. Squaring
///    has its own routine, inversion is a fixed addition chain for p - 2.
///  - Points use Jacobian coordinates; doubling is 3M + 4S, addition has a
///    mixed Jacobian+affine form.
///  - EcdsaVerify computes u1·G + u2·Q in one Shamir pass. The GLV
///    endomorphism splits each scalar into two ~128-bit halves, so the pass
///    has ~129 doublings. u1's halves use width-8 NAF digits against static
///    affine tables of the odd multiples of G and λ·G, built on first use;
///    u2's halves use width-5 NAF digits against per-call tables for Q and
///    λ·Q. Verify then checks r·Z^2 == X (and (r + n)·Z^2 == X when
///    r + n < p) instead of inverting Z. s^-1 uses a binary extended
///    Euclidean inverse.
///  - Secret scalars go through a fixed-window (w = 4) multiply over
///    signed odd digits: an even k is swapped for n - k, every one of the 64
///    windows does four doublings and one addition, and each table lookup
///    scans all eight entries with masks.
///
/// Timing: the secret-scalar paths run in constant time in the point and
/// field layers: ECDH, DerivePublicKey/GenerateKeyPair, and the nonce
/// multiply k·G inside EcdsaSign. Only EcdsaVerify, whose inputs are all
/// public, is variable time (scalar splitting, wNAF recoding,
/// exceptional-case branches, the Euclidean inverse).
///
/// Not hardened: the mod-n scalar arithmetic in EcdsaSign (reducing x(k·G)
/// to r, k^-1 by Fermat, and s = k^-1·(z + r·d)) uses data-dependent
/// reductions on the secret nonce and key, and range checks on secret
/// scalars return early.

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
