/// \file attestation.h
/// \brief Simulated SGX attestation: measurements, local reports, quotes.
///
/// Substitution note (see DESIGN.md): Intel's EPID/DCAP infrastructure is
/// replaced by an ECDSA chain with the same interface guarantees —
///   * a *measurement* binds the report to the enclave's code identity,
///   * a *local report* is MACed with a per-platform key only enclaves on
///     that platform can derive (local attestation, §5.1),
///   * a *quote* is signed by a per-platform attestation key that is in
///     turn certified by a simulated hardware root of trust (remote
///     attestation, used by K-Protocol's MAP §3.2.2).
/// The paper's protocols only require "unforgeable statement that code
/// with measurement M runs with data D"; this chain provides exactly that.

#pragma once

#include <cstdint>
#include <string_view>

#include "common/bytes.h"
#include "common/status.h"
#include "crypto/secp256k1.h"
#include "crypto/sha256.h"

namespace confide::tee {

/// \brief Enclave code measurement (MRENCLAVE analogue).
using Measurement = crypto::Hash256;

/// \brief Computes the measurement of an enclave code identity string
/// (stand-in for hashing the loaded pages + configuration).
Measurement MeasureEnclave(std::string_view code_identity, uint64_t security_version);

/// \brief Local-attestation report, verifiable only on the same platform.
struct LocalReport {
  Measurement mrenclave{};
  uint64_t security_version = 0;
  Bytes user_data;
  crypto::Hash256 mac{};
};

/// \brief Remote-attestation quote, verifiable anywhere against the
/// simulated hardware root.
struct Quote {
  Measurement mrenclave{};
  uint64_t security_version = 0;
  uint64_t platform_id = 0;
  Bytes user_data;
  crypto::PublicKey platform_key{};   ///< per-platform attestation key
  crypto::Signature platform_cert{};  ///< root's signature over platform_key
  crypto::Signature signature{};      ///< platform_key's signature over body
};

/// \brief The simulated hardware root of trust (stands in for Intel's
/// attestation service). A process-wide deterministic key pair.
class AttestationRoot {
 public:
  /// \brief Certifies a platform attestation key (provisioning).
  static crypto::Signature CertifyPlatformKey(const crypto::PublicKey& platform_key);

  /// \brief Checks a platform certificate against the root key.
  static bool VerifyPlatformCert(const crypto::PublicKey& platform_key,
                                 const crypto::Signature& cert);
};

/// \brief Serializes the signed portion of a quote.
Bytes QuoteSigningBody(const Quote& quote);

/// \brief Full quote verification: certificate chain + quote signature.
/// Callers must still compare `mrenclave`/`user_data` against expectations.
bool VerifyQuote(const Quote& quote);

}  // namespace confide::tee
