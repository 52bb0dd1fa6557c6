/// \file key_manager.h
/// \brief KM Enclave and the K-Protocol (paper §3.2.2, §5.1).
///
/// The key-management enclave generates/validates the consortium secrets:
///   * sk_tx / pk_tx — the asymmetric pair whose public half clients seal
///     envelopes to; its fingerprint is locked into the attestation report
///     so a man-in-the-middle cannot substitute keys;
///   * k_states — the symmetric state root key shared by all engines so
///     every replica produces identical encrypted state.
///
/// Two agreement modes, as in the paper:
///   * **Centralized** — a key-management service (HSM stand-in) verifies
///     an enclave's quote and provisions the secrets;
///   * **Decentralized (MAP)** — the first node generates the secrets; a
///     joining node's KM enclave sends a quote carrying an ECDH public
///     key; the provider verifies the quote *and* that the measurement
///     matches its own code, then wraps the secrets to the ECDH key.
///
/// Keys reach the CS enclave over a local-attestation channel, after
/// which the KM enclave can be destroyed to release EPC (paper §5.3).

#pragma once

#include <mutex>
#include <optional>

#include "confide/protocol.h"
#include "tee/enclave.h"

namespace confide::core {

/// \brief KM enclave ecall ids.
enum KmEcall : uint64_t {
  kKmGenerateKeys = 1,     ///< first node: generate sk_tx + k_states
  kKmGetPublicInfo = 2,    ///< -> RLP{pk_tx, quote(user_data = SHA256(pk_tx))}
  kKmCreateJoinRequest = 3,///< joiner: -> serialized quote (ECDH pub bound)
  kKmProvisionPeer = 4,    ///< provider: joiner quote -> provision blob
  kKmAcceptProvision = 5,  ///< joiner: provision blob -> ()
  kKmProvisionCs = 6,      ///< CS local report -> provision blob for CS
};

/// \brief Serialized quote helpers (RLP) for crossing the boundary.
Bytes SerializeQuote(const tee::Quote& quote);
Result<tee::Quote> DeserializeQuote(ByteView wire);

/// \brief CS local report, RLP [mrenclave, svn, user_data, mac]: the CS
/// enclave writes it, the KM enclave reads it (kKmProvisionCs).
Bytes SerializeLocalReport(const tee::LocalReport& report);
Result<tee::LocalReport> DeserializeLocalReport(ByteView wire);

/// \brief The consortium secrets as provisioned.
struct ConsortiumKeys {
  crypto::PrivateKey sk_tx{};
  crypto::PublicKey pk_tx{};
  StateKey k_states{};
};

/// \brief Wraps the secrets to a recipient ECDH public key (provision
/// blob format shared by MAP and the centralized KMS).
Result<Bytes> WrapConsortiumKeys(const ConsortiumKeys& keys,
                                 const crypto::PublicKey& recipient,
                                 uint64_t entropy);

/// \brief Unwraps a provision blob with the recipient's ECDH private key.
Result<ConsortiumKeys> UnwrapConsortiumKeys(const crypto::PrivateKey& recipient_priv,
                                            ByteView blob);

/// \brief The key-management enclave.
class KmEnclave : public tee::Enclave {
 public:
  /// \brief `seed` makes in-enclave key generation deterministic per node.
  explicit KmEnclave(uint64_t seed) : seed_(seed) {}

  std::string CodeIdentity() const override { return "confide-km-enclave"; }
  uint64_t SecurityVersion() const override { return 1; }

  Result<Bytes> HandleEcall(uint64_t fn, ByteView input,
                            tee::EnclaveContext* ctx) override;

 private:
  Result<Bytes> GenerateKeys(tee::EnclaveContext* ctx);
  Result<Bytes> GetPublicInfo(tee::EnclaveContext* ctx);
  Result<Bytes> CreateJoinRequest(tee::EnclaveContext* ctx);
  Result<Bytes> ProvisionPeer(ByteView joiner_quote, tee::EnclaveContext* ctx);
  Result<Bytes> AcceptProvision(ByteView blob, tee::EnclaveContext* ctx);
  Result<Bytes> ProvisionCs(ByteView cs_report, tee::EnclaveContext* ctx);

  uint64_t seed_;
  std::mutex mutex_;
  std::optional<ConsortiumKeys> keys_;
  std::optional<crypto::KeyPair> join_ecdh_;  ///< joiner's channel key
};

/// \brief Centralized key-management service (HSM-backed in production).
/// Holds the consortium secrets outside any enclave and provisions them to
/// KM enclaves whose quote verifies against the expected measurement.
class CentralKms {
 public:
  explicit CentralKms(uint64_t seed);

  const crypto::PublicKey& pk_tx() const { return keys_.pk_tx; }

  /// \brief Validates the joiner quote (root chain + measurement) and
  /// returns a provision blob, or PermissionDenied.
  Result<Bytes> Provision(ByteView join_request_quote,
                          const tee::Measurement& expected_measurement);

 private:
  ConsortiumKeys keys_;
  uint64_t entropy_ = 1;
};

/// \brief Runs the decentralized MAP between two nodes' KM enclaves:
/// joiner creates a join request, provider verifies and wraps, joiner
/// accepts. Fails if the joiner's measurement differs from the provider's.
Status RunMutualAttestation(tee::EnclavePlatform* provider_platform,
                            tee::EnclaveId provider_km,
                            tee::EnclavePlatform* joiner_platform,
                            tee::EnclaveId joiner_km);

}  // namespace confide::core
