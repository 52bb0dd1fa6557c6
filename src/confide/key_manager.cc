#include "confide/key_manager.h"

#include "common/metrics.h"
#include "crypto/drbg.h"
#include "crypto/gcm.h"
#include "crypto/hmac.h"
#include "serialize/rlp.h"

namespace confide::core {

using serialize::RlpReader;
using serialize::RlpWriter;

Bytes SerializeQuote(const tee::Quote& quote) {
  RlpWriter w(240 + quote.user_data.size());
  size_t mark = w.BeginList();
  w.WriteBytes(quote.mrenclave);
  w.WriteU64(quote.security_version);
  w.WriteU64(quote.platform_id);
  w.WriteBytes(quote.user_data);
  w.WriteBytes(quote.platform_key);
  w.WriteBytes(quote.platform_cert);
  w.WriteBytes(quote.signature);
  w.EndList(mark);
  return std::move(w).Take();
}

Result<tee::Quote> DeserializeQuote(ByteView wire) {
  CONFIDE_ASSIGN_OR_RETURN(RlpReader r, RlpReader::AtList(wire));
  tee::Quote quote;
  CONFIDE_RETURN_NOT_OK(r.NextInto(&quote.mrenclave, "quote measurement"));
  CONFIDE_ASSIGN_OR_RETURN(quote.security_version, r.NextU64());
  CONFIDE_ASSIGN_OR_RETURN(quote.platform_id, r.NextU64());
  CONFIDE_ASSIGN_OR_RETURN(ByteView user_data, r.NextBytes());
  quote.user_data = ToBytes(user_data);
  CONFIDE_RETURN_NOT_OK(r.NextInto(&quote.platform_key, "quote platform key"));
  CONFIDE_RETURN_NOT_OK(r.NextInto(&quote.platform_cert, "quote platform cert"));
  CONFIDE_RETURN_NOT_OK(r.NextInto(&quote.signature, "quote signature"));
  CONFIDE_RETURN_NOT_OK(r.ExpectEnd("k-protocol quote"));
  return quote;
}

Bytes SerializeLocalReport(const tee::LocalReport& report) {
  RlpWriter w(80 + report.user_data.size());
  size_t mark = w.BeginList();
  w.WriteBytes(report.mrenclave);
  w.WriteU64(report.security_version);
  w.WriteBytes(report.user_data);
  w.WriteBytes(report.mac);
  w.EndList(mark);
  return std::move(w).Take();
}

Result<tee::LocalReport> DeserializeLocalReport(ByteView wire) {
  CONFIDE_ASSIGN_OR_RETURN(RlpReader r, RlpReader::AtList(wire));
  tee::LocalReport report;
  CONFIDE_RETURN_NOT_OK(r.NextInto(&report.mrenclave, "report measurement"));
  CONFIDE_ASSIGN_OR_RETURN(report.security_version, r.NextU64());
  CONFIDE_ASSIGN_OR_RETURN(ByteView user_data, r.NextBytes());
  report.user_data = ToBytes(user_data);
  CONFIDE_RETURN_NOT_OK(r.NextInto(&report.mac, "report mac"));
  CONFIDE_RETURN_NOT_OK(r.ExpectEnd("local report"));
  return report;
}

Result<Bytes> WrapConsortiumKeys(const ConsortiumKeys& keys,
                                 const crypto::PublicKey& recipient,
                                 uint64_t entropy) {
  static metrics::Counter* wraps =
      metrics::GetCounter("confide.km.provision.wrap.count");
  wraps->Increment();
  crypto::Drbg rng(Concat(AsByteView("confide-provision-eph:"),
                          ByteView(reinterpret_cast<const uint8_t*>(&entropy), 8)));
  crypto::KeyPair ephemeral = crypto::GenerateKeyPair(&rng);
  CONFIDE_ASSIGN_OR_RETURN(crypto::Hash256 shared,
                           crypto::EcdhSharedSecret(ephemeral.priv, recipient));
  Bytes wrap = crypto::Hkdf(ByteView{}, crypto::HashView(shared),
                            AsByteView("confide-provision-wrap"), 32);
  crypto::Hash256 wrap_key;
  std::copy(wrap.begin(), wrap.end(), wrap_key.begin());

  // RLP [sk_tx, pk_tx, k_states] is 2 + 33 + 66 + 33 = 134 bytes, reserved
  // up front: a reallocation would leave an unzeroed copy of the secrets
  // on the heap, so this one buffer is all SecureZero has to cover.
  RlpWriter payload(134);
  size_t mark = payload.BeginList();
  payload.WriteBytes(keys.sk_tx);
  payload.WriteBytes(keys.pk_tx);
  payload.WriteBytes(keys.k_states);
  payload.EndList(mark);
  Bytes plain = std::move(payload).Take();

  CONFIDE_ASSIGN_OR_RETURN(crypto::AesGcm gcm,
                           crypto::AesGcm::Create(crypto::HashView(wrap_key)));
  Bytes iv = rng.Generate(crypto::kGcmIvSize);
  Result<Bytes> sealed = gcm.Seal(iv, plain, AsByteView("provision"));
  SecureZero(&plain);
  CONFIDE_RETURN_NOT_OK(sealed.status());

  RlpWriter w(80 + iv.size() + sealed->size());
  size_t blob = w.BeginList();
  w.WriteBytes(ephemeral.pub);
  w.WriteBytes(iv);
  w.WriteBytes(*sealed);
  w.EndList(blob);
  return std::move(w).Take();
}

Result<ConsortiumKeys> UnwrapConsortiumKeys(const crypto::PrivateKey& recipient_priv,
                                            ByteView blob) {
  static metrics::Counter* unwraps =
      metrics::GetCounter("confide.km.provision.unwrap.count");
  unwraps->Increment();
  auto r = RlpReader::AtList(blob);
  if (!r.ok()) return Status::CryptoError("k-protocol: bad provision blob");
  crypto::PublicKey ephemeral{};
  CONFIDE_RETURN_NOT_OK(r->NextInto(&ephemeral, "provision ephemeral key"));
  auto iv = r->NextBytes();
  auto sealed = r->NextBytes();
  if (!iv.ok() || !sealed.ok() || !r->AtEnd()) {
    return Status::CryptoError("k-protocol: bad provision blob");
  }

  CONFIDE_ASSIGN_OR_RETURN(crypto::Hash256 shared,
                           crypto::EcdhSharedSecret(recipient_priv, ephemeral));
  Bytes wrap = crypto::Hkdf(ByteView{}, crypto::HashView(shared),
                            AsByteView("confide-provision-wrap"), 32);
  crypto::Hash256 wrap_key;
  std::copy(wrap.begin(), wrap.end(), wrap_key.begin());

  CONFIDE_ASSIGN_OR_RETURN(crypto::AesGcm gcm,
                           crypto::AesGcm::Create(crypto::HashView(wrap_key)));
  CONFIDE_ASSIGN_OR_RETURN(Bytes payload,
                           gcm.Open(*iv, *sealed, AsByteView("provision")));

  // The reader's views alias `payload`, so the secrets land in `keys`
  // without an intermediate copy; `payload` is zeroed on every path.
  ConsortiumKeys keys;
  Status parsed = [&]() -> Status {
    auto p = RlpReader::AtList(payload);
    if (!p.ok()) return Status::CryptoError("k-protocol: bad provision payload");
    CONFIDE_RETURN_NOT_OK(p->NextInto(&keys.sk_tx, "sk_tx"));
    CONFIDE_RETURN_NOT_OK(p->NextInto(&keys.pk_tx, "pk_tx"));
    CONFIDE_RETURN_NOT_OK(p->NextInto(&keys.k_states, "k_states"));
    if (!p->AtEnd()) return Status::CryptoError("k-protocol: bad provision payload");
    return Status::OK();
  }();
  SecureZero(&payload);
  CONFIDE_RETURN_NOT_OK(parsed);
  return keys;
}

// ---------------------------------------------------------------------------
// KmEnclave
// ---------------------------------------------------------------------------

Result<Bytes> KmEnclave::HandleEcall(uint64_t fn, ByteView input,
                                     tee::EnclaveContext* ctx) {
  switch (fn) {
    case kKmGenerateKeys: return GenerateKeys(ctx);
    case kKmGetPublicInfo: return GetPublicInfo(ctx);
    case kKmCreateJoinRequest: return CreateJoinRequest(ctx);
    case kKmProvisionPeer: return ProvisionPeer(input, ctx);
    case kKmAcceptProvision: return AcceptProvision(input, ctx);
    case kKmProvisionCs: return ProvisionCs(input, ctx);
    default:
      return Status::InvalidArgument("km: unknown ecall");
  }
}

Result<Bytes> KmEnclave::GenerateKeys(tee::EnclaveContext* ctx) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (keys_) return Status::AlreadyExists("km: keys already present");
  crypto::Drbg rng(Concat(AsByteView("confide-km-keygen:"),
                          ByteView(reinterpret_cast<const uint8_t*>(&seed_), 8)));
  ConsortiumKeys keys;
  crypto::KeyPair tx_pair = crypto::GenerateKeyPair(&rng);
  keys.sk_tx = tx_pair.priv;
  keys.pk_tx = tx_pair.pub;
  rng.Fill(keys.k_states.data(), keys.k_states.size());
  keys_ = keys;
  ctx->MonitorEmit(1, "km: consortium keys generated");
  return Bytes{};
}

Result<Bytes> KmEnclave::GetPublicInfo(tee::EnclaveContext* ctx) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!keys_) return Status::Unavailable("km: keys not provisioned");
  // Lock pk_tx's fingerprint into the attestation report (MITM immunity).
  crypto::Hash256 fingerprint =
      crypto::Sha256::Digest(ByteView(keys_->pk_tx.data(), 64));
  tee::Quote quote = ctx->CreateQuote(crypto::HashView(fingerprint));
  const Bytes quote_wire = SerializeQuote(quote);
  RlpWriter w(70 + quote_wire.size());
  size_t mark = w.BeginList();
  w.WriteBytes(keys_->pk_tx);
  w.WriteBytes(quote_wire);
  w.EndList(mark);
  return std::move(w).Take();
}

Result<Bytes> KmEnclave::CreateJoinRequest(tee::EnclaveContext* ctx) {
  std::lock_guard<std::mutex> lock(mutex_);
  crypto::Drbg rng(Concat(AsByteView("confide-km-join:"),
                          ByteView(reinterpret_cast<const uint8_t*>(&seed_), 8)));
  join_ecdh_ = crypto::GenerateKeyPair(&rng);
  // Quote binds the channel key to this measured enclave.
  tee::Quote quote =
      ctx->CreateQuote(ByteView(join_ecdh_->pub.data(), join_ecdh_->pub.size()));
  return SerializeQuote(quote);
}

Result<Bytes> KmEnclave::ProvisionPeer(ByteView joiner_quote,
                                       tee::EnclaveContext* ctx) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!keys_) return Status::Unavailable("km: keys not provisioned");
  CONFIDE_ASSIGN_OR_RETURN(tee::Quote quote, DeserializeQuote(joiner_quote));
  if (!tee::VerifyQuote(quote)) {
    return Status::PermissionDenied("km: joiner quote rejected");
  }
  // Mutual authentication: the joiner must run the same measured code.
  if (quote.mrenclave != ctx->Self()) {
    return Status::PermissionDenied("km: joiner measurement mismatch");
  }
  if (quote.user_data.size() != 64) {
    return Status::PermissionDenied("km: joiner channel key malformed");
  }
  crypto::PublicKey channel{};
  std::copy(quote.user_data.begin(), quote.user_data.end(), channel.begin());
  return WrapConsortiumKeys(*keys_, channel, seed_ ^ quote.platform_id);
}

Result<Bytes> KmEnclave::AcceptProvision(ByteView blob, tee::EnclaveContext* ctx) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!join_ecdh_) return Status::Unavailable("km: no join in progress");
  CONFIDE_ASSIGN_OR_RETURN(ConsortiumKeys keys,
                           UnwrapConsortiumKeys(join_ecdh_->priv, blob));
  keys_ = keys;
  join_ecdh_.reset();
  ctx->MonitorEmit(1, "km: provisioned via MAP");
  return Bytes{};
}

Result<Bytes> KmEnclave::ProvisionCs(ByteView cs_report, tee::EnclaveContext* ctx) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!keys_) return Status::Unavailable("km: keys not provisioned");
  auto report = DeserializeLocalReport(cs_report);
  if (!report.ok()) return Status::Corruption("km: bad local report");
  if (!ctx->VerifyLocalReport(*report)) {
    return Status::PermissionDenied("km: CS local report rejected");
  }
  if (report->user_data.size() != 64) {
    return Status::PermissionDenied("km: CS channel key malformed");
  }
  crypto::PublicKey channel{};
  std::copy(report->user_data.begin(), report->user_data.end(), channel.begin());
  return WrapConsortiumKeys(*keys_, channel, seed_ + 0x9000);
}

// ---------------------------------------------------------------------------
// CentralKms
// ---------------------------------------------------------------------------

CentralKms::CentralKms(uint64_t seed) {
  crypto::Drbg rng(Concat(AsByteView("confide-central-kms:"),
                          ByteView(reinterpret_cast<const uint8_t*>(&seed), 8)));
  crypto::KeyPair tx_pair = crypto::GenerateKeyPair(&rng);
  keys_.sk_tx = tx_pair.priv;
  keys_.pk_tx = tx_pair.pub;
  rng.Fill(keys_.k_states.data(), keys_.k_states.size());
}

Result<Bytes> CentralKms::Provision(ByteView join_request_quote,
                                    const tee::Measurement& expected_measurement) {
  CONFIDE_ASSIGN_OR_RETURN(tee::Quote quote, DeserializeQuote(join_request_quote));
  if (!tee::VerifyQuote(quote)) {
    return Status::PermissionDenied("kms: quote rejected");
  }
  if (quote.mrenclave != expected_measurement) {
    return Status::PermissionDenied("kms: measurement mismatch");
  }
  if (quote.user_data.size() != 64) {
    return Status::PermissionDenied("kms: channel key malformed");
  }
  crypto::PublicKey channel{};
  std::copy(quote.user_data.begin(), quote.user_data.end(), channel.begin());
  return WrapConsortiumKeys(keys_, channel, entropy_++);
}

// ---------------------------------------------------------------------------
// MAP orchestration
// ---------------------------------------------------------------------------

Status RunMutualAttestation(tee::EnclavePlatform* provider_platform,
                            tee::EnclaveId provider_km,
                            tee::EnclavePlatform* joiner_platform,
                            tee::EnclaveId joiner_km) {
  CONFIDE_ASSIGN_OR_RETURN(
      Bytes join_request,
      joiner_platform->Ecall(joiner_km, kKmCreateJoinRequest, ByteView{}));
  CONFIDE_ASSIGN_OR_RETURN(
      Bytes blob,
      provider_platform->Ecall(provider_km, kKmProvisionPeer, join_request));
  CONFIDE_RETURN_NOT_OK(
      joiner_platform->Ecall(joiner_km, kKmAcceptProvision, blob).status());
  return Status::OK();
}

}  // namespace confide::core
