#include "tee/attestation.h"

#include "common/endian.h"
#include "crypto/drbg.h"

namespace confide::tee {

Measurement MeasureEnclave(std::string_view code_identity, uint64_t security_version) {
  crypto::Sha256 ctx;
  ctx.Update(AsByteView("confide-enclave-measurement:"));
  ctx.Update(AsByteView(code_identity));
  uint8_t ver[8];
  StoreBe64(ver, security_version);
  ctx.Update(ByteView(ver, 8));
  return ctx.Finish();
}

namespace {

const crypto::KeyPair& RootKeyPair() {
  static const crypto::KeyPair kp = [] {
    crypto::Drbg rng(AsByteView("confide-simulated-hardware-root-of-trust"));
    return crypto::GenerateKeyPair(&rng);
  }();
  return kp;
}

}  // namespace

crypto::Signature AttestationRoot::CertifyPlatformKey(
    const crypto::PublicKey& platform_key) {
  crypto::Sha256 ctx;
  ctx.Update(AsByteView("confide-platform-cert:"));
  ctx.Update(ByteView(platform_key.data(), platform_key.size()));
  auto sig = crypto::EcdsaSign(RootKeyPair().priv, ctx.Finish());
  return *sig;  // root key is always valid
}

bool AttestationRoot::VerifyPlatformCert(const crypto::PublicKey& platform_key,
                                         const crypto::Signature& cert) {
  crypto::Sha256 ctx;
  ctx.Update(AsByteView("confide-platform-cert:"));
  ctx.Update(ByteView(platform_key.data(), platform_key.size()));
  return crypto::EcdsaVerify(RootKeyPair().pub, ctx.Finish(), cert);
}

Bytes QuoteSigningBody(const Quote& quote) {
  Bytes body;
  Append(&body, AsByteView("confide-quote:"));
  Append(&body, crypto::HashView(quote.mrenclave));
  uint8_t nums[16];
  StoreBe64(nums, quote.security_version);
  StoreBe64(nums + 8, quote.platform_id);
  Append(&body, ByteView(nums, 16));
  Append(&body, quote.user_data);
  return body;
}

bool VerifyQuote(const Quote& quote) {
  if (!AttestationRoot::VerifyPlatformCert(quote.platform_key, quote.platform_cert)) {
    return false;
  }
  crypto::Hash256 digest = crypto::Sha256::Digest(QuoteSigningBody(quote));
  return crypto::EcdsaVerify(quote.platform_key, digest, quote.signature);
}

}  // namespace confide::tee
