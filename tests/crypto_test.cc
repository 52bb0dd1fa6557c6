#include <gtest/gtest.h>

#include <cstring>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/endian.h"
#include "crypto/aes.h"
#include "crypto/drbg.h"
#include "crypto/gcm.h"
#include "crypto/hmac.h"
#include "crypto/keccak.h"
#include "crypto/merkle.h"
#include "crypto/secp256k1.h"
#include "crypto/sha256.h"
#include "secp256k1_reference.h"

namespace confide::crypto {
namespace {

std::string DigestHex(const Hash256& h) { return HexEncode(HashView(h)); }

// ---------------------------------------------------------------------------
// SHA-256 (FIPS 180-4 known-answer tests)
// ---------------------------------------------------------------------------

TEST(Sha256Test, EmptyString) {
  EXPECT_EQ(DigestHex(Sha256::Digest(ByteView{})),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Test, Abc) {
  EXPECT_EQ(DigestHex(Sha256::Digest(AsByteView("abc"))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, TwoBlockMessage) {
  EXPECT_EQ(DigestHex(Sha256::Digest(AsByteView(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, MillionAs) {
  Sha256 ctx;
  std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) ctx.Update(AsByteView(chunk));
  EXPECT_EQ(DigestHex(ctx.Finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, IncrementalMatchesOneShot) {
  Bytes data = Drbg(7).Generate(10000);
  Sha256 ctx;
  // Uneven chunking exercises buffer handling.
  size_t pos = 0;
  size_t sizes[] = {1, 63, 64, 65, 100, 1000};
  int i = 0;
  while (pos < data.size()) {
    size_t n = std::min(sizes[i++ % 6], data.size() - pos);
    ctx.Update(ByteView(data.data() + pos, n));
    pos += n;
  }
  EXPECT_EQ(ctx.Finish(), Sha256::Digest(data));
}

// The FIPS 180-4 vectors through each path: the dispatched one (SHA-NI
// where the CPU has it) and the portable reference.
TEST(Sha256Test, Fips180VectorsOnEachPath) {
  const std::pair<std::string, std::string> vectors[] = {
      {"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
      {"abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"},
      {"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
       "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"},
      {"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmn"
       "hijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
       "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1"},
      {std::string(1000000, 'a'),
       "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"},
  };
  for (const auto& [message, want] : vectors) {
    EXPECT_EQ(DigestHex(Sha256::Digest(AsByteView(message))), want) << message.size() << " B";
    EXPECT_EQ(DigestHex(Sha256PortableDigest(AsByteView(message))), want)
        << message.size() << " B";
  }
}

TEST(Sha256Test, DispatchedPathMatchesPortableOnRandomSplits) {
  // 2,000 random messages of 0-4,096 B, each fed to the dispatched path in
  // random pieces and compared with the portable reference.
  Drbg rng(0x5a256);
  for (int i = 0; i < 2000; ++i) {
    const Bytes message = rng.Generate(size_t(rng.NextBounded(4097)));
    Sha256 dispatched;
    size_t pos = 0;
    while (pos < message.size()) {
      const size_t n = std::min(size_t(rng.NextBounded(300)), message.size() - pos);
      dispatched.Update(ByteView(message.data() + pos, n));
      pos += n;
    }
    ASSERT_EQ(dispatched.Finish(), Sha256PortableDigest(message))
        << "message " << i << ", " << message.size() << " B";
  }
}

// ---------------------------------------------------------------------------
// Keccak-256 (Ethereum variant known-answer tests)
// ---------------------------------------------------------------------------

TEST(Keccak256Test, EmptyString) {
  EXPECT_EQ(DigestHex(Keccak256::Digest(ByteView{})),
            "c5d2460186f7233c927e7db2dcc703c0e500b653ca82273b7bfad8045d85a470");
}

TEST(Keccak256Test, Abc) {
  EXPECT_EQ(DigestHex(Keccak256::Digest(AsByteView("abc"))),
            "4e03657aea45a94fc7d47ba826c8d667c0d1e6e33a64a036ec44f58fa12d6c45");
}

TEST(Keccak256Test, HelloEthereumStyle) {
  // keccak256("hello") — widely used Solidity test value.
  EXPECT_EQ(DigestHex(Keccak256::Digest(AsByteView("hello"))),
            "1c8aff950685c2ed4bc3174f3472287b56d9517b9c948127319a09a7a36deac8");
}

TEST(Keccak256Test, LongInputCrossesRateBoundary) {
  // > 136-byte rate to force multiple permutations; incremental == one-shot.
  Bytes data = Drbg(11).Generate(1000);
  Keccak256 ctx;
  ctx.Update(ByteView(data.data(), 137));
  ctx.Update(ByteView(data.data() + 137, data.size() - 137));
  EXPECT_EQ(ctx.Finish(), Keccak256::Digest(data));
}

// ---------------------------------------------------------------------------
// AES (FIPS 197 known-answer tests)
// ---------------------------------------------------------------------------

TEST(AesTest, Fips197Aes128Vector) {
  auto key = *HexDecode("000102030405060708090a0b0c0d0e0f");
  auto pt = *HexDecode("00112233445566778899aabbccddeeff");
  auto aes = Aes::Create(key);
  ASSERT_TRUE(aes.ok());
  uint8_t ct[16];
  aes->EncryptBlock(pt.data(), ct);
  EXPECT_EQ(HexEncode(ByteView(ct, 16)), "69c4e0d86a7b0430d8cdb78070b4c55a");
  uint8_t back[16];
  aes->DecryptBlock(ct, back);
  EXPECT_EQ(HexEncode(ByteView(back, 16)), HexEncode(pt));
}

TEST(AesTest, Fips197Aes192Vector) {
  auto key = *HexDecode("000102030405060708090a0b0c0d0e0f1011121314151617");
  auto pt = *HexDecode("00112233445566778899aabbccddeeff");
  auto aes = Aes::Create(key);
  ASSERT_TRUE(aes.ok());
  uint8_t ct[16];
  aes->EncryptBlock(pt.data(), ct);
  EXPECT_EQ(HexEncode(ByteView(ct, 16)), "dda97ca4864cdfe06eaf70a0ec0d7191");
}

TEST(AesTest, Fips197Aes256Vector) {
  auto key = *HexDecode(
      "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f");
  auto pt = *HexDecode("00112233445566778899aabbccddeeff");
  auto aes = Aes::Create(key);
  ASSERT_TRUE(aes.ok());
  uint8_t ct[16];
  aes->EncryptBlock(pt.data(), ct);
  EXPECT_EQ(HexEncode(ByteView(ct, 16)), "8ea2b7ca516745bfeafc49904b496089");
  uint8_t back[16];
  aes->DecryptBlock(ct, back);
  EXPECT_EQ(HexEncode(ByteView(back, 16)), HexEncode(pt));
}

TEST(AesTest, RejectsBadKeySize) {
  Bytes key(15, 0);
  EXPECT_FALSE(Aes::Create(key).ok());
}

// ---------------------------------------------------------------------------
// AES-GCM (NIST SP 800-38D test cases)
// ---------------------------------------------------------------------------

TEST(GcmTest, NistTestCase1EmptyPlaintext) {
  Bytes key(16, 0);
  Bytes iv(12, 0);
  auto gcm = AesGcm::Create(key);
  ASSERT_TRUE(gcm.ok());
  auto sealed = gcm->Seal(iv, ByteView{}, ByteView{});
  ASSERT_TRUE(sealed.ok());
  EXPECT_EQ(HexEncode(*sealed), "58e2fccefa7e3061367f1d57a4e7455a");
}

TEST(GcmTest, NistTestCase2SingleBlock) {
  Bytes key(16, 0);
  Bytes iv(12, 0);
  Bytes pt(16, 0);
  auto gcm = AesGcm::Create(key);
  ASSERT_TRUE(gcm.ok());
  auto sealed = gcm->Seal(iv, pt, ByteView{});
  ASSERT_TRUE(sealed.ok());
  EXPECT_EQ(HexEncode(*sealed),
            "0388dace60b6a392f328c2b971b2fe78"
            "ab6e47d42cec13bdf53a67b21257bddf");
}

TEST(GcmTest, NistTestCase4WithAad) {
  auto key = *HexDecode("feffe9928665731c6d6a8f9467308308");
  auto iv = *HexDecode("cafebabefacedbaddecaf888");
  auto pt = *HexDecode(
      "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72"
      "1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b39");
  auto aad = *HexDecode("feedfacedeadbeeffeedfacedeadbeefabaddad2");
  auto gcm = AesGcm::Create(key);
  ASSERT_TRUE(gcm.ok());
  auto sealed = gcm->Seal(iv, pt, aad);
  ASSERT_TRUE(sealed.ok());
  EXPECT_EQ(HexEncode(*sealed),
            "42831ec2217774244b7221b784d0d49c"
            "e3aa212f2c02a4e035c17e2329aca12e"
            "21d514b25466931c7d8f6a5aac84aa05"
            "1ba30b396a0aac973d58e091"
            "5bc94fbc3221a5db94fae95ae7121a47");
}

TEST(GcmTest, RoundTripWithAad) {
  Drbg rng(1);
  Bytes key = rng.Generate(32);
  Bytes iv = rng.Generate(12);
  Bytes pt = rng.Generate(1000);
  Bytes aad = rng.Generate(37);
  auto gcm = AesGcm::Create(key);
  ASSERT_TRUE(gcm.ok());
  auto sealed = gcm->Seal(iv, pt, aad);
  ASSERT_TRUE(sealed.ok());
  auto opened = gcm->Open(iv, *sealed, aad);
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(*opened, pt);
}

TEST(GcmTest, TamperedCiphertextFails) {
  Drbg rng(2);
  Bytes key = rng.Generate(16);
  Bytes iv = rng.Generate(12);
  Bytes pt = rng.Generate(64);
  auto gcm = AesGcm::Create(key);
  ASSERT_TRUE(gcm.ok());
  auto sealed = gcm->Seal(iv, pt, ByteView{});
  ASSERT_TRUE(sealed.ok());
  (*sealed)[3] ^= 1;
  auto opened = gcm->Open(iv, *sealed, ByteView{});
  EXPECT_FALSE(opened.ok());
  EXPECT_TRUE(opened.status().IsCryptoError());
}

TEST(GcmTest, WrongAadFails) {
  Drbg rng(3);
  Bytes key = rng.Generate(16);
  Bytes iv = rng.Generate(12);
  Bytes pt = rng.Generate(64);
  auto gcm = AesGcm::Create(key);
  ASSERT_TRUE(gcm.ok());
  auto sealed = gcm->Seal(iv, pt, AsByteView("contract-1"));
  ASSERT_TRUE(sealed.ok());
  EXPECT_FALSE(gcm->Open(iv, *sealed, AsByteView("contract-2")).ok());
}

TEST(GcmTest, NonStandardIvLengthSupported) {
  Drbg rng(4);
  Bytes key = rng.Generate(16);
  Bytes iv = rng.Generate(8);  // non-96-bit IV path
  Bytes pt = rng.Generate(33);
  auto gcm = AesGcm::Create(key);
  ASSERT_TRUE(gcm.ok());
  auto sealed = gcm->Seal(iv, pt, ByteView{});
  ASSERT_TRUE(sealed.ok());
  auto opened = gcm->Open(iv, *sealed, ByteView{});
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(*opened, pt);
}

TEST(GcmTest, TruncatedInputRejected) {
  Bytes key(16, 0);
  auto gcm = AesGcm::Create(key);
  ASSERT_TRUE(gcm.ok());
  Bytes iv(12, 0);
  Bytes tiny(8, 0);
  EXPECT_FALSE(gcm->Open(iv, tiny, ByteView{}).ok());
}

TEST(RotateTest, ByZeroIsIdentity) {
  EXPECT_EQ(RotL64(0x0123456789abcdefull, 0), 0x0123456789abcdefull);
  EXPECT_EQ(RotR64(0x0123456789abcdefull, 0), 0x0123456789abcdefull);
  EXPECT_EQ(RotL32(0x89abcdefu, 0), 0x89abcdefu);
  EXPECT_EQ(RotR32(0x89abcdefu, 0), 0x89abcdefu);
}

// ---------------------------------------------------------------------------
// HMAC / HKDF (RFC 4231 / RFC 5869 vectors)
// ---------------------------------------------------------------------------

TEST(HmacTest, Rfc4231Case1) {
  Bytes key(20, 0x0b);
  auto mac = HmacSha256(key, AsByteView("Hi There"));
  EXPECT_EQ(DigestHex(mac),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(HmacTest, Rfc4231Case2) {
  auto mac = HmacSha256(AsByteView("Jefe"),
                        AsByteView("what do ya want for nothing?"));
  EXPECT_EQ(DigestHex(mac),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(HmacTest, EmptyKeyAndMessage) {
  EXPECT_EQ(DigestHex(HmacSha256(ByteView{}, ByteView{})),
            "b613679a0814d9ec772f95d778c35fc5ff1697c493715653c6c712144292c5ad");
}

TEST(HmacTest, LongKeyIsHashedFirst) {
  Bytes key(131, 0xaa);
  auto mac = HmacSha256(
      key, AsByteView("Test Using Larger Than Block-Size Key - Hash Key First"));
  EXPECT_EQ(DigestHex(mac),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(HkdfTest, Rfc5869Case1) {
  Bytes ikm(22, 0x0b);
  auto salt = *HexDecode("000102030405060708090a0b0c");
  auto info = *HexDecode("f0f1f2f3f4f5f6f7f8f9");
  Bytes okm = Hkdf(salt, ikm, info, 42);
  EXPECT_EQ(HexEncode(okm),
            "3cb25f25faacd57a90434f64d0362f2a"
            "2d2d0a90cf1a5a4c5db02d56ecc4c5bf"
            "34007208d5b887185865");
}

TEST(HkdfTest, ExpandProducesRequestedLength) {
  Hash256 prk = Sha256::Digest(AsByteView("prk"));
  for (size_t len : {1u, 31u, 32u, 33u, 64u, 100u}) {
    EXPECT_EQ(HkdfExpand(prk, AsByteView("ctx"), len).size(), len);
  }
}

TEST(HkdfTest, DistinctInfoYieldsDistinctKeys) {
  Bytes ikm = Drbg(5).Generate(32);
  Bytes a = Hkdf(ByteView{}, ikm, AsByteView("key-a"), 32);
  Bytes b = Hkdf(ByteView{}, ikm, AsByteView("key-b"), 32);
  EXPECT_NE(a, b);
}

// ---------------------------------------------------------------------------
// DRBG
// ---------------------------------------------------------------------------

TEST(DrbgTest, DeterministicForSeed) {
  Drbg a(42), b(42);
  EXPECT_EQ(a.Generate(100), b.Generate(100));
}

TEST(DrbgTest, DifferentSeedsDiffer) {
  Drbg a(1), b(2);
  EXPECT_NE(a.Generate(32), b.Generate(32));
}

TEST(DrbgTest, BoundedValuesInRange) {
  Drbg rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
}

TEST(DrbgTest, RoughlyUniform) {
  Drbg rng(9);
  int buckets[8] = {0};
  const int kDraws = 8000;
  for (int i = 0; i < kDraws; ++i) buckets[rng.NextBounded(8)]++;
  for (int b = 0; b < 8; ++b) {
    EXPECT_GT(buckets[b], kDraws / 8 / 2);
    EXPECT_LT(buckets[b], kDraws / 8 * 2);
  }
}

// ---------------------------------------------------------------------------
// secp256k1
// ---------------------------------------------------------------------------

TEST(Secp256k1Test, GeneratedKeyPairIsValid) {
  Drbg rng(100);
  KeyPair kp = GenerateKeyPair(&rng);
  EXPECT_TRUE(IsValidPublicKey(kp.pub));
  auto derived = DerivePublicKey(kp.priv);
  ASSERT_TRUE(derived.ok());
  EXPECT_EQ(*derived, kp.pub);
}

TEST(Secp256k1Test, KnownScalarOnePublicKeyIsG) {
  PrivateKey one{};
  one[31] = 1;
  auto pub = DerivePublicKey(one);
  ASSERT_TRUE(pub.ok());
  EXPECT_EQ(HexEncode(ByteView(pub->data(), 32)),
            "79be667ef9dcbbac55a06295ce870b07029bfcdb2dce28d959f2815b16f81798");
  EXPECT_EQ(HexEncode(ByteView(pub->data() + 32, 32)),
            "483ada7726a3c4655da4fbfc0e1108a8fd17b448a68554199c47d08ffb10d4b8");
}

TEST(Secp256k1Test, KnownScalarTwoMatchesDoubleG) {
  PrivateKey two{};
  two[31] = 2;
  auto pub = DerivePublicKey(two);
  ASSERT_TRUE(pub.ok());
  // 2G, a standard test value.
  EXPECT_EQ(HexEncode(ByteView(pub->data(), 32)),
            "c6047f9441ed7d6d3045406e95c07cd85c778e4b8cef3ca7abac09b95c709ee5");
}

TEST(Secp256k1Test, SignVerifyRoundTrip) {
  Drbg rng(101);
  KeyPair kp = GenerateKeyPair(&rng);
  Hash256 digest = Sha256::Digest(AsByteView("confidential transaction"));
  auto sig = EcdsaSign(kp.priv, digest);
  ASSERT_TRUE(sig.ok());
  EXPECT_TRUE(EcdsaVerify(kp.pub, digest, *sig));
}

TEST(Secp256k1Test, SignatureIsDeterministic) {
  Drbg rng(102);
  KeyPair kp = GenerateKeyPair(&rng);
  Hash256 digest = Sha256::Digest(AsByteView("msg"));
  auto s1 = EcdsaSign(kp.priv, digest);
  auto s2 = EcdsaSign(kp.priv, digest);
  ASSERT_TRUE(s1.ok() && s2.ok());
  EXPECT_EQ(*s1, *s2);
}

TEST(Secp256k1Test, WrongMessageFailsVerification) {
  Drbg rng(103);
  KeyPair kp = GenerateKeyPair(&rng);
  Hash256 digest = Sha256::Digest(AsByteView("original"));
  auto sig = EcdsaSign(kp.priv, digest);
  ASSERT_TRUE(sig.ok());
  Hash256 other = Sha256::Digest(AsByteView("tampered"));
  EXPECT_FALSE(EcdsaVerify(kp.pub, other, *sig));
}

TEST(Secp256k1Test, WrongKeyFailsVerification) {
  Drbg rng(104);
  KeyPair kp1 = GenerateKeyPair(&rng);
  KeyPair kp2 = GenerateKeyPair(&rng);
  Hash256 digest = Sha256::Digest(AsByteView("msg"));
  auto sig = EcdsaSign(kp1.priv, digest);
  ASSERT_TRUE(sig.ok());
  EXPECT_FALSE(EcdsaVerify(kp2.pub, digest, *sig));
}

TEST(Secp256k1Test, CorruptedSignatureFails) {
  Drbg rng(105);
  KeyPair kp = GenerateKeyPair(&rng);
  Hash256 digest = Sha256::Digest(AsByteView("msg"));
  auto sig = EcdsaSign(kp.priv, digest);
  ASSERT_TRUE(sig.ok());
  Signature bad = *sig;
  bad[10] ^= 0xff;
  EXPECT_FALSE(EcdsaVerify(kp.pub, digest, bad));
}

TEST(Secp256k1Test, HighSSignatureRejected) {
  // (r, n - s) is the same signature's malleated twin: it satisfies the
  // verification equation, so only the low-s rule tells them apart.
  Drbg rng(108);
  KeyPair kp = GenerateKeyPair(&rng);
  Hash256 digest = Sha256::Digest(AsByteView("replayable transfer"));
  auto sig = EcdsaSign(kp.priv, digest);
  ASSERT_TRUE(sig.ok());
  ASSERT_TRUE(EcdsaVerify(kp.pub, digest, *sig));

  auto n = HexDecode(
      "fffffffffffffffffffffffffffffffebaaedce6af48a03bbfd25e8cd0364141");
  ASSERT_TRUE(n.ok());
  Signature high = *sig;
  int borrow = 0;
  for (int i = 31; i >= 0; --i) {  // big-endian n - s
    int diff = int((*n)[size_t(i)]) - int((*sig)[size_t(32 + i)]) - borrow;
    borrow = diff < 0 ? 1 : 0;
    high[size_t(32 + i)] = uint8_t(diff + (borrow << 8));
  }
  ASSERT_EQ(borrow, 0);
  ASSERT_NE(high, *sig);
  EXPECT_FALSE(EcdsaVerify(kp.pub, digest, high));
}

TEST(Secp256k1Test, EcdhIsCommutative) {
  Drbg rng(106);
  KeyPair alice = GenerateKeyPair(&rng);
  KeyPair bob = GenerateKeyPair(&rng);
  auto s1 = EcdhSharedSecret(alice.priv, bob.pub);
  auto s2 = EcdhSharedSecret(bob.priv, alice.pub);
  ASSERT_TRUE(s1.ok() && s2.ok());
  EXPECT_EQ(*s1, *s2);
}

TEST(Secp256k1Test, EcdhDiffersAcrossPeers) {
  Drbg rng(107);
  KeyPair alice = GenerateKeyPair(&rng);
  KeyPair bob = GenerateKeyPair(&rng);
  KeyPair carol = GenerateKeyPair(&rng);
  auto ab = EcdhSharedSecret(alice.priv, bob.pub);
  auto ac = EcdhSharedSecret(alice.priv, carol.pub);
  ASSERT_TRUE(ab.ok() && ac.ok());
  EXPECT_NE(*ab, *ac);
}

TEST(Secp256k1Test, InvalidPublicKeyRejected) {
  PublicKey junk{};
  junk.fill(0xab);
  EXPECT_FALSE(IsValidPublicKey(junk));
  PrivateKey priv{};
  priv[31] = 5;
  EXPECT_FALSE(EcdhSharedSecret(priv, junk).ok());
}

TEST(Secp256k1Test, ZeroPrivateKeyRejected) {
  PrivateKey zero{};
  EXPECT_FALSE(DerivePublicKey(zero).ok());
}

TEST(Secp256k1Test, AddressIsLast20BytesOfKeccak) {
  Drbg rng(108);
  KeyPair kp = GenerateKeyPair(&rng);
  auto addr = PublicKeyToAddress(kp.pub);
  Hash256 h = Keccak256::Digest(ByteView(kp.pub.data(), kp.pub.size()));
  EXPECT_EQ(0, std::memcmp(addr.data(), h.data() + 12, 20));
}

// ---------------------------------------------------------------------------
// secp256k1: the optimized code against the double-and-add oracle
// ---------------------------------------------------------------------------

namespace ref = reference;

ref::U256 RefScalar(uint64_t x) { return ref::U256::FromU64(x); }

std::array<uint8_t, 32> ScalarBytes(const ref::U256& x) {
  std::array<uint8_t, 32> out;
  x.ToBytesBe(out.data());
  return out;
}

Signature MakeSignature(const ref::U256& r, const ref::U256& s) {
  Signature sig;
  r.ToBytesBe(sig.data());
  s.ToBytesBe(sig.data() + 32);
  return sig;
}

PublicKey EncodeRef(const ref::AffinePoint& p) {
  PublicKey out;
  ref::EncodePoint(p, &out);
  return out;
}

ref::U256 NNeg(const ref::U256& x) {
  ref::U256 out;
  ref::SubBorrow(ref::kN, x, &out);
  return out;
}

bool LowS(const ref::U256& s) { return ref::Cmp(s, ref::kHalfN) <= 0; }

// Runs verify through both implementations, requires them to agree, and
// returns the verdict.
bool VerifyBoth(const PublicKey& pub, const Hash256& digest, const Signature& sig) {
  bool fast = EcdsaVerify(pub, digest, sig);
  EXPECT_EQ(fast, ref::EcdsaVerify(pub, digest, sig));
  return fast;
}

TEST(Secp256k1DifferentialTest, MatchesReferenceOnRandomInputs) {
  constexpr int kCases = 2000;
  Drbg rng(0x5ec9);
  KeyPair other = ref::GenerateKeyPair(&rng);
  for (int i = 0; i < kCases; ++i) {
    SCOPED_TRACE(i);
    KeyPair kp = ref::GenerateKeyPair(&rng);
    auto pub = DerivePublicKey(kp.priv);
    ASSERT_TRUE(pub.ok());
    ASSERT_EQ(*pub, kp.pub);

    Hash256 digest;
    rng.Fill(digest.data(), digest.size());
    if (i % 97 == 0) digest.fill(0xff);  // z >= n: exercises the mod-n reduction

    auto sig = EcdsaSign(kp.priv, digest);
    auto ref_sig = ref::EcdsaSign(kp.priv, digest);
    ASSERT_TRUE(sig.ok() && ref_sig.ok());
    ASSERT_EQ(*sig, *ref_sig);  // deterministic nonces: byte-identical

    auto shared = EcdhSharedSecret(kp.priv, other.pub);
    auto ref_shared = ref::EcdhSharedSecret(kp.priv, other.pub);
    ASSERT_TRUE(shared.ok() && ref_shared.ok());
    ASSERT_EQ(*shared, *ref_shared);

    EXPECT_TRUE(VerifyBoth(kp.pub, digest, *sig));
    // One tampered variant per case, rotating through the five kinds.
    Signature bad_sig = *sig;
    Hash256 bad_digest = digest;
    PublicKey bad_pub = kp.pub;
    size_t bit = size_t(rng.NextBounded(256));
    switch (i % 5) {
      case 0:  // a flipped bit in r
        bad_sig[bit / 8] ^= uint8_t(1 << (bit % 8));
        break;
      case 1:  // a flipped bit in s
        bad_sig[32 + bit / 8] ^= uint8_t(1 << (bit % 8));
        break;
      case 2:  // a flipped bit in the digest
        bad_digest[bit / 8] ^= uint8_t(1 << (bit % 8));
        break;
      case 3:  // the wrong key
        bad_pub = other.pub;
        break;
      case 4: {  // the high-s twin (r, n - s)
        ref::U256 s = ref::U256::FromBytesBe(sig->data() + 32);
        bad_sig = MakeSignature(ref::U256::FromBytesBe(sig->data()), NNeg(s));
        break;
      }
    }
    EXPECT_FALSE(VerifyBoth(bad_pub, bad_digest, bad_sig));
  }
}

TEST(Secp256k1EdgeTest, SmallAndExtremeScalarsMatchReference) {
  ref::U256 two128;
  two128.v[2] = 1;
  ref::U256 n_minus_1 = NNeg(RefScalar(1));
  for (const ref::U256& k :
       {RefScalar(1), RefScalar(2), RefScalar(3), two128, ref::kHalfN, n_minus_1}) {
    PrivateKey priv = ScalarBytes(k);
    auto pub = DerivePublicKey(priv);
    auto expected = ref::DerivePublicKey(priv);
    ASSERT_TRUE(pub.ok() && expected.ok());
    EXPECT_EQ(*pub, *expected) << HexEncode(ByteView(priv.data(), priv.size()));
  }
  // (n-1)·G = -G: same x, y = p - y(G).
  auto minus_g = DerivePublicKey(ScalarBytes(n_minus_1));
  ASSERT_TRUE(minus_g.ok());
  ref::AffinePoint neg = ref::kG;
  neg.y = ref::FSub(ref::U256(), ref::kG.y);
  EXPECT_EQ(*minus_g, EncodeRef(neg));
}

// Verify splits u1 and u2 as k1 + k2·λ and adds λ·P as (β·x, y). λ·G
// computed by the constant-time ladder must be exactly that point.
TEST(Secp256k1EdgeTest, EndomorphismConstants) {
  auto lambda = HexDecode("5363ad4cc05c30e0a5261c028812645a122e22ea20816678df02967c1b23bd72");
  auto beta = HexDecode("7ae96a2b657c07106e64479eac3434e99cf0497512f58995c1396c28719501ee");
  ASSERT_TRUE(lambda.ok() && beta.ok());
  PrivateKey lambda_key;
  std::memcpy(lambda_key.data(), lambda->data(), 32);
  auto lambda_g = DerivePublicKey(lambda_key);
  ASSERT_TRUE(lambda_g.ok());
  ref::AffinePoint expected = ref::kG;
  expected.x = ref::FMul(ref::U256::FromBytesBe(beta->data()), ref::kG.x);
  EXPECT_EQ(*lambda_g, EncodeRef(expected));
}

// A digest equal to n reduces to z = 0, so u1 = 0 and the G half of the
// joint loop is empty.
TEST(Secp256k1EdgeTest, DigestReducingToZero) {
  Drbg rng(0x2e70);
  KeyPair kp = ref::GenerateKeyPair(&rng);
  Hash256 digest = ScalarBytes(ref::kN);
  auto sig = EcdsaSign(kp.priv, digest);
  auto ref_sig = ref::EcdsaSign(kp.priv, digest);
  ASSERT_TRUE(sig.ok() && ref_sig.ok());
  EXPECT_EQ(*sig, *ref_sig);
  EXPECT_TRUE(VerifyBoth(kp.pub, digest, *sig));
  EXPECT_TRUE(VerifyBoth(kp.pub, Hash256{}, *sig));  // z = 0 directly
}

// u1 = u2 = u with u < 16 puts the same small digit at position 0 of both
// wNAF recodings, so the joint loop adds u·Q and then u·G to an empty
// accumulator: Q = G hits the doubling case, Q = -G cancels to infinity.
// With r = x(2u·G), s = r/u and z = r the signature is valid for Q = G; for
// Q = -G it must fail, and would pass if the cancellation were doubled.
TEST(Secp256k1EdgeTest, VerifyWithQEqualToPlusAndMinusG) {
  PublicKey g = EncodeRef(ref::kG);
  auto minus_g = DerivePublicKey(ScalarBytes(NNeg(RefScalar(1))));
  ASSERT_TRUE(minus_g.ok());
  int cases = 0;
  for (uint64_t u = 1; u < 16; u += 2) {
    SCOPED_TRACE(u);
    ref::AffinePoint big_r =
        ref::ToAffine(ref::ScalarMult(RefScalar(2 * u), ref::kG));
    ref::U256 r = big_r.x;
    while (ref::Cmp(r, ref::kN) >= 0) ref::SubBorrow(r, ref::kN, &r);
    ref::U256 s = ref::NMul(r, ref::NInv(RefScalar(u)));
    if (!LowS(s)) continue;
    ++cases;
    EXPECT_TRUE(VerifyBoth(g, ScalarBytes(r), MakeSignature(r, s)));
    EXPECT_FALSE(VerifyBoth(*minus_g, ScalarBytes(r), MakeSignature(r, s)));
  }
  EXPECT_GT(cases, 0);

  // Ordinary signatures under the keys 1 and n - 1 still verify.
  Hash256 digest = Sha256::Digest(AsByteView("edge keys"));
  for (const ref::U256& d : {RefScalar(1), NNeg(RefScalar(1))}) {
    PrivateKey priv = ScalarBytes(d);
    auto pub = DerivePublicKey(priv);
    auto sig = EcdsaSign(priv, digest);
    ASSERT_TRUE(pub.ok() && sig.ok());
    EXPECT_TRUE(VerifyBoth(*pub, digest, *sig));
  }
}

// u = n - 1 has ones in bits 129..255, so both wNAF widths end in a
// negative digit whose carry runs into digit 256.
TEST(Secp256k1EdgeTest, WnafCarryIntoBit256) {
  Drbg rng(0xca77);
  int u2_cases = 0, u1_cases = 0;
  for (int attempt = 0; attempt < 64 && (u2_cases < 4 || u1_cases < 4); ++attempt) {
    KeyPair kp = ref::GenerateKeyPair(&rng);
    KeyPair nonce = ref::GenerateKeyPair(&rng);
    ref::U256 d = ref::PrivToScalar(kp.priv);
    ref::U256 k = ref::PrivToScalar(nonce.priv);
    ref::U256 r = ref::U256::FromBytesBe(nonce.pub.data());
    while (ref::Cmp(r, ref::kN) >= 0) ref::SubBorrow(r, ref::kN, &r);
    ref::U256 rd = ref::NMul(r, d);

    // u2 = r/s = n - 1: s = n - r, z = s·k - r·d.
    ref::U256 s = NNeg(r);
    if (LowS(s)) {
      ++u2_cases;
      ref::U256 z = ref::NAdd(ref::NMul(s, k), NNeg(rd));
      EXPECT_TRUE(VerifyBoth(kp.pub, ScalarBytes(z), MakeSignature(r, s)));
    }
    // u1 = z/s = n - 1: z = -s, so s·(k + 1) = r·d.
    s = ref::NMul(rd, ref::NInv(ref::NAdd(k, RefScalar(1))));
    if (LowS(s)) {
      ++u1_cases;
      ref::U256 z = NNeg(s);
      EXPECT_TRUE(VerifyBoth(kp.pub, ScalarBytes(z), MakeSignature(r, s)));
    }
  }
  EXPECT_GE(u2_cases, 4);
  EXPECT_GE(u1_cases, 4);
}

// The curve point with this x and an even-or-odd y, if x^3 + 7 is a square
// mod p. p ≡ 3 (mod 4), so a root is (x^3 + 7)^((p + 1) / 4).
std::optional<ref::AffinePoint> PointWithX(const ref::U256& x, bool odd_y) {
  ref::U256 exp;
  ref::AddCarry(ref::kP, RefScalar(1), &exp);
  for (int i = 0; i < 4; ++i) exp.v[i] = (exp.v[i] >> 2) | (i < 3 ? exp.v[i + 1] << 62 : 0);
  ref::AffinePoint pt;
  pt.x = x;
  ref::U256 rhs = ref::FAdd(ref::FMul(ref::FSqr(x), x), RefScalar(7));
  pt.y = ref::FPow(rhs, exp);
  if (!(ref::FSqr(pt.y) == rhs)) return std::nullopt;
  if (pt.y.Bit(0) != odd_y) pt.y = ref::FSub(ref::U256(), pt.y);
  return pt;
}

// A valid (Q, z, r, s) whose verification recomputes the chosen point R:
// pick u1 and u2, solve Q = u2^-1·(R - u1·G), then s = r/u2 and z = u1·s.
// r is x(R) reduced mod n. Retries u2 until s is low.
struct ForgedCase {
  PublicKey q;
  Hash256 z;
  Signature sig;
};
ForgedCase SignatureThroughPoint(const ref::AffinePoint& big_r, Drbg* rng) {
  ref::U256 r = big_r.x;
  while (ref::Cmp(r, ref::kN) >= 0) ref::SubBorrow(r, ref::kN, &r);
  for (;;) {
    ref::U256 u1 = ref::PrivToScalar(ref::GenerateKeyPair(rng).priv);
    ref::U256 u2 = ref::PrivToScalar(ref::GenerateKeyPair(rng).priv);
    ref::U256 s = ref::NMul(r, ref::NInv(u2));
    if (!LowS(s)) continue;
    ref::AffinePoint u1g = ref::ToAffine(ref::ScalarMult(u1, ref::kG));
    u1g.y = ref::FSub(ref::U256(), u1g.y);
    ref::AffinePoint diff =
        ref::ToAffine(ref::Add(ref::ToJacobian(big_r), ref::ToJacobian(u1g)));
    return {EncodeRef(ref::ToAffine(ref::ScalarMult(ref::NInv(u2), diff))),
            ScalarBytes(ref::NMul(u1, s)), MakeSignature(r, s)};
  }
}

// A signature whose R has x(R) in [n, p): then r = x(R) - n, and verify
// must take its r + n comparison.
TEST(Secp256k1EdgeTest, VerifyWhereXOfRExceedsN) {
  std::optional<ref::AffinePoint> big_r;
  for (uint64_t t = 1; !big_r; ++t) {
    ref::U256 x;
    ref::AddCarry(ref::kN, RefScalar(t), &x);
    big_r = PointWithX(x, false);
  }
  ASSERT_GE(ref::Cmp(big_r->x, ref::kN), 0);
  Drbg rng(0x7e5);
  for (int i = 0; i < 3; ++i) {
    ForgedCase c = SignatureThroughPoint(*big_r, &rng);
    EXPECT_TRUE(VerifyBoth(c.q, c.z, c.sig));
    c.z[31] ^= 1;
    EXPECT_FALSE(VerifyBoth(c.q, c.z, c.sig));
  }
}

// Field elements live in five 52-bit limbs. Points whose coordinates sit
// at limb boundaries, just below p, or are tiny go through key validation,
// ECDH (as the peer key) and verify (as R and as the derived Q), against
// the 4x64-bit oracle.
TEST(Secp256k1DifferentialTest, FieldLimbBoundaryCoordinates) {
  std::vector<ref::U256> xs;
  for (uint64_t t = 1; t <= 8; ++t) {
    ref::U256 x;
    ref::SubBorrow(ref::kP, RefScalar(t), &x);  // p - t
    xs.push_back(x);
    xs.push_back(RefScalar(t));
  }
  for (int bit : {52, 104, 156, 208, 255}) {
    for (int delta : {-1, 0, 1}) {
      ref::U256 x;
      x.v[bit / 64] = uint64_t(1) << (bit % 64);
      if (delta < 0) ref::SubBorrow(x, RefScalar(1), &x);
      if (delta > 0) ref::AddCarry(x, RefScalar(1), &x);
      xs.push_back(x);
    }
  }
  Drbg rng(0xf1e1d);
  KeyPair me = ref::GenerateKeyPair(&rng);
  int points = 0;
  for (const ref::U256& x : xs) {
    for (bool odd : {false, true}) {
      auto pt = PointWithX(x, odd);
      if (!pt) continue;
      ++points;
      PublicKey pub = EncodeRef(*pt);
      SCOPED_TRACE(HexEncode(ByteView(pub.data(), pub.size())));
      ASSERT_TRUE(IsValidPublicKey(pub));
      auto shared = EcdhSharedSecret(me.priv, pub);
      auto ref_shared = ref::EcdhSharedSecret(me.priv, pub);
      ASSERT_TRUE(shared.ok() && ref_shared.ok());
      EXPECT_EQ(*shared, *ref_shared);
      ForgedCase c = SignatureThroughPoint(*pt, &rng);
      EXPECT_TRUE(VerifyBoth(c.q, c.z, c.sig));
      EXPECT_FALSE(VerifyBoth(pub, c.z, c.sig));
    }
  }
  EXPECT_GE(points, 10);
  // Coordinates at or above p are not canonical encodings.
  PublicKey at_p = EncodeRef(ref::kG);
  ref::kP.ToBytesBe(at_p.data());
  EXPECT_FALSE(IsValidPublicKey(at_p));
}

// ---------------------------------------------------------------------------
// Merkle tree
// ---------------------------------------------------------------------------

TEST(MerkleTest, SingleLeafRootIsLeafHash) {
  std::vector<Bytes> leaves = {ToBytes(std::string_view("tx1"))};
  MerkleTree tree(leaves);
  EXPECT_EQ(tree.Root(), MerkleTree::HashLeaf(AsByteView("tx1")));
}

TEST(MerkleTest, ProofVerifiesForEveryLeaf) {
  for (size_t n : {1u, 2u, 3u, 4u, 5u, 8u, 13u}) {
    std::vector<Bytes> leaves;
    for (size_t i = 0; i < n; ++i) {
      leaves.push_back(ToBytes(std::string_view("leaf-" + std::to_string(i))));
    }
    MerkleTree tree(leaves);
    for (size_t i = 0; i < n; ++i) {
      auto proof = tree.Prove(i);
      ASSERT_TRUE(proof.ok());
      EXPECT_TRUE(MerkleTree::Verify(tree.Root(), leaves[i], *proof))
          << "n=" << n << " i=" << i;
    }
  }
}

TEST(MerkleTest, WrongLeafFailsProof) {
  std::vector<Bytes> leaves = {ToBytes(std::string_view("a")),
                               ToBytes(std::string_view("b")),
                               ToBytes(std::string_view("c"))};
  MerkleTree tree(leaves);
  auto proof = tree.Prove(1);
  ASSERT_TRUE(proof.ok());
  EXPECT_FALSE(MerkleTree::Verify(tree.Root(), AsByteView("x"), *proof));
}

TEST(MerkleTest, DifferentLeavesDifferentRoots) {
  MerkleTree t1({ToBytes(std::string_view("a")), ToBytes(std::string_view("b"))});
  MerkleTree t2({ToBytes(std::string_view("a")), ToBytes(std::string_view("c"))});
  EXPECT_NE(t1.Root(), t2.Root());
}

TEST(MerkleTest, OutOfRangeProofRejected) {
  MerkleTree tree({ToBytes(std::string_view("only"))});
  EXPECT_FALSE(tree.Prove(1).ok());
}

TEST(MerkleTest, LeafNodeDomainSeparation) {
  // A leaf equal to an interior-node preimage must not collide.
  Hash256 l = MerkleTree::HashLeaf(AsByteView("data"));
  Hash256 i = MerkleTree::HashInterior(l, l);
  EXPECT_NE(l, i);
}

}  // namespace
}  // namespace confide::crypto
