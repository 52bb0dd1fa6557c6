/// \file bench_micro_crypto.cpp
/// \brief Microbenchmarks for the crypto substrate (everything here is
/// implemented from scratch; see src/crypto/). These set the cost floor
/// under the protocol-level numbers in bench_overhead_decomposition.

#include <benchmark/benchmark.h>

#include <vector>

#include "crypto/drbg.h"
#include "crypto/gcm.h"
#include "crypto/keccak.h"
#include "crypto/merkle.h"
#include "crypto/secp256k1.h"
#include "crypto/sha256.h"

using namespace confide;
using namespace confide::crypto;

namespace {

void BM_Sha256(benchmark::State& state) {
  Bytes data = Drbg(1).Generate(size_t(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha256::Digest(data));
  }
  state.SetBytesProcessed(int64_t(state.iterations()) * state.range(0));
  // Which compression ran: tools/check_crypto_perf.py picks its floor by it.
  state.counters["sha_ni"] = Sha256::HasShaNi() ? 1 : 0;
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(1024)->Arg(65536);

void BM_Keccak256(benchmark::State& state) {
  Bytes data = Drbg(2).Generate(size_t(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Keccak256::Digest(data));
  }
  state.SetBytesProcessed(int64_t(state.iterations()) * state.range(0));
}
BENCHMARK(BM_Keccak256)->Arg(64)->Arg(1024)->Arg(65536);

void BM_AesGcm_Seal(benchmark::State& state) {
  Drbg rng(3);
  Bytes key = rng.Generate(32);
  Bytes iv = rng.Generate(12);
  Bytes data = rng.Generate(size_t(state.range(0)));
  auto gcm = AesGcm::Create(key);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gcm->Seal(iv, data, AsByteView("aad")));
  }
  state.SetBytesProcessed(int64_t(state.iterations()) * state.range(0));
}
BENCHMARK(BM_AesGcm_Seal)->Arg(64)->Arg(1024)->Arg(4096);

void BM_EcdsaSign(benchmark::State& state) {
  Drbg rng(4);
  KeyPair kp = GenerateKeyPair(&rng);
  Hash256 digest = Sha256::Digest(AsByteView("message"));
  for (auto _ : state) {
    benchmark::DoNotOptimize(EcdsaSign(kp.priv, digest));
  }
}
BENCHMARK(BM_EcdsaSign);

void BM_EcdsaVerify(benchmark::State& state) {
  // Cycles through distinct keys and digests so no single scalar's wNAF
  // shape (or a warm branch predictor on it) sets the rate.
  constexpr size_t kInputs = 16;
  struct Input {
    PublicKey pub;
    Hash256 digest;
    Signature sig;
  };
  Drbg rng(5);
  std::vector<Input> inputs;
  for (size_t i = 0; i < kInputs; ++i) {
    KeyPair kp = GenerateKeyPair(&rng);
    Hash256 digest;
    rng.Fill(digest.data(), digest.size());
    inputs.push_back({kp.pub, digest, *EcdsaSign(kp.priv, digest)});
  }
  size_t i = 0;
  for (auto _ : state) {
    const Input& in = inputs[i++ % kInputs];
    benchmark::DoNotOptimize(EcdsaVerify(in.pub, in.digest, in.sig));
  }
}
BENCHMARK(BM_EcdsaVerify);

void BM_EcdhSharedSecret(benchmark::State& state) {
  Drbg rng(6);
  KeyPair a = GenerateKeyPair(&rng);
  KeyPair b = GenerateKeyPair(&rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(EcdhSharedSecret(a.priv, b.pub));
  }
}
BENCHMARK(BM_EcdhSharedSecret);

void BM_MerkleBuild(benchmark::State& state) {
  Drbg rng(7);
  std::vector<Bytes> leaves;
  for (int i = 0; i < state.range(0); ++i) leaves.push_back(rng.Generate(200));
  for (auto _ : state) {
    MerkleTree tree(leaves);
    benchmark::DoNotOptimize(tree.Root());
  }
}
BENCHMARK(BM_MerkleBuild)->Arg(16)->Arg(256);

}  // namespace

BENCHMARK_MAIN();
