/// \file bench_serialize.cpp
/// \brief Decode/encode throughput of the wire codecs, owning vs view.
///
/// Measures the three record shapes the hot path decodes most — public
/// transactions, receipts, and the ~1 KB ABS asset record (§6.1) — each
/// through the owning API (materializes every field: Deserialize /
/// field-copying FlatLite walk) and the zero-copy view API
/// (TransactionRef / ReceiptRef / FlatLiteView, fields alias the wire
/// buffer). The CI `perf-smoke` job runs this in Release and gates on the
/// checked-in thresholds (bench/serialize_perf_thresholds.json) via
/// tools/check_serialize_perf.py:
///
///   serialize.bench.tx.decode_speedup_milli        view/owning ops ×1000
///   serialize.bench.receipt.decode_speedup_milli
///   serialize.bench.abs.decode_speedup_milli
///   serialize.bench.<record>.{owning,view}_decode_ops_per_sec
///   serialize.bench.<record>.encode_ops_per_sec    (reported, not gated)
///
/// Env var CONFIDE_METRICS_OUT overrides the metrics.json path.

#include <cstdio>
#include <string>
#include <variant>
#include <vector>

#include "bench/bench_util.h"
#include "chain/types.h"
#include "common/metrics.h"
#include "crypto/drbg.h"
#include "serialize/flatlite.h"
#include "serialize/rlp.h"
#include "workloads/workloads.h"

namespace confide::bench {
namespace {

constexpr size_t kRecords = 256;  // distinct records per shape
constexpr size_t kRounds = 2000;  // decode passes over the record set

struct PathResult {
  double ops_per_sec = 0;
  uint64_t checksum = 0;  // keeps the decodes observable
};

/// Times `decode_one` (wire -> per-record checksum contribution) over
/// kRounds passes of the record set.
template <typename Fn>
PathResult RunDecode(const std::vector<Bytes>& wires, Fn&& decode_one) {
  PathResult result;
  double seconds = TimeSeconds([&] {
    for (size_t round = 0; round < kRounds; ++round) {
      for (const Bytes& wire : wires) result.checksum += decode_one(wire);
    }
  });
  result.ops_per_sec =
      seconds == 0 ? 0 : double(kRounds * wires.size()) / seconds;
  return result;
}

uint64_t MustU64(const Result<uint64_t>& r) {
  if (!r.ok()) std::abort();
  return r.value();
}

// --- Record builders ---------------------------------------------------------

std::vector<Bytes> MakeTxWires() {
  crypto::Drbg rng(1001);
  crypto::KeyPair kp = crypto::GenerateKeyPair(&rng);
  std::vector<Bytes> wires;
  for (size_t i = 0; i < kRecords; ++i) {
    chain::Transaction tx;
    tx.type = chain::TxType::kPublic;
    tx.sender = kp.pub;
    tx.contract = chain::NamedAddress("bench-contract");
    tx.entry = "register_asset";
    // The §6.1 workload: an ~1 KB ABS asset record as the call payload.
    tx.input = workloads::MakeAbsAssetFlat(&rng, i);
    tx.nonce = i;
    tx.signature = *crypto::EcdsaSign(kp.priv, tx.SigningHash());
    wires.push_back(tx.Serialize());
  }
  return wires;
}

std::vector<Bytes> MakeReceiptWires() {
  crypto::Drbg rng(1002);
  std::vector<Bytes> wires;
  for (size_t i = 0; i < kRecords; ++i) {
    chain::Receipt receipt;
    crypto::Hash256 h = crypto::Sha256::Digest(rng.Generate(8));
    receipt.tx_hash = h;
    receipt.success = true;
    receipt.output = rng.Generate(1024);  // ~1 KB record echoed back (§6.1)
    receipt.logs.push_back(rng.Generate(48));
    receipt.logs.push_back(rng.Generate(48));
    receipt.gas_used = 21'000 + i;
    wires.push_back(receipt.Serialize());
  }
  return wires;
}

std::vector<Bytes> MakeAbsWires() {
  crypto::Drbg rng(1003);
  std::vector<Bytes> wires;
  for (size_t i = 0; i < kRecords; ++i) {
    wires.push_back(workloads::MakeAbsAssetFlat(&rng, i));
  }
  return wires;
}

// --- Decode paths ------------------------------------------------------------

/// The pre-zero-copy decode's data shape: an owning item tree, one Bytes
/// per field plus a vector per list node.
struct OwnedItem {
  std::variant<Bytes, std::vector<OwnedItem>> value;

  const Bytes& bytes() const { return std::get<Bytes>(value); }
  const std::vector<OwnedItem>& list() const {
    return std::get<std::vector<OwnedItem>>(value);
  }
  uint64_t U64() const { return MustU64(serialize::RlpU64Payload(bytes())); }
};

/// Copies every item of `reader`'s list into an owned tree.
std::vector<OwnedItem> DecodeOwned(serialize::RlpReader reader) {
  std::vector<OwnedItem> items;
  while (!reader.AtEnd()) {
    auto raw = reader.NextItem();
    if (!raw.ok()) std::abort();
    if ((*raw)[0] >= 0xc0) {  // list prefix
      auto sub = serialize::RlpReader::AtList(*raw);
      if (!sub.ok()) std::abort();
      items.push_back(OwnedItem{DecodeOwned(*sub)});
    } else {
      auto field = serialize::RlpReader::OverPayload(*raw).NextBytes();
      if (!field.ok()) std::abort();
      items.push_back(OwnedItem{ToBytes(*field)});
    }
  }
  return items;
}

std::vector<OwnedItem> DecodeOwned(const Bytes& wire) {
  auto reader = serialize::RlpReader::AtList(wire);
  if (!reader.ok()) std::abort();
  return DecodeOwned(*reader);
}

/// The pre-zero-copy decode: build the owning tree, then materialize the
/// struct — what Transaction::Deserialize did before the cursor API.
uint64_t DecodeTxOwning(const Bytes& wire) {
  const std::vector<OwnedItem> f = DecodeOwned(wire);
  if (f.size() != 7) std::abort();
  chain::Transaction tx;
  tx.type = chain::TxType(f[0].U64());
  std::copy(f[1].bytes().begin(), f[1].bytes().end(), tx.sender.begin());
  std::copy(f[2].bytes().begin(), f[2].bytes().end(), tx.contract.begin());
  tx.entry.assign(f[3].bytes().begin(), f[3].bytes().end());
  tx.input = f[4].bytes();
  tx.nonce = f[5].U64();
  std::copy(f[6].bytes().begin(), f[6].bytes().end(), tx.signature.begin());
  return tx.nonce + tx.input.size() + tx.entry.size();
}

uint64_t DecodeTxView(const Bytes& wire) {
  auto tx = chain::TransactionRef::Decode(wire);
  if (!tx.ok()) std::abort();
  return tx->nonce + tx->input.size() + tx->entry.size();
}

uint64_t DecodeReceiptOwning(const Bytes& wire) {
  const std::vector<OwnedItem> f = DecodeOwned(wire);
  if (f.size() != 6) std::abort();
  chain::Receipt receipt;
  std::copy(f[0].bytes().begin(), f[0].bytes().end(), receipt.tx_hash.begin());
  receipt.success = f[1].U64() != 0;
  receipt.status_message.assign(f[2].bytes().begin(), f[2].bytes().end());
  receipt.output = f[3].bytes();
  for (const auto& log : f[4].list()) receipt.logs.push_back(log.bytes());
  receipt.gas_used = f[5].U64();
  return receipt.gas_used + receipt.output.size() + receipt.logs.size();
}

uint64_t DecodeReceiptView(const Bytes& wire) {
  auto receipt = chain::ReceiptRef::Decode(wire);
  if (!receipt.ok()) std::abort();
  return receipt->gas_used + receipt->output.size() + receipt->log_count;
}

/// The pre-zero-copy contract-side access pattern: every field of the
/// asset record materialized into an owning string/buffer.
uint64_t DecodeAbsOwning(const Bytes& wire) {
  auto view = serialize::FlatLiteView::Parse(wire);
  if (!view.ok()) std::abort();
  uint64_t sum = 0;
  for (uint32_t field : {0u, 1u, 2u, 3u, 7u, 8u}) {
    std::string s(*view->GetString(field));
    sum += s.size();
  }
  sum += MustU64(view->GetU64(4)) + MustU64(view->GetU64(5)) +
         MustU64(view->GetU64(6));
  Bytes blob = ToBytes(*view->GetBytes(9));
  return sum + blob.size();
}

uint64_t DecodeAbsView(const Bytes& wire) {
  auto view = serialize::FlatLiteView::Parse(wire);
  if (!view.ok()) std::abort();
  uint64_t sum = 0;
  for (uint32_t field : {0u, 1u, 2u, 3u, 7u, 8u}) {
    sum += view->GetString(field)->size();
  }
  sum += MustU64(view->GetU64(4)) + MustU64(view->GetU64(5)) +
         MustU64(view->GetU64(6));
  return sum + view->GetBytes(9)->size();
}

// --- Encode throughput (reported, not gated) ---------------------------------

double EncodeOpsPerSec(const std::function<Bytes()>& encode_one) {
  constexpr size_t kOps = 200'000;
  size_t bytes = 0;
  double seconds = TimeSeconds([&] {
    for (size_t i = 0; i < kOps; ++i) bytes += encode_one().size();
  });
  if (bytes == 0) std::abort();
  return seconds == 0 ? 0 : double(kOps) / seconds;
}

// --- Driver ------------------------------------------------------------------

struct RecordReport {
  const char* name;
  PathResult owning;
  PathResult view;
  double encode_ops_per_sec;
};

void Record(const RecordReport& report) {
  double speedup = report.owning.ops_per_sec == 0
                       ? 0
                       : report.view.ops_per_sec / report.owning.ops_per_sec;
  std::string prefix = std::string("serialize.bench.") + report.name;
  metrics::GetGauge(prefix + ".owning_decode_ops_per_sec")
      ->Set(int64_t(report.owning.ops_per_sec));
  metrics::GetGauge(prefix + ".view_decode_ops_per_sec")
      ->Set(int64_t(report.view.ops_per_sec));
  metrics::GetGauge(prefix + ".decode_speedup_milli")
      ->Set(int64_t(speedup * 1000));
  metrics::GetGauge(prefix + ".encode_ops_per_sec")
      ->Set(int64_t(report.encode_ops_per_sec));
  std::printf("%-8s decode owning %10.0f ops/s  view %10.0f ops/s  "
              "speedup %5.2fx  encode %10.0f ops/s\n",
              report.name, report.owning.ops_per_sec, report.view.ops_per_sec,
              speedup, report.encode_ops_per_sec);
  if (report.owning.checksum != report.view.checksum) {
    std::fprintf(stderr, "%s: owning/view checksum mismatch\n", report.name);
    std::abort();
  }
}

}  // namespace
}  // namespace confide::bench

int main() {
  using namespace confide;
  using namespace confide::bench;

  std::printf("bench_serialize: %zu records x %zu rounds per path\n", kRecords,
              kRounds);

  std::vector<Bytes> tx_wires = MakeTxWires();
  std::vector<Bytes> receipt_wires = MakeReceiptWires();
  std::vector<Bytes> abs_wires = MakeAbsWires();

  crypto::Drbg encode_rng(1004);
  chain::Transaction sample_tx =
      *chain::Transaction::Deserialize(tx_wires[0]);
  chain::Receipt sample_receipt =
      *chain::Receipt::Deserialize(receipt_wires[0]);

  Record({"tx", RunDecode(tx_wires, DecodeTxOwning),
          RunDecode(tx_wires, DecodeTxView),
          EncodeOpsPerSec([&] { return sample_tx.Serialize(); })});
  Record({"receipt", RunDecode(receipt_wires, DecodeReceiptOwning),
          RunDecode(receipt_wires, DecodeReceiptView),
          EncodeOpsPerSec([&] { return sample_receipt.Serialize(); })});
  Record({"abs", RunDecode(abs_wires, DecodeAbsOwning),
          RunDecode(abs_wires, DecodeAbsView),
          EncodeOpsPerSec([&] { return workloads::MakeAbsAssetFlat(&encode_rng, 7); })});

  DumpMetrics("metrics.json");
  return 0;
}
