#include "txset.h"

#include <cstdio>
#include <limits>

#include "chain/engine.h"
#include "confide/system.h"
#include "lang/compiler.h"
#include "serialize/rlp.h"
#include "stats.h"
#include "workloads/workloads.h"

namespace perfbench {

using namespace confide;

namespace {

constexpr uint64_t kFileVersion = 2;

/// Warm-up traffic: this long, at the workload's rate capped here.
constexpr uint64_t kWarmupSeconds = 3;
constexpr double kWarmupMaxRate = 300;

// Independent streams derived from the one workload seed.
constexpr uint64_t kArrivalStream = 0xA11CE5ull;
constexpr uint64_t kReadStream = 0x4EADull;
constexpr uint64_t kInputStream = 0xB33Full;
constexpr uint64_t kWarmupStream = 0x3A4Dull;

Bytes DeployPayload(const Bytes& code) {
  serialize::RlpWriter w;
  size_t mark = w.BeginList();
  w.WriteU64(uint64_t(chain::VmKind::kCvm));
  w.WriteBytes(ByteView(code));
  w.EndList(mark);
  return std::move(w).Take();
}

GenTx FromPublic(const chain::Transaction& tx, uint64_t at_ns) {
  GenTx g;
  g.at_ns = at_ns;
  g.wire = tx.Serialize();
  g.hash = tx.Hash();
  return g;
}

GenTx FromConfidential(const core::ConfidentialSubmission& sub, uint64_t at_ns) {
  GenTx g = FromPublic(sub.tx, at_ns);
  g.confidential = true;
  g.k_tx = sub.k_tx;
  return g;
}

void WriteTx(serialize::RlpWriter* w, const GenTx& tx) {
  size_t mark = w->BeginList();
  w->WriteU64(tx.at_ns);
  w->WriteU64(tx.confidential ? 1 : 0);
  w->WriteBytes(ByteView(tx.wire));
  w->WriteBytes(ByteView(tx.hash.data(), tx.hash.size()));
  w->WriteBytes(ByteView(tx.k_tx.data(), tx.k_tx.size()));
  w->EndList(mark);
}

Result<std::vector<GenTx>> ReadTxList(serialize::RlpReader* outer) {
  CONFIDE_ASSIGN_OR_RETURN(serialize::RlpReader list, outer->NextList());
  std::vector<GenTx> out;
  while (!list.AtEnd()) {
    CONFIDE_ASSIGN_OR_RETURN(serialize::RlpReader item, list.NextList());
    GenTx tx;
    CONFIDE_ASSIGN_OR_RETURN(tx.at_ns, item.NextU64());
    CONFIDE_ASSIGN_OR_RETURN(uint64_t conf, item.NextU64());
    tx.confidential = conf != 0;
    CONFIDE_ASSIGN_OR_RETURN(ByteView wire, item.NextBytes());
    tx.wire = ToBytes(wire);
    CONFIDE_ASSIGN_OR_RETURN(ByteView hash, item.NextFixed(32, "tx hash"));
    std::copy(hash.begin(), hash.end(), tx.hash.begin());
    CONFIDE_ASSIGN_OR_RETURN(ByteView k_tx, item.NextFixed(32, "k_tx"));
    std::copy(k_tx.begin(), k_tx.end(), tx.k_tx.begin());
    CONFIDE_RETURN_NOT_OK(item.ExpectEnd("txset tx"));
    out.push_back(std::move(tx));
  }
  return out;
}

}  // namespace

Result<WorkloadSpec> FindWorkload(const std::string& name) {
  WorkloadSpec spec;
  spec.name = name;
  // The write workloads carry a light read stream too, so every workload
  // reports read latency beside its own write load.
  if (name == "steady-mixed") {
    spec.tx_rate = 300;
    spec.confidential_pct = 50;
    spec.read_rate = 75;
  } else if (name == "backlog-mixed") {
    spec.tx_rate = 3000;
    spec.confidential_pct = 50;
    spec.backlog_per_run_second = 450;
    spec.read_rate = 75;
    spec.commit_deadline_ms = 60'000;
  } else if (name == "steady-public-read") {
    spec.tx_rate = 300;
    spec.confidential_pct = 0;
    spec.read_rate = 300;
  } else {
    return Status::InvalidArgument("unknown workload '" + name + "'");
  }
  return spec;
}

Result<TxSet> Generate(const WorkloadSpec& spec, uint64_t seed, uint64_t seconds) {
  // Key derivation is a pure function of the consortium seed, so a
  // throwaway local bootstrap yields the cluster's pk_tx.
  core::SystemOptions sys_options;
  sys_options.seed = ConsortiumSeed(seed);
  CONFIDE_ASSIGN_OR_RETURN(auto local, core::ConfideSystem::BootstrapFirst(sys_options));
  core::Client client(seed + 1000, local->pk_tx());

  TxSet set;
  set.workload = spec.name;
  set.seed = seed;
  set.seconds = seconds;

  CONFIDE_ASSIGN_OR_RETURN(Bytes code, lang::Compile(workloads::SyntheticContractSource(),
                                                     lang::VmTarget::kCvm));
  const Bytes deploy = DeployPayload(code);
  const chain::Address pub_addr = chain::NamedAddress("perfbench.pub");
  const chain::Address conf_addr = chain::NamedAddress("perfbench.conf");
  set.deploys.push_back(FromPublic(client.MakePublicTx(pub_addr, "__deploy__", deploy), 0));
  CONFIDE_ASSIGN_OR_RETURN(auto conf_deploy,
                           client.MakeConfidentialTx(conf_addr, "__deploy__", deploy));
  set.deploys.push_back(FromConfidential(conf_deploy, 0));

  crypto::Drbg rng(seed ^ kInputStream);
  // One transaction of the workload's mix, due at `at_ns`.
  auto make = [&](uint64_t at_ns) -> Result<GenTx> {
    const bool confidential = rng.NextBounded(100) < spec.confidential_pct;
    Bytes input = workloads::MakeStringConcatInput(&rng);
    if (!confidential) {
      return FromPublic(client.MakePublicTx(pub_addr, "string_concat", std::move(input)), at_ns);
    }
    CONFIDE_ASSIGN_OR_RETURN(
        auto sub, client.MakeConfidentialTx(conf_addr, "string_concat", std::move(input)));
    return FromConfidential(sub, at_ns);
  };

  for (uint64_t at_ns : PoissonSchedule(seed ^ kWarmupStream,
                                        std::min(spec.tx_rate, kWarmupMaxRate),
                                        kWarmupSeconds * 1'000'000'000ull,
                                        std::numeric_limits<size_t>::max())) {
    CONFIDE_ASSIGN_OR_RETURN(GenTx tx, make(at_ns));
    set.warmup.push_back(std::move(tx));
  }
  const uint64_t horizon_ns = seconds * 1'000'000'000ull;
  const std::vector<uint64_t> arrivals =
      spec.backlog_per_run_second > 0
          ? PoissonSchedule(seed ^ kArrivalStream, spec.tx_rate,
                            std::numeric_limits<uint64_t>::max(),
                            spec.backlog_per_run_second * seconds)
          : PoissonSchedule(seed ^ kArrivalStream, spec.tx_rate, horizon_ns,
                            std::numeric_limits<size_t>::max());
  set.txs.reserve(arrivals.size());
  for (uint64_t at_ns : arrivals) {
    CONFIDE_ASSIGN_OR_RETURN(GenTx tx, make(at_ns));
    set.txs.push_back(std::move(tx));
  }
  set.reads_at_ns = PoissonSchedule(seed ^ kReadStream, spec.read_rate, horizon_ns,
                                    std::numeric_limits<size_t>::max());
  return set;
}

Status SaveTxSet(const TxSet& set, const std::string& path) {
  serialize::RlpWriter w;
  size_t mark = w.BeginList();
  w.WriteU64(kFileVersion);
  w.WriteString(set.workload);
  w.WriteU64(set.seed);
  w.WriteU64(set.seconds);
  for (const auto* list : {&set.deploys, &set.warmup, &set.txs}) {
    size_t list_mark = w.BeginList();
    for (const GenTx& tx : *list) WriteTx(&w, tx);
    w.EndList(list_mark);
  }
  size_t reads_mark = w.BeginList();
  for (uint64_t at : set.reads_at_ns) w.WriteU64(at);
  w.EndList(reads_mark);
  w.EndList(mark);
  const Bytes bytes = std::move(w).Take();

  // Write to a temporary name and rename, so an interrupted run never
  // leaves a truncated file behind for the next one to trust.
  const std::string tmp = path + ".tmp";
  std::FILE* file = std::fopen(tmp.c_str(), "wb");
  if (file == nullptr) return Status::Internal("cannot write " + tmp);
  const bool ok = std::fwrite(bytes.data(), 1, bytes.size(), file) == bytes.size();
  if (std::fclose(file) != 0 || !ok) return Status::Internal("short write to " + tmp);
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    return Status::Internal("cannot rename " + tmp);
  }
  return Status::OK();
}

Result<TxSet> LoadTxSet(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) return Status::NotFound("cannot open " + path);
  Bytes bytes;
  uint8_t chunk[1 << 16];
  size_t n;
  while ((n = std::fread(chunk, 1, sizeof(chunk), file)) > 0) {
    bytes.insert(bytes.end(), chunk, chunk + n);
  }
  std::fclose(file);

  CONFIDE_ASSIGN_OR_RETURN(serialize::RlpReader r, serialize::RlpReader::AtList(bytes));
  CONFIDE_ASSIGN_OR_RETURN(uint64_t version, r.NextU64());
  if (version != kFileVersion) return Status::Corruption("txset: unknown version");
  TxSet set;
  CONFIDE_ASSIGN_OR_RETURN(ByteView workload, r.NextBytes());
  set.workload.assign(workload.begin(), workload.end());
  CONFIDE_ASSIGN_OR_RETURN(set.seed, r.NextU64());
  CONFIDE_ASSIGN_OR_RETURN(set.seconds, r.NextU64());
  CONFIDE_ASSIGN_OR_RETURN(set.deploys, ReadTxList(&r));
  CONFIDE_ASSIGN_OR_RETURN(set.warmup, ReadTxList(&r));
  CONFIDE_ASSIGN_OR_RETURN(set.txs, ReadTxList(&r));
  CONFIDE_ASSIGN_OR_RETURN(serialize::RlpReader reads, r.NextList());
  while (!reads.AtEnd()) {
    CONFIDE_ASSIGN_OR_RETURN(uint64_t at, reads.NextU64());
    set.reads_at_ns.push_back(at);
  }
  CONFIDE_RETURN_NOT_OK(r.ExpectEnd("txset"));
  if (set.deploys.size() != 2) return Status::Corruption("txset: expected 2 deploys");
  return set;
}

std::string SubmitBody(const Bytes& wire) {
  return "{\"tx\":\"" + HexEncode(ByteView(wire)) + "\"}";
}

}  // namespace perfbench
