#include "confide/system.h"

#include "common/fault.h"
#include "common/metrics.h"
#include "common/retry.h"
#include "confide/freshness.h"
#include "serialize/rlp.h"
#include "storage/lsm_store.h"

namespace confide::core {

using serialize::RlpReader;
using serialize::RlpWriter;

Result<std::unique_ptr<ConfideSystem>> ConfideSystem::BootstrapCommon(
    SystemOptions options,
    const std::function<Result<Bytes>(ConfideSystem*)>& obtain_keys) {
  std::unique_ptr<ConfideSystem> sys(new ConfideSystem());
  sys->options_ = options;
  sys->platform_ = std::make_unique<tee::EnclavePlatform>(
      options.tee_model, &sys->clock_, options.seed);

  // 1. KM enclave.
  sys->km_ = std::make_shared<KmEnclave>(options.seed);
  CONFIDE_ASSIGN_OR_RETURN(sys->km_id_,
                           sys->platform_->CreateEnclave(sys->km_, 4 << 20));
  sys->km_alive_ = true;

  // 2. Obtain consortium keys (generate / MAP / KMS, mode-specific).
  CONFIDE_RETURN_NOT_OK(obtain_keys(sys.get()).status());

  // Client-facing pk info (pk_tx + binding quote).
  CONFIDE_ASSIGN_OR_RETURN(
      sys->pk_info_blob_,
      sys->platform_->Ecall(sys->km_id_, kKmGetPublicInfo, ByteView{}));
  CONFIDE_ASSIGN_OR_RETURN(
      sys->pk_tx_,
      Client::VerifyEnginePublicKey(
          sys->pk_info_blob_, tee::MeasureEnclave("confide-km-enclave", 1)));

  // 3-5. CS enclave + engines + node.
  CONFIDE_RETURN_NOT_OK(sys->FinishBootstrap());
  return sys;
}

Status ConfideSystem::ProvisionCs() {
  if (fault::FaultInjector::Global().ShouldFail("fault.confide.provision")) {
    return Status::Unavailable("confide: injected provisioning failure");
  }
  CONFIDE_ASSIGN_OR_RETURN(
      Bytes report,
      platform_->Ecall(confidential_->enclave_id(), kCsGetProvisionReport,
                       ByteView{}));
  CONFIDE_ASSIGN_OR_RETURN(Bytes blob,
                           platform_->Ecall(km_id_, kKmProvisionCs, report));
  CONFIDE_RETURN_NOT_OK(
      platform_->Ecall(confidential_->enclave_id(), kCsInstallKeys, blob).status());
  return Status::OK();
}

Status ConfideSystem::FinishBootstrap() {
  if (options_.enable_state_continuity) {
    if (!options_.counter_store) {
      CONFIDE_ASSIGN_OR_RETURN(options_.counter_store,
                               storage::LsmKvStore::Open(storage::LsmOptions{}));
    }
    platform_->AttachCounterStore(options_.counter_store);
  }
  CONFIDE_ASSIGN_OR_RETURN(
      confidential_,
      ConfidentialEngine::Create(platform_.get(), options_.cs, options_.seed));
  CONFIDE_RETURN_NOT_OK(ProvisionCs());

  if (options_.destroy_km_after_provision) {
    CONFIDE_RETURN_NOT_OK(platform_->DestroyEnclave(km_id_));
    km_alive_ = false;
  }

  public_ = std::make_unique<PublicEngine>(options_.public_engine);

  chain::NodeOptions node_options;
  node_options.parallelism = options_.parallelism;
  node_options.block_max_bytes = options_.block_max_bytes;
  node_options.clock = &clock_;
  node_options.state_wal_dir = options_.state_wal_dir;
  node_options.pipeline_depth = options_.pipeline_depth;
  node_options.sync_commits = options_.sync_commits;
  node_options.commit_write_latency_ns = options_.commit_write_latency_ns;
  node_options.checkpoint = options_.checkpoint;
  node_options.validators = options_.validators;
  chain::EngineSet engines;
  engines.public_engine = public_.get();
  engines.confidential_engine = confidential_.get();
  CONFIDE_ASSIGN_OR_RETURN(node_, chain::Node::Create(node_options, engines));
  // A restarted node proves its recovered store is the newest sealed
  // generation before executing anything on it.
  return VerifyStateContinuity();
}

Status ConfideSystem::SealStateGeneration() {
  if (!options_.enable_state_continuity) return Status::OK();
  RlpWriter req(48);
  size_t req_list = req.BeginList();
  req.WriteU64(node_->Height());
  req.WriteBytes(crypto::HashView(node_->state()->StateRoot()));
  req.EndList(req_list);
  CONFIDE_ASSIGN_OR_RETURN(
      Bytes header, platform_->Ecall(confidential_->enclave_id(),
                                     kCsSealFreshness, req.buffer()));
  storage::KvStore* kv = node_->state()->backing();
  CONFIDE_RETURN_NOT_OK(kv->Put(std::string(kFreshnessKvKey), std::move(header)));
  return kv->Sync();
}

Status ConfideSystem::VerifyStateContinuity() {
  if (!options_.enable_state_continuity) return Status::OK();
  Result<Bytes> header = node_->state()->backing()->Get(std::string(kFreshnessKvKey));
  if (!header.ok()) {
    if (header.status().IsNotFound()) {
      // Nothing was ever sealed — a first boot, vacuously fresh. Seal the
      // current tip so the next restart is covered.
      return SealStateGeneration();
    }
    return header.status();
  }
  RlpWriter req(64 + header->size());
  size_t req_list = req.BeginList();
  req.WriteBytes(*header);
  req.WriteU64(node_->Height());
  req.WriteBytes(crypto::HashView(node_->state()->StateRoot()));
  req.EndList(req_list);
  Result<Bytes> resp = platform_->Ecall(confidential_->enclave_id(),
                                        kCsVerifyFreshness, req.buffer());
  if (!resp.ok()) {
    if (resp.status().IsStaleState()) {
      metrics::GetCounter("confide.freshness.refused.count")->Increment();
    }
    return resp.status();
  }
  auto reader = RlpReader::AtList(*resp);
  if (!reader.ok()) {
    return Status::Corruption("freshness: malformed verify response");
  }
  auto action_field = reader->NextU64();
  if (!action_field.ok() || !reader->AtEnd()) {
    return Status::Corruption("freshness: malformed verify response");
  }
  uint64_t action = action_field.value();
  if (FreshnessAction(action) == FreshnessAction::kResealNeeded) {
    // State advanced past (or an interrupted seal trails) the sealed
    // header; cover the current tip under a fresh generation.
    return SealStateGeneration();
  }
  return Status::OK();
}

Result<std::unique_ptr<ConfideSystem>> ConfideSystem::BootstrapFirst(
    SystemOptions options) {
  return BootstrapCommon(options, [](ConfideSystem* sys) -> Result<Bytes> {
    return sys->platform_->Ecall(sys->km_id_, kKmGenerateKeys, ByteView{});
  });
}

Result<std::unique_ptr<ConfideSystem>> ConfideSystem::BootstrapJoin(
    SystemOptions options, ConfideSystem* provider) {
  if (!provider->km_alive()) {
    return Status::Unavailable(
        "bootstrap: provider KM enclave already destroyed");
  }
  return BootstrapCommon(options, [provider](ConfideSystem* sys) -> Result<Bytes> {
    CONFIDE_RETURN_NOT_OK(RunMutualAttestation(provider->platform_.get(),
                                               provider->km_id_,
                                               sys->platform_.get(), sys->km_id_));
    return Bytes{};
  });
}

Result<std::unique_ptr<ConfideSystem>> ConfideSystem::BootstrapWithKms(
    SystemOptions options, CentralKms* kms) {
  return BootstrapCommon(options, [kms](ConfideSystem* sys) -> Result<Bytes> {
    CONFIDE_ASSIGN_OR_RETURN(
        Bytes request,
        sys->platform_->Ecall(sys->km_id_, kKmCreateJoinRequest, ByteView{}));
    CONFIDE_ASSIGN_OR_RETURN(
        Bytes blob,
        kms->Provision(request, tee::MeasureEnclave("confide-km-enclave", 1)));
    return sys->platform_->Ecall(sys->km_id_, kKmAcceptProvision, blob);
  });
}

bool ConfideSystem::ConfidentialEngineAlive() const {
  return confidential_ != nullptr &&
         platform_->IsAlive(confidential_->enclave_id());
}

Status ConfideSystem::TryRecoverOnce() {
  CONFIDE_RETURN_NOT_OK(confidential_->RecreateEnclave(options_.seed));

  // Fast path: our own KM enclave survived and still holds the keys. The
  // cached flag alone is not proof — the enclave may have been killed out
  // from under us (KillEnclave, injected enclave crash) — so confirm
  // liveness with the platform before provisioning against it.
  if (km_alive_ && !platform_->IsAlive(km_id_)) km_alive_ = false;
  if (km_alive_) return ProvisionCs();

  // The KM enclave was destroyed after bootstrap (paper §5.3), so the
  // keys must come back over an attested channel: a peer's live KM
  // enclave (decentralized MAP) or the centralized KMS.
  const bool peer_ok = recovery_peer_ != nullptr && recovery_peer_->km_alive();
  if (!peer_ok && recovery_kms_ == nullptr) {
    return Status::Unavailable(
        "recover: KM enclave destroyed and no recovery peer or KMS "
        "configured — consortium keys unreachable");
  }

  // Fresh, key-less KM enclave to receive the provision blob.
  km_ = std::make_shared<KmEnclave>(options_.seed);
  CONFIDE_ASSIGN_OR_RETURN(km_id_, platform_->CreateEnclave(km_, 4 << 20));
  km_alive_ = true;

  auto obtain_keys = [&]() -> Status {
    if (peer_ok) {
      return RunMutualAttestation(recovery_peer_->platform_.get(),
                                  recovery_peer_->km_id_, platform_.get(),
                                  km_id_);
    }
    CONFIDE_ASSIGN_OR_RETURN(
        Bytes request,
        platform_->Ecall(km_id_, kKmCreateJoinRequest, ByteView{}));
    CONFIDE_ASSIGN_OR_RETURN(
        Bytes blob, recovery_kms_->Provision(
                        request, tee::MeasureEnclave("confide-km-enclave", 1)));
    return platform_->Ecall(km_id_, kKmAcceptProvision, blob).status();
  };
  Status keys = obtain_keys();
  if (!keys.ok()) {
    (void)platform_->DestroyEnclave(km_id_);
    km_alive_ = false;
    return keys;
  }

  Status provisioned = ProvisionCs();
  if (provisioned.ok() && options_.destroy_km_after_provision) {
    CONFIDE_RETURN_NOT_OK(platform_->DestroyEnclave(km_id_));
    km_alive_ = false;
  }
  // On failure the fresh KM stays alive so the next attempt only has to
  // redo the (cheap) CS-side provisioning.
  return provisioned;
}

Status ConfideSystem::TryRecoverOnceWithFreshness() {
  CONFIDE_RETURN_NOT_OK(TryRecoverOnce());
  // Keys are back — now prove the sealed state the host is offering is
  // the newest generation before executing on it. A rolled-back store
  // fails here with StaleState: keys recovered, state refused.
  return VerifyStateContinuity();
}

Status ConfideSystem::RecoverConfidentialEngine() {
  if (confidential_ == nullptr) {
    return Status::Internal("recover: system not bootstrapped");
  }
  common::RetryOptions retry_options;
  retry_options.max_attempts = options_.recover_max_retries;
  retry_options.base_backoff_ns = options_.recover_backoff_ns;
  retry_options.multiplier = 2.0;
  retry_options.seed = options_.seed;
  common::RetryPolicy retry(retry_options, &clock_);  // modelled backoff
  // StaleState is not transient: retrying re-offers the same rolled-back
  // state. Fail fast so the caller can escalate to peer sync.
  Status last = retry.Run(
      "confidential engine recovery",
      [this] { return TryRecoverOnceWithFreshness(); },
      [](const Status& s) { return !s.IsStaleState(); });
  if (last.ok()) {
    fault::NoteRecovered("fault.tee.enclave_crash");
    if (retry.LastAttempts() > 1) fault::NoteRecovered("fault.confide.provision");
    metrics::GetCounter("confide.recover.success.count")->Increment();
    metrics::GetCounter("confide.recover.attempts")
        ->Increment(retry.LastAttempts());
    return Status::OK();
  }
  metrics::GetCounter("confide.recover.failure.count")->Increment();
  return last;
}

Result<chain::SyncStats> ConfideSystem::SyncFromPeers(
    const std::vector<chain::SyncProvider*>& providers,
    chain::SyncOptions options) {
  if (options_.validators == nullptr) {
    return Status::InvalidArgument(
        "sync: system bootstrapped without a validator set");
  }
  options.clock = &clock_;
  if (!options.reprovision) {
    options.reprovision = [this]() -> Status {
      if (ConfidentialEngineAlive()) return Status::OK();
      Status recovered = RecoverConfidentialEngine();
      // StaleState means the keys are back but the local state failed
      // freshness — exactly what this sync is about to remedy, so it
      // must not abort the rejoin.
      if (recovered.IsStaleState()) return Status::OK();
      return recovered;
    };
  }
  chain::StateSyncClient client(node_.get(), options_.validators,
                                std::move(options));
  for (chain::SyncProvider* provider : providers) {
    client.AddProvider(provider);
  }
  CONFIDE_ASSIGN_OR_RETURN(chain::SyncStats stats, client.SyncToTip());
  // The synced tip must itself pass freshness: a provider replaying a
  // stale checkpoint lands the store *below* the sealed generation and is
  // refused here with StaleState; a legitimate catch-up lands above it
  // and is re-sealed.
  CONFIDE_RETURN_NOT_OK(VerifyStateContinuity());
  return stats;
}

Result<std::vector<chain::Receipt>> ConfideSystem::RunToCompletion() {
  CONFIDE_ASSIGN_OR_RETURN(std::vector<chain::Receipt> receipts,
                           node_->RunPipelined());
  // Cover the advanced tip under a new sealed freshness generation
  // (no-op when state continuity is off).
  if (!receipts.empty()) CONFIDE_RETURN_NOT_OK(SealStateGeneration());
  return receipts;
}

}  // namespace confide::core
