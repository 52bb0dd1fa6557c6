/// \file system.h
/// \brief Whole-node bootstrap: platform + enclaves + K-Protocol +
/// engines + chain node, wired the way a deployment would be.
///
/// Bootstrap sequence per node (paper §5.1):
///  1. create the SGX platform and the KM enclave;
///  2. obtain the consortium keys — first node generates them, joiners run
///     the MAP against an existing node (or a CentralKms provisions them);
///  3. create the CS enclave; provision keys over the local-attestation
///     channel;
///  4. destroy the KM enclave to release EPC ("it will be destroyed as
///     soon as possible", §5.3);
///  5. stand up the chain node with both engines.

#pragma once

#include <memory>
#include <vector>

#include "chain/node.h"
#include "chain/sync.h"
#include "confide/client.h"
#include "confide/engines.h"

namespace confide::core {

/// \brief Base backoff between RecoverConfidentialEngine() attempts;
/// doubles per retry. Charged to the node's SimClock (modelled, not wall
/// time).
inline constexpr uint64_t kRecoverBackoffNs = 1'000'000;

struct SystemOptions {
  uint32_t parallelism = 1;
  size_t block_max_bytes = 4096;
  CsOptions cs;
  EngineOptions public_engine;
  uint64_t seed = 1;
  /// Destroy the KM enclave after provisioning (paper default). Keep it
  /// alive only when later MAP provisioning of other nodes is expected.
  bool destroy_km_after_provision = true;
  /// Attempts per RecoverConfidentialEngine() call before giving up.
  uint32_t recover_max_retries = 4;
  /// Directory for the node state WAL; empty = volatile state store.
  std::string state_wal_dir;
  /// fsync the state store once per block, after its batch lands.
  bool sync_commits = false;
  /// Stable-checkpoint production (chain::CheckpointOptions); the interval
  /// of 0 disables checkpointing.
  chain::CheckpointOptions checkpoint;
  /// Consortium validator set certifying checkpoints. Required when
  /// `checkpoint.interval > 0` or the node serves/consumes state sync;
  /// must outlive the system.
  const chain::ValidatorSet* validators = nullptr;
  /// State continuity: bind sealed state to a trusted monotonic counter +
  /// chain height (freshness header), verify it on recovery/sync, and
  /// refuse rolled-back state with StaleState. Off by default — the
  /// freshness ecalls perturb exact transition-count assertions.
  bool enable_state_continuity = false;
  /// Durable backing for the platform's trusted monotonic counters
  /// (models counter NVRAM; kept separate from the node store a rollback
  /// attack would snapshot). Tests share one across simulated restarts;
  /// when continuity is enabled and none is given, a fresh volatile store
  /// is created (counters then persist only via the NVRAM shadow).
  std::shared_ptr<storage::KvStore> counter_store;
};

/// \brief One fully bootstrapped CONFIDE node.
class ConfideSystem {
 public:
  /// \brief Boots the first node: its KM enclave generates the keys.
  static Result<std::unique_ptr<ConfideSystem>> BootstrapFirst(SystemOptions options);

  /// \brief Boots a joining node via decentralized MAP against `provider`
  /// (whose KM enclave must still be alive).
  static Result<std::unique_ptr<ConfideSystem>> BootstrapJoin(
      SystemOptions options, ConfideSystem* provider);

  /// \brief Boots a node provisioned by a centralized KMS.
  static Result<std::unique_ptr<ConfideSystem>> BootstrapWithKms(
      SystemOptions options, CentralKms* kms);

  /// \brief The engine public key clients seal envelopes to.
  const crypto::PublicKey& pk_tx() const { return pk_tx_; }

  /// \brief The pk_tx info blob (key + binding quote) served to clients.
  const Bytes& pk_info_blob() const { return pk_info_blob_; }

  chain::Node* node() { return node_.get(); }
  ConfidentialEngine* confidential_engine() { return confidential_.get(); }
  PublicEngine* public_engine() { return public_.get(); }
  tee::EnclavePlatform* platform() { return platform_.get(); }
  SimClock* clock() { return &clock_; }
  tee::EnclaveId km_enclave_id() const { return km_id_; }
  bool km_alive() const { return km_alive_; }

  /// \brief Drains the pools through Node::RunToCompletion, then seals the
  /// new tip's freshness generation.
  /// Convenience for tests/examples; returns total receipts.
  Result<std::vector<chain::Receipt>> RunToCompletion();

  /// \brief True while the CS enclave backing the confidential engine is
  /// loaded on the platform.
  bool ConfidentialEngineAlive() const;

  /// \brief Names a peer node whose live KM enclave can re-provision this
  /// node's keys (decentralized MAP recovery source).
  void SetRecoveryPeer(ConfideSystem* peer) { recovery_peer_ = peer; }

  /// \brief Names a centralized KMS as the key-recovery source.
  void SetRecoveryKms(CentralKms* kms) { recovery_kms_ = kms; }

  /// \brief Rebuilds a crashed CS enclave and re-provisions its keys, so
  /// `km_alive_ == false` does not mean permanent key loss. Key source
  /// order: own live KM enclave, else a fresh KM enclave fed via the
  /// recovery peer's MAP or the recovery KMS. Retries with exponential
  /// backoff (modelled time, common::RetryPolicy) up to
  /// `recover_max_retries` attempts.
  Status RecoverConfidentialEngine();

  /// \brief Catches this node up to the live tip from peer providers:
  /// re-provisions the CS enclave keys first when the engine is dead (the
  /// synced sealed state must be readable and replay executes
  /// confidential transactions), then runs checkpoint discovery,
  /// Merkle-verified chunk transfer and block replay (sync.h). `options`
  /// may customize retry behaviour; the clock and (absent) reprovision
  /// hook are wired to this system.
  Result<chain::SyncStats> SyncFromPeers(
      const std::vector<chain::SyncProvider*>& providers,
      chain::SyncOptions options = chain::SyncOptions{});

  /// \brief Seals the current store tip (height + state root) into a new
  /// freshness generation: bumps the enclave's trusted `state-gen`
  /// counter, MACs the header in-enclave and persists it host-side. No-op
  /// unless `enable_state_continuity`.
  Status SealStateGeneration();

  /// \brief Verifies the persisted freshness header against the store tip
  /// inside the enclave. Accepted-but-newer state is re-sealed; an absent
  /// header (first boot) is vacuously fresh and seals the tip. Returns
  /// StaleState when the store or the counters were rolled back — the
  /// caller must refuse the state (peer sync is the remedy). No-op unless
  /// `enable_state_continuity`.
  Status VerifyStateContinuity();

 private:
  ConfideSystem() = default;

  /// \brief One recovery attempt: recreate enclave + re-provision keys.
  Status TryRecoverOnce();

  /// \brief TryRecoverOnce + in-enclave freshness verification of the
  /// recovered state (state continuity).
  Status TryRecoverOnceWithFreshness();

  static Result<std::unique_ptr<ConfideSystem>> BootstrapCommon(
      SystemOptions options,
      const std::function<Result<Bytes>(ConfideSystem*)>& obtain_keys);

  Status ProvisionCs();
  Status FinishBootstrap();

  SystemOptions options_;
  SimClock clock_;
  std::unique_ptr<tee::EnclavePlatform> platform_;
  std::shared_ptr<KmEnclave> km_;
  tee::EnclaveId km_id_ = 0;
  bool km_alive_ = false;
  std::unique_ptr<ConfidentialEngine> confidential_;
  std::unique_ptr<PublicEngine> public_;
  std::unique_ptr<chain::Node> node_;
  crypto::PublicKey pk_tx_{};
  Bytes pk_info_blob_;
  ConfideSystem* recovery_peer_ = nullptr;
  CentralKms* recovery_kms_ = nullptr;
};

}  // namespace confide::core
