/// \file enclave.h
/// \brief The simulated SGX platform: enclave lifecycle, ecall/ocall
/// boundary with marshalling semantics, attestation, sealing, monitoring.
///
/// Enclave *code* is a C++ object implementing the Enclave interface; the
/// platform mediates every crossing so transition and copy costs are
/// charged exactly where hardware would pay them (see cost_model.h).

#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "common/bytes.h"
#include "common/sim_clock.h"
#include "common/status.h"
#include "crypto/secp256k1.h"
#include "storage/kv_store.h"
#include "tee/attestation.h"
#include "tee/cost_model.h"
#include "tee/epc.h"
#include "tee/ring_buffer.h"

namespace confide::tee {

class EnclavePlatform;
class EnclaveContext;

/// \brief Enclave handle.
using EnclaveId = uint64_t;

/// \brief EDL-style pointer marshalling semantics for a boundary crossing.
enum class PointerSemantics {
  kCopyInOut,   ///< Edger8r [in]/[out]: buffers copied + range checked
  kUserCheck,   ///< `user_check`: no copy, caller owns memory safety
};

/// \brief Interface implemented by enclave code (KM enclave, CS enclave).
class Enclave {
 public:
  virtual ~Enclave() = default;

  /// \brief Identity string measured at load (stand-in for page hashing).
  virtual std::string CodeIdentity() const = 0;

  /// \brief Security version (SVN) included in the measurement and AAD.
  virtual uint64_t SecurityVersion() const { return 1; }

  /// \brief Handles one ecall. `ctx` is valid only for the duration of the
  /// call; the return buffer is marshalled back to the host.
  virtual Result<Bytes> HandleEcall(uint64_t fn, ByteView input,
                                    EnclaveContext* ctx) = 0;
};

/// \brief Ocall handler registered by the untrusted host.
using OcallHandler = std::function<Result<Bytes>(ByteView payload)>;

/// \brief Per-call view of platform services available to enclave code.
class EnclaveContext {
 public:
  /// \brief Calls out to the untrusted host. Charges transition + copy
  /// costs according to `semantics`.
  Result<Bytes> Ocall(uint64_t fn, ByteView payload,
                      PointerSemantics semantics = PointerSemantics::kCopyInOut);

  /// \brief One ocall carrying `entries` logical operations in its payload
  /// (the SDM's batched state flush/prefetch). Charged like a single
  /// crossing — that is the point — but the platform books the entries and
  /// the 2*(entries-1) transitions the batching avoided, so benches can
  /// report before/after crossing counts.
  Result<Bytes> OcallBatched(
      uint64_t fn, ByteView payload, uint64_t entries,
      PointerSemantics semantics = PointerSemantics::kCopyInOut);

  /// \brief This enclave's measurement.
  Measurement Self() const;

  /// \brief This enclave's security version.
  uint64_t SecurityVersion() const;

  /// \brief Creates a local-attestation report (same-platform verifiable).
  LocalReport CreateLocalReport(ByteView user_data) const;

  /// \brief Verifies a local report produced on this platform (EREPORT
  /// target verification — how the KM enclave authenticates the CS
  /// enclave before provisioning keys over the local channel).
  bool VerifyLocalReport(const LocalReport& report) const;

  /// \brief Creates a remote-attestation quote signed by the platform's
  /// certified attestation key.
  Quote CreateQuote(ByteView user_data) const;

  /// \brief Derives a sealing key bound to this enclave's measurement.
  crypto::Hash256 SealKey(std::string_view label) const;

  /// \brief Increments this enclave's trusted monotonic counter `family`
  /// and returns the new value (see EnclavePlatform::CounterIncrement).
  Result<uint64_t> CounterIncrement(std::string_view family);

  /// \brief Reads this enclave's trusted monotonic counter `family`.
  Result<uint64_t> CounterRead(std::string_view family);

  /// \brief Emits a monitor record through the exit-less ring (cheap).
  void MonitorEmit(uint32_t severity, std::string_view message);

  /// \brief Emits a monitor record via an ocall (expensive; kept for the
  /// ablation benchmark).
  void MonitorEmitViaOcall(uint32_t severity, std::string_view message);

  EnclaveId enclave_id() const { return enclave_id_; }
  EnclavePlatform* platform() { return platform_; }

 private:
  friend class EnclavePlatform;
  EnclaveContext(EnclavePlatform* platform, EnclaveId id)
      : platform_(platform), enclave_id_(id) {}

  EnclavePlatform* platform_;
  EnclaveId enclave_id_;
};

/// \brief One simulated SGX-capable host. Owns the EPC, the attestation
/// key, the ocall table and the monitor ring.
class EnclavePlatform {
 public:
  /// \brief `platform_seed` derives the platform attestation/sealing keys
  /// deterministically; distinct seeds model distinct machines.
  EnclavePlatform(const TeeCostModel& model, SimClock* clock, uint64_t platform_seed);

  /// \brief Loads enclave code, measures it, reserves `heap_bytes` of EPC.
  Result<EnclaveId> CreateEnclave(std::shared_ptr<Enclave> code, uint64_t heap_bytes);

  /// \brief Destroys an enclave and releases its EPC (the paper destroys
  /// the KM enclave after provisioning to free memory, §5.3).
  Status DestroyEnclave(EnclaveId id);

  /// \brief Invokes fn inside the enclave, charging boundary costs.
  /// Fault site `fault.tee.enclave_crash`: when armed, the target enclave
  /// is killed before dispatch and the call returns Unavailable — the
  /// simulated equivalent of an AEX/processor fault tearing the enclave
  /// down mid-call.
  Result<Bytes> Ecall(EnclaveId id, uint64_t fn, ByteView input,
                      PointerSemantics semantics = PointerSemantics::kCopyInOut);

  /// \brief Kills an enclave as if it crashed: EPC is released, the id is
  /// remembered as crashed so later Ecalls report Unavailable (distinct
  /// from NotFound for never-existing ids). Records the injection under
  /// `fault.tee.enclave_crash`.
  Status KillEnclave(EnclaveId id);

  /// \brief True while `id` names a live (loaded, not crashed) enclave.
  bool IsAlive(EnclaveId id) const;

  /// \brief Registers the host-side handler for ocall `fn`.
  void RegisterOcall(uint64_t fn, OcallHandler handler);

  // --- Trusted monotonic counter service (state continuity, Memoir/
  // Ariadne lineage). Counters are keyed by enclave *measurement* and a
  // free-form family name, so a re-provisioned enclave running the same
  // code resumes its counters after KillEnclave/DestroyEnclave. Values
  // only ever grow; a process-lifetime high-water shadow (the simulated
  // NVRAM) survives platform re-construction under the same seed, so a
  // host that rolls back the durable counter store is *detected* rather
  // than silently obeyed.

  /// \brief Attaches a durable KvStore backing for the counters (keys
  /// `tmc/<measurement hex>/<family>`). Counters load lazily on first
  /// touch; a durable value behind the NVRAM high-water mark fails loads
  /// with StaleState (`tee.counter.rollback_detected.count`). Without a
  /// store, counters persist only via the NVRAM shadow.
  void AttachCounterStore(std::shared_ptr<storage::KvStore> store);

  /// \brief Atomically increments counter `family` of enclave `id` and
  /// returns the *new* value. The durable write lands before the value is
  /// exposed (increment-then-seal): if persistence fails — fault site
  /// `fault.tee.counter.persist` — the in-memory value is unchanged and
  /// the call returns Unavailable. Fault site `fault.tee.counter.rollback`
  /// presents a rolled-back durable value at load, which the high-water
  /// check converts into StaleState.
  Result<uint64_t> CounterIncrement(EnclaveId id, std::string_view family);

  /// \brief Reads counter `family` of enclave `id` without incrementing.
  Result<uint64_t> CounterRead(EnclaveId id, std::string_view family);

  /// \brief Verifies a local report produced on this platform.
  bool VerifyLocalReport(const LocalReport& report) const;

  /// \brief Drains pending monitor records (host polling thread).
  std::vector<MonitorRecord> DrainMonitor();
  /// \brief Monitor records lost to a full ring.
  uint64_t MonitorDropped() const { return monitor_ring_.Dropped(); }

  uint64_t platform_id() const { return platform_id_; }
  TeeStats& stats() { return stats_; }
  SimClock* clock() { return clock_; }
  EpcManager* epc() { return &epc_; }
  const TeeCostModel& cost_model() const { return model_; }

 private:
  friend class EnclaveContext;

  struct LoadedEnclave {
    std::shared_ptr<Enclave> code;
    Measurement measurement;
    EpcRegionId heap_region = 0;
    uint64_t security_version = 1;
  };

  void ChargeTransition();
  void ChargeCopy(size_t bytes, PointerSemantics semantics, bool inbound);
  Result<Bytes> DispatchOcall(uint64_t fn, ByteView payload, PointerSemantics semantics);
  crypto::Hash256 LocalReportMac(const Measurement& mrenclave, uint64_t svn,
                                 ByteView user_data) const;

  TeeCostModel model_;
  SimClock* clock_;
  TeeStats stats_;
  EpcManager epc_;
  uint64_t platform_id_;

  crypto::KeyPair attestation_key_;
  crypto::Signature attestation_cert_;
  crypto::Hash256 local_report_key_;  // platform-secret MAC key
  crypto::Hash256 seal_root_key_;     // platform-secret sealing root

  /// \brief Tears down one enclave under `mutex_` (shared by
  /// DestroyEnclave and KillEnclave).
  Status RemoveEnclaveLocked(EnclaveId id, bool crashed);

  /// \brief `tmc/<measurement hex>/<family>` for enclave `id`; requires a
  /// live enclave. Called under `mutex_`.
  Result<std::string> CounterKeyLocked(EnclaveId id, std::string_view family) const;

  /// \brief Resolves the current value of the counter at `key`, pulling it
  /// from the durable store (verified against the NVRAM high-water mark)
  /// or the shadow on first touch. Called under `mutex_`.
  Result<uint64_t> LoadCounterLocked(const std::string& key);

  mutable std::mutex mutex_;
  std::unordered_map<EnclaveId, LoadedEnclave> enclaves_;
  std::unordered_set<EnclaveId> crashed_;
  std::shared_ptr<storage::KvStore> counter_store_;
  std::map<std::string, uint64_t> counters_;  ///< loaded counter values
  /// An injected counter-persist failure fired and no increment has
  /// landed durably since (the next durable increment is the recovery).
  bool counter_persist_pending_ = false;
  std::unordered_map<uint64_t, OcallHandler> ocalls_;
  EnclaveId next_enclave_id_ = 1;
  std::atomic<uint64_t> monitor_sequence_{0};

  /// \brief The ring's single producer: enclave calls run on several host
  /// threads at once (parallel pre-verify), so pushes take this lock.
  void PushMonitor(const MonitorRecord& record);
  std::mutex monitor_push_mu_;
  MonitorRing<1024> monitor_ring_;
};

}  // namespace confide::tee
