#include "tee/enclave.h"

#include "common/endian.h"
#include "common/fault.h"
#include "common/metrics.h"
#include "crypto/drbg.h"
#include "crypto/hmac.h"

namespace confide::tee {

namespace {

/// Process-wide instruments mirroring TeeStats. TeeStats stays per-platform
/// (multi-node tests isolate platforms); the registry aggregates across the
/// process for snapshots and the bench metrics.json export.
struct TeeMetrics {
  metrics::Counter* ecalls = metrics::GetCounter("tee.ecall.count");
  metrics::Counter* ocalls = metrics::GetCounter("tee.ocall.count");
  metrics::Counter* transitions = metrics::GetCounter("tee.transition.count");
  metrics::Counter* transition_cycles =
      metrics::GetCounter("tee.transition.cycles");
  metrics::Counter* copy_bytes_in = metrics::GetCounter("tee.copy.bytes_in");
  metrics::Counter* copy_bytes_out = metrics::GetCounter("tee.copy.bytes_out");
  metrics::Counter* copy_cycles = metrics::GetCounter("tee.copy.cycles");
  metrics::Counter* user_check_bypasses =
      metrics::GetCounter("tee.copy.user_check_bypass.count");
  metrics::Counter* boundary_bytes_copied =
      metrics::GetCounter("tee.boundary.bytes_copied");
  metrics::Counter* boundary_bytes_viewed =
      metrics::GetCounter("tee.boundary.bytes_viewed");
  metrics::Counter* batched_entries =
      metrics::GetCounter("tee.ocall.batched_entries.count");
  metrics::Counter* transitions_saved =
      metrics::GetCounter("tee.transition.saved.count");
  metrics::Counter* counter_increments =
      metrics::GetCounter("tee.counter.increment.count");
  metrics::Counter* counter_reads = metrics::GetCounter("tee.counter.read.count");
  metrics::Counter* counter_persist_failures =
      metrics::GetCounter("tee.counter.persist_failure.count");
  metrics::Counter* counter_rollbacks_detected =
      metrics::GetCounter("tee.counter.rollback_detected.count");

  static const TeeMetrics& Get() {
    static const TeeMetrics instruments;
    return instruments;
  }
};

/// Simulated NVRAM behind the trusted monotonic counters: a process-
/// lifetime high-water mark per (platform seed, counter key). Platform
/// objects come and go across simulated restarts, but real hardware
/// NVRAM does not — so a durable counter store presented below this mark
/// is evidence of a host-side rollback, not a legitimate state.
struct CounterNvram {
  std::mutex mu;
  std::map<std::string, uint64_t> high_water;

  static CounterNvram& Get() {
    static CounterNvram nvram;
    return nvram;
  }
};

std::string NvramKey(uint64_t platform_id, const std::string& counter_key) {
  return std::to_string(platform_id) + "/" + counter_key;
}

constexpr const char* kFaultCounterPersist = "fault.tee.counter.persist";
constexpr const char* kFaultCounterRollback = "fault.tee.counter.rollback";

}  // namespace

// ---------------------------------------------------------------------------
// EnclaveContext
// ---------------------------------------------------------------------------

Result<Bytes> EnclaveContext::Ocall(uint64_t fn, ByteView payload,
                                    PointerSemantics semantics) {
  return platform_->DispatchOcall(fn, payload, semantics);
}

Result<Bytes> EnclaveContext::OcallBatched(uint64_t fn, ByteView payload,
                                           uint64_t entries,
                                           PointerSemantics semantics) {
  if (entries > 0) {
    platform_->stats_.batched_ocall_entries.fetch_add(entries,
                                                      std::memory_order_relaxed);
    TeeMetrics::Get().batched_entries->Increment(entries);
  }
  if (entries > 1) {
    uint64_t saved = 2 * (entries - 1);
    platform_->stats_.transitions_saved.fetch_add(saved,
                                                  std::memory_order_relaxed);
    TeeMetrics::Get().transitions_saved->Increment(saved);
  }
  return platform_->DispatchOcall(fn, payload, semantics);
}

Measurement EnclaveContext::Self() const {
  std::lock_guard<std::mutex> lock(platform_->mutex_);
  return platform_->enclaves_.at(enclave_id_).measurement;
}

uint64_t EnclaveContext::SecurityVersion() const {
  std::lock_guard<std::mutex> lock(platform_->mutex_);
  return platform_->enclaves_.at(enclave_id_).security_version;
}

LocalReport EnclaveContext::CreateLocalReport(ByteView user_data) const {
  LocalReport report;
  report.mrenclave = Self();
  report.security_version = SecurityVersion();
  report.user_data = ToBytes(user_data);
  report.mac = platform_->LocalReportMac(report.mrenclave,
                                         report.security_version, user_data);
  return report;
}

bool EnclaveContext::VerifyLocalReport(const LocalReport& report) const {
  return platform_->VerifyLocalReport(report);
}

Quote EnclaveContext::CreateQuote(ByteView user_data) const {
  Quote quote;
  quote.mrenclave = Self();
  quote.security_version = SecurityVersion();
  quote.platform_id = platform_->platform_id_;
  quote.user_data = ToBytes(user_data);
  quote.platform_key = platform_->attestation_key_.pub;
  quote.platform_cert = platform_->attestation_cert_;
  crypto::Hash256 digest = crypto::Sha256::Digest(QuoteSigningBody(quote));
  quote.signature = *crypto::EcdsaSign(platform_->attestation_key_.priv, digest);
  return quote;
}

crypto::Hash256 EnclaveContext::SealKey(std::string_view label) const {
  // Seal key = HMAC(platform seal root, measurement || label): bound to
  // the platform *and* the enclave identity, like SGX's EGETKEY.
  Bytes input = Concat(crypto::HashView(Self()), AsByteView(label));
  return crypto::HmacSha256(crypto::HashView(platform_->seal_root_key_), input);
}

void EnclaveContext::MonitorEmit(uint32_t severity, std::string_view message) {
  MonitorRecord record;
  record.sequence = platform_->monitor_sequence_.fetch_add(1, std::memory_order_relaxed);
  record.enclave_id = enclave_id_;
  record.severity = severity;
  record.SetMessage(message);
  // Exit-less: a handful of cycles for the ring write, no transition.
  platform_->clock_->AdvanceCycles(60);
  platform_->PushMonitor(record);
}

void EnclaveContext::MonitorEmitViaOcall(uint32_t severity, std::string_view message) {
  MonitorRecord record;
  record.sequence = platform_->monitor_sequence_.fetch_add(1, std::memory_order_relaxed);
  record.enclave_id = enclave_id_;
  record.severity = severity;
  record.SetMessage(message);
  // Full boundary crossing charged, then the record lands in the same ring.
  Bytes payload(sizeof(MonitorRecord));
  std::memcpy(payload.data(), &record, sizeof(MonitorRecord));
  (void)platform_->DispatchOcall(/*fn=*/0, payload, PointerSemantics::kCopyInOut);
  platform_->PushMonitor(record);
}

Result<uint64_t> EnclaveContext::CounterIncrement(std::string_view family) {
  return platform_->CounterIncrement(enclave_id_, family);
}

Result<uint64_t> EnclaveContext::CounterRead(std::string_view family) {
  return platform_->CounterRead(enclave_id_, family);
}

// ---------------------------------------------------------------------------
// EnclavePlatform
// ---------------------------------------------------------------------------

EnclavePlatform::EnclavePlatform(const TeeCostModel& model, SimClock* clock,
                                 uint64_t platform_seed)
    : model_(model),
      clock_(clock),
      epc_(model, clock, &stats_),
      platform_id_(platform_seed) {
  crypto::Drbg rng(Concat(AsByteView("confide-platform-keys:"),
                          crypto::HashView(crypto::Sha256::Digest(
                              ByteView(reinterpret_cast<const uint8_t*>(&platform_seed),
                                       sizeof(platform_seed))))));
  attestation_key_ = crypto::GenerateKeyPair(&rng);
  attestation_cert_ = AttestationRoot::CertifyPlatformKey(attestation_key_.pub);
  rng.Fill(local_report_key_.data(), local_report_key_.size());
  rng.Fill(seal_root_key_.data(), seal_root_key_.size());
}

void EnclavePlatform::ChargeTransition() {
  uint64_t count = stats_.transitions.fetch_add(1, std::memory_order_relaxed) + 1;
  uint64_t cycles = (count % model_.cold_transition_period == 0)
                        ? model_.transition_cycles_cold
                        : model_.transition_cycles_warm;
  clock_->AdvanceCycles(cycles);
  stats_.modeled_cycles.fetch_add(cycles, std::memory_order_relaxed);
  TeeMetrics::Get().transitions->Increment();
  TeeMetrics::Get().transition_cycles->Increment(cycles);
}

void EnclavePlatform::ChargeCopy(size_t bytes, PointerSemantics semantics,
                                 bool inbound) {
  if (semantics == PointerSemantics::kUserCheck) {
    stats_.user_check_bypasses.fetch_add(1, std::memory_order_relaxed);
    stats_.bytes_viewed.fetch_add(bytes, std::memory_order_relaxed);
    TeeMetrics::Get().user_check_bypasses->Increment();
    TeeMetrics::Get().boundary_bytes_viewed->Increment(bytes);
    return;
  }
  uint64_t cycles = model_.copy_setup_cycles +
                    uint64_t(double(bytes) * model_.copy_cycles_per_byte);
  clock_->AdvanceCycles(cycles);
  stats_.modeled_cycles.fetch_add(cycles, std::memory_order_relaxed);
  auto& counter = inbound ? stats_.bytes_copied_in : stats_.bytes_copied_out;
  counter.fetch_add(bytes, std::memory_order_relaxed);
  TeeMetrics::Get().copy_cycles->Increment(cycles);
  TeeMetrics::Get().boundary_bytes_copied->Increment(bytes);
  (inbound ? TeeMetrics::Get().copy_bytes_in : TeeMetrics::Get().copy_bytes_out)
      ->Increment(bytes);
}

Result<EnclaveId> EnclavePlatform::CreateEnclave(std::shared_ptr<Enclave> code,
                                                 uint64_t heap_bytes) {
  CONFIDE_ASSIGN_OR_RETURN(EpcRegionId heap, epc_.Allocate(heap_bytes));
  std::lock_guard<std::mutex> lock(mutex_);
  EnclaveId id = next_enclave_id_++;
  LoadedEnclave loaded;
  loaded.measurement = MeasureEnclave(code->CodeIdentity(), code->SecurityVersion());
  loaded.security_version = code->SecurityVersion();
  loaded.code = std::move(code);
  loaded.heap_region = heap;
  enclaves_[id] = std::move(loaded);
  return id;
}

Status EnclavePlatform::RemoveEnclaveLocked(EnclaveId id, bool crashed) {
  auto it = enclaves_.find(id);
  if (it == enclaves_.end()) return Status::NotFound("unknown enclave");
  CONFIDE_RETURN_NOT_OK(epc_.Free(it->second.heap_region));
  enclaves_.erase(it);
  if (crashed) crashed_.insert(id);
  return Status::OK();
}

Status EnclavePlatform::DestroyEnclave(EnclaveId id) {
  std::lock_guard<std::mutex> lock(mutex_);
  return RemoveEnclaveLocked(id, /*crashed=*/false);
}

Status EnclavePlatform::KillEnclave(EnclaveId id) {
  std::lock_guard<std::mutex> lock(mutex_);
  CONFIDE_RETURN_NOT_OK(RemoveEnclaveLocked(id, /*crashed=*/true));
  fault::NoteInjected("fault.tee.enclave_crash");
  return Status::OK();
}

bool EnclavePlatform::IsAlive(EnclaveId id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return enclaves_.find(id) != enclaves_.end();
}

Result<Bytes> EnclavePlatform::Ecall(EnclaveId id, uint64_t fn, ByteView input,
                                     PointerSemantics semantics) {
  std::shared_ptr<Enclave> code;
  EpcRegionId heap;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (crashed_.count(id) != 0) {
      return Status::Unavailable("tee: enclave crashed");
    }
    auto it = enclaves_.find(id);
    if (it == enclaves_.end()) return Status::NotFound("unknown enclave");
    code = it->second.code;
    heap = it->second.heap_region;
  }
  if (fault::FaultInjector::Global().ShouldFail("fault.tee.enclave_crash")) {
    // The enclave dies before the call enters it; EPC is reclaimed and
    // every later Ecall against this id sees the same Unavailable error.
    {
      std::lock_guard<std::mutex> lock(mutex_);
      (void)RemoveEnclaveLocked(id, /*crashed=*/true);
    }
    return Status::Unavailable("tee: enclave crashed");
  }
  stats_.ecalls.fetch_add(1, std::memory_order_relaxed);
  TeeMetrics::Get().ecalls->Increment();
  ChargeTransition();                          // EENTER
  ChargeCopy(input.size(), semantics, /*inbound=*/true);
  CONFIDE_RETURN_NOT_OK(epc_.Touch(heap));     // working set fault-in

  EnclaveContext ctx(this, id);
  Result<Bytes> result = code->HandleEcall(fn, input, &ctx);

  if (result.ok()) {
    ChargeCopy(result.value().size(), semantics, /*inbound=*/false);
  }
  ChargeTransition();                          // EEXIT
  return result;
}

void EnclavePlatform::RegisterOcall(uint64_t fn, OcallHandler handler) {
  std::lock_guard<std::mutex> lock(mutex_);
  ocalls_[fn] = std::move(handler);
}

Result<Bytes> EnclavePlatform::DispatchOcall(uint64_t fn, ByteView payload,
                                             PointerSemantics semantics) {
  OcallHandler handler;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = ocalls_.find(fn);
    if (it == ocalls_.end()) {
      // Monitor ocall (fn 0) may be unregistered; treat as a sink.
      if (fn == 0) {
        handler = [](ByteView) -> Result<Bytes> { return Bytes{}; };
      } else {
        return Status::NotFound("no handler for ocall " + std::to_string(fn));
      }
    } else {
      handler = it->second;
    }
  }
  stats_.ocalls.fetch_add(1, std::memory_order_relaxed);
  TeeMetrics::Get().ocalls->Increment();
  ChargeTransition();                          // exit to host
  ChargeCopy(payload.size(), semantics, /*inbound=*/false);
  Result<Bytes> result = handler(payload);
  if (result.ok()) {
    ChargeCopy(result.value().size(), semantics, /*inbound=*/true);
  }
  ChargeTransition();                          // re-enter enclave
  return result;
}

crypto::Hash256 EnclavePlatform::LocalReportMac(const Measurement& mrenclave,
                                                uint64_t svn,
                                                ByteView user_data) const {
  uint8_t svn_bytes[8];
  StoreBe64(svn_bytes, svn);
  Bytes body = Concat(crypto::HashView(mrenclave), ByteView(svn_bytes, 8), user_data);
  return crypto::HmacSha256(crypto::HashView(local_report_key_), body);
}

bool EnclavePlatform::VerifyLocalReport(const LocalReport& report) const {
  crypto::Hash256 expected = LocalReportMac(report.mrenclave,
                                            report.security_version,
                                            report.user_data);
  return ConstantTimeEqual(crypto::HashView(expected), crypto::HashView(report.mac));
}

void EnclavePlatform::PushMonitor(const MonitorRecord& record) {
  std::lock_guard<std::mutex> lock(monitor_push_mu_);
  monitor_ring_.Push(record);
}

std::vector<MonitorRecord> EnclavePlatform::DrainMonitor() {
  std::vector<MonitorRecord> records;
  while (auto record = monitor_ring_.Pop()) {
    records.push_back(*record);
  }
  return records;
}

// ---------------------------------------------------------------------------
// Trusted monotonic counters
// ---------------------------------------------------------------------------

void EnclavePlatform::AttachCounterStore(std::shared_ptr<storage::KvStore> store) {
  std::lock_guard<std::mutex> lock(mutex_);
  counter_store_ = std::move(store);
  // Drop loaded values so the next touch re-resolves against the new
  // store — and re-runs the rollback check against the NVRAM mark.
  counters_.clear();
}

Result<std::string> EnclavePlatform::CounterKeyLocked(
    EnclaveId id, std::string_view family) const {
  auto it = enclaves_.find(id);
  if (it == enclaves_.end()) return Status::NotFound("unknown enclave");
  return "tmc/" + HexEncode(crypto::HashView(it->second.measurement)) + "/" +
         std::string(family);
}

Result<uint64_t> EnclavePlatform::LoadCounterLocked(const std::string& key) {
  auto it = counters_.find(key);
  if (it != counters_.end()) return it->second;

  auto& nvram = CounterNvram::Get();
  uint64_t mark = 0;
  {
    std::lock_guard<std::mutex> nv(nvram.mu);
    auto hw = nvram.high_water.find(NvramKey(platform_id_, key));
    if (hw != nvram.high_water.end()) mark = hw->second;
  }

  // Without a durable store the NVRAM mark itself is the persisted value.
  uint64_t value = mark;
  if (counter_store_) {
    uint64_t durable = 0;
    Result<Bytes> stored = counter_store_->Get(key);
    if (stored.ok()) {
      if (stored->size() != 8) {
        return Status::Corruption("tee: malformed counter entry " + key);
      }
      durable = LoadBe64(stored->data());
    } else if (!stored.status().IsNotFound()) {
      return stored.status();
    }
    uint64_t rollback_by = 0;
    bool injected =
        fault::FaultInjector::Global().ShouldFail(kFaultCounterRollback,
                                                  &rollback_by);
    if (injected) {
      // The host presents an old durable value — the counter half of a
      // snapshot-restore attack. arg = how many increments to undo
      // (0 → lose the counter entirely).
      durable = (rollback_by == 0 || rollback_by >= durable)
                    ? 0
                    : durable - rollback_by;
    }
    if (durable < mark) {
      TeeMetrics::Get().counter_rollbacks_detected->Increment();
      if (injected) fault::NoteRecovered(kFaultCounterRollback);
      return Status::StaleState("tee: monotonic counter " + key +
                                " rolled back (durable " +
                                std::to_string(durable) + " < trusted " +
                                std::to_string(mark) + ")");
    }
    value = durable;
  }

  counters_[key] = value;
  {
    std::lock_guard<std::mutex> nv(nvram.mu);
    uint64_t& hw = nvram.high_water[NvramKey(platform_id_, key)];
    if (value > hw) hw = value;
  }
  return value;
}

Result<uint64_t> EnclavePlatform::CounterIncrement(EnclaveId id,
                                                   std::string_view family) {
  std::lock_guard<std::mutex> lock(mutex_);
  CONFIDE_ASSIGN_OR_RETURN(std::string key, CounterKeyLocked(id, family));
  CONFIDE_ASSIGN_OR_RETURN(uint64_t current, LoadCounterLocked(key));
  uint64_t next = current + 1;
  // Increment-then-seal: the durable write must land before the new value
  // is ever exposed, so a crash between the two leaves the counter *ahead*
  // of the sealed state — never behind it.
  if (counter_store_) {
    if (fault::FaultInjector::Global().ShouldFail(kFaultCounterPersist)) {
      TeeMetrics::Get().counter_persist_failures->Increment();
      counter_persist_pending_ = true;
      return Status::Unavailable("tee: counter persist failed for " + key);
    }
    uint8_t be[8];
    StoreBe64(be, next);
    Status put = counter_store_->Put(key, ToBytes(ByteView(be, 8)));
    if (!put.ok()) {
      TeeMetrics::Get().counter_persist_failures->Increment();
      return put;
    }
    CONFIDE_RETURN_NOT_OK(counter_store_->Sync());
    if (counter_persist_pending_) {
      // A retried increment landing durably IS the recovery from the
      // injected persist failure (the in-memory value never moved).
      fault::NoteRecovered(kFaultCounterPersist);
      counter_persist_pending_ = false;
    }
  }
  counters_[key] = next;
  {
    auto& nvram = CounterNvram::Get();
    std::lock_guard<std::mutex> nv(nvram.mu);
    uint64_t& hw = nvram.high_water[NvramKey(platform_id_, key)];
    if (next > hw) hw = next;
  }
  TeeMetrics::Get().counter_increments->Increment();
  return next;
}

Result<uint64_t> EnclavePlatform::CounterRead(EnclaveId id,
                                              std::string_view family) {
  std::lock_guard<std::mutex> lock(mutex_);
  CONFIDE_ASSIGN_OR_RETURN(std::string key, CounterKeyLocked(id, family));
  CONFIDE_ASSIGN_OR_RETURN(uint64_t value, LoadCounterLocked(key));
  TeeMetrics::Get().counter_reads->Increment();
  return value;
}

}  // namespace confide::tee
