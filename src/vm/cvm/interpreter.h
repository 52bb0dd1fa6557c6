/// \file interpreter.h
/// \brief CONFIDE-VM bytecode interpreter.
///
/// Features mapped to the paper's optimizations:
///  * decoded-module **code cache** keyed by code hash (OPT1) — without it
///    every execution re-parses the LEB128 wire format;
///  * **superinstruction fusion** and the reduced dispatch table (OPT4);
///  * fixed-size linear memory + value stack (§3.2.1), no growth, so the
///    enclave working set is bounded and a **memory pool** recycles the
///    instance buffers across executions (§5.3 "memory pool").

#pragma once

#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "vm/cvm/bytecode.h"
#include "vm/host_env.h"

namespace confide::vm::cvm {

class CvmInstance;

/// \brief Host function: receives the live instance and `arity` args,
/// returns one value.
struct HostFunction {
  std::string name;
  uint32_t arity = 0;
  std::function<Result<uint64_t>(CvmInstance*, const uint64_t*)> fn;
};

/// \brief Well-known host function indices (the CCL compiler hard-codes
/// these; keep in sync with StandardHostFunctions()).
enum HostFn : uint64_t {
  kHostGetStorage = 0,   ///< (key_ptr, key_len, val_ptr, val_cap) -> len
  kHostSetStorage = 1,   ///< (key_ptr, key_len, val_ptr, val_len) -> 0
  kHostSha256 = 2,       ///< (ptr, len, out_ptr) -> 0
  kHostKeccak256 = 3,    ///< (ptr, len, out_ptr) -> 0
  kHostInputSize = 4,    ///< () -> byte count
  kHostReadInput = 5,    ///< (dst_ptr, cap) -> copied
  kHostWriteOutput = 6,  ///< (ptr, len) -> 0
  kHostCall = 7,         ///< (addr_ptr, addr_len, in_ptr, in_len, out_ptr, out_cap) -> out_len
  kHostLog = 8,          ///< (ptr, len) -> 0
  kHostAbort = 9,        ///< (code) -> trap
};

/// \brief A running execution's state, visible to host functions.
class CvmInstance {
 public:
  /// \brief Bounds-checked linear-memory read.
  Result<ByteView> MemRead(uint64_t ptr, uint64_t len) const;

  /// \brief Bounds-checked linear-memory write.
  Status MemWrite(uint64_t ptr, ByteView data);

  HostEnv* env() { return env_; }
  ByteView input() const { return input_; }
  void SetOutput(Bytes output) { output_ = std::move(output); }

  /// \brief Charges extra gas from host-function work; traps the
  /// execution when the budget is exceeded.
  Status ChargeGas(uint64_t amount);

 private:
  friend class CvmVm;
  CvmInstance() = default;

  std::vector<uint8_t> memory_;
  HostEnv* env_ = nullptr;
  ByteView input_;
  Bytes output_;
  uint64_t gas_used_ = 0;
  uint64_t gas_limit_ = 0;
  uint64_t instructions_ = 0;
};

/// \brief Statistics exposed for tests/benchmarks.
struct CvmStats {
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
};

/// \brief The CONFIDE-VM engine. Thread-safe; one instance can be shared
/// by concurrent executors (the code cache is internally locked).
class CvmVm {
 public:
  CvmVm();

  /// \brief Runs `entry` of the wire-format module against `env`.
  Result<ExecutionResult> Execute(ByteView wire, std::string_view entry,
                                  ByteView input, HostEnv* env,
                                  const ExecConfig& config);

  /// \brief Runs an already-decoded module (used by tests and by engines
  /// that manage their own module cache).
  Result<ExecutionResult> ExecuteModule(const Module& module, std::string_view entry,
                                        ByteView input, HostEnv* env,
                                        const ExecConfig& config);

  CvmStats stats() const;

 private:
  Result<std::shared_ptr<const Module>> LoadModule(ByteView wire, const ExecConfig& config);

  std::vector<HostFunction> host_functions_;

  mutable std::mutex cache_mutex_;
  // Key: code hash hex + fused flag.
  std::unordered_map<std::string, std::shared_ptr<const Module>> code_cache_;
  CvmStats stats_;
};

/// \brief Gas schedule for CONFIDE-VM (uniform base cost, extra for memory
/// traffic and calls; storage costs are charged by the SDM layer).
struct CvmGas {
  static constexpr uint64_t kBase = 1;
  static constexpr uint64_t kMemOp = 2;
  static constexpr uint64_t kCall = 10;
  static constexpr uint64_t kHostCall = 50;
  static constexpr uint64_t kPerByteBulk = 1;  ///< per 8 bytes of memcpy/fill
};

}  // namespace confide::vm::cvm
