/// \file builder.h
/// \brief Programmatic CONFIDE-VM module construction with label-based
/// control flow. Used by the CCL compiler backend and by tests.

#pragma once

#include <string>
#include <vector>

#include "vm/cvm/bytecode.h"

namespace confide::vm::cvm {

class ModuleBuilder;

/// \brief Builds one function body. Branch targets are labels resolved at
/// Finish() time.
class FunctionBuilder {
 public:
  using Label = size_t;

  FunctionBuilder(uint32_t param_count, uint32_t local_count)
      : param_count_(param_count), local_count_(local_count) {}

  /// \brief Emits an instruction with an optional immediate.
  FunctionBuilder& Emit(Op op, uint64_t a = 0) {
    code_.push_back({op, a, 0});
    return *this;
  }

  FunctionBuilder& I64Const(int64_t v) { return Emit(Op::kI64Const, uint64_t(v)); }
  FunctionBuilder& LocalGet(uint32_t idx) { return Emit(Op::kLocalGet, idx); }
  FunctionBuilder& LocalSet(uint32_t idx) { return Emit(Op::kLocalSet, idx); }
  FunctionBuilder& LocalTee(uint32_t idx) { return Emit(Op::kLocalTee, idx); }
  FunctionBuilder& Call(uint32_t fn) { return Emit(Op::kCall, fn); }
  FunctionBuilder& CallHost(uint64_t host_fn) { return Emit(Op::kCallHost, host_fn); }
  FunctionBuilder& Return() { return Emit(Op::kReturn); }

  /// \brief Creates an unbound label.
  Label NewLabel() {
    labels_.push_back(kUnbound);
    return labels_.size() - 1;
  }

  /// \brief Binds `label` to the next emitted instruction.
  FunctionBuilder& Bind(Label label) {
    labels_[label] = code_.size();
    return *this;
  }

  FunctionBuilder& Br(Label label) {
    fixups_.push_back({code_.size(), label});
    return Emit(Op::kBr, 0);
  }

  FunctionBuilder& BrIf(Label label) {
    fixups_.push_back({code_.size(), label});
    return Emit(Op::kBrIf, 0);
  }

  /// \brief Adds extra local slots; returns the first new index.
  uint32_t AddLocal() { return param_count_ + local_count_++; }

  uint32_t param_count() const { return param_count_; }

 private:
  friend class ModuleBuilder;
  static constexpr size_t kUnbound = size_t(-1);

  Result<Function> Finish() const;

  uint32_t param_count_;
  uint32_t local_count_;
  std::vector<Instr> code_;
  std::vector<size_t> labels_;
  struct Fixup {
    size_t instr_index;
    Label label;
  };
  std::vector<Fixup> fixups_;
};

/// \brief Accumulates functions, exports and data into a Module.
class ModuleBuilder {
 public:
  /// \brief Adds a function; returns its index.
  Result<uint32_t> AddFunction(const FunctionBuilder& fn);

  /// \brief Exports function `index` under `name`.
  void Export(const std::string& name, uint32_t index) { exports_[name] = index; }

  /// \brief Places `bytes` at `offset` in linear memory at instantiation.
  void AddData(uint32_t offset, Bytes bytes) {
    data_.emplace_back(offset, std::move(bytes));
  }

  /// \brief Produces the decoded module (and via EncodeModule, wire bytes).
  Module Finish() const;

 private:
  std::vector<Function> functions_;
  std::unordered_map<std::string, uint32_t> exports_;
  std::vector<std::pair<uint32_t, Bytes>> data_;
  uint32_t memory_bytes_ = 1 << 20;
};

}  // namespace confide::vm::cvm
