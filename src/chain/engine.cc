#include "chain/engine.h"

#include "serialize/rlp.h"

namespace confide::chain {

Bytes ContractRegistry::EncodeDeploy(VmKind vm, ByteView code) {
  serialize::RlpWriter w(code.size() + 8);
  size_t mark = w.BeginList();
  w.WriteU64(uint64_t(vm));
  w.WriteBytes(code);
  w.EndList(mark);
  return std::move(w).Take();
}

Result<ContractRegistry::DeployRef> ContractRegistry::DecodeDeploy(
    ByteView payload) {
  auto r = serialize::RlpReader::AtList(payload);
  if (!r.ok()) return Status::InvalidArgument("bad deploy payload");
  auto vm = r->NextU64();
  auto code = r->NextBytes();
  if (!vm.ok() || !code.ok() || !r->AtEnd()) {
    return Status::InvalidArgument("bad deploy payload");
  }
  if (*vm > 1) return Status::InvalidArgument("bad vm kind");
  return DeployRef{VmKind(*vm), *code};
}

Result<ContractRegistry::ContractInfo> ContractRegistry::Load(
    StateDb* state, const Address& contract) {
  CONFIDE_ASSIGN_OR_RETURN(Bytes code, state->Get(contract, AsByteView(kCodeKey)));
  CONFIDE_ASSIGN_OR_RETURN(Bytes vm_byte, state->Get(contract, AsByteView(kVmKey)));
  if (vm_byte.size() != 1 || vm_byte[0] > 1) {
    return Status::Corruption("chain: bad vm kind for contract");
  }
  return ContractInfo{VmKind(vm_byte[0]), std::move(code)};
}

}  // namespace confide::chain
