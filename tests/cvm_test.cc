#include <gtest/gtest.h>

#include "tests/test_util.h"
#include "vm/cvm/builder.h"
#include "vm/cvm/interpreter.h"

namespace confide::vm::cvm {
namespace {

using testutil::MapHostEnv;

ExecConfig NoCacheConfig() {
  ExecConfig config;
  config.enable_code_cache = false;
  config.enable_fusion = false;
  return config;
}

// Builds a module with a single exported "main".
Bytes BuildSingle(const FunctionBuilder& fb,
                  std::vector<std::pair<uint32_t, Bytes>> data = {}) {
  ModuleBuilder mb;
  auto idx = mb.AddFunction(fb);
  EXPECT_TRUE(idx.ok());
  mb.Export("main", *idx);
  for (auto& [offset, bytes] : data) mb.AddData(offset, std::move(bytes));
  return EncodeModule(mb.Finish());
}

TEST(CvmTest, ConstReturn) {
  FunctionBuilder fb(0, 0);
  fb.I64Const(42).Return();
  MapHostEnv env;
  CvmVm vm;
  auto result = vm.Execute(BuildSingle(fb), "main", {}, &env, NoCacheConfig());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->return_value, 42u);
}

TEST(CvmTest, Arithmetic) {
  struct Case {
    Op op;
    int64_t lhs, rhs, expected;
  };
  const Case cases[] = {
      {Op::kAdd, 7, 5, 12},     {Op::kSub, 7, 5, 2},
      {Op::kMul, 7, 5, 35},     {Op::kDivS, -20, 5, -4},
      {Op::kDivU, 20, 5, 4},    {Op::kRemS, -7, 5, -2},
      {Op::kRemU, 7, 5, 2},     {Op::kAnd, 0b1100, 0b1010, 0b1000},
      {Op::kOr, 0b1100, 0b1010, 0b1110},
      {Op::kXor, 0b1100, 0b1010, 0b0110},
      {Op::kShl, 1, 8, 256},    {Op::kShrU, 256, 8, 1},
      {Op::kShrS, -256, 8, -1},
  };
  MapHostEnv env;
  CvmVm vm;
  for (const Case& c : cases) {
    FunctionBuilder fb(0, 0);
    fb.I64Const(c.lhs).I64Const(c.rhs).Emit(c.op).Return();
    auto result = vm.Execute(BuildSingle(fb), "main", {}, &env, NoCacheConfig());
    ASSERT_TRUE(result.ok()) << int(c.op);
    EXPECT_EQ(int64_t(result->return_value), c.expected) << int(c.op);
  }
}

TEST(CvmTest, Comparisons) {
  struct Case {
    Op op;
    int64_t lhs, rhs;
    uint64_t expected;
  };
  const Case cases[] = {
      {Op::kEq, 3, 3, 1},   {Op::kNe, 3, 3, 0},  {Op::kLtS, -1, 0, 1},
      {Op::kLtU, -1, 0, 0},  // -1 unsigned is max
      {Op::kGtS, 5, 2, 1},  {Op::kGeU, 2, 2, 1}, {Op::kLeS, -5, -5, 1},
  };
  MapHostEnv env;
  CvmVm vm;
  for (const Case& c : cases) {
    FunctionBuilder fb(0, 0);
    fb.I64Const(c.lhs).I64Const(c.rhs).Emit(c.op).Return();
    auto result = vm.Execute(BuildSingle(fb), "main", {}, &env, NoCacheConfig());
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->return_value, c.expected) << int(c.op);
  }
}

TEST(CvmTest, DivideByZeroTraps) {
  FunctionBuilder fb(0, 0);
  fb.I64Const(1).I64Const(0).Emit(Op::kDivU).Return();
  MapHostEnv env;
  CvmVm vm;
  auto result = vm.Execute(BuildSingle(fb), "main", {}, &env, NoCacheConfig());
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsVmTrap());
}

TEST(CvmTest, LoopSumsWithBranches) {
  // sum = 0; i = 0; while (i < 100) { sum += i; i += 1; } return sum;
  FunctionBuilder fb(0, 2);  // locals: 0 = sum, 1 = i
  auto loop = fb.NewLabel();
  auto done = fb.NewLabel();
  fb.Bind(loop);
  fb.LocalGet(1).I64Const(100).Emit(Op::kGeS).BrIf(done);
  fb.LocalGet(0).LocalGet(1).Emit(Op::kAdd).LocalSet(0);
  fb.LocalGet(1).I64Const(1).Emit(Op::kAdd).LocalSet(1);
  fb.Br(loop);
  fb.Bind(done);
  fb.LocalGet(0).Return();

  MapHostEnv env;
  CvmVm vm;
  auto result = vm.Execute(BuildSingle(fb), "main", {}, &env, NoCacheConfig());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->return_value, 4950u);
}

TEST(CvmTest, FusionPreservesSemantics) {
  // Same loop; run with and without fusion and compare everything.
  FunctionBuilder fb(0, 2);
  auto loop = fb.NewLabel();
  auto done = fb.NewLabel();
  fb.Bind(loop);
  fb.LocalGet(1).I64Const(1000).Emit(Op::kGeS).BrIf(done);
  fb.LocalGet(0).LocalGet(1).Emit(Op::kAdd).LocalSet(0);
  fb.LocalGet(1).I64Const(1).Emit(Op::kAdd).LocalSet(1);
  fb.Br(loop);
  fb.Bind(done);
  fb.LocalGet(0).Return();
  Bytes wire = BuildSingle(fb);

  MapHostEnv env;
  CvmVm vm;
  ExecConfig plain = NoCacheConfig();
  ExecConfig fused = NoCacheConfig();
  fused.enable_fusion = true;
  auto r1 = vm.Execute(wire, "main", {}, &env, plain);
  auto r2 = vm.Execute(wire, "main", {}, &env, fused);
  ASSERT_TRUE(r1.ok() && r2.ok());
  EXPECT_EQ(r1->return_value, r2->return_value);
  EXPECT_EQ(r1->return_value, 499500u);
  // Fusion must retire strictly fewer instructions.
  EXPECT_LT(r2->instructions_retired, r1->instructions_retired);
}

TEST(CvmTest, FunctionCallsWithArguments) {
  ModuleBuilder mb;
  // add(a, b) = a + b
  FunctionBuilder add(2, 0);
  add.LocalGet(0).LocalGet(1).Emit(Op::kAdd).Return();
  auto add_idx = mb.AddFunction(add);
  ASSERT_TRUE(add_idx.ok());
  // main: return add(add(1, 2), 30)
  FunctionBuilder main_fn(0, 0);
  main_fn.I64Const(1).I64Const(2).Call(*add_idx);
  main_fn.I64Const(30).Call(*add_idx).Return();
  auto main_idx = mb.AddFunction(main_fn);
  ASSERT_TRUE(main_idx.ok());
  mb.Export("main", *main_idx);

  MapHostEnv env;
  CvmVm vm;
  auto result = vm.Execute(EncodeModule(mb.Finish()), "main", {}, &env, NoCacheConfig());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->return_value, 33u);
}

TEST(CvmTest, RecursionDepthLimit) {
  ModuleBuilder mb;
  FunctionBuilder rec(0, 0);
  rec.Call(0).Return();  // infinite self-call
  auto idx = mb.AddFunction(rec);
  ASSERT_TRUE(idx.ok());
  mb.Export("main", *idx);
  MapHostEnv env;
  CvmVm vm;
  auto result = vm.Execute(EncodeModule(mb.Finish()), "main", {}, &env, NoCacheConfig());
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsVmTrap());
}

TEST(CvmTest, GasLimitStopsRunawayLoop) {
  FunctionBuilder fb(0, 0);
  auto loop = fb.NewLabel();
  fb.Bind(loop);
  fb.Br(loop);
  MapHostEnv env;
  CvmVm vm;
  ExecConfig config = NoCacheConfig();
  config.gas_limit = 10000;
  auto result = vm.Execute(BuildSingle(fb), "main", {}, &env, config);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

TEST(CvmTest, MemoryLoadStoreAndDataSegments) {
  // Data segment "hi" at offset 100; read byte, store at 200, load back.
  MapHostEnv env;
  CvmVm vm;
  FunctionBuilder fb2(0, 1);
  fb2.I64Const(100).Emit(Op::kLoad8U).LocalSet(0);
  fb2.I64Const(200).LocalGet(0).Emit(Op::kStore64);
  fb2.I64Const(200).Emit(Op::kLoad64).Return();
  auto wire = BuildSingle(fb2, {{100, ToBytes(std::string_view("hi"))}});
  auto result = vm.Execute(wire, "main", {}, &env, NoCacheConfig());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->return_value, uint64_t('h'));
}

TEST(CvmTest, OutOfBoundsMemoryTraps) {
  FunctionBuilder fb(0, 0);
  fb.I64Const(int64_t(1) << 40).Emit(Op::kLoad64).Return();
  MapHostEnv env;
  CvmVm vm;
  auto result = vm.Execute(BuildSingle(fb), "main", {}, &env, NoCacheConfig());
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsVmTrap());
}

TEST(CvmTest, MemCopyAndFill) {
  FunctionBuilder fb(0, 0);
  // fill [0,8) with 0xAB; copy to [16,24); load64 at 16.
  fb.I64Const(0).I64Const(0xAB).I64Const(8).Emit(Op::kMemFill);
  fb.I64Const(16).I64Const(0).I64Const(8).Emit(Op::kMemCopy);
  fb.I64Const(16).Emit(Op::kLoad64).Return();
  MapHostEnv env;
  CvmVm vm;
  auto result = vm.Execute(BuildSingle(fb), "main", {}, &env, NoCacheConfig());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->return_value, 0xABABABABABABABABull);
}

TEST(CvmTest, HostStorageRoundTrip) {
  // Write "k" (data at 0, len 1) value from data at 8 len 3; then read back.
  FunctionBuilder fb(0, 0);
  fb.I64Const(0).I64Const(1).I64Const(8).I64Const(3);
  fb.CallHost(kHostSetStorage).Emit(Op::kDrop);
  fb.I64Const(0).I64Const(1).I64Const(64).I64Const(100);
  fb.CallHost(kHostGetStorage).Return();
  auto wire = BuildSingle(fb, {{0, ToBytes(std::string_view("k"))},
                               {8, ToBytes(std::string_view("val"))}});
  MapHostEnv env;
  CvmVm vm;
  auto result = vm.Execute(wire, "main", {}, &env, NoCacheConfig());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->return_value, 3u);  // stored length
  EXPECT_EQ(ToString(env.storage["k"]), "val");
}

TEST(CvmTest, HostGetStorageMissingReturnsZero) {
  FunctionBuilder fb(0, 0);
  fb.I64Const(0).I64Const(1).I64Const(64).I64Const(100);
  fb.CallHost(kHostGetStorage).Return();
  auto wire = BuildSingle(fb, {{0, ToBytes(std::string_view("k"))}});
  MapHostEnv env;
  CvmVm vm;
  auto result = vm.Execute(wire, "main", {}, &env, NoCacheConfig());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->return_value, 0u);
}

TEST(CvmTest, HostHashFunctions) {
  // sha256 of "abc" written at 64; return first byte (0xba).
  FunctionBuilder fb(0, 0);
  fb.I64Const(0).I64Const(3).I64Const(64).CallHost(kHostSha256).Emit(Op::kDrop);
  fb.I64Const(64).Emit(Op::kLoad8U).Return();
  auto wire = BuildSingle(fb, {{0, ToBytes(std::string_view("abc"))}});
  MapHostEnv env;
  CvmVm vm;
  auto result = vm.Execute(wire, "main", {}, &env, NoCacheConfig());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->return_value, 0xbau);
}

TEST(CvmTest, InputAndOutput) {
  // Copy input to memory, then write it back as output.
  FunctionBuilder fb(0, 1);
  fb.I64Const(0).I64Const(4096).CallHost(kHostReadInput).LocalSet(0);
  fb.I64Const(0).LocalGet(0).CallHost(kHostWriteOutput).Emit(Op::kDrop);
  fb.CallHost(kHostInputSize).Return();
  MapHostEnv env;
  CvmVm vm;
  auto result = vm.Execute(BuildSingle(fb), "main", AsByteView("payload"), &env,
                           NoCacheConfig());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->return_value, 7u);
  EXPECT_EQ(ToString(result->output), "payload");
}

TEST(CvmTest, ZeroLengthMemWriteIsANoOp) {
  // read_input of an empty input writes an empty view into memory.
  FunctionBuilder fb(0, 0);
  fb.I64Const(0).I64Const(16).CallHost(kHostReadInput).Return();
  MapHostEnv env;
  CvmVm vm;
  auto result = vm.Execute(BuildSingle(fb), "main", ByteView{}, &env, NoCacheConfig());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->return_value, 0u);
}

TEST(CvmTest, AbortTraps) {
  FunctionBuilder fb(0, 0);
  fb.I64Const(3).CallHost(kHostAbort).Return();
  MapHostEnv env;
  CvmVm vm;
  auto result = vm.Execute(BuildSingle(fb), "main", {}, &env, NoCacheConfig());
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsVmTrap());
}

TEST(CvmTest, CrossContractCallThroughEnv) {
  FunctionBuilder fb(0, 0);
  // call(addr at 0 len 4, input at 8 len 2, out at 64 cap 32)
  fb.I64Const(0).I64Const(4).I64Const(8).I64Const(2).I64Const(64).I64Const(32);
  fb.CallHost(kHostCall).Return();
  auto wire = BuildSingle(fb, {{0, ToBytes(std::string_view("addr"))},
                               {8, ToBytes(std::string_view("in"))}});
  MapHostEnv env;
  env.call_hook = [](ByteView address, ByteView input) -> Result<Bytes> {
    EXPECT_EQ(ToString(address), "addr");
    EXPECT_EQ(ToString(input), "in");
    return ToBytes(std::string_view("result!"));
  };
  CvmVm vm;
  auto result = vm.Execute(wire, "main", {}, &env, NoCacheConfig());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->return_value, 7u);
  EXPECT_EQ(env.call_count, 1);
}

TEST(CvmTest, ModuleCodecRoundTrip) {
  FunctionBuilder fb(1, 2);
  auto l = fb.NewLabel();
  fb.LocalGet(0).BrIf(l);
  fb.I64Const(-5).Return();
  fb.Bind(l);
  fb.I64Const(7).Return();
  ModuleBuilder mb;
  auto idx = mb.AddFunction(fb);
  ASSERT_TRUE(idx.ok());
  mb.Export("f", *idx);
  mb.AddData(10, Bytes{1, 2, 3});
  Module module = mb.Finish();
  Bytes wire = EncodeModule(module);

  auto decoded = DecodeModule(wire, /*fuse=*/false);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->functions.size(), 1u);
  EXPECT_EQ(decoded->functions[0].param_count, 1u);
  EXPECT_EQ(decoded->functions[0].local_count, 2u);
  EXPECT_EQ(decoded->functions[0].code.size(), module.functions[0].code.size());
  EXPECT_EQ(decoded->exports.at("f"), 0u);
  EXPECT_EQ(decoded->data_segments.size(), 1u);
}

TEST(CvmTest, DecodeRejectsCorruptModules) {
  EXPECT_FALSE(DecodeModule(AsByteView("XXXX"), false).ok());

  FunctionBuilder fb(0, 0);
  fb.I64Const(1).Return();
  Bytes wire = BuildSingle(fb);
  Bytes truncated(wire.begin(), wire.end() - 2);
  EXPECT_FALSE(DecodeModule(truncated, false).ok());

  // Local index out of range.
  FunctionBuilder bad(0, 1);
  bad.Emit(Op::kLocalGet, 5).Return();
  EXPECT_FALSE(DecodeModule(BuildSingle(bad), false).ok());
}

TEST(CvmTest, CodeCacheHitsOnRepeatExecution) {
  FunctionBuilder fb(0, 0);
  fb.I64Const(1).Return();
  Bytes wire = BuildSingle(fb);
  MapHostEnv env;
  CvmVm vm;
  ExecConfig config;  // cache on
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(vm.Execute(wire, "main", {}, &env, config).ok());
  }
  auto stats = vm.stats();
  EXPECT_EQ(stats.cache_misses, 1u);
  EXPECT_EQ(stats.cache_hits, 4u);
}

TEST(CvmTest, UnknownEntryRejected) {
  FunctionBuilder fb(0, 0);
  fb.I64Const(1).Return();
  MapHostEnv env;
  CvmVm vm;
  auto result = vm.Execute(BuildSingle(fb), "missing", {}, &env, NoCacheConfig());
  EXPECT_TRUE(result.status().IsNotFound());
}

TEST(CvmTest, SelectAndDropAndTee) {
  FunctionBuilder fb(0, 1);
  fb.I64Const(10).I64Const(20).I64Const(1).Emit(Op::kSelect);  // -> 10
  fb.LocalTee(0).Emit(Op::kDrop);
  fb.LocalGet(0).Return();
  MapHostEnv env;
  CvmVm vm;
  auto result = vm.Execute(BuildSingle(fb), "main", {}, &env, NoCacheConfig());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->return_value, 10u);
}

// Property sweep: fusion on/off x cache on/off must agree for a family of
// loop programs.
class CvmConfigSweep : public ::testing::TestWithParam<std::tuple<bool, bool>> {};

TEST_P(CvmConfigSweep, LoopResultStableAcrossConfigs) {
  auto [fusion, cache] = GetParam();
  for (int64_t n : {1, 17, 255}) {
    FunctionBuilder fb(0, 2);
    auto loop = fb.NewLabel();
    auto done = fb.NewLabel();
    fb.Bind(loop);
    fb.LocalGet(1).I64Const(n).Emit(Op::kGeS).BrIf(done);
    fb.LocalGet(0).I64Const(3).Emit(Op::kAdd).LocalSet(0);
    fb.LocalGet(1).I64Const(1).Emit(Op::kAdd).LocalSet(1);
    fb.Br(loop);
    fb.Bind(done);
    fb.LocalGet(0).Return();
    MapHostEnv env;
    CvmVm vm;
    ExecConfig config;
    config.enable_fusion = fusion;
    config.enable_code_cache = cache;
    auto result = vm.Execute(BuildSingle(fb), "main", {}, &env, config);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->return_value, uint64_t(3 * n));
  }
}

INSTANTIATE_TEST_SUITE_P(AllConfigs, CvmConfigSweep,
                         ::testing::Combine(::testing::Bool(), ::testing::Bool()));

}  // namespace
}  // namespace confide::vm::cvm
