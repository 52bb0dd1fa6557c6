#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>

#include "chain/checkpoint.h"
#include "chain/engine.h"
#include "chain/types.h"
#include "common/bytes.h"
#include "common/sim_clock.h"
#include "confide/cs_enclave.h"
#include "confide/freshness.h"
#include "confide/key_manager.h"
#include "crypto/drbg.h"
#include "serialize/flatlite.h"
#include "serialize/json.h"
#include "serialize/leb128.h"
#include "serialize/rlp.h"
#include "storage/lsm_store.h"

namespace confide::serialize {
namespace {

// ---------------------------------------------------------------------------
// LEB128
// ---------------------------------------------------------------------------

TEST(Leb128Test, UnsignedKnownEncodings) {
  Bytes out;
  WriteUleb128(&out, 0);
  EXPECT_EQ(out, (Bytes{0x00}));
  out.clear();
  WriteUleb128(&out, 624485);  // canonical Wikipedia example
  EXPECT_EQ(out, (Bytes{0xe5, 0x8e, 0x26}));
}

TEST(Leb128Test, SignedKnownEncodings) {
  Bytes out;
  WriteSleb128(&out, -123456);  // canonical example
  EXPECT_EQ(out, (Bytes{0xc0, 0xbb, 0x78}));
}

TEST(Leb128Test, UnsignedRoundTrip) {
  const uint64_t cases[] = {0, 1, 127, 128, 300, 16384, uint64_t(1) << 32,
                            UINT64_MAX};
  for (uint64_t v : cases) {
    Bytes out;
    WriteUleb128(&out, v);
    size_t pos = 0;
    auto back = ReadUleb128(out, &pos);
    ASSERT_TRUE(back.ok()) << v;
    EXPECT_EQ(*back, v);
    EXPECT_EQ(pos, out.size());
  }
}

TEST(Leb128Test, SignedRoundTrip) {
  for (int64_t v : {int64_t(0), int64_t(1), int64_t(-1), int64_t(63),
                    int64_t(64), int64_t(-64), int64_t(-65), INT64_MAX,
                    INT64_MIN}) {
    Bytes out;
    WriteSleb128(&out, v);
    size_t pos = 0;
    auto back = ReadSleb128(out, &pos);
    ASSERT_TRUE(back.ok()) << v;
    EXPECT_EQ(*back, v);
  }
}

TEST(Leb128Test, TruncatedInputFails) {
  Bytes bad = {0x80};  // continuation bit with no follow-up
  size_t pos = 0;
  EXPECT_FALSE(ReadUleb128(bad, &pos).ok());
}

TEST(Leb128Test, UnsignedBoundaryRoundTrips) {
  for (uint64_t v : {UINT64_MAX, UINT64_MAX - 1, uint64_t(1) << 63,
                     (uint64_t(1) << 63) - 1, (uint64_t(1) << 56) - 1}) {
    Bytes out;
    WriteUleb128(&out, v);
    size_t pos = 0;
    auto back = ReadUleb128(out, &pos);
    ASSERT_TRUE(back.ok()) << v;
    EXPECT_EQ(*back, v);
    EXPECT_EQ(pos, out.size());
  }
  // UINT64_MAX occupies the full 10 bytes, 10th byte carrying only bit 63.
  Bytes max;
  WriteUleb128(&max, UINT64_MAX);
  ASSERT_EQ(max.size(), 10u);
  EXPECT_EQ(max.back(), 0x01);
}

TEST(Leb128Test, SignedBoundaryRoundTrips) {
  for (int64_t v : {INT64_MAX, INT64_MAX - 1, INT64_MIN, INT64_MIN + 1,
                    int64_t(1) << 62, -(int64_t(1) << 62)}) {
    Bytes out;
    WriteSleb128(&out, v);
    size_t pos = 0;
    auto back = ReadSleb128(out, &pos);
    ASSERT_TRUE(back.ok()) << v;
    EXPECT_EQ(*back, v);
    EXPECT_EQ(pos, out.size());
  }
}

TEST(Leb128Test, TenthBytePayloadOverflowRejected) {
  // The 10th byte sits at shift 63: any unsigned payload bit above bit 0
  // would shift past the top of the u64 and silently vanish.
  Bytes bad(9, 0xff);
  bad.push_back(0x02);
  size_t pos = 0;
  EXPECT_FALSE(ReadUleb128(bad, &pos).ok());
  bad.back() = 0x7f;
  pos = 0;
  EXPECT_FALSE(ReadUleb128(bad, &pos).ok());
  bad.back() = 0x01;  // exactly bit 63: the canonical UINT64_MAX tail
  pos = 0;
  EXPECT_TRUE(ReadUleb128(bad, &pos).ok());
  // Continuation bit on the 10th byte pushes shift past 64.
  Bytes eleven(10, 0x80);
  eleven.push_back(0x01);
  pos = 0;
  EXPECT_FALSE(ReadUleb128(eleven, &pos).ok());
}

TEST(Leb128Test, SignedTenthByteMustMatchSign) {
  // At shift 63 the signed final payload must be all-zeros or all-ones.
  Bytes bad(9, 0xff);
  for (uint8_t tail : {0x01, 0x3f, 0x40, 0x7e}) {
    bad.push_back(tail);
    size_t pos = 0;
    EXPECT_FALSE(ReadSleb128(bad, &pos).ok()) << int(tail);
    bad.pop_back();
  }
  for (uint8_t tail : {0x00, 0x7f}) {
    bad.push_back(tail);
    size_t pos = 0;
    EXPECT_TRUE(ReadSleb128(bad, &pos).ok()) << int(tail);
    bad.pop_back();
  }
}

// ---------------------------------------------------------------------------
// RLP (Ethereum wiki reference vectors)
// ---------------------------------------------------------------------------

/// Encodes one item through `write` (a lambda over an RlpWriter).
template <typename Fn>
std::string EncodeHex(Fn&& write) {
  RlpWriter w;
  write(&w);
  return HexEncode(w.buffer());
}

/// Decodes `wire` as exactly one byte-string item.
Result<ByteView> DecodeOneString(ByteView wire) {
  RlpReader r = RlpReader::OverPayload(wire);
  CONFIDE_ASSIGN_OR_RETURN(ByteView b, r.NextBytes());
  CONFIDE_RETURN_NOT_OK(r.ExpectEnd("single item"));
  return b;
}

TEST(RlpTest, EncodeDog) {
  EXPECT_EQ(EncodeHex([](RlpWriter* w) { w->WriteString("dog"); }), "83646f67");
  EXPECT_EQ(ToString(*DecodeOneString(*HexDecode("83646f67"))), "dog");
}

TEST(RlpTest, EncodeCatDogList) {
  const std::string hex = EncodeHex([](RlpWriter* w) {
    size_t mark = w->BeginList();
    w->WriteString("cat");
    w->WriteString("dog");
    w->EndList(mark);
  });
  EXPECT_EQ(hex, "c88363617483646f67");
  const Bytes wire = *HexDecode(hex);
  auto r = RlpReader::AtList(wire);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(ToString(*r->NextBytes()), "cat");
  EXPECT_EQ(ToString(*r->NextBytes()), "dog");
  EXPECT_TRUE(r->AtEnd());
}

TEST(RlpTest, EncodeEmptyStringAndList) {
  EXPECT_EQ(EncodeHex([](RlpWriter* w) { w->WriteString(""); }), "80");
  EXPECT_EQ(EncodeHex([](RlpWriter* w) { w->EndList(w->BeginList()); }), "c0");
  EXPECT_TRUE(DecodeOneString(Bytes{0x80})->empty());
  auto empty = RlpReader::AtList(Bytes{0xc0});
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->AtEnd());
}

TEST(RlpTest, EncodeIntegers) {
  EXPECT_EQ(EncodeHex([](RlpWriter* w) { w->WriteU64(0); }), "80");
  EXPECT_EQ(EncodeHex([](RlpWriter* w) { w->WriteU64(15); }), "0f");
  EXPECT_EQ(EncodeHex([](RlpWriter* w) { w->WriteU64(1024); }), "820400");
  for (uint64_t v : {uint64_t(0), uint64_t(15), uint64_t(1024), UINT64_MAX}) {
    RlpWriter w;
    w.WriteU64(v);
    EXPECT_EQ(*RlpReader::OverPayload(w.buffer()).NextU64(), v);
  }
}

TEST(RlpTest, EncodeLongString) {
  std::string lorem =
      "Lorem ipsum dolor sit amet, consectetur adipisicing elit";
  RlpWriter w;
  w.WriteString(lorem);
  const Bytes& enc = w.buffer();
  EXPECT_EQ(enc[0], 0xb8);
  EXPECT_EQ(enc[1], lorem.size());
  EXPECT_EQ(ToString(*DecodeOneString(enc)), lorem);
}

TEST(RlpTest, RoundTripNested) {
  RlpWriter w;
  size_t outer = w.BeginList();
  w.WriteU64(42);
  w.WriteString("hello");
  size_t inner = w.BeginList();
  w.WriteString("nested");
  w.WriteU64(7);
  w.EndList(inner);
  w.EndList(outer);

  auto back = RlpReader::AtList(w.buffer());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back->NextU64(), 42u);
  EXPECT_EQ(ToString(*back->NextBytes()), "hello");
  auto nested = back->NextList();
  ASSERT_TRUE(nested.ok());
  EXPECT_EQ(ToString(*nested->NextBytes()), "nested");
  EXPECT_EQ(*nested->NextU64(), 7u);
  EXPECT_TRUE(nested->AtEnd());
  EXPECT_TRUE(back->AtEnd());
}

TEST(RlpTest, DecodeRejectsTrailingBytes) {
  RlpWriter w;
  w.WriteString("dog");
  Bytes enc = std::move(w).Take();
  enc.push_back(0x00);
  EXPECT_FALSE(DecodeOneString(enc).ok());
  // A list followed by a stray byte fails the same way.
  Bytes list = {0xc1, 0x01, 0x00};
  EXPECT_FALSE(RlpReader::AtList(list).ok());
}

TEST(RlpTest, DecodeRejectsTruncation) {
  RlpWriter w;
  w.WriteString("longer string here");
  Bytes enc = std::move(w).Take();
  enc.pop_back();
  EXPECT_FALSE(DecodeOneString(enc).ok());
}

TEST(RlpTest, DecodeRejectsNonCanonicalSingleByte) {
  Bytes bad = {0x81, 0x05};  // 0x05 must encode as itself
  EXPECT_FALSE(DecodeOneString(bad).ok());
}

TEST(RlpTest, OverflowLengthsRejected) {
  // Crafted 8-byte lengths adjacent to SIZE_MAX: a naive `pos + len`
  // bounds check wraps and lets the read through. Every case must fail
  // with a clean error, both as a bare item and as a list.
  const std::vector<Bytes> crafted = {
      // Long string, length = 2^64 - 1.
      {0xbf, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff},
      // Long string, length = SIZE_MAX - 7 (wraps past the 9-byte header).
      {0xbf, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xf8},
      // Long list variants of the same lengths.
      {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff},
      {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xf8},
      // Length = 2^63 (sign-bit boundary).
      {0xbf, 0x80, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00},
      // 4-byte length far past the remaining input.
      {0xbb, 0xff, 0xff, 0xff, 0xff},
      {0xfb, 0xff, 0xff, 0xff, 0xff},
      // Truncated length-of-length itself.
      {0xbf, 0xff, 0xff},
      {0xff, 0xff},
  };
  for (const Bytes& wire : crafted) {
    EXPECT_FALSE(RlpReader::OverPayload(wire).NextItem().ok()) << HexEncode(wire);
    EXPECT_FALSE(RlpReader::AtList(wire).ok()) << HexEncode(wire);
  }
}

TEST(RlpTest, NonMinimalLengthEncodingsRejected) {
  // Long-form length with leading zero byte.
  EXPECT_FALSE(DecodeOneString(Bytes{0xb9, 0x00, 0x38}).ok());
  // Long-form length below 56 (must use the short form).
  Bytes short_len = {0xb8, 0x01, 0x61};
  EXPECT_FALSE(DecodeOneString(short_len).ok());
  // Nested inside a list: the same guards apply mid-stream.
  Bytes nested = {0xc3, 0xb8, 0x01, 0x61};
  auto reader = RlpReader::AtList(nested);
  ASSERT_TRUE(reader.ok());
  EXPECT_FALSE(reader->NextBytes().ok());
}

TEST(RlpTest, ReaderRejectsKindMismatches) {
  RlpWriter w;
  size_t list = w.BeginList();
  w.WriteString("field");
  size_t inner = w.BeginList();
  w.WriteU64(7);
  w.EndList(inner);
  w.EndList(list);

  // NextList on a bytes item / NextBytes, NextU64, NextFixed on a list.
  auto r1 = RlpReader::AtList(w.buffer());
  ASSERT_TRUE(r1.ok());
  EXPECT_FALSE(r1->NextList().ok());

  auto r2 = RlpReader::AtList(w.buffer());
  ASSERT_TRUE(r2.ok());
  ASSERT_TRUE(r2->NextBytes().ok());
  EXPECT_FALSE(r2->NextBytes().ok());

  auto r3 = RlpReader::AtList(w.buffer());
  ASSERT_TRUE(r3.ok());
  ASSERT_TRUE(r3->NextFixed(5, "field").ok());
  EXPECT_FALSE(r3->NextU64().ok());

  auto r4 = RlpReader::AtList(w.buffer());
  ASSERT_TRUE(r4.ok());
  EXPECT_FALSE(r4->NextFixed(4, "field").ok());  // wrong width
}

TEST(RlpTest, ReaderWriterRoundTrip) {
  RlpWriter w(64);
  size_t outer = w.BeginList();
  w.WriteU64(123456789);
  w.WriteString("hello");
  size_t inner = w.BeginList();
  w.WriteU64(0);
  w.WriteBytes(Bytes(60, 0xAB));  // long-form string
  w.EndList(inner);
  w.EndList(outer);

  auto reader = RlpReader::AtList(w.buffer());
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(*reader->CountRemaining(), 3u);
  EXPECT_EQ(*reader->NextU64(), 123456789u);
  ByteView s = *reader->NextBytes();
  EXPECT_EQ(std::string(s.begin(), s.end()), "hello");
  auto nested = reader->NextList();
  ASSERT_TRUE(nested.ok());
  EXPECT_EQ(*nested->NextU64(), 0u);
  EXPECT_EQ(nested->NextBytes()->size(), 60u);
  EXPECT_TRUE(nested->AtEnd());
  EXPECT_TRUE(reader->ExpectEnd("round trip").ok());
}

TEST(RlpTest, ReaderViewsAliasInput) {
  RlpWriter w;
  size_t list = w.BeginList();
  w.WriteString("payload");
  w.EndList(list);
  Bytes wire = std::move(w).Take();
  auto reader = RlpReader::AtList(wire);
  ASSERT_TRUE(reader.ok());
  ByteView field = *reader->NextBytes();
  EXPECT_GE(field.data(), wire.data());
  EXPECT_LE(field.data() + field.size(), wire.data() + wire.size());
}

TEST(RlpTest, U64PayloadGuards) {
  EXPECT_FALSE(RlpU64Payload(Bytes{0x00, 0x01}).ok());  // leading zero
  EXPECT_FALSE(RlpU64Payload(Bytes(9, 0x01)).ok());     // > 8 bytes
  EXPECT_EQ(*RlpU64Payload(Bytes{}), 0u);
  EXPECT_EQ(*RlpU64Payload(Bytes(8, 0xff)), UINT64_MAX);
}

TEST(RlpTest, FuzzRoundTripRandomStructures) {
  crypto::Drbg rng(99);
  for (int iter = 0; iter < 200; ++iter) {
    // Each item is a byte string or a list holding one byte string.
    std::vector<std::pair<bool, Bytes>> items;
    int n = int(rng.NextBounded(5));
    for (int i = 0; i < n; ++i) {
      const bool nested = rng.NextBounded(2) != 0;
      items.emplace_back(nested, rng.Generate(rng.NextBounded(nested ? 60 : 100)));
    }
    RlpWriter w;
    size_t root = w.BeginList();
    for (const auto& [nested, bytes] : items) {
      if (!nested) {
        w.WriteBytes(bytes);
        continue;
      }
      size_t mark = w.BeginList();
      w.WriteBytes(bytes);
      w.EndList(mark);
    }
    w.EndList(root);

    auto back = RlpReader::AtList(w.buffer());
    ASSERT_TRUE(back.ok());
    ASSERT_EQ(*back->CountRemaining(), items.size());
    for (const auto& [nested, bytes] : items) {
      Result<ByteView> got = Status::Corruption("unread");
      if (nested) {
        auto list = back->NextList();
        ASSERT_TRUE(list.ok());
        got = list->NextBytes();
        EXPECT_TRUE(list->AtEnd());
      } else {
        got = back->NextBytes();
      }
      ASSERT_TRUE(got.ok());
      EXPECT_EQ(ToBytes(*got), bytes);
    }
    EXPECT_TRUE(back->AtEnd());
  }
}

// ---------------------------------------------------------------------------
// JSON
// ---------------------------------------------------------------------------

TEST(JsonTest, ParsesScalars) {
  EXPECT_TRUE(JsonParse("null")->is_null());
  EXPECT_EQ(JsonParse("true")->as_bool(), true);
  EXPECT_EQ(JsonParse("false")->as_bool(), false);
  EXPECT_EQ(JsonParse("42")->as_int(), 42);
  EXPECT_EQ(JsonParse("-7")->as_int(), -7);
  EXPECT_DOUBLE_EQ(JsonParse("3.25")->as_double(), 3.25);
  EXPECT_DOUBLE_EQ(JsonParse("1e3")->as_double(), 1000.0);
  EXPECT_EQ(JsonParse("\"hi\"")->as_string(), "hi");
}

TEST(JsonTest, ParsesNestedDocument) {
  auto v = JsonParse(R"({"loan":{"amount":100000,"rate":4.5},)"
                     R"("banks":["icbc","abc"],"approved":true})");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->Find("loan")->Find("amount")->as_int(), 100000);
  EXPECT_DOUBLE_EQ(v->Find("loan")->Find("rate")->as_double(), 4.5);
  EXPECT_EQ(v->Find("banks")->as_array()[1].as_string(), "abc");
  EXPECT_TRUE(v->Find("approved")->as_bool());
  EXPECT_EQ(v->Find("missing"), nullptr);
}

TEST(JsonTest, EscapesRoundTrip) {
  JsonValue v(std::string("line1\nline2\t\"quoted\"\\"));
  auto back = JsonParse(JsonWrite(v));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->as_string(), v.as_string());
}

TEST(JsonTest, UnicodeEscapeDecodes) {
  auto v = JsonParse("\"\\u0041\\u00e9\\u4e2d\"");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->as_string(), "A\xc3\xa9\xe4\xb8\xad");
}

TEST(JsonTest, WriteReadRoundTripPreservesOrder) {
  JsonValue obj{JsonValue::Object{}};
  obj.Set("z", 1);
  obj.Set("a", 2);
  obj.Set("m", JsonValue(JsonValue::Array{JsonValue(1), JsonValue("x")}));
  std::string text = JsonWrite(obj);
  EXPECT_EQ(text, R"({"z":1,"a":2,"m":[1,"x"]})");
  auto back = JsonParse(text);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, obj);
}

TEST(JsonTest, RejectsMalformedInput) {
  EXPECT_FALSE(JsonParse("").ok());
  EXPECT_FALSE(JsonParse("{").ok());
  EXPECT_FALSE(JsonParse("[1,]").ok());
  EXPECT_FALSE(JsonParse("{\"a\":}").ok());
  EXPECT_FALSE(JsonParse("\"unterminated").ok());
  EXPECT_FALSE(JsonParse("1 2").ok());
  EXPECT_FALSE(JsonParse("tru").ok());
}

TEST(JsonTest, RejectsTooDeepNesting) {
  std::string deep(200, '[');
  deep += std::string(200, ']');
  EXPECT_FALSE(JsonParse(deep).ok());
}

TEST(JsonTest, SetOverwritesExistingKey) {
  JsonValue obj{JsonValue::Object{}};
  obj.Set("k", 1);
  obj.Set("k", 2);
  EXPECT_EQ(obj.as_object().size(), 1u);
  EXPECT_EQ(obj.Find("k")->as_int(), 2);
}

TEST(JsonTest, TruncatedUnicodeEscapeFails) {
  // The \u guard is remaining-based; the document ending mid-escape must
  // produce a parse error, never a read past the buffer.
  EXPECT_FALSE(JsonParse("\"\\u").ok());
  EXPECT_FALSE(JsonParse("\"\\u1").ok());
  EXPECT_FALSE(JsonParse("\"\\u123").ok());
  EXPECT_FALSE(JsonParse("\"abc\\u12").ok());
  EXPECT_TRUE(JsonParse("\"\\u1234\"").ok());
}

TEST(JsonTest, LargeIntegerFallsBackToDouble) {
  auto v = JsonParse("99999999999999999999999999");
  ASSERT_TRUE(v.ok());
  EXPECT_TRUE(v->is_double());
}

// ---------------------------------------------------------------------------
// FlatLite
// ---------------------------------------------------------------------------

TEST(FlatLiteTest, ScalarAndStringRoundTrip) {
  FlatLiteBuilder builder(3);
  builder.SetU64(0, 123456789);
  builder.SetString(1, "asset-001");
  Bytes buf = builder.Finish();

  auto view = FlatLiteView::Parse(buf);
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(view->field_count(), 3u);
  EXPECT_EQ(*view->GetU64(0), 123456789u);
  EXPECT_EQ(*view->GetString(1), "asset-001");
  EXPECT_FALSE(view->Has(2));
  EXPECT_TRUE(view->GetU64(2).status().IsNotFound());
}

TEST(FlatLiteTest, NestedTable) {
  FlatLiteBuilder inner(2);
  inner.SetU64(0, 7);
  inner.SetString(1, "inner");
  Bytes inner_buf = inner.Finish();

  FlatLiteBuilder outer(1);
  outer.SetTable(0, inner_buf);
  Bytes buf = outer.Finish();

  auto view = FlatLiteView::Parse(buf);
  ASSERT_TRUE(view.ok());
  auto nested = view->GetTable(0);
  ASSERT_TRUE(nested.ok());
  EXPECT_EQ(*nested->GetU64(0), 7u);
  EXPECT_EQ(*nested->GetString(1), "inner");
}

TEST(FlatLiteTest, VectorOfTables) {
  std::vector<Bytes> assets;
  for (int i = 0; i < 5; ++i) {
    FlatLiteBuilder b(2);
    b.SetU64(0, uint64_t(i) * 100);
    b.SetString(1, "asset-" + std::to_string(i));
    assets.push_back(b.Finish());
  }
  FlatLiteBuilder outer(1);
  outer.SetVector(0, assets);
  Bytes buf = outer.Finish();

  auto view = FlatLiteView::Parse(buf);
  ASSERT_TRUE(view.ok());
  ASSERT_EQ(*view->GetVectorSize(0), 5u);
  for (uint32_t i = 0; i < 5; ++i) {
    auto elem = view->GetVectorElement(0, i);
    ASSERT_TRUE(elem.ok());
    auto elem_view = FlatLiteView::Parse(*elem);
    ASSERT_TRUE(elem_view.ok());
    EXPECT_EQ(*elem_view->GetU64(0), uint64_t(i) * 100);
  }
  EXPECT_FALSE(view->GetVectorElement(0, 5).ok());
}

// Found by DecodeFuzzTest: a corrupted count used to be returned verbatim,
// sending count-driven callers into a scan over ~4B absent elements.
TEST(FlatLiteTest, VectorCountBeyondBufferRejected) {
  FlatLiteBuilder builder(1);
  builder.SetVector(0, {Bytes{1, 2, 3}, Bytes{4, 5, 6}});
  Bytes buf = builder.Finish();

  auto view = FlatLiteView::Parse(buf);
  ASSERT_TRUE(view.ok());
  ASSERT_EQ(*view->GetVectorSize(0), 2u);

  // Overwrite the count u32 with 0xFFFFFFFF; the slot table can no longer
  // fit in the buffer, so the size read itself must fail.
  uint32_t count_off = 0;
  std::memcpy(&count_off, buf.data() + 8, 4);  // field 0's offset slot
  Bytes corrupt = buf;
  std::memset(corrupt.data() + count_off, 0xff, 4);
  auto corrupt_view = FlatLiteView::Parse(corrupt);
  ASSERT_TRUE(corrupt_view.ok());
  EXPECT_FALSE(corrupt_view->GetVectorSize(0).ok());
  EXPECT_FALSE(corrupt_view->GetVectorElement(0, 0).ok());
}

TEST(FlatLiteTest, ZeroCopyViewsAliasBuffer) {
  FlatLiteBuilder builder(1);
  builder.SetString(0, "zero-copy");
  Bytes buf = builder.Finish();
  auto view = FlatLiteView::Parse(buf);
  ASSERT_TRUE(view.ok());
  auto bytes = view->GetBytes(0);
  ASSERT_TRUE(bytes.ok());
  EXPECT_GE(bytes->data(), buf.data());
  EXPECT_LT(bytes->data(), buf.data() + buf.size());
}

TEST(FlatLiteTest, RejectsCorruptBuffers) {
  EXPECT_FALSE(FlatLiteView::Parse(Bytes{1, 2, 3}).ok());

  FlatLiteBuilder builder(1);
  builder.SetString(0, "data");
  Bytes buf = builder.Finish();
  Bytes bad_magic = buf;
  bad_magic[0] ^= 0xff;
  EXPECT_FALSE(FlatLiteView::Parse(bad_magic).ok());

  Bytes truncated(buf.begin(), buf.begin() + 8);
  auto v = FlatLiteView::Parse(truncated);
  // Header itself parses only if the offset table fits.
  EXPECT_FALSE(v.ok());
}

TEST(FlatLiteTest, OutOfRangeFieldRejected) {
  FlatLiteBuilder builder(2);
  builder.SetU64(0, 1);
  Bytes buf = builder.Finish();
  auto view = FlatLiteView::Parse(buf);
  ASSERT_TRUE(view.ok());
  EXPECT_FALSE(view->GetU64(9).ok());
  EXPECT_FALSE(view->Has(9));
}

// ---------------------------------------------------------------------------
// Structure-aware decode fuzzing
//
// Seeded mutations of *valid* encodings — byte flips, truncation,
// extension, header/length tweaks, internal splices — fed to every
// decoder. The contract under test: malformed input fails with a clean
// Status (Corruption / InvalidArgument / OutOfRange), never a crash, hang,
// or out-of-bounds read (CI runs this under ASan at 10k iterations via
// CONFIDE_DECODE_FUZZ_ITERS; see .github/workflows/ci.yml).
// ---------------------------------------------------------------------------

size_t FuzzIters() {
  const char* env = std::getenv("CONFIDE_DECODE_FUZZ_ITERS");
  if (env != nullptr && env[0] != '\0') {
    return size_t(std::strtoull(env, nullptr, 10));
  }
  return 10'000;
}

Bytes Mutate(const Bytes& wire, crypto::Drbg* rng) {
  Bytes m = wire;
  switch (rng->NextBounded(5)) {
    case 0:  // flip bits in one byte
      if (!m.empty()) {
        m[size_t(rng->NextBounded(m.size()))] ^= uint8_t(1 + rng->NextBounded(255));
      }
      break;
    case 1:  // truncate
      if (!m.empty()) m.resize(size_t(rng->NextBounded(m.size())));
      break;
    case 2: {  // extend with random tail
      Bytes extra = rng->Generate(1 + size_t(rng->NextBounded(16)));
      m.insert(m.end(), extra.begin(), extra.end());
      break;
    }
    case 3:  // bump a byte: header prefixes and length bytes drift most
      if (!m.empty()) {
        size_t i = size_t(rng->NextBounded(m.size()));
        m[i] = uint8_t(m[i] + 1 + rng->NextBounded(8));
      }
      break;
    case 4:  // splice a chunk over another position
      if (m.size() >= 2) {
        size_t from = size_t(rng->NextBounded(m.size() - 1));
        size_t to = size_t(rng->NextBounded(m.size() - 1));
        size_t len = 1 + size_t(rng->NextBounded(
                             std::min<uint64_t>(8, m.size() - std::max(from, to) - 1)));
        std::copy(m.begin() + ptrdiff_t(from), m.begin() + ptrdiff_t(from + len),
                  m.begin() + ptrdiff_t(to));
      }
      break;
  }
  return m;
}

/// Exercises the zero-copy reader over an arbitrary (possibly corrupt)
/// item the same way the codecs do: parse as list, walk every child.
void WalkRlp(ByteView wire, int depth) {
  if (depth > 6) return;
  auto list = RlpReader::AtList(wire);
  if (!list.ok()) {
    (void)RlpReader::OverPayload(wire).NextBytes();
    return;
  }
  while (!list->AtEnd()) {
    auto item = list->NextItem();
    if (!item.ok()) return;
    WalkRlp(*item, depth + 1);
  }
  (void)list->CountRemaining();
}

TEST(DecodeFuzzTest, RlpNeverCrashes) {
  RlpWriter w;
  size_t outer = w.BeginList();
  w.WriteU64(UINT64_MAX);
  w.WriteBytes(Bytes(200, 0x42));
  size_t inner = w.BeginList();
  w.WriteString("nested");
  w.WriteU64(55);
  size_t deep = w.BeginList();
  w.WriteBytes(Bytes(60, 0x01));
  w.EndList(deep);
  w.EndList(inner);
  w.WriteString("");
  w.EndList(outer);
  const Bytes valid = std::move(w).Take();
  ASSERT_TRUE(RlpReader::AtList(valid).ok());

  crypto::Drbg rng(0xF0221);
  const size_t iters = FuzzIters();
  for (size_t i = 0; i < iters; ++i) WalkRlp(Mutate(valid, &rng), 0);
}

TEST(DecodeFuzzTest, ChainRecordsNeverCrash) {
  crypto::Drbg rng(0xF0222);
  crypto::KeyPair kp = crypto::GenerateKeyPair(&rng);

  chain::Transaction tx;
  tx.type = chain::TxType::kPublic;
  tx.sender = kp.pub;
  tx.contract = chain::NamedAddress("fuzz-contract");
  tx.entry = "method";
  tx.input = rng.Generate(120);
  tx.nonce = 3;
  tx.signature = *crypto::EcdsaSign(kp.priv, tx.SigningHash());
  const Bytes tx_wire = tx.Serialize();

  chain::Transaction conf;
  conf.type = chain::TxType::kConfidential;
  conf.envelope = rng.Generate(160);
  const Bytes conf_wire = conf.Serialize();

  chain::Receipt receipt;
  receipt.tx_hash = tx.Hash();
  receipt.success = true;
  receipt.output = rng.Generate(90);
  receipt.logs.push_back(rng.Generate(30));
  receipt.gas_used = 12345;
  const Bytes receipt_wire = receipt.Serialize();

  chain::Block block;
  block.header.height = 9;
  block.header.timestamp_ns = 1'000'000;
  block.transactions.push_back(tx);
  block.transactions.push_back(conf);
  const Bytes block_wire = block.Serialize();

  ASSERT_TRUE(chain::Transaction::Deserialize(tx_wire).ok());
  ASSERT_TRUE(chain::Receipt::Deserialize(receipt_wire).ok());
  ASSERT_TRUE(chain::Block::Deserialize(block_wire).ok());

  const size_t iters = FuzzIters();
  for (size_t i = 0; i < iters; ++i) {
    const Bytes& base = (i % 4 == 0)   ? conf_wire
                        : (i % 4 == 1) ? receipt_wire
                        : (i % 4 == 2) ? block_wire
                                       : tx_wire;
    Bytes mutated = Mutate(base, &rng);

    // Wire decoding is canonical: when a mutated transaction still
    // decodes, re-serializing must reproduce the input byte-for-byte —
    // a decoder quietly accepting a non-canonical form would split the
    // tx-hash space for identical transactions.
    auto as_tx = chain::TransactionRef::Decode(mutated);
    if (as_tx.ok()) {
      EXPECT_EQ(as_tx->ToOwned().Serialize(), mutated) << "iter " << i;
    }
    (void)chain::Receipt::Deserialize(mutated);
    (void)chain::Block::Deserialize(mutated);
  }
}

TEST(DecodeFuzzTest, FlatLiteNeverCrashes) {
  FlatLiteBuilder builder(6);
  builder.SetString(0, "asset-001");
  builder.SetU64(1, 77);
  builder.SetBytes(2, Bytes(130, 0xCD));
  FlatLiteBuilder nested(2);
  nested.SetU64(0, 1);
  nested.SetString(1, "inner");
  builder.SetTable(3, nested.Finish());
  builder.SetVector(4, {Bytes{1, 2, 3}, Bytes{4, 5}});
  const Bytes valid = builder.Finish();
  ASSERT_TRUE(FlatLiteView::Parse(valid).ok());

  crypto::Drbg rng(0xF0223);
  const size_t iters = FuzzIters();
  for (size_t i = 0; i < iters; ++i) {
    Bytes mutated = Mutate(valid, &rng);
    auto view = FlatLiteView::Parse(mutated);
    if (!view.ok()) continue;
    // A parsed view must serve every accessor without faulting.
    for (uint32_t f = 0; f < view->field_count(); ++f) {
      (void)view->GetU64(f);
      (void)view->GetString(f);
      auto table = view->GetTable(f);
      if (table.ok()) (void)table->GetString(1);
      auto count = view->GetVectorSize(f);
      if (count.ok()) {
        for (uint32_t e = 0; e < *count; ++e) (void)view->GetVectorElement(f, e);
      }
    }
  }
}

TEST(DecodeFuzzTest, Leb128NeverCrashes) {
  Bytes valid;
  WriteUleb128(&valid, UINT64_MAX);
  WriteUleb128(&valid, 300);
  WriteSleb128(&valid, INT64_MIN);
  WriteSleb128(&valid, -1);
  WriteUleb128(&valid, 0);

  crypto::Drbg rng(0xF0224);
  const size_t iters = FuzzIters();
  for (size_t i = 0; i < iters; ++i) {
    Bytes mutated = Mutate(valid, &rng);
    size_t pos = 0;
    // Alternate readers over the stream until error or exhaustion.
    for (int field = 0; pos < mutated.size() && field < 16; ++field) {
      if (field % 2 == 0) {
        if (!ReadUleb128(mutated, &pos).ok()) break;
      } else {
        if (!ReadSleb128(mutated, &pos).ok()) break;
      }
    }
  }
}


// ---------------------------------------------------------------------------
// Golden wire bytes: stored checkpoints, sealed freshness headers and
// K-Protocol blobs must keep their exact encoding, or records already on
// disk (and sealed under a MAC) stop verifying. The hex below was captured
// from the item-tree encoders these records used before the streaming
// port, on the fixed inputs built here.
// ---------------------------------------------------------------------------

constexpr const char* kManifestHex =
    "f8cf8203e8a0101112131415161718191a1b1c1d1e1f20212223242526272829"
    "2a2b2c2d2e2fa0303132333435363738393a3b3c3d3e3f404142434445464748"
    "494a4b4c4d4e4f82012c83011170a0505152535455565758595a5b5c5d5e5f60"
    "6162636465666768696a6b6c6d6e6fb860707172737475767778797a7b7c7d7e"
    "7f808182838485868788898a8b8c8d8e8f909192939495969798999a9b9c9d9e"
    "9fa0a1a2a3a4a5a6a7a8a9aaabacadaeafb0b1b2b3b4b5b6b7b8b9babbbcbdbe"
    "bfc0c1c2c3c4c5c6c7c8c9cacbcccdcecf";

constexpr const char* kCertificateHex =
    "f8f4a00102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d"
    "1e1f20f8d1f84380b840202122232425262728292a2b2c2d2e2f303132333435"
    "363738393a3b3c3d3e3f404142434445464748494a4b4c4d4e4f505152535455"
    "565758595a5b5c5d5e5ff84301b840606162636465666768696a6b6c6d6e6f70"
    "7172737475767778797a7b7c7d7e7f808182838485868788898a8b8c8d8e8f90"
    "9192939495969798999a9b9c9d9e9ff84582012cb840a0a1a2a3a4a5a6a7a8a9"
    "aaabacadaeafb0b1b2b3b4b5b6b7b8b9babbbcbdbebfc0c1c2c3c4c5c6c7c8c9"
    "cacbcccdcecfd0d1d2d3d4d5d6d7d8d9dadbdcdddedf";

constexpr const char* kWitnessHex =
    "f842a0101112131415161718191a1b1c1d1e1f202122232425262728292a2b2c"
    "2d2e2fa0303132333435363738393a3b3c3d3e3f404142434445464748494a4b"
    "4c4d4e4f";

constexpr const char* kIndexHex =
    "c40882012c";

constexpr const char* kMacBodyHex =
    "e3807fa0404142434445464748494a4b4c4d4e4f505152535455565758595a5b"
    "5c5d5e5f";

constexpr const char* kFreshnessHeaderHex =
    "f846058203e8a0404142434445464748494a4b4c4d4e4f505152535455565758"
    "595a5b5c5d5e5fa0808182838485868788898a8b8c8d8e8f9091929394959697"
    "98999a9b9c9d9e9f";

constexpr const char* kQuoteHex =
    "f90130a01112131415161718191a1b1c1d1e1f202122232425262728292a2b2c"
    "2d2e2f3002850102030405b840333435363738393a3b3c3d3e3f404142434445"
    "464748494a4b4c4d4e4f505152535455565758595a5b5c5d5e5f606162636465"
    "666768696a6b6c6d6e6f707172b8404445464748494a4b4c4d4e4f5051525354"
    "55565758595a5b5c5d5e5f606162636465666768696a6b6c6d6e6f7071727374"
    "75767778797a7b7c7d7e7f80818283b84055565758595a5b5c5d5e5f60616263"
    "6465666768696a6b6c6d6e6f707172737475767778797a7b7c7d7e7f80818283"
    "8485868788898a8b8c8d8e8f9091929394b840666768696a6b6c6d6e6f707172"
    "737475767778797a7b7c7d7e7f808182838485868788898a8b8c8d8e8f909192"
    "939495969798999a9b9c9d9e9fa0a1a2a3a4a5";

constexpr const char* kProvisionBlobHex =
    "f8e7b84067e9608a27403e86cbbc7c44381fea5fdedd4ede5efa454abd50d1dc"
    "1584fadb8488bf102a125822a7523bf154be82d8cc9cb43a38e7b62538b3939a"
    "513bfd598cba0cabeb94e916a1c5db084bb8964ffdc09910032e9adcae206f76"
    "bba5a65c7e0bfd9459d3454ea51dc98474f83d14319d4a16493b55e4490981fc"
    "df8d73b82b6e786c52c8f09f82f87d6826d5058eecea0f5210b5928cb134096d"
    "b95f389962597453f5d0c3047872da45daae550748a6145b210c56765cac0c85"
    "42dae14e24e7587308c5e6ca5f63267865e832dfb51ab494d91b582c6be5920d"
    "0a53beb58aba9a7cd3";

constexpr const char* kPkInfoHex =
    "f90152b8404b89fb9f53095e62ae7ed2e0404cb18e31148e3367b8fc5cedd65c"
    "0ff5578c6a205a16838b431319db2f7c3959b862f4cf3ced0faa4786df345bd0"
    "1dda5e41eeb9010df9010aa089817b36b8d1ea36ad18172ad8e1634b9230b3cd"
    "5c38926b55e1bdd3a738a6050109a02dfee599df49f49840bfbd1f1569eb3110"
    "4d46b72510f34f87053b2c6a56bcb5b840ffd567b4e78bc7b0816e90a3d4ddf6"
    "57fb76643d49d2b4364db6058ffae5a29eb299b2e8c114d4999a4b0c0973c4ee"
    "14c3e9a573eff42740669e162309a657a9b8405c8b0ed313ab8c26bb66112cdd"
    "53cf2a8c95d9dde278e75aeda72c9adff5c66e7b2c1246129b73877782548e51"
    "9656809fe62f8c2998f551650b06273910a4fbb840cb4fe923b0541e7892c88e"
    "a5f9ac11c70bd92571f689016b531db6f615aa45203c8e793b960b32eababbf0"
    "a92e98e38d15db07cbeb3c524c2ec931644f235668";

constexpr const char* kCsReportHex =
    "f885a0cec85edfbc786465c81d19526c5abd9f8717e352e33ecc96e1c8d807fb"
    "0de30101b84061f437583c9981b20d7ccc30d591820b53094647cf8243738cfa"
    "f44c91c411c2e93edef8ce435510fc25f7705ab32a9177b1b855f824a1124bbf"
    "545b1e1f4d7ea038f9d16d283c63f6ab47abdd52362471dee716ab94d5b67c03"
    "a420d25e07af12";

constexpr const char* kCsProvisionBlobHex =
    "f8e7b8407900cb59f852930345d465ac693c7ea10fe28fba7e930082a78ca1b8"
    "e59ead9ad373833e445c3fd44739800012ee7a056400055f283fb08f18eb0117"
    "a859f2348c40796e67a364c81329c12b9db89654582938f7e9bdcfad18350823"
    "ad241fa76eb8176356aca17ff5e0648fd68737e61dbf1f014cfb55f8861ed3ee"
    "645f96d6178a868d54671a8bdcfe07729d416a3ea6f99d34837f2751709e090c"
    "cda650d18b6028a76a6c66dca3055dbd295571e39a16b2ea600322fe98d4f173"
    "f6dd6fc0665a2bcb379b82c2df7b8bc138efe5de8094b9fa2d082a8d49d2d584"
    "f6becc8776c3ab2487";

template <size_t N>
std::array<uint8_t, N> Seq(uint8_t start) {
  std::array<uint8_t, N> a{};
  for (size_t i = 0; i < N; ++i) a[i] = uint8_t(start + i);
  return a;
}

chain::CheckpointManifest GoldenManifest() {
  chain::CheckpointManifest m;
  m.height = 1000;
  m.block_hash = Seq<32>(0x10);
  m.state_root = Seq<32>(0x30);
  m.total_entries = 300;
  m.total_bytes = 70000;
  m.chunks_root = Seq<32>(0x50);
  m.chunk_hashes = {Seq<32>(0x70), Seq<32>(0x90), Seq<32>(0xb0)};
  return m;
}

chain::CheckpointCertificate GoldenCertificate() {
  chain::CheckpointCertificate c;
  c.manifest_digest = Seq<32>(0x01);
  c.votes = {{0, Seq<64>(0x20)}, {1, Seq<64>(0x60)}, {300, Seq<64>(0xa0)}};
  return c;
}

core::FreshnessHeader GoldenFreshnessHeader() {
  core::FreshnessHeader h;
  h.counter = 5;
  h.height = 1000;
  h.state_root = Seq<32>(0x40);
  h.mac = Seq<32>(0x80);
  return h;
}

tee::Quote GoldenQuote() {
  tee::Quote q;
  q.mrenclave = Seq<32>(0x11);
  q.security_version = 2;
  q.platform_id = 0x0102030405;
  const auto user_data = Seq<64>(0x33);
  q.user_data.assign(user_data.begin(), user_data.end());
  q.platform_key = Seq<64>(0x44);
  q.platform_cert = Seq<64>(0x55);
  q.signature = Seq<64>(0x66);
  return q;
}

Bytes Unhex(const char* hex) { return *HexDecode(hex); }

TEST(WireGoldenTest, CheckpointManifestAndCertificate) {
  const chain::CheckpointManifest manifest = GoldenManifest();
  EXPECT_EQ(HexEncode(manifest.Serialize()), kManifestHex);
  auto back = chain::CheckpointManifest::Deserialize(Unhex(kManifestHex));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->height, manifest.height);
  EXPECT_EQ(back->chunks_root, manifest.chunks_root);
  EXPECT_EQ(back->chunk_hashes, manifest.chunk_hashes);
  EXPECT_EQ(back->Digest(), manifest.Digest());

  const chain::CheckpointCertificate certificate = GoldenCertificate();
  EXPECT_EQ(HexEncode(certificate.Serialize()), kCertificateHex);
  auto cert = chain::CheckpointCertificate::Deserialize(Unhex(kCertificateHex));
  ASSERT_TRUE(cert.ok()) << cert.status().ToString();
  EXPECT_EQ(cert->manifest_digest, certificate.manifest_digest);
  EXPECT_EQ(cert->votes, certificate.votes);
}

TEST(WireGoldenTest, CheckpointWitnessAndRetentionIndex) {
  auto opened = storage::LsmKvStore::Open(storage::LsmOptions{});
  ASSERT_TRUE(opened.ok());
  std::shared_ptr<storage::KvStore> kv(std::move(*opened));
  const chain::ValidatorSet validators = chain::ValidatorSet::Generate(4, 1);
  const chain::CheckpointOptions options{0, 2048, 2};
  chain::CheckpointManager manager(options, kv, &validators);

  ASSERT_TRUE(manager.WitnessCheckpoint(7, Seq<32>(0x10), Seq<32>(0x30)).ok());
  EXPECT_EQ(HexEncode(*kv->Get("ckpt/w/0000000000000007")), kWitnessHex);
  // Re-witnessing decodes the stored record: same roots pass, a
  // different root at the same height is a fork.
  EXPECT_TRUE(manager.WitnessCheckpoint(7, Seq<32>(0x10), Seq<32>(0x30)).ok());
  EXPECT_EQ(manager.WitnessCheckpoint(7, Seq<32>(0x10), Seq<32>(0x31)).code(),
            StatusCode::kPermissionDenied);

  for (uint64_t h : {4, 8, 300}) {
    ASSERT_TRUE(manager.WriteCheckpoint(h, Seq<32>(uint8_t(h)), Seq<32>(0x30)).ok());
  }
  EXPECT_EQ(HexEncode(*kv->Get("ckpt/index")), kIndexHex);
  chain::CheckpointManager restarted(options, kv, &validators);
  ASSERT_TRUE(restarted.RecoverLatest().ok());
  EXPECT_EQ(restarted.RetainedHeights(), (std::vector<uint64_t>{8, 300}));
  EXPECT_EQ(restarted.LatestHeight(), 300u);
}

TEST(WireGoldenTest, FreshnessMacBodyAndHeader) {
  EXPECT_EQ(HexEncode(core::FreshnessMacBody(0, 127, Seq<32>(0x40))), kMacBodyHex);
  const core::FreshnessHeader header = GoldenFreshnessHeader();
  EXPECT_EQ(HexEncode(header.Serialize()), kFreshnessHeaderHex);
  auto back = core::FreshnessHeader::Deserialize(Unhex(kFreshnessHeaderHex));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->counter, header.counter);
  EXPECT_EQ(back->height, header.height);
  EXPECT_EQ(back->state_root, header.state_root);
  EXPECT_EQ(back->mac, header.mac);
}

TEST(WireGoldenTest, QuoteAndProvisionBlob) {
  EXPECT_EQ(HexEncode(core::SerializeQuote(GoldenQuote())), kQuoteHex);
  auto quote = core::DeserializeQuote(Unhex(kQuoteHex));
  ASSERT_TRUE(quote.ok()) << quote.status().ToString();
  EXPECT_EQ(HexEncode(core::SerializeQuote(*quote)), kQuoteHex);

  crypto::Drbg rng(10);
  const crypto::KeyPair recipient = crypto::GenerateKeyPair(&rng);
  core::ConsortiumKeys keys;
  const crypto::KeyPair tx_pair = crypto::GenerateKeyPair(&rng);
  keys.sk_tx = tx_pair.priv;
  keys.pk_tx = tx_pair.pub;
  rng.Fill(keys.k_states.data(), keys.k_states.size());
  auto blob = core::WrapConsortiumKeys(keys, recipient.pub, /*entropy=*/5);
  ASSERT_TRUE(blob.ok());
  EXPECT_EQ(HexEncode(*blob), kProvisionBlobHex);
  auto unwrapped = core::UnwrapConsortiumKeys(recipient.priv, Unhex(kProvisionBlobHex));
  ASSERT_TRUE(unwrapped.ok()) << unwrapped.status().ToString();
  EXPECT_EQ(unwrapped->sk_tx, keys.sk_tx);
  EXPECT_EQ(unwrapped->pk_tx, keys.pk_tx);
  EXPECT_EQ(unwrapped->k_states, keys.k_states);
}

TEST(WireGoldenTest, PkInfoAndCsLocalReport) {
  // The enclaves' own ecalls on a fixed-seed platform: every signature
  // and MAC on it is deterministic.
  SimClock clock;
  tee::EnclavePlatform platform(tee::TeeCostModel{}, &clock, 9);
  auto km = platform.CreateEnclave(std::make_shared<core::KmEnclave>(9), 1 << 20);
  auto cs = platform.CreateEnclave(std::make_shared<core::CsEnclave>(9), 1 << 20);
  ASSERT_TRUE(km.ok() && cs.ok());
  ASSERT_TRUE(platform.Ecall(*km, core::kKmGenerateKeys, ByteView{}).ok());

  auto pk_info = platform.Ecall(*km, core::kKmGetPublicInfo, ByteView{});
  ASSERT_TRUE(pk_info.ok());
  EXPECT_EQ(HexEncode(*pk_info), kPkInfoHex);

  auto report = platform.Ecall(*cs, core::kCsGetProvisionReport, ByteView{});
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(HexEncode(*report), kCsReportHex);
  auto parsed = core::DeserializeLocalReport(Unhex(kCsReportHex));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(HexEncode(core::SerializeLocalReport(*parsed)), kCsReportHex);
  // The KM enclave decodes the golden report and provisions the CS.
  auto blob = platform.Ecall(*km, core::kKmProvisionCs, Unhex(kCsReportHex));
  ASSERT_TRUE(blob.ok()) << blob.status().ToString();
  EXPECT_EQ(HexEncode(*blob), kCsProvisionBlobHex);
}

TEST(WireGoldenTest, DeployPayloadMatchesIndependentEncoder) {
  // Hex of perfbench/harness/txset.cc's DeployPayload, an encoder kept
  // separate from the library, for the same code.
  const std::vector<std::pair<size_t, const char*>> cases = {
      {0, "c28080"},
      {1, "c28003"},
      {60,
       "f83f80b83c030a11181f262d343b424950575e656c737a81888f969da4abb2b9"
       "c0c7ced5dce3eaf1f8ff060d141b222930373e454c535a61686f767d848b9299"
       "a0"},
  };
  for (const auto& [size, hex] : cases) {
    Bytes code(size);
    for (size_t i = 0; i < size; ++i) code[i] = uint8_t(i * 7 + 3);
    const Bytes payload =
        chain::ContractRegistry::EncodeDeploy(chain::VmKind::kCvm, code);
    EXPECT_EQ(HexEncode(payload), hex) << size;
    auto deploy = chain::ContractRegistry::DecodeDeploy(payload);
    ASSERT_TRUE(deploy.ok());
    EXPECT_EQ(deploy->vm, chain::VmKind::kCvm);
    EXPECT_EQ(ToBytes(deploy->code), code);
  }
  EXPECT_EQ(HexEncode(chain::ContractRegistry::EncodeDeploy(chain::VmKind::kEvm,
                                                            Bytes{0x03})),
            "c20103");
}

TEST(ContractRegistryTest, DecodeDeployRejectsMalformedPayloads) {
  auto message = [](const Bytes& payload) {
    return chain::ContractRegistry::DecodeDeploy(payload).status().message();
  };
  EXPECT_EQ(message(Bytes{0xc2, 0x02, 0x03}), "bad vm kind");  // vm 2
  EXPECT_EQ(message(Bytes{0xc3, 0x00, 0x03, 0x04}), "bad deploy payload");  // extra
  EXPECT_EQ(message(Bytes{0xc1, 0x00}), "bad deploy payload");        // no code
  EXPECT_EQ(message(Bytes{0xc2, 0x00, 0xc0}), "bad deploy payload");  // list code
  EXPECT_EQ(message(Bytes{0x82, 0x00, 0x03}), "bad deploy payload");  // not a list
  EXPECT_EQ(message(Bytes{0xc3, 0x81, 0x00, 0x03}), "bad deploy payload");
}

TEST(DecodeFuzzTest, CheckpointFreshnessAndQuoteRecordsAreCanonical) {
  const Bytes manifest = GoldenManifest().Serialize();
  const Bytes certificate = GoldenCertificate().Serialize();
  const Bytes freshness = GoldenFreshnessHeader().Serialize();
  const Bytes quote = core::SerializeQuote(GoldenQuote());

  // Outside input (peer checkpoints, the host's sealed headers, joiner
  // quotes): a mutated wire either fails cleanly or is the canonical
  // encoding of what it decodes to.
  crypto::Drbg rng(0xF0225);
  const size_t iters = FuzzIters();
  for (size_t i = 0; i < iters; ++i) {
    switch (i % 4) {
      case 0: {
        Bytes m = Mutate(manifest, &rng);
        auto r = chain::CheckpointManifest::Deserialize(m);
        if (r.ok()) {
          EXPECT_EQ(r->Serialize(), m) << "iter " << i;
        }
        break;
      }
      case 1: {
        Bytes m = Mutate(certificate, &rng);
        auto r = chain::CheckpointCertificate::Deserialize(m);
        if (r.ok()) {
          EXPECT_EQ(r->Serialize(), m) << "iter " << i;
        }
        break;
      }
      case 2: {
        Bytes m = Mutate(freshness, &rng);
        auto r = core::FreshnessHeader::Deserialize(m);
        if (r.ok()) {
          EXPECT_EQ(r->Serialize(), m) << "iter " << i;
        }
        break;
      }
      default: {
        Bytes m = Mutate(quote, &rng);
        auto r = core::DeserializeQuote(m);
        if (r.ok()) {
          EXPECT_EQ(core::SerializeQuote(*r), m) << "iter " << i;
        }
        break;
      }
    }
  }
}

}  // namespace
}  // namespace confide::serialize
