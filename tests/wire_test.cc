#include "net/wire.h"

#include <utility>

#include <gtest/gtest.h>

#include "base/rng.h"
#include "parser/parser.h"

#include "support/builders.h"

namespace wdl {
namespace {

using test::I;
using test::S;

Envelope RoundTrip(const Envelope& e) {
  std::string bytes = EncodeEnvelope(e);
  Result<Envelope> decoded = DecodeEnvelope(bytes);
  EXPECT_TRUE(decoded.ok()) << decoded.status();
  return decoded.ok() ? std::move(decoded).value() : Envelope{};
}

TEST(WireTest, PrimitivesRoundTrip) {
  WireEncoder enc;
  enc.PutU8(0xab);
  enc.PutU16(0xbeef);
  enc.PutU32(0xdeadbeef);
  enc.PutU64(0x0123456789abcdefULL);
  enc.PutDouble(-2.5);
  enc.PutString("héllo\0world");  // embedded NUL truncated by literal; fine

  WireDecoder dec(enc.buffer());
  EXPECT_EQ(*dec.GetU8(), 0xab);
  EXPECT_EQ(*dec.GetU16(), 0xbeef);
  EXPECT_EQ(*dec.GetU32(), 0xdeadbeefu);
  EXPECT_EQ(*dec.GetU64(), 0x0123456789abcdefULL);
  EXPECT_DOUBLE_EQ(*dec.GetDouble(), -2.5);
  EXPECT_EQ(*dec.GetString(), "héllo");
  EXPECT_TRUE(dec.AtEnd());
}

TEST(WireTest, ValueKindsRoundTrip) {
  std::vector<Value> values = {
      I(0), I(-1), I(INT64_MAX), I(INT64_MIN),
      Value::Double(0.0), Value::Double(-1.5e300),
      S(""), S("sea.jpg"), S(std::string("nul\0byte", 8)),
      Value::MakeBlob(""), Value::MakeBlob(std::string("\x00\xff\x7f", 3))};
  for (const Value& v : values) {
    WireEncoder enc;
    enc.PutValue(v);
    WireDecoder dec(enc.buffer());
    Result<Value> back = dec.GetValue();
    ASSERT_TRUE(back.ok()) << back.status();
    EXPECT_EQ(*back, v) << v.ToString();
  }
}

TEST(WireTest, FactBatchEnvelopeRoundTrips) {
  Envelope e;
  e.from = "emilien";
  e.to = "sigmod";
  e.seq = 42;
  e.message = Message::FactInserts(
      {Fact("pictures", "sigmod", {I(1), S("sea.jpg")}),
       Fact("pictures", "sigmod", {I(2), S("boat.jpg")})});
  Envelope back = RoundTrip(e);
  EXPECT_EQ(back.from, "emilien");
  EXPECT_EQ(back.seq, 42u);
  ASSERT_EQ(back.message.facts.size(), 2u);
  EXPECT_EQ(back.message.facts[1].args[1], S("boat.jpg"));
}

TEST(WireTest, DelegationEnvelopeRoundTrips) {
  Result<Rule> rule = ParseRule(
      "attendeePictures@Jules($id, $n) :- pictures@Emilien($id, $n)");
  ASSERT_TRUE(rule.ok());
  Delegation d;
  d.origin_peer = "Jules";
  d.target_peer = "Emilien";
  d.origin_rule_hash = 0x1234;
  d.rule = *rule;

  Envelope e;
  e.from = "Jules";
  e.to = "Emilien";
  e.message = Message::DelegationInstall(d);
  Envelope back = RoundTrip(e);
  EXPECT_EQ(back.message.delegation.rule, *rule);
  EXPECT_EQ(back.message.delegation.Key(), d.Key());
}

TEST(WireTest, RuleWithAllTermShapesRoundTrips) {
  Result<Rule> rule = ParseRule(
      "$r@$q($x, 5, \"s\", 2.5, 0xff) :- names@p($r), peers@p($q), "
      "not banned@p($x), data@p($x)");
  // not-banned before data violates safety but the codec doesn't care;
  // parse it in two steps instead.
  if (!rule.ok()) {
    rule = ParseRule(
        "$r@$q($x, 5, \"s\", 2.5, 0xff) :- names@p($r), peers@p($q), "
        "data@p($x), not banned@p($x)");
  }
  ASSERT_TRUE(rule.ok()) << rule.status();
  WireEncoder enc;
  enc.PutRule(*rule);
  WireDecoder dec(enc.buffer());
  Result<Rule> back = dec.GetRule();
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(*back, *rule);
}

TEST(WireTest, RetractAndHelloRoundTrip) {
  Envelope e1;
  e1.from = "a";
  e1.to = "b";
  e1.message = Message::DelegationRetract(0xdeadbeefcafef00dULL);
  EXPECT_EQ(RoundTrip(e1).message.delegation_key, 0xdeadbeefcafef00dULL);

  Envelope e2;
  e2.from = "a";
  e2.to = "b";
  e2.message = Message::Hello("charlie");
  EXPECT_EQ(RoundTrip(e2).message.text, "charlie");
}

TEST(WireTest, BadMagicRejected) {
  Envelope e;
  e.from = "a";
  e.to = "b";
  e.message = Message::Hello("x");
  std::string bytes = EncodeEnvelope(e);
  bytes[0] = 'X';
  EXPECT_FALSE(DecodeEnvelope(bytes).ok());
}

TEST(WireTest, BadVersionRejected) {
  Envelope e;
  e.from = "a";
  e.to = "b";
  e.message = Message::Hello("x");
  std::string bytes = EncodeEnvelope(e);
  bytes[4] = '\x7f';  // version low byte
  EXPECT_FALSE(DecodeEnvelope(bytes).ok());
}

TEST(WireTest, TruncationAtEveryByteIsRejectedNotCrashing) {
  Envelope e;
  e.from = "emilien";
  e.to = "sigmod";
  e.message = Message::FactInserts(
      {Fact("pictures", "sigmod", {I(1), S("sea.jpg"),
                                   Value::MakeBlob("\x01\x02\x03")})});
  std::string bytes = EncodeEnvelope(e);
  for (size_t len = 0; len < bytes.size(); ++len) {
    Result<Envelope> r = DecodeEnvelope(bytes.substr(0, len));
    EXPECT_FALSE(r.ok()) << "prefix of length " << len << " decoded";
  }
}

TEST(WireTest, TrailingBytesRejected) {
  Envelope e;
  e.from = "a";
  e.to = "b";
  e.message = Message::Hello("x");
  std::string bytes = EncodeEnvelope(e) + "junk";
  EXPECT_FALSE(DecodeEnvelope(bytes).ok());
}

TEST(WireTest, RandomBytesNeverCrashDecoder) {
  Rng rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    size_t len = rng.NextBelow(200);
    std::string bytes;
    bytes.reserve(len + 6);
    // Start with valid magic+version half the time to reach deeper code.
    if (trial % 2 == 0) {
      bytes += "WDLM";
      bytes += '\x01';
      bytes += '\x00';
    }
    for (size_t i = 0; i < len; ++i) {
      bytes += static_cast<char>(rng.NextBelow(256));
    }
    Result<Envelope> r = DecodeEnvelope(bytes);  // must not crash/UB
    (void)r;
  }
}

// The envelope header every hand-forged frame below starts with.
std::string ForgedHeader(uint8_t message_type) {
  std::string bytes = "WDLM";
  bytes += '\x01';
  bytes += '\x00';
  WireEncoder enc;
  enc.PutString("a");  // from
  enc.PutString("b");  // to
  enc.PutU64(0);       // seq
  enc.PutU8(message_type);
  return bytes + enc.buffer();
}

TEST(WireTest, HostileLengthPrefixRejectedWithoutAllocation) {
  // A snapshot delta claiming 2^32-1 inserted tuples in 4 bytes of
  // payload: the count guard must reject it before any reserve().
  WireEncoder payload;
  payload.PutString("b");        // target
  payload.PutString("rel");      // relation
  payload.PutU64(0);             // base version
  payload.PutU64(1);             // version
  payload.PutU8(1);              // snapshot
  payload.PutU32(0xffffffffu);   // hostile insert count
  Result<Envelope> r = DecodeEnvelope(
      ForgedHeader(static_cast<uint8_t>(MessageType::kDerivedDelta)) +
      payload.buffer());
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("delta inserts count"),
            std::string::npos)
      << r.status();
}

TEST(WireTest, RetiredMessageTypeIsRejected) {
  // Type byte 2 carried the retired full-slice protocol's whole
  // contribution (target, relation, tuples); type byte 8 the retired
  // stream-forget notice (a relation name). Neither may decode into
  // some message the receiver would silently misread — even when the
  // rest of the frame is well formed.
  WireEncoder full_slice;
  full_slice.PutString("b");    // target
  full_slice.PutString("rel");  // relation
  full_slice.PutU32(0);         // no tuples
  WireEncoder stream_forget;
  stream_forget.PutString("__query_0");  // relation
  for (const auto& [type, payload] :
       {std::pair(kRetiredFullSliceType, full_slice.buffer()),
        std::pair(kRetiredForgetNoticeType, stream_forget.buffer())}) {
    SCOPED_TRACE(static_cast<int>(type));
    Result<Envelope> r = DecodeEnvelope(ForgedHeader(type) + payload);
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.status().message().find("retired"), std::string::npos)
        << r.status();
  }
  // The live types keep their values (wire and WAL compatibility).
  EXPECT_EQ(static_cast<int>(MessageType::kDelegationInstall), 3);
  EXPECT_EQ(static_cast<int>(MessageType::kResyncRequest), 7);
}

}  // namespace
}  // namespace wdl
