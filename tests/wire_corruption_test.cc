// Adversarial coverage of the wire codec: the TCP transport feeds
// DecodeEnvelope bytes straight off a socket, so every truncation,
// bit flip, and hostile count must come back as a decode Status —
// never a crash, never an allocation sized by attacker-controlled
// counts. This suite runs under ASan/UBSan in CI.

#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "net/wire.h"
#include "parser/parser.h"

#include "support/builders.h"

namespace wdl {
namespace {

using test::I;
using test::S;

// One representative envelope per MessageType, with nonempty payloads
// so truncation can land inside every field kind — plus every delta
// variant the protocol sends (update, heartbeat, snapshots with and
// without a blob column), whose flag/version fields have their own
// layout.
std::vector<Envelope> AllMessageKinds() {
  std::vector<Envelope> out;
  auto push = [&out](Message m) {
    Envelope e;
    e.from = "emilien";
    e.to = "jules";
    e.seq = 7;
    e.message = std::move(m);
    out.push_back(std::move(e));
  };

  push(Message::FactInserts({Fact("pictures", "jules", {I(1), S("sea.jpg")}),
                             Fact("pictures", "jules", {I(2), S("")})}));
  push(Message::FactDeletes({Fact("pictures", "jules", {I(1), S("sea.jpg")})}));

  // A whole contribution with a blob column: target, relation, base
  // and version, snapshot flag, inserts, deletes.
  push(Message::MakeDerivedDelta(DerivedDelta{
      "jules", "attendeePictures", 0, 1, true,
      {{I(1), S("a")}, {I(2), Value::MakeBlob(std::string(3, '\0'))}}, {}}));

  DerivedDelta delta;
  delta.target_peer = "jules";
  delta.relation = "attendeePictures";
  delta.base_version = 3;
  delta.version = 4;
  delta.inserts = {{I(5), S("new.jpg")}};
  delta.deletes = {{I(1), S("sea.jpg")}};
  push(Message::MakeDerivedDelta(delta));

  DerivedDelta heartbeat;  // version-only: no tuples at all
  heartbeat.target_peer = "jules";
  heartbeat.relation = "attendeePictures";
  heartbeat.base_version = 4;
  heartbeat.version = 4;
  push(Message::MakeDerivedDelta(heartbeat));

  DerivedDelta snapshot;  // full contribution, repairs a gap
  snapshot.target_peer = "jules";
  snapshot.relation = "attendeePictures";
  snapshot.version = 9;
  snapshot.snapshot = true;
  snapshot.inserts = {{I(1), S("sea.jpg")}, {I(5), S("new.jpg")}};
  push(Message::MakeDerivedDelta(snapshot));

  Result<Rule> rule = ParseRule(
      "attendeePictures@jules($id, $n) :- pictures@emilien($id, $n)");
  EXPECT_TRUE(rule.ok()) << rule.status();
  Delegation d;
  d.origin_peer = "jules";
  d.target_peer = "emilien";
  d.origin_rule_hash = 0xfeed;
  d.rule = *rule;
  push(Message::DelegationInstall(d));
  push(Message::DelegationRetract(d.Key()));

  push(Message::Hello("emilien"));
  push(Message::ResyncRequest("attendeePictures"));
  return out;
}

TEST(WireCorruptionTest, TruncationAtEveryOffsetFailsCleanly) {
  for (const Envelope& e : AllMessageKinds()) {
    const std::string bytes = EncodeEnvelope(e);
    SCOPED_TRACE(e.message.ToString());
    ASSERT_FALSE(bytes.empty());
    // The codec is symmetric — decode consumes exactly what encode
    // produced — so every strict prefix must run out of input and fail
    // with a Status, not crash or return a half-built envelope.
    for (size_t len = 0; len < bytes.size(); ++len) {
      Result<Envelope> r =
          DecodeEnvelope(std::string_view(bytes.data(), len));
      EXPECT_FALSE(r.ok()) << "prefix of " << len << " of " << bytes.size()
                           << " bytes decoded";
    }
    // And the untruncated frame still decodes.
    EXPECT_TRUE(DecodeEnvelope(bytes).ok());
  }
}

TEST(WireCorruptionTest, ByteFlipsNeverCrash) {
  const uint8_t kMasks[] = {0x01, 0x80, 0xff};
  for (const Envelope& e : AllMessageKinds()) {
    const std::string bytes = EncodeEnvelope(e);
    SCOPED_TRACE(e.message.ToString());
    for (size_t off = 0; off < bytes.size(); ++off) {
      for (uint8_t mask : kMasks) {
        std::string corrupt = bytes;
        corrupt[off] = static_cast<char>(corrupt[off] ^ mask);
        // A flip may still yield a *different valid* envelope (e.g.
        // inside string payload bytes); the contract is only that
        // decoding terminates without crashing or over-allocating.
        Result<Envelope> r = DecodeEnvelope(corrupt);
        if (r.ok()) {
          // Whatever decoded must survive a re-encode round trip.
          EXPECT_FALSE(EncodeEnvelope(*r).empty());
        }
      }
    }
  }
}

TEST(WireCorruptionTest, HostileCountsFailBeforeAllocating) {
  // Overwrite every aligned and unaligned 4-byte window with
  // 0xFFFFFFFF. Wherever that lands on a count or length field, the
  // decoder must reject it against the bytes actually remaining —
  // fast, and without reserving 4G elements first. ASan (and the test
  // timeout) would catch an allocation-by-count regression.
  for (const Envelope& e : AllMessageKinds()) {
    const std::string bytes = EncodeEnvelope(e);
    SCOPED_TRACE(e.message.ToString());
    for (size_t off = 0; off + 4 <= bytes.size(); ++off) {
      std::string corrupt = bytes;
      std::memset(corrupt.data() + off, 0xff, 4);
      // A window landing inside string *content* can still decode to a
      // valid envelope; one landing on any count or length must fail.
      // Either way the call terminates promptly — the property this
      // sweep enforces (with ASan and the test timeout as referees).
      Result<Envelope> r = DecodeEnvelope(corrupt);
      if (r.ok()) {
        EXPECT_FALSE(EncodeEnvelope(*r).empty());
      }
    }
  }
}

TEST(WireCorruptionTest, CountWithinGlobalCapStillBoundedByFrameSize) {
  // A fact-batch count of 0xFFFFFF sits under the global kMaxCount cap
  // (1<<24), so only the remaining-bytes bound can stop it. The frame
  // ends right after the count: minimum fact size makes the claim
  // impossible and decode must fail without looping 16M times.
  Envelope e;
  e.from = "emilien";
  e.to = "jules";
  e.message = Message::FactInserts({});
  std::string bytes = EncodeEnvelope(e);
  // The facts count is the trailing u32 of an empty batch.
  ASSERT_GE(bytes.size(), 4u);
  bytes[bytes.size() - 4] = static_cast<char>(0xff);
  bytes[bytes.size() - 3] = static_cast<char>(0xff);
  bytes[bytes.size() - 2] = static_cast<char>(0xff);
  bytes[bytes.size() - 1] = 0x00;
  Result<Envelope> r = DecodeEnvelope(bytes);
  EXPECT_FALSE(r.ok());
}

TEST(WireCorruptionTest, NestedCountsBoundedTupleArityAndRuleBody) {
  // Same bound one level down: a tuple claiming 2^20 values inside an
  // otherwise-valid snapshot delta, and a rule body claiming 2^20 atoms.
  DerivedDelta snapshot;
  snapshot.target_peer = "jules";
  snapshot.relation = "r";
  snapshot.version = 1;
  snapshot.snapshot = true;
  snapshot.inserts = {{I(1)}};
  Envelope e;
  e.from = "a";
  e.to = "b";
  e.message = Message::MakeDerivedDelta(snapshot);
  std::string bytes = EncodeEnvelope(e);
  // The single tuple sits just before the (empty) delete count: u32
  // arity=1 then one int value, then u32 0. Blow up the arity.
  const size_t arity_off =
      bytes.size() - (4 + 1 + 8 + 4);  // arity|tag|i64|delete count
  bytes[arity_off + 0] = 0x00;
  bytes[arity_off + 1] = 0x00;
  bytes[arity_off + 2] = 0x10;  // 0x00100000 = 2^20 values claimed
  bytes[arity_off + 3] = 0x00;
  EXPECT_FALSE(DecodeEnvelope(bytes).ok());

  WireEncoder enc;
  Result<Rule> rule = ParseRule("a@p($x) :- b@p($x)");
  ASSERT_TRUE(rule.ok());
  enc.PutRule(*rule);
  std::string rule_bytes = enc.TakeBuffer();
  // Body atom count is encoded after the head atom; rather than chase
  // the offset, scan every u32 window equal to 1 and bump it — one of
  // them is the body count, and none of the inflated variants may make
  // the decoder loop or allocate past the frame.
  for (size_t off = 0; off + 4 <= rule_bytes.size(); ++off) {
    uint32_t v;
    std::memcpy(&v, rule_bytes.data() + off, 4);
    if (v != 1) continue;
    std::string corrupt = rule_bytes;
    corrupt[off + 2] = 0x10;  // -> 0x00100001
    WireDecoder dec(corrupt);
    (void)dec.GetRule();  // must terminate; outcome may be ok or error
  }
}

}  // namespace
}  // namespace wdl
