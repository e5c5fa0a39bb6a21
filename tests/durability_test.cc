// Durability suite (ISSUE PR10, DESIGN.md §11).
//
// The contract under test: a durable peer that dies at ANY point and
// restarts from its data dir converges to exactly the state of a twin
// that never crashed — and a peer that shut down cleanly recovers
// without requesting a single resync or applying a single inbound
// snapshot (the log covered everything). Crashes are simulated by
// destroying the System mid-script (in-flight envelopes are lost, like
// a real process kill) and, for torn writes, by truncating the WAL at
// every byte offset of its final record.

#include <unistd.h>

#include <cstdint>
#include <functional>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "durability/durability.h"
#include "durability/snapshot.h"
#include "durability/wal.h"
#include "net/wire.h"
#include "runtime/fingerprint.h"
#include "runtime/query.h"
#include "runtime/system.h"
#include "support/builders.h"

namespace wdl {
namespace {

using test::I;

std::string MakeTempRoot() {
  std::string tmpl = ::testing::TempDir() + "/wdl_durability_XXXXXX";
  char* made = ::mkdtemp(tmpl.data());
  EXPECT_NE(made, nullptr);
  return tmpl;
}

/// A kLocalDecl WAL record for data@alice(x) with the given kind and
/// column-type bytes, which the encoder never writes out of range.
std::string DeclRecord(uint8_t kind, uint8_t type) {
  WireEncoder enc;
  enc.PutU8(static_cast<uint8_t>(WalRecordType::kLocalDecl));
  enc.PutString("data");
  enc.PutString("alice");
  enc.PutU8(kind);
  enc.PutU32(1);
  enc.PutString("x");
  enc.PutU8(type);
  return enc.TakeBuffer();
}

// --- WAL unit tests ---------------------------------------------------

// Logs and snapshots already on disk carry this checksum: it must stay
// the standard CRC-32 at every length and alignment.
TEST(WalTest, Crc32MatchesTheStandardChecksum) {
  EXPECT_EQ(Crc32(""), 0x00000000u);
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32("The quick brown fox jumps over the lazy dog"),
            0x414FA339u);
  std::string data(300, '\0');
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<char>(i * 131 + 7);
  }
  for (size_t start = 0; start < 9; ++start) {
    for (size_t len = 0; start + len <= data.size(); len += 7) {
      const std::string_view part = std::string_view(data).substr(start, len);
      uint32_t crc = 0xFFFFFFFFu;  // bit at a time, from the definition
      for (unsigned char ch : part) {
        crc ^= ch;
        for (int k = 0; k < 8; ++k) {
          crc = (crc & 1) ? 0xEDB88320u ^ (crc >> 1) : crc >> 1;
        }
      }
      ASSERT_EQ(Crc32(part), crc ^ 0xFFFFFFFFu) << start << "+" << len;
    }
  }
}

TEST(WalTest, AppendAndReadBack) {
  std::string path = MakeTempRoot() + "/wal.log";
  {
    auto writer = WalWriter::Open(path);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE((*writer)->Append("alpha").ok());
    ASSERT_TRUE((*writer)->Append("").ok());  // empty payloads are legal
    ASSERT_TRUE((*writer)->Append(std::string(5000, 'x')).ok());
    ASSERT_TRUE((*writer)->Sync().ok());
  }
  Result<WalReadResult> read = ReadWalFile(path);
  ASSERT_TRUE(read.ok());
  EXPECT_FALSE(read->torn_tail);
  ASSERT_EQ(read->payloads.size(), 3u);
  EXPECT_EQ(read->payloads[0], "alpha");
  EXPECT_EQ(read->payloads[1], "");
  EXPECT_EQ(read->payloads[2], std::string(5000, 'x'));
}

TEST(WalTest, MissingFileIsEmptyLog) {
  Result<WalReadResult> read =
      ReadWalFile(MakeTempRoot() + "/never-created.log");
  ASSERT_TRUE(read.ok());
  EXPECT_TRUE(read->payloads.empty());
  EXPECT_FALSE(read->torn_tail);
}

TEST(WalTest, CorruptRecordEndsTheReadablePrefix) {
  std::string path = MakeTempRoot() + "/wal.log";
  {
    auto writer = WalWriter::Open(path);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE((*writer)->Append("first").ok());
    ASSERT_TRUE((*writer)->Append("second").ok());
    ASSERT_TRUE((*writer)->Append("third").ok());
  }
  Result<std::string> bytes = ReadEntireFile(path);
  ASSERT_TRUE(bytes.ok());
  // Flip one payload byte of the middle record: its CRC fails, so only
  // the first record survives — a mid-file corruption must not let
  // later records replay against a state missing the damaged one.
  std::string damaged = *bytes;
  damaged[8 + 5 + 8 + 2] ^= 0x40;
  ASSERT_TRUE(AtomicWriteFile(path, damaged).ok());
  Result<WalReadResult> read = ReadWalFile(path);
  ASSERT_TRUE(read.ok());
  EXPECT_TRUE(read->torn_tail);
  ASSERT_EQ(read->payloads.size(), 1u);
  EXPECT_EQ(read->payloads[0], "first");
}

// Truncate the log at every byte offset inside its final record: every
// prefix must read back as exactly the complete frames it contains,
// flagging the remainder as a torn tail (the wire_corruption_test
// truncation-sweep pattern, applied to the log).
TEST(WalTest, TornFinalRecordTruncationSweep) {
  std::string dir = MakeTempRoot();
  std::string path = dir + "/wal.log";
  {
    auto writer = WalWriter::Open(path);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE((*writer)->Append("steady-one").ok());
    ASSERT_TRUE((*writer)->Append("steady-two").ok());
    ASSERT_TRUE((*writer)->Append("the final record, cut short").ok());
  }
  Result<WalReadResult> intact = ReadWalFile(path);
  ASSERT_TRUE(intact.ok());
  ASSERT_EQ(intact->payloads.size(), 3u);
  Result<std::string> bytes = ReadEntireFile(path);
  ASSERT_TRUE(bytes.ok());
  const uint64_t full = bytes->size();
  const uint64_t last_start = intact->offsets[2];
  for (uint64_t cut = last_start; cut < full; ++cut) {
    std::string trimmed = dir + "/trimmed.log";
    ASSERT_TRUE(AtomicWriteFile(trimmed, bytes->substr(0, cut)).ok());
    Result<WalReadResult> read = ReadWalFile(trimmed);
    ASSERT_TRUE(read.ok()) << "cut at " << cut;
    EXPECT_EQ(read->payloads.size(), 2u) << "cut at " << cut;
    EXPECT_EQ(read->valid_bytes, last_start) << "cut at " << cut;
    EXPECT_EQ(read->torn_tail, cut != last_start) << "cut at " << cut;
    EXPECT_EQ(read->dropped_bytes, cut - last_start) << "cut at " << cut;
  }
}

TEST(SnapshotTest, RoundTripAndCorruptionRejected) {
  SnapshotData snap;
  snap.peer = "alice";
  snap.next_rule_id = 7;
  snap.next_seq = 42;
  snap.known_peers = {"bob", "carol"};
  SnapshotData::RelationState rs;
  rs.decl.relation = "data";
  rs.decl.peer = "alice";
  rs.decl.kind = RelationKind::kExtensional;
  rs.decl.columns.resize(1);
  rs.decl.columns[0].name = "x";
  rs.decl.columns[0].type = ValueKind::kInt;
  rs.tuples = {{I(1)}, {I(2)}};
  snap.relations.push_back(rs);
  SnapshotData::StreamState ss;
  ss.relation = "view";
  ss.sender = "bob";
  ss.version = 9;
  ss.tuples = {{I(5)}};
  snap.slices.push_back(ss);
  SnapshotData::SentState sent;
  sent.target_peer = "bob";
  sent.relation = "view";
  sent.version = 4;
  sent.tuples = {{I(6)}};
  snap.sent.push_back(sent);

  std::string bytes = EncodeSnapshot(snap);
  Result<SnapshotData> decoded = DecodeSnapshot(bytes);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->peer, "alice");
  EXPECT_EQ(decoded->next_rule_id, 7u);
  EXPECT_EQ(decoded->next_seq, 42u);
  EXPECT_EQ(decoded->known_peers, snap.known_peers);
  ASSERT_EQ(decoded->relations.size(), 1u);
  EXPECT_EQ(decoded->relations[0].tuples.size(), 2u);
  ASSERT_EQ(decoded->slices.size(), 1u);
  EXPECT_EQ(decoded->slices[0].version, 9u);
  ASSERT_EQ(decoded->sent.size(), 1u);
  EXPECT_EQ(decoded->sent[0].version, 4u);

  for (size_t i = 0; i < bytes.size(); i += 7) {
    std::string damaged = bytes;
    damaged[i] ^= 0x01;
    EXPECT_FALSE(DecodeSnapshot(damaged).ok()) << "flip at " << i;
  }
}

// Kind and column type are enums on disk: a CRC-valid byte outside
// either range is corruption, not a declaration (DESIGN.md §11).
TEST(SnapshotTest, OutOfRangeDeclarationBytesAreRejected) {
  SnapshotData snap;
  snap.peer = "alice";
  SnapshotData::RelationState rs;
  rs.decl.relation = "data";
  rs.decl.peer = "alice";
  rs.decl.kind = RelationKind::kIntensional;
  rs.decl.columns.resize(1);
  rs.decl.columns[0].name = "x";
  rs.decl.columns[0].type = ValueKind::kAny;
  snap.relations.push_back(rs);
  const std::string bytes = EncodeSnapshot(snap);
  ASSERT_TRUE(DecodeSnapshot(bytes).ok());

  // The declaration's kind byte follows its two names; its one column's
  // type byte follows the column count and name. Patch one, then
  // re-seal the CRC over the payload so only the range check can fail.
  WireEncoder names;
  names.PutString("data");
  names.PutString("alice");
  const size_t kind_at = bytes.find(names.buffer(), 14) + names.buffer().size();
  ASSERT_EQ(bytes[kind_at], 1);
  const size_t type_at = kind_at + 1 + 4 + 4 + 1;
  ASSERT_EQ(bytes[type_at], 4);
  auto patched = [&](size_t at, uint8_t value) {
    std::string out = bytes;
    out[at] = static_cast<char>(value);
    WireEncoder crc;
    crc.PutU32(Crc32(std::string_view(out).substr(14)));
    return out.replace(6, 4, crc.buffer());
  };
  EXPECT_TRUE(DecodeSnapshot(patched(kind_at, 0)).ok());
  EXPECT_TRUE(DecodeSnapshot(patched(type_at, 0)).ok());
  Result<SnapshotData> bad_kind = DecodeSnapshot(patched(kind_at, 7));
  ASSERT_FALSE(bad_kind.ok());
  EXPECT_NE(bad_kind.status().message().find("relation kind 7"),
            std::string::npos) << bad_kind.status();
  Result<SnapshotData> bad_type = DecodeSnapshot(patched(type_at, 200));
  ASSERT_FALSE(bad_type.ok());
  EXPECT_NE(bad_type.status().message().find("column type 200"),
            std::string::npos) << bad_type.status();
}

TEST(WalRecordTest, OutOfRangeDeclarationBytesAreRejected) {
  for (uint8_t kind = 0; kind <= 1; ++kind) {
    for (uint8_t type = 0; type <= 4; ++type) {
      Result<WalRecord> decl = DecodeWalRecord(DeclRecord(kind, type));
      ASSERT_TRUE(decl.ok()) << decl.status();
      EXPECT_EQ(static_cast<uint8_t>(decl->decl.kind), kind);
      EXPECT_EQ(static_cast<uint8_t>(decl->decl.columns[0].type), type);
    }
  }
  for (uint8_t kind : {uint8_t{2}, uint8_t{7}, uint8_t{255}}) {
    EXPECT_FALSE(DecodeWalRecord(DeclRecord(kind, 0)).ok()) << int{kind};
  }
  for (uint8_t type : {uint8_t{5}, uint8_t{200}, uint8_t{255}}) {
    EXPECT_FALSE(DecodeWalRecord(DeclRecord(0, type)).ok()) << int{type};
  }
}

TEST(WalRecordTest, AllTypesRoundTrip) {
  std::vector<WalRecord> records;
  {
    WalRecord r;
    r.type = WalRecordType::kEnvelope;
    r.envelope.from = "bob";
    r.envelope.to = "alice";
    r.envelope.seq = 3;
    r.envelope.message = Message::FactInserts({Fact("data", "alice", {I(1)})});
    records.push_back(r);
  }
  {
    WalRecord r;
    r.type = WalRecordType::kLocalFactInsert;
    r.fact = Fact("data", "alice", {I(2)});
    records.push_back(r);
    r.type = WalRecordType::kLocalFactDelete;
    records.push_back(r);
  }
  {
    WalRecord r;
    r.type = WalRecordType::kLocalDecl;
    r.decl.relation = "data";
    r.decl.peer = "alice";
    r.decl.kind = RelationKind::kExtensional;
    r.decl.columns.resize(2);
    r.decl.columns[0].name = "x";
    r.decl.columns[0].type = ValueKind::kInt;
    r.decl.columns[1].name = "who";
    r.decl.columns[1].type = ValueKind::kString;
    records.push_back(r);
  }
  {
    WalRecord r;
    r.type = WalRecordType::kLocalRuleRemove;
    r.id = 12;
    records.push_back(r);
    r.type = WalRecordType::kDelegationApprove;
    records.push_back(r);
    r.type = WalRecordType::kDelegationReject;
    records.push_back(r);
  }
  {
    WalRecord r;
    r.type = WalRecordType::kStageOutbound;
    DerivedDelta d;
    d.target_peer = "bob";
    d.relation = "view";
    d.base_version = 2;
    d.version = 3;
    d.inserts = {{I(7)}};
    d.deletes = {{I(6)}};
    r.shipped_deltas.push_back(d);
    r.shipped_delegation_retracts = {99, 100};
    records.push_back(r);
  }
  for (const WalRecord& r : records) {
    std::string bytes = EncodeWalRecord(r);
    Result<WalRecord> decoded = DecodeWalRecord(bytes);
    ASSERT_TRUE(decoded.ok()) << WalRecordTypeToString(r.type) << ": "
                              << decoded.status();
    EXPECT_EQ(decoded->type, r.type);
    EXPECT_EQ(EncodeWalRecord(*decoded), bytes)
        << WalRecordTypeToString(r.type);
  }
  EXPECT_FALSE(DecodeWalRecord("").ok());
  // Unknown record type.
  EXPECT_FALSE(DecodeWalRecord("\x7F").ok());
  // Valid record followed by trailing garbage.
  WalRecord rr;
  rr.type = WalRecordType::kLocalRuleRemove;
  rr.id = 1;
  EXPECT_FALSE(DecodeWalRecord(EncodeWalRecord(rr) + "x").ok());
}

// --- peer recovery scenarios -----------------------------------------

/// One scripted step against the live system; peers are looked up by
/// name so the script can be replayed against a recovered system.
using Op = std::function<void(System&)>;

SystemOptions DurableSystemOptions(const std::string& root) {
  SystemOptions o;
  o.durability_root = root;
  // Interval 1 would heartbeat on every round and RunUntilQuiescent
  // could never observe an empty round.
  o.heartbeat_interval_rounds = 2;
  return o;
}

Fact DataFact(const std::string& peer, int64_t x) {
  return Fact("data", peer, {I(x)});
}

/// The shared two-peer script: declarations, a remote-headed rule
/// (contribution streams), a delegating rule (residual rule installed
/// at bob), inserts, deletes, and interleaved convergence points.
std::vector<Op> TwoPeerScript() {
  std::vector<Op> ops;
  ops.push_back([](System& s) {
    ASSERT_TRUE(s.GetPeer("alice")
                    ->LoadProgramText("collection ext data@alice(x: int);"
                                      "collection int both@alice(x: int);")
                    .ok());
  });
  ops.push_back([](System& s) {
    ASSERT_TRUE(s.GetPeer("bob")
                    ->LoadProgramText("collection ext data@bob(x: int);"
                                      "collection int view@bob(x: int);")
                    .ok());
  });
  ops.push_back([](System& s) {
    ASSERT_TRUE(s.GetPeer("alice")
                    ->AddRuleText("rule view@bob($x) :- data@alice($x);")
                    .ok());
  });
  ops.push_back([](System& s) {
    for (int64_t x = 1; x <= 3; ++x) {
      ASSERT_TRUE(s.GetPeer("alice")->Insert(DataFact("alice", x)).ok());
    }
  });
  ops.push_back([](System& s) {
    for (int64_t x = 2; x <= 4; ++x) {
      ASSERT_TRUE(s.GetPeer("bob")->Insert(DataFact("bob", x)).ok());
    }
  });
  ops.push_back([](System& s) { ASSERT_TRUE(s.RunUntilQuiescent().ok()); });
  ops.push_back([](System& s) {
    // Body spans both peers: the bob-resident part delegates.
    ASSERT_TRUE(s.GetPeer("alice")
                    ->AddRuleText(
                        "rule both@alice($x) :- data@alice($x), data@bob($x);")
                    .ok());
  });
  ops.push_back([](System& s) { ASSERT_TRUE(s.RunUntilQuiescent().ok()); });
  ops.push_back([](System& s) {
    ASSERT_TRUE(s.GetPeer("alice")->Insert(DataFact("alice", 5)).ok());
    ASSERT_TRUE(s.GetPeer("bob")->Insert(DataFact("bob", 5)).ok());
  });
  ops.push_back([](System& s) {
    ASSERT_TRUE(s.GetPeer("alice")->Remove(DataFact("alice", 2)).ok());
  });
  ops.push_back([](System& s) { ASSERT_TRUE(s.RunUntilQuiescent().ok()); });
  ops.push_back([](System& s) {
    ASSERT_TRUE(s.GetPeer("bob")->Insert(DataFact("bob", 1)).ok());
    ASSERT_TRUE(s.GetPeer("alice")->Insert(DataFact("alice", 4)).ok());
  });
  return ops;
}

void CreateScriptPeers(System& system) {
  PeerOptions options;
  options.trust_all_delegations = true;
  system.CreatePeer("alice", options);
  system.CreatePeer("bob", options);
}

/// Converges a possibly-just-recovered system: plain rounds first so
/// heartbeats fire and any post-crash stream gaps get detected and
/// repaired, then drain to quiescence.
void SettleWithHeartbeats(System& system) {
  for (int pass = 0; pass < 3; ++pass) {
    for (int i = 0; i < 6; ++i) system.RunRound();
    ASSERT_TRUE(system.RunUntilQuiescent().ok());
  }
}

/// Runs the script start-to-finish with no crash and returns the
/// converged fingerprint — the oracle every crashed run must match.
std::string NeverCrashedFingerprint(const std::vector<Op>& ops,
                                    bool durable) {
  std::string root = MakeTempRoot();
  SystemOptions sys =
      durable ? DurableSystemOptions(root) : SystemOptions{};
  sys.heartbeat_interval_rounds = 2;
  System system(sys);
  CreateScriptPeers(system);
  for (const Op& op : ops) {
    op(system);
    if (::testing::Test::HasFatalFailure()) return "";
  }
  SettleWithHeartbeats(system);
  return GlobalStateFingerprint(system);
}

// Kill the whole process group at every script position: run ops
// [0, crash_at), destroy the System (in-flight envelopes die with it),
// recover a fresh System over the same data dirs, run the remaining
// ops, converge. Every run must land on the never-crashed twin's
// fingerprint.
TEST(DurabilityRecoveryTest, CrashAtEveryScriptPositionConverges) {
  std::vector<Op> ops = TwoPeerScript();
  std::string oracle = NeverCrashedFingerprint(ops, /*durable=*/false);
  ASSERT_FALSE(oracle.empty());

  for (size_t crash_at = 0; crash_at <= ops.size(); ++crash_at) {
    SCOPED_TRACE("crash after op " + std::to_string(crash_at));
    std::string root = MakeTempRoot();
    {
      System system(DurableSystemOptions(root));
      CreateScriptPeers(system);
      for (size_t i = 0; i < crash_at; ++i) ops[i](system);
      ASSERT_FALSE(::testing::Test::HasFatalFailure());
      // System (and its network, with anything still in flight) is
      // destroyed here without any orderly shutdown: the crash.
    }
    System recovered(DurableSystemOptions(root));
    CreateScriptPeers(recovered);
    for (size_t i = crash_at; i < ops.size(); ++i) ops[i](recovered);
    ASSERT_FALSE(::testing::Test::HasFatalFailure());
    SettleWithHeartbeats(recovered);
    EXPECT_EQ(GlobalStateFingerprint(recovered), oracle);
  }
}

// The acceptance bar for clean restarts: recovery must converge from
// the log alone — zero resync requests, zero inbound snapshots applied
// — because nothing was in flight when the processes died.
TEST(DurabilityRecoveryTest, CleanShutdownRecoversWithoutAnyResync) {
  std::vector<Op> ops = TwoPeerScript();
  std::string root = MakeTempRoot();
  std::string before;
  {
    System system(DurableSystemOptions(root));
    CreateScriptPeers(system);
    for (const Op& op : ops) op(system);
    ASSERT_FALSE(::testing::Test::HasFatalFailure());
    SettleWithHeartbeats(system);
    before = GlobalStateFingerprint(system);
  }
  System recovered(DurableSystemOptions(root));
  CreateScriptPeers(recovered);
  EXPECT_TRUE(recovered.GetPeer("alice")->recovered());
  EXPECT_TRUE(recovered.GetPeer("bob")->recovered());
  SettleWithHeartbeats(recovered);
  EXPECT_EQ(GlobalStateFingerprint(recovered), before);
  for (const char* name : {"alice", "bob"}) {
    const PropagationCounters& pc =
        recovered.GetPeer(name)->engine().propagation_counters();
    EXPECT_EQ(pc.resyncs_requested, 0u) << name;
    EXPECT_EQ(pc.snapshots_applied, 0u) << name;
  }
}

// Only an engine's first stage is full. A recovered peer's engine runs
// one; rule installs and retracts, local and delegated, and an edit of
// a relation read under negation after the restart run none.
TEST(DurabilityRecoveryTest, RecoveredPeersRunOneFullStage) {
  std::vector<Op> ops = TwoPeerScript();
  std::string root = MakeTempRoot();
  {
    System system(DurableSystemOptions(root));
    CreateScriptPeers(system);
    for (const Op& op : ops) op(system);
    ASSERT_FALSE(::testing::Test::HasFatalFailure());
    SettleWithHeartbeats(system);
  }
  System recovered(DurableSystemOptions(root));
  CreateScriptPeers(recovered);
  Peer* alice = recovered.GetPeer("alice");
  Peer* bob = recovered.GetPeer("bob");
  auto expect_one_full_stage = [&](const char* step) {
    SettleWithHeartbeats(recovered);
    for (Peer* peer : {alice, bob}) {
      EXPECT_EQ(peer->engine().eval_counters().stages_full, 1u)
          << step << " at " << peer->name();
    }
  };
  expect_one_full_stage("recovery");
  ASSERT_TRUE(bob->LoadProgramText(
                     "collection ext hidden@bob(x: int);"
                     "collection int shown@bob(x: int);"
                     "rule shown@bob($x) :- view@bob($x), not hidden@bob($x);")
                  .ok());
  expect_one_full_stage("negated rule install");
  ASSERT_TRUE(bob->Insert(Fact("hidden", "bob", {I(3)})).ok());
  expect_one_full_stage("negated edit");
  EXPECT_FALSE(bob->engine().catalog().Get("shown")->Contains({I(3)}));
  EXPECT_TRUE(bob->engine().catalog().Get("shown")->Contains({I(1)}));
  Result<uint64_t> both = alice->AddRuleText(
      "rule both@alice($x) :- data@alice($x), data@bob($x), data@alice($x);");
  ASSERT_TRUE(both.ok());
  expect_one_full_stage("delegating rule install");
  ASSERT_TRUE(alice->RemoveRule(*both).ok());
  expect_one_full_stage("delegating rule retract");
}

// A peer that wrote nothing durable yet must recover as a blank slate
// (no snapshot, no WAL) and work normally afterwards.
TEST(DurabilityRecoveryTest, EmptyDataDirIsAFreshPeer) {
  std::string root = MakeTempRoot();
  { System system(DurableSystemOptions(root)); CreateScriptPeers(system); }
  System again(DurableSystemOptions(root));
  CreateScriptPeers(again);
  Peer* alice = again.GetPeer("alice");
  EXPECT_FALSE(alice->recovered());
  ASSERT_TRUE(alice->durability_status().ok());
  ASSERT_TRUE(
      alice->LoadProgramText("collection ext data@alice(x: int);").ok());
  ASSERT_TRUE(alice->Insert(DataFact("alice", 1)).ok());
  ASSERT_TRUE(again.RunUntilQuiescent().ok());
}

// With snapshot_interval_records = 1 every stage rotates the log, so
// recovery is snapshot-driven with an (almost) empty WAL suffix.
TEST(DurabilityRecoveryTest, SnapshotOnlyRecovery) {
  std::vector<Op> ops = TwoPeerScript();
  std::string root = MakeTempRoot();
  std::string before;
  {
    SystemOptions sys = DurableSystemOptions(root);
    sys.durability.snapshot_interval_records = 1;
    System system(sys);
    CreateScriptPeers(system);
    for (const Op& op : ops) op(system);
    ASSERT_FALSE(::testing::Test::HasFatalFailure());
    SettleWithHeartbeats(system);
    before = GlobalStateFingerprint(system);
    EXPECT_GT(
        system.GetPeer("alice")->durability()->counters().snapshots_written,
        0u);
  }
  System recovered(DurableSystemOptions(root));
  CreateScriptPeers(recovered);
  ASSERT_TRUE(recovered.GetPeer("alice")->recovered());
  EXPECT_TRUE(recovered.GetPeer("alice")
                  ->durability()
                  ->counters()
                  .snapshot_recovered);
  SettleWithHeartbeats(recovered);
  EXPECT_EQ(GlobalStateFingerprint(recovered), before);
}

// Re-appending an already-replayed WAL suffix (a crash between
// snapshot rename and log rotation can replay covered records) must
// not change the recovered state: every record type is idempotent.
TEST(DurabilityRecoveryTest, DuplicateReplayIsIdempotent) {
  std::vector<Op> ops = TwoPeerScript();
  std::string root = MakeTempRoot();
  std::string before;
  {
    System system(DurableSystemOptions(root));
    CreateScriptPeers(system);
    for (const Op& op : ops) op(system);
    ASSERT_FALSE(::testing::Test::HasFatalFailure());
    SettleWithHeartbeats(system);
    before = GlobalStateFingerprint(system);
  }
  for (const char* name : {"alice", "bob"}) {
    std::string wal = root + "/" + name + "/wal-0.log";
    Result<WalReadResult> read = ReadWalFile(wal);
    ASSERT_TRUE(read.ok());
    ASSERT_FALSE(read->payloads.empty()) << name;
    auto writer = WalWriter::Open(wal);
    ASSERT_TRUE(writer.ok());
    for (const std::string& payload : read->payloads) {
      ASSERT_TRUE((*writer)->Append(payload).ok());
    }
  }
  System recovered(DurableSystemOptions(root));
  CreateScriptPeers(recovered);
  SettleWithHeartbeats(recovered);
  EXPECT_EQ(GlobalStateFingerprint(recovered), before);
}

// Truncate alice's WAL mid-final-record before recovery: the torn tail
// is dropped, recovery proceeds from the clean prefix, and the
// protocol (heartbeats -> resync) repairs whatever the lost suffix
// covered.
TEST(DurabilityRecoveryTest, TornFinalRecordIsDroppedAndRepaired) {
  std::vector<Op> ops = TwoPeerScript();
  std::string oracle = NeverCrashedFingerprint(ops, /*durable=*/false);
  std::string root = MakeTempRoot();
  {
    System system(DurableSystemOptions(root));
    CreateScriptPeers(system);
    for (const Op& op : ops) op(system);
    ASSERT_FALSE(::testing::Test::HasFatalFailure());
    SettleWithHeartbeats(system);
  }
  std::string wal = root + "/alice/wal-0.log";
  Result<std::string> bytes = ReadEntireFile(wal);
  ASSERT_TRUE(bytes.ok());
  ASSERT_GT(bytes->size(), 3u);
  ASSERT_TRUE(TruncateFile(wal, bytes->size() - 3).ok());

  System recovered(DurableSystemOptions(root));
  CreateScriptPeers(recovered);
  ASSERT_TRUE(recovered.GetPeer("alice")->durability_status().ok());
  EXPECT_TRUE(recovered.GetPeer("alice")
                  ->durability()
                  ->counters()
                  .torn_tail_truncated);
  SettleWithHeartbeats(recovered);
  EXPECT_EQ(GlobalStateFingerprint(recovered), oracle);
}

// A WAL written before a message was retired can hold an envelope
// record of its type: 2, the full-slice message, or 8, the stream-forget
// notice. Its frame passes the CRC, but the payload no longer decodes.
// Recovery must fail loudly, naming the record, and leave the log
// byte-identical — skipping it (and every later record) would silently
// drop durable state — so a durable host such as wdl_peerd refuses to
// start.
TEST(DurabilityRecoveryTest, RetiredMessageRecordFailsRecovery) {
  auto frame = [](const std::string& payload) {  // length | CRC | payload
    uint32_t header[2] = {static_cast<uint32_t>(payload.size()),
                          Crc32(payload)};
    return std::string(reinterpret_cast<const char*>(header),
                       sizeof(header)) + payload;
  };
  WalRecord insert;
  insert.type = WalRecordType::kLocalFactInsert;
  insert.fact = Fact("data", "alice", {I(1)});
  WireEncoder full_slice;  // its payload: target, relation, tuples
  full_slice.PutString("alice");
  full_slice.PutString("view");
  full_slice.PutU32(1);
  full_slice.PutTuple({I(7)});
  WireEncoder stream_forget;  // its payload: one relation name
  stream_forget.PutString("__query_0");

  for (const auto& [type, payload] :
       {std::pair(kRetiredFullSliceType, full_slice.buffer()),
        std::pair(kRetiredForgetNoticeType, stream_forget.buffer())}) {
    SCOPED_TRACE(static_cast<int>(type));
    WireEncoder retired;  // envelope fields after the magic and version
    retired.PutString("bob");
    retired.PutString("alice");
    retired.PutU64(0);  // seq
    retired.PutU8(type);
    std::string record = std::string(1, static_cast<char>(
                             WalRecordType::kEnvelope)) +
                         "WDLM\x01" + std::string(1, '\0') +
                         retired.buffer() + payload;

    std::string root = MakeTempRoot();
    std::string wal = root + "/wal-0.log";
    const std::string bytes = frame(EncodeWalRecord(insert)) +
                              frame(record) + frame(EncodeWalRecord(insert));
    ASSERT_TRUE(AtomicWriteFile(wal, bytes).ok());
    ASSERT_EQ(ReadWalFile(wal)->payloads.size(), 3u);  // every CRC matches

    DurabilityOptions options;
    options.dir = root;
    auto opened = PeerDurability::Open(options);
    ASSERT_FALSE(opened.ok());
    EXPECT_NE(opened.status().message().find("WAL record 1 "),
              std::string::npos) << opened.status();
    EXPECT_EQ(*ReadEntireFile(wal), bytes);

    PeerOptions peer_options;
    peer_options.durability = options;
    Peer peer("alice", peer_options);
    EXPECT_FALSE(peer.durability_status().ok());
    EXPECT_EQ(*ReadEntireFile(wal), bytes);
  }
}

TEST(DurabilityRecoveryTest, OutOfRangeDeclarationRecordFailsRecovery) {
  auto frame = [](const std::string& payload) {  // length | CRC | payload
    uint32_t header[2] = {static_cast<uint32_t>(payload.size()),
                          Crc32(payload)};
    return std::string(reinterpret_cast<const char*>(header),
                       sizeof(header)) + payload;
  };
  WalRecord insert;
  insert.type = WalRecordType::kLocalFactInsert;
  insert.fact = Fact("data", "alice", {I(1)});
  const std::vector<std::pair<std::string, std::string>> bad = {
      {DeclRecord(7, 0), "relation kind 7"},
      {DeclRecord(0, 200), "column type 200"},
  };
  for (const auto& [record, what] : bad) {
    std::string root = MakeTempRoot();
    std::string wal = root + "/wal-0.log";
    const std::string bytes = frame(EncodeWalRecord(insert)) + frame(record);
    ASSERT_TRUE(AtomicWriteFile(wal, bytes).ok());
    ASSERT_EQ(ReadWalFile(wal)->payloads.size(), 2u);  // both CRCs match

    DurabilityOptions options;
    options.dir = root;
    auto opened = PeerDurability::Open(options);
    ASSERT_FALSE(opened.ok()) << what;
    EXPECT_NE(opened.status().message().find("WAL record 1 "),
              std::string::npos) << opened.status();
    EXPECT_NE(opened.status().message().find(what), std::string::npos)
        << opened.status();
    EXPECT_EQ(*ReadEntireFile(wal), bytes);
  }
}

// The headline recovery property: a receiver that missed deltas while
// it was "down" (here: a fully lossy link) repairs EXACTLY the gapped
// stream on restart — one resync, one applied snapshot, not a blanket
// re-send of every relation.
TEST(DurabilityRecoveryTest, RecoveryResyncsOnlyTheGappedStream) {
  std::string root = MakeTempRoot();
  auto load = [](System& s) {
    ASSERT_TRUE(s.GetPeer("alice")
                    ->LoadProgramText("collection ext data@alice(x: int);")
                    .ok());
    ASSERT_TRUE(s.GetPeer("bob")
                    ->LoadProgramText("collection int view@bob(x: int);"
                                      "collection int tally@bob(x: int);")
                    .ok());
    ASSERT_TRUE(s.GetPeer("alice")
                    ->AddRuleText("rule view@bob($x) :- data@alice($x);")
                    .ok());
  };
  // Phase 1: converge healthy, shut down cleanly.
  {
    System system(DurableSystemOptions(root));
    CreateScriptPeers(system);
    load(system);
    ASSERT_FALSE(::testing::Test::HasFatalFailure());
    for (int64_t x = 1; x <= 3; ++x) {
      ASSERT_TRUE(system.GetPeer("alice")->Insert(DataFact("alice", x)).ok());
    }
    ASSERT_TRUE(system.RunUntilQuiescent().ok());
  }
  // Phase 2: alice advances her stream while every frame to bob is
  // lost — bob's applied version falls behind alice's logged one.
  {
    SystemOptions sys = DurableSystemOptions(root);
    sys.heartbeat_interval_rounds = 0;  // heartbeats would never arrive
    System system(sys);
    CreateScriptPeers(system);
    LinkConfig lossy;
    lossy.drop_probability = 1.0;
    system.network().SetLink("alice", "bob", lossy);
    ASSERT_TRUE(system.GetPeer("alice")->Insert(DataFact("alice", 9)).ok());
    for (int i = 0; i < 6; ++i) system.RunRound();
  }
  // Phase 3: healthy restart. Bob heartbeat-detects the one gapped
  // stream and requests exactly one resync.
  System recovered(DurableSystemOptions(root));
  CreateScriptPeers(recovered);
  ASSERT_TRUE(recovered.GetPeer("bob")->recovered());
  SettleWithHeartbeats(recovered);
  const PropagationCounters& bob =
      recovered.GetPeer("bob")->engine().propagation_counters();
  EXPECT_EQ(bob.resyncs_requested, 1u);
  EXPECT_EQ(bob.snapshots_applied, 1u);
  const Relation* view =
      recovered.GetPeer("bob")->engine().catalog().Get("view");
  ASSERT_NE(view, nullptr);
  EXPECT_EQ(view->size(), 4u);  // 1..3 plus the delayed 9
}

// Delegation control-plane decisions survive: a pending delegation is
// restored into the gate, and an approval is replayed so the rule is
// installed after recovery.
TEST(DurabilityRecoveryTest, PendingDelegationAndApprovalSurvive) {
  std::string root = MakeTempRoot();
  auto create = [](System& s) {
    PeerOptions alice_opts;
    alice_opts.trust_all_delegations = true;
    s.CreatePeer("alice", alice_opts);
    s.CreatePeer("bob");  // untrusting: delegations queue at the gate
  };
  {
    System system(DurableSystemOptions(root));
    create(system);
    ASSERT_TRUE(system.GetPeer("alice")
                    ->LoadProgramText("collection ext data@alice(x: int);"
                                      "collection int both@alice(x: int);")
                    .ok());
    ASSERT_TRUE(system.GetPeer("bob")
                    ->LoadProgramText("collection ext data@bob(x: int);")
                    .ok());
    ASSERT_TRUE(system.GetPeer("alice")
                    ->AddRuleText(
                        "rule both@alice($x) :- data@alice($x), data@bob($x);")
                    .ok());
    ASSERT_TRUE(system.GetPeer("alice")->Insert(DataFact("alice", 1)).ok());
    ASSERT_TRUE(system.GetPeer("bob")->Insert(DataFact("bob", 1)).ok());
    ASSERT_TRUE(system.RunUntilQuiescent().ok());
    ASSERT_EQ(system.GetPeer("bob")->gate().pending_count(), 1u);
  }
  // Crash with the delegation still pending; it must come back.
  uint64_t key = 0;
  {
    System recovered(DurableSystemOptions(root));
    create(recovered);
    Peer* bob = recovered.GetPeer("bob");
    ASSERT_EQ(bob->gate().pending_count(), 1u);
    key = bob->gate().Pending()[0]->Key();
    ASSERT_TRUE(bob->ApproveDelegation(key).ok());
    ASSERT_TRUE(recovered.RunUntilQuiescent().ok());
    const Relation* both =
        recovered.GetPeer("alice")->engine().catalog().Get("both");
    ASSERT_NE(both, nullptr);
    EXPECT_EQ(both->size(), 1u);
  }
  // Crash again after the approval: the installed rule must survive.
  System again(DurableSystemOptions(root));
  create(again);
  EXPECT_EQ(again.GetPeer("bob")->gate().pending_count(), 0u);
  SettleWithHeartbeats(again);
  const Relation* both = again.GetPeer("alice")->engine().catalog().Get("both");
  ASSERT_NE(both, nullptr);
  EXPECT_EQ(both->size(), 1u);
}

// Durable and memory-only must be byte-identical when nothing crashes:
// the WAL is an oracle-pattern addition, not a semantic change.
TEST(DurabilityRecoveryTest, DurableRunMatchesMemoryOnlyRun) {
  std::vector<Op> ops = TwoPeerScript();
  std::string memory_only = NeverCrashedFingerprint(ops, /*durable=*/false);
  std::string durable = NeverCrashedFingerprint(ops, /*durable=*/true);
  ASSERT_FALSE(memory_only.empty());
  EXPECT_EQ(memory_only, durable);
}

// Recovery under immediate churn: new writes racing the repair
// machinery right after restart must not corrupt convergence.
TEST(DurabilityRecoveryTest, RecoveryWithImmediateChurnConverges) {
  std::vector<Op> ops = TwoPeerScript();
  std::string root = MakeTempRoot();
  {
    System system(DurableSystemOptions(root));
    CreateScriptPeers(system);
    for (size_t i = 0; i < 6; ++i) ops[i](system);
    ASSERT_FALSE(::testing::Test::HasFatalFailure());
    // Crash with traffic in flight (no settling).
    ops[8](system);
  }
  System recovered(DurableSystemOptions(root));
  CreateScriptPeers(recovered);
  // Churn immediately, before any round has run.
  for (int64_t x = 20; x < 24; ++x) {
    ASSERT_TRUE(recovered.GetPeer("alice")->Insert(DataFact("alice", x)).ok());
  }
  for (size_t i = 6; i < ops.size(); ++i) ops[i](recovered);
  ASSERT_FALSE(::testing::Test::HasFatalFailure());
  SettleWithHeartbeats(recovered);

  // Twin: same total op set, no crash.
  std::string twin_root = MakeTempRoot();
  System twin(DurableSystemOptions(twin_root));
  CreateScriptPeers(twin);
  for (size_t i = 0; i < 6; ++i) ops[i](twin);
  ops[8](twin);
  for (int64_t x = 20; x < 24; ++x) {
    ASSERT_TRUE(twin.GetPeer("alice")->Insert(DataFact("alice", x)).ok());
  }
  for (size_t i = 6; i < ops.size(); ++i) ops[i](twin);
  ASSERT_FALSE(::testing::Test::HasFatalFailure());
  SettleWithHeartbeats(twin);
  EXPECT_EQ(GlobalStateFingerprint(recovered), GlobalStateFingerprint(twin));
}

// With heartbeats off (the default), nothing arrives to wake a
// recovered peer: only its own first stage rebuilds its views, so
// CreatePeer must put a peer that recovery gave an engine on the ready
// set. (The scenarios above heartbeat every 2 rounds, and a heartbeat
// delivery wakes a recovered peer by itself.)
TEST(DurabilityRecoveryTest, RestartWithoutHeartbeatsRebuildsLocalView) {
  std::string root = MakeTempRoot();
  SystemOptions options;
  options.durability_root = root;
  ASSERT_EQ(options.heartbeat_interval_rounds, 0);
  std::string before;
  {
    System system(options);
    Peer* alice = system.CreatePeer("alice");
    ASSERT_TRUE(alice
                    ->LoadProgramText("collection ext data@alice(x: int);"
                                      "collection int view@alice(x: int);"
                                      "rule view@alice($x) :- data@alice($x);")
                    .ok());
    for (int64_t x = 1; x <= 3; ++x) {
      ASSERT_TRUE(alice->Insert(DataFact("alice", x)).ok());
    }
    ASSERT_TRUE(system.RunUntilQuiescent().ok());
    before = GlobalStateFingerprint(system);
  }
  System recovered(options);
  Peer* alice = recovered.CreatePeer("alice");
  ASSERT_TRUE(alice->recovered());
  ASSERT_TRUE(recovered.RunUntilQuiescent().ok());
  const Relation* view = alice->engine().catalog().Get("view");
  ASSERT_NE(view, nullptr);
  EXPECT_EQ(view->size(), 3u);
  EXPECT_EQ(GlobalStateFingerprint(recovered), before);
}

// --- distributed queries on durable peers ----------------------------

/// Two durable peers that trust each other, one like each.
void LoadLikes(System& system) {
  ASSERT_TRUE(system.GetPeer("alice")
                  ->LoadProgramText(
                      "collection ext likes@alice(who: string, what: string);"
                      "fact likes@alice(\"alice\", \"jazz\");")
                  .ok());
  ASSERT_TRUE(system.GetPeer("bob")
                  ->LoadProgramText(
                      "collection ext likes@bob(who: string, what: string);"
                      "fact likes@bob(\"bob\", \"jazz\");")
                  .ok());
  ASSERT_TRUE(system.RunUntilQuiescent().ok());
}

/// Fails the test for any rule a query left behind at `name`: a local
/// rule writing a query scratch view, or a delegated residual.
void ExpectNoQueryRules(System& system, const std::string& name) {
  for (const InstalledRule* ir : system.GetPeer(name)->engine().rules()) {
    EXPECT_EQ(ir->delegation_key, 0u) << name << ": " << ir->rule.ToString();
    EXPECT_NE(ir->rule.head.relation.name().rfind("__query", 0), 0u)
        << name << ": " << ir->rule.ToString();
  }
}

/// Where alice's newest snapshot under `root` falls against one
/// distributed query of arity 3: "none", "before" the scratch view was
/// declared, "inside" (it holds the query rule) or "after".
std::string SnapshotPhase(const std::string& root) {
  DurabilityOptions options;
  options.dir = root + "/alice";
  Result<std::unique_ptr<PeerDurability>> opened =
      PeerDurability::Open(options);
  if (!opened.ok()) return opened.status().ToString();
  const SnapshotData* snap = (*opened)->snapshot();
  if (snap == nullptr) return "none";
  for (const SnapshotData::RuleState& rule : snap->rules) {
    if (rule.rule.head.relation.name() == "__query_3") return "inside";
  }
  for (const SnapshotData::RelationState& rs : snap->relations) {
    if (rs.decl.relation == "__query_3") return "after";
  }
  return "before";
}

// A distributed query declares its scratch view, installs its rule and
// removes it through the Peer, so a durable peer logs all three, and
// the streams into the view outlive the query. A restart then recovers
// the state the query left — the same fingerprint, no rule or residual
// — and the same query asked again continues those streams: the same
// rows, no resync. The snapshot intervals put alice's last snapshot
// before, inside and after the query, and nowhere.
TEST(DurabilityRecoveryTest, DistributedQueryAnswersTheSameAfterRestart) {
  const std::string body = "likes@alice($me, $x), likes@bob($o, $x)";
  const std::vector<Tuple> rows = {{test::S("alice"), test::S("jazz"),
                                    test::S("bob")}};
  std::set<std::string> phases;
  for (uint64_t interval = 0; interval <= 12; ++interval) {
    SCOPED_TRACE("snapshot interval " + std::to_string(interval));
    std::string root = MakeTempRoot();
    SystemOptions options = DurableSystemOptions(root);
    options.durability.snapshot_interval_records = interval;
    std::string before;
    {
      System system(options);
      CreateScriptPeers(system);
      LoadLikes(system);
      // Enough unrelated writes that a snapshot can fall before the
      // query and not again inside it.
      for (int64_t x = 1; x <= 8; ++x) {
        ASSERT_TRUE(system.GetPeer("alice")->Insert(DataFact("alice", x)).ok());
      }
      ASSERT_TRUE(system.RunUntilQuiescent().ok());
      Result<QueryResult> first = RunQuery(&system, "alice", body);
      ASSERT_TRUE(first.ok()) << first.status();
      EXPECT_EQ(first->rows, rows);
      SettleWithHeartbeats(system);
      before = GlobalStateFingerprint(system);
    }
    phases.insert(SnapshotPhase(root));

    System recovered(options);
    CreateScriptPeers(recovered);
    SettleWithHeartbeats(recovered);
    EXPECT_EQ(GlobalStateFingerprint(recovered), before);
    Result<QueryResult> again = RunQuery(&recovered, "alice", body);
    ASSERT_TRUE(again.ok()) << again.status();
    EXPECT_EQ(again->rows, rows);
    SettleWithHeartbeats(recovered);
    for (const char* name : {"alice", "bob"}) {
      const PropagationCounters& pc =
          recovered.GetPeer(name)->engine().propagation_counters();
      EXPECT_EQ(pc.resyncs_requested, 0u) << name;
      EXPECT_EQ(pc.snapshots_applied, 0u) << name;
      ExpectNoQueryRules(recovered, name);
    }
  }
  EXPECT_EQ(phases, (std::set<std::string>{"none", "before", "inside",
                                           "after"}));
}

// A crash in the middle of a distributed query leaves its rule in
// alice's log and its residual in bob's, and recovery restores both.
// The next query of the same arity — the interrupted one again, or
// another — removes them and returns only its own rows.
TEST(DurabilityRecoveryTest, InterruptedQueryLeavesNothingBehind) {
  using test::S;
  const std::vector<std::pair<std::string, std::vector<Tuple>>> next = {
      {"likes@alice($me, $x), likes@bob($o, $x)",
       {{S("alice"), S("jazz"), S("bob")}}},
      {"likes@bob($o, $x), likes@alice($me, $x)",
       {{S("bob"), S("jazz"), S("alice")}}},
  };
  for (const auto& [body, rows] : next) {
    SCOPED_TRACE(body);
    std::string root = MakeTempRoot();
    {
      System system(DurableSystemOptions(root));
      CreateScriptPeers(system);
      LoadLikes(system);
      // What a query of "likes@alice($me, $x), likes@bob($o, $x)"
      // installs; the crash comes before its teardown.
      ASSERT_TRUE(system.GetPeer("alice")
                      ->LoadProgramText(
                          "collection int __query_3@alice(c0, c1, c2);"
                          "rule __query_3@alice($me, $x, $o) :- "
                          "likes@alice($me, $x), likes@bob($o, $x);")
                      .ok());
      ASSERT_TRUE(system.RunUntilQuiescent().ok());
    }
    System recovered(DurableSystemOptions(root));
    CreateScriptPeers(recovered);
    SettleWithHeartbeats(recovered);
    const Relation* view =
        recovered.GetPeer("alice")->engine().catalog().Get("__query_3");
    ASSERT_EQ(view->size(), 1u);
    ASSERT_EQ(recovered.GetPeer("bob")->engine().rules().size(), 1u);

    Result<QueryResult> r = RunQuery(&recovered, "alice", body);
    ASSERT_TRUE(r.ok()) << r.status();
    EXPECT_EQ(r->rows, rows);
    EXPECT_EQ(view->size(), 0u);
    for (const char* name : {"alice", "bob"}) {
      ExpectNoQueryRules(recovered, name);
    }
  }
}

TEST(DurabilityRecoveryTest, GenerationsRotateAndOldFilesAreRemoved) {
  std::string root = MakeTempRoot();
  DurabilityOptions options;
  options.dir = root + "/p";
  options.snapshot_interval_records = 2;
  Result<std::unique_ptr<PeerDurability>> opened =
      PeerDurability::Open(options);
  ASSERT_TRUE(opened.ok());
  PeerDurability& pd = **opened;
  WalRecord record;
  record.type = WalRecordType::kLocalFactInsert;
  record.fact = Fact("data", "p", {I(1)});
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(pd.Append(record).ok());
    if (pd.ShouldSnapshot()) {
      SnapshotData snap;
      snap.peer = "p";
      ASSERT_TRUE(pd.WriteSnapshot(snap).ok());
    }
  }
  EXPECT_EQ(pd.generation(), 2u);
  // Only the current generation's files remain.
  EXPECT_EQ(::access(pd.SnapshotPath(2).c_str(), F_OK), 0);
  EXPECT_NE(::access(pd.SnapshotPath(1).c_str(), F_OK), 0);
  EXPECT_NE(::access((options.dir + "/wal-1.log").c_str(), F_OK), 0);

  // Reopen: the newest snapshot + its (short) log come back.
  opened = PeerDurability::Open(options);
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ((*opened)->generation(), 2u);
  EXPECT_TRUE((*opened)->counters().snapshot_recovered);
  EXPECT_EQ((*opened)->counters().wal_records_recovered, 1u);
}

}  // namespace
}  // namespace wdl
