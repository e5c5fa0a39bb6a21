// Generative property tests: random WebdamLog programs, safe by
// construction, pushed through the parser, the wire codec, the
// reference evaluator, and the distributed runtime. Each TEST_P instance is
// a distinct seed, so failures reproduce exactly.

#include <gtest/gtest.h>

#include "base/rng.h"
#include "base/string_util.h"
#include "engine/engine.h"
#include "net/wire.h"
#include "parser/parser.h"
#include "runtime/system.h"
#include "support/fixture.h"
#include "support/rng_check.h"

namespace wdl {
namespace {

// Guard: the seeds below only reproduce failures if the generator
// itself hasn't drifted. Fail loudly before any property test runs.
TEST(PropertyTestRngGuard, GeneratorMatchesGoldenSequence) {
  EXPECT_TRUE(test::CheckRngGoldenSequence());
}

// Generates random ground facts and safe rules over a small vocabulary
// of relations r0..r4 (arity 2) at the given peers.
class ProgramGenerator {
 public:
  explicit ProgramGenerator(uint64_t seed, std::vector<std::string> peers)
      : rng_(seed), peers_(std::move(peers)) {}

  Value RandomValue() {
    switch (rng_.NextBelow(4)) {
      case 0: return Value::Int(rng_.NextInRange(-5, 5));
      case 1: return Value::Double(static_cast<double>(
                   rng_.NextInRange(-3, 3)) + 0.5);
      case 2:
        return Value::String(
            StrFormat("s%u", static_cast<unsigned>(rng_.NextBelow(4))));
      default: return Value::MakeBlob(std::string(
                   1 + rng_.NextBelow(3), static_cast<char>(
                       'a' + rng_.NextBelow(26))));
    }
  }

  std::string RandomRelation() {
    return StrFormat("r%u", static_cast<unsigned>(rng_.NextBelow(5)));
  }
  const std::string& RandomPeer() {
    return peers_[rng_.NextBelow(peers_.size())];
  }

  Fact RandomFact(const std::string& peer) {
    return Fact(RandomRelation(), peer, {RandomValue(), RandomValue()});
  }

  // A safe rule at `peer`: first atom local with two fresh variables,
  // each later atom reuses a bound variable in its first position (so
  // joins are connected) and may sit at a random peer. The head reuses
  // bound variables only.
  Rule RandomRule(const std::string& peer) {
    Rule rule;
    int body_len = 1 + static_cast<int>(rng_.NextBelow(3));
    std::vector<std::string> bound;
    for (int i = 0; i < body_len; ++i) {
      Atom atom;
      atom.relation = SymTerm::Name(RandomRelation());
      atom.peer = SymTerm::Name(i == 0 ? peer : RandomPeer());
      std::string fresh = StrFormat("v%d", var_counter_++);
      if (i == 0) {
        std::string fresh2 = StrFormat("v%d", var_counter_++);
        atom.args = {Term::Variable(fresh), Term::Variable(fresh2)};
        bound.push_back(fresh);
        bound.push_back(fresh2);
      } else {
        const std::string& join_var = bound[rng_.NextBelow(bound.size())];
        atom.args = {Term::Variable(join_var), Term::Variable(fresh)};
        bound.push_back(fresh);
      }
      rule.body.push_back(std::move(atom));
    }
    rule.head.relation = SymTerm::Name("out" +
                                       std::to_string(rng_.NextBelow(3)));
    rule.head.peer = SymTerm::Name(RandomPeer());
    rule.head.args = {
        Term::Variable(bound[rng_.NextBelow(bound.size())]),
        Term::Variable(bound[rng_.NextBelow(bound.size())])};
    return rule;
  }

  Program RandomProgram(const std::string& peer, int facts, int rules) {
    Program program;
    for (int i = 0; i < facts; ++i) {
      program.facts.push_back(RandomFact(peer));
    }
    for (int i = 0; i < rules; ++i) {
      Rule rule = RandomRule(peer);
      // Only keep rules whose heads do not write into relations the
      // generator also seeds as base facts (keeps ext/int kinds clean).
      program.rules.push_back(std::move(rule));
    }
    return program;
  }

 private:
  Rng rng_;
  std::vector<std::string> peers_;
  int var_counter_ = 0;
};

class SeededTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SeededTest, ProgramPrintParseRoundTrip) {
  ProgramGenerator gen(GetParam(), {"alice", "bob", "carol"});
  Program program = gen.RandomProgram("alice", 10, 5);
  std::string printed = program.ToString();
  Result<Program> back = ParseProgram(printed);
  ASSERT_TRUE(back.ok()) << back.status() << "\n" << printed;
  EXPECT_EQ(back->facts, program.facts) << printed;
  EXPECT_EQ(back->rules, program.rules) << printed;
}

TEST_P(SeededTest, RulesAndFactsSurviveWireRoundTrip) {
  ProgramGenerator gen(GetParam() ^ 0xabc, {"alice", "bob"});
  for (int i = 0; i < 20; ++i) {
    Rule rule = gen.RandomRule("alice");
    WireEncoder enc;
    enc.PutRule(rule);
    WireDecoder dec(enc.buffer());
    Result<Rule> back = dec.GetRule();
    ASSERT_TRUE(back.ok()) << back.status();
    EXPECT_EQ(*back, rule);
    EXPECT_EQ(back->Hash(), rule.Hash());
  }
  for (int i = 0; i < 20; ++i) {
    Fact fact = gen.RandomFact("bob");
    WireEncoder enc;
    enc.PutFact(fact);
    WireDecoder dec(enc.buffer());
    Result<Fact> back = dec.GetFact();
    ASSERT_TRUE(back.ok()) << back.status();
    EXPECT_EQ(*back, fact);
  }
}

TEST_P(SeededTest, GeneratedRulesAreSafe) {
  ProgramGenerator gen(GetParam() ^ 0x5afe, {"alice", "bob"});
  for (int i = 0; i < 30; ++i) {
    Rule rule = gen.RandomRule("alice");
    EXPECT_TRUE(CheckRuleSafety(rule).ok()) << rule.ToString();
  }
}

TEST_P(SeededTest, DistributedRandomSystemConvergesDeterministically) {
  auto run = [&](uint64_t net_seed) {
    SystemOptions options;
    options.network_seed = net_seed;
    System system(options);
    std::vector<std::string> names = {"alice", "bob", "carol"};
    ProgramGenerator gen(GetParam() ^ 0xd157, names);
    for (const std::string& name : names) {
      Peer* peer = system.CreatePeer(name);
      for (const std::string& other : names) peer->gate().TrustPeer(other);
    }
    for (const std::string& name : names) {
      Program program = gen.RandomProgram(name, 6, 3);
      Status st = system.GetPeer(name)->LoadProgram(program);
      EXPECT_TRUE(st.ok()) << st << "\n" << program.ToString();
    }
    EXPECT_TRUE(system.RunUntilQuiescent(2000).ok());
    std::string fingerprint;
    for (const std::string& name : names) {
      const Peer* peer = system.GetPeer(name);
      for (const std::string& rel :
           peer->engine().catalog().RelationNames()) {
        fingerprint += peer->RenderRelation(rel);
      }
    }
    return fingerprint;
  };
  // Same generated workload, two network seeds: the converged state
  // must agree (confluence), and a third run replays the first exactly.
  std::string a = run(1);
  std::string b = run(2);
  std::string c = run(1);
  EXPECT_EQ(a, c);
  EXPECT_EQ(a, b);
}

// The semi-naive engine against the naive reference evaluator
// (support/reference_eval.h) on random single-peer programs.
TEST_P(SeededTest, NaiveAndSemiNaiveAgreeOnRandomLocalPrograms) {
  ProgramGenerator gen(GetParam() ^ 0xeea1, {"alice"});
  test::ReferenceProgram reference;
  reference.peers["alice"] = gen.RandomProgram("alice", 12, 6);
  System system;
  Status st = system.CreatePeer("alice")->LoadProgram(reference.peers["alice"]);
  ASSERT_TRUE(st.ok()) << st;
  ASSERT_TRUE(system.RunUntilQuiescent().ok());
  test::ExpectMatchesReference(system, reference);
}

// Seeds come from the shared fixed-seed schedule: independent of
// GTEST_SHARD_INDEX and of which other suites run, so a parameter id
// names the same workload in any ctest sharding.
INSTANTIATE_TEST_SUITE_P(Seeds, SeededTest,
                         ::testing::ValuesIn(test::FixedTestSeeds(10)));

}  // namespace
}  // namespace wdl
