#include "support/fixture.h"

#include "parser/parser.h"

namespace wdl {
namespace test {

LogicalState LogicalStateOf(const System& system) {
  LogicalState state;
  for (const std::string& name : system.PeerNames()) {
    const Peer* peer = system.GetPeer(name);
    if (!peer->has_engine()) continue;  // an idle peer holds nothing
    LogicalState::Peer& out = state.peers[name];
    const Catalog& catalog = peer->engine().catalog();
    for (const std::string& rel : catalog.RelationNames()) {
      const Relation* r = catalog.Get(rel);
      std::vector<Tuple> tuples = r->SortedTuples();
      out.relations[rel] = LogicalState::Relation{
          r->kind(), std::set<Tuple>(tuples.begin(), tuples.end())};
    }
    for (const InstalledRule* ir : peer->engine().rules()) {
      out.rules.emplace(ir->rule.ToString(),
                        ir->delegation_key != 0 ? ir->origin_peer : "");
    }
  }
  return state;
}

std::string RenderLogicalState(const LogicalState& state) {
  std::string out;
  for (const auto& [name, peer] : state.peers) {
    std::string body;
    for (const auto& [rel, r] : peer.relations) {
      if (r.tuples.empty()) continue;
      body += "  " + rel + " [" + RelationKindToString(r.kind) + "]\n";
      for (const Tuple& t : r.tuples) body += "    " + TupleToString(t) + "\n";
    }
    for (const auto& [rule, origin] : peer.rules) {
      body += "  rule " + rule;
      body += origin.empty() ? "\n" : "   (delegated by " + origin + ")\n";
    }
    if (!body.empty()) out += "== " + name + "\n" + body;
  }
  return out;
}

void ExpectMatchesReference(const System& system,
                            const ReferenceProgram& program) {
  Result<LogicalState> expected = ReferenceEvaluate(program);
  ASSERT_TRUE(expected.ok()) << expected.status();
  std::string want = RenderLogicalState(*expected);
  EXPECT_FALSE(want.empty());  // an empty match would prove nothing
  EXPECT_EQ(RenderLogicalState(LogicalStateOf(system)), want);
}

QueryResult ExpectQueryMatchesReference(System* system,
                                        const ReferenceProgram& program,
                                        const std::string& peer,
                                        const std::string& body,
                                        QueryPath path) {
  Result<QueryResult> got = RunQuery(system, peer, body);
  EXPECT_TRUE(got.ok()) << body << ": " << got.status();
  if (!got.ok()) return QueryResult{};
  EXPECT_EQ(got->demand_path, path == QueryPath::kLocalRead) << body;

  // The query as a rule at `peer`, deriving into a view nothing reads.
  ReferenceProgram with_query = program;
  Program& at = with_query.peers[peer];
  RelationDecl answer;
  answer.relation = "answer__";
  answer.peer = peer;
  answer.kind = RelationKind::kIntensional;
  std::string head = answer.relation + "@" + peer + "(";
  for (const std::string& column : got->columns) {
    head += (answer.columns.empty() ? "$" : ", $") + column;
    answer.columns.push_back(ColumnSpec{column, ValueKind::kAny});
  }
  at.declarations.push_back(answer);
  Result<Rule> rule = ParseRule(head + ") :- " + body);
  EXPECT_TRUE(rule.ok()) << body << ": " << rule.status();
  if (!rule.ok()) return std::move(got).value();
  at.rules.push_back(std::move(rule).value());

  Result<LogicalState> expected = ReferenceEvaluate(with_query);
  EXPECT_TRUE(expected.ok()) << body << ": " << expected.status();
  if (!expected.ok()) return std::move(got).value();
  const std::set<Tuple>& rows =
      expected->peers[peer].relations[answer.relation].tuples;
  EXPECT_EQ(got->rows, std::vector<Tuple>(rows.begin(), rows.end())) << body;
  return std::move(got).value();
}

void Load(Peer* peer, ReferenceProgram* ref, std::string_view text) {
  ASSERT_TRUE(peer->LoadProgramText(text).ok());
  ASSERT_TRUE(ref->Load(peer->name(), text).ok());
}

void Insert(Peer* peer, ReferenceProgram* ref, const Fact& fact) {
  ASSERT_TRUE(peer->Insert(fact).ok());
  ref->Insert(fact);
}

void Remove(Peer* peer, ReferenceProgram* ref, const Fact& fact) {
  ASSERT_TRUE(peer->Remove(fact).ok());
  ref->Remove(fact);
}

Peer* MultiPeerFixture::AddPeer(const std::string& name,
                                PeerOptions options) {
  return system_.CreatePeer(name, std::move(options));
}

std::vector<Peer*> MultiPeerFixture::AddTrustedPeers(
    const std::vector<std::string>& names) {
  std::vector<Peer*> peers;
  peers.reserve(names.size());
  for (const std::string& name : names) {
    peers.push_back(AddPeer(name));
  }
  for (Peer* a : peers) {
    for (const std::string& other : names) {
      if (other != a->name()) a->gate().TrustPeer(other);
    }
  }
  return peers;
}

}  // namespace test
}  // namespace wdl
