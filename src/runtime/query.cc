#include "runtime/query.h"

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "base/string_util.h"
#include "engine/eval.h"
#include "parser/parser.h"

namespace wdl {

namespace {

// The local read's placeholder head relation: one name for every
// query, so reading never grows the symbol table (it interns with the
// first plan compiled under it). The read emits head facts into its
// own sink, never into a catalog.
constexpr char kQueryRelation[] = "__query";

/// Parses `body` under the placeholder head and rebuilds the head from
/// the body's variables in order of first occurrence — the query rule,
/// and the result's column list.
Result<Rule> BuildQueryRule(const std::string& peer_name,
                            const std::string& body,
                            std::vector<std::string>* columns) {
  WDL_ASSIGN_OR_RETURN(
      Rule skeleton,
      ParseRule(std::string(kQueryRelation) + "@" + peer_name + "() :- " +
                body));

  auto note_var = [&](const std::string& v) {
    for (const std::string& existing : *columns) {
      if (existing == v) return;
    }
    columns->push_back(v);
  };
  for (const Atom& atom : skeleton.body) {
    if (atom.relation.is_variable()) note_var(atom.relation.var());
    if (atom.peer.is_variable()) note_var(atom.peer.var());
    for (const Term& t : atom.args) {
      if (t.is_variable()) note_var(t.var());
    }
  }

  Rule query_rule = std::move(skeleton);
  query_rule.head.args.clear();
  for (const std::string& v : *columns) {
    query_rule.head.args.push_back(Term::Variable(v));
  }
  return query_rule;
}

/// Evaluates `query` once over `peer`'s catalog after the checks
/// AddRule runs, into `result`. Returns false, leaving the rows unset,
/// when the evaluation emitted a delegation: the body reached another
/// peer, and only the scratch-rule path can answer it.
Result<bool> ReadLocally(Peer* peer, const Rule& query, QueryResult* result) {
  // An idle peer holds nothing. A throwaway engine with its options
  // checks the query and serves the read from an empty catalog, so the
  // peer stays idle.
  std::unique_ptr<Engine> idle;
  Engine* engine = nullptr;
  if (peer->has_engine()) {
    engine = &peer->engine();
  } else {
    idle = std::make_unique<Engine>(peer->name(), peer->options().engine);
    engine = idle.get();
  }
  WDL_ASSIGN_OR_RETURN(ConcreteRule rule, engine->PrepareRule(query));

  std::vector<Tuple> rows;
  bool crossed = false;
  RuleEvaluator::Sinks sinks;
  sinks.on_local_fact = [&](const Fact& f) { rows.push_back(f.args); };
  sinks.on_delegation = [&](const Delegation&) { crossed = true; };
  RuleEvaluator evaluator(&engine->catalog(), peer->name(), EvalOptions{});
  evaluator.Evaluate(rule, nullptr, -1, sinks);
  if (crossed) return false;

  // Every body variable is a column, so no two matches share a row.
  std::sort(rows.begin(), rows.end());
  result->rows = std::move(rows);
  result->demand_path = true;
  result->tuples_examined = evaluator.counters().tuples_examined;
  return true;
}

/// The scratch view of `arity`-column distributed queries at `peer`:
/// `__query_<arity>`, columns c0..c<arity-1> of any type.
RelationDecl ScratchView(const std::string& peer, size_t arity) {
  RelationDecl decl;
  decl.relation = StrFormat("%s_%zu", kQueryRelation, arity);
  decl.peer = peer;
  decl.kind = RelationKind::kIntensional;
  decl.columns.resize(arity);
  for (size_t i = 0; i < arity; ++i) {
    decl.columns[i].name = StrFormat("c%zu", i);
    decl.columns[i].type = ValueKind::kAny;
  }
  return decl;
}

/// Declares `view` at the peer's first query of its arity, and removes
/// any local rule still writing it: a query a crash interrupted leaves
/// its rule there, and recovery restores it. Both edits go through the
/// Peer, so a durable peer logs them like any host write.
Status PrepareScratchView(Peer* peer, const RelationDecl& view) {
  const Relation* declared = peer->engine().catalog().Get(view.relation);
  if (declared == nullptr || !(declared->decl() == view)) {
    // A relation of that name declared otherwise is not the view: the
    // declaration fails with AlreadyExists instead of reusing it.
    Program program;
    program.declarations.push_back(view);
    WDL_RETURN_IF_ERROR(peer->LoadProgram(program));
  }
  // Ids first: a removal invalidates the Engine::rules() pointers.
  std::vector<uint64_t> orphans;
  for (const InstalledRule* ir : peer->engine().rules()) {
    const Atom& head = ir->rule.head;
    if (ir->delegation_key == 0 && head.HasConcreteLocation() &&
        head.relation.name() == view.relation &&
        head.peer.name() == view.peer) {
      orphans.push_back(ir->id);
    }
  }
  for (uint64_t id : orphans) WDL_RETURN_IF_ERROR(peer->RemoveRule(id));
  return Status::OK();
}

}  // namespace

std::string QueryResult::ToString() const {
  std::string out = "(";
  for (size_t i = 0; i < columns.size(); ++i) {
    if (i > 0) out += ", ";
    out += "$" + columns[i];
  }
  out += ")\n";
  for (const Tuple& row : rows) {
    out += "  " + TupleToString(row) + "\n";
  }
  if (rows.empty()) out += "  (no rows)\n";
  return out;
}

Result<QueryResult> RunQuery(System* system, const std::string& peer_name,
                             const std::string& body, int max_rounds) {
  Peer* peer = system->GetPeer(peer_name);
  if (peer == nullptr) {
    return Status::NotFound("no peer named " + peer_name);
  }

  QueryResult result;
  WDL_ASSIGN_OR_RETURN(Rule query_rule,
                       BuildQueryRule(peer_name, body, &result.columns));
  // Views are materialized at quiescence (DESIGN.md §10), and
  // convergence can install delegated rules the checks must see.
  const int rounds_before = system->rounds_run();
  if (!system->IsQuiescent()) {
    WDL_RETURN_IF_ERROR(system->RunUntilQuiescent(max_rounds).status());
  }
  WDL_ASSIGN_OR_RETURN(bool answered,
                       ReadLocally(peer, query_rule, &result));
  if (answered) {
    result.rounds = system->rounds_run() - rounds_before;
    return result;
  }

  // The body reached another peer: it runs as a rule into the scratch
  // view of its arity, and its residuals where WebdamLog delegates them.
  const RelationDecl view = ScratchView(peer_name, result.columns.size());
  WDL_RETURN_IF_ERROR(PrepareScratchView(peer, view));
  query_rule.head.relation = SymTerm::Name(view.relation);
  WDL_ASSIGN_OR_RETURN(uint64_t rule_id, peer->AddRule(query_rule));

  uint64_t tuples_before = peer->engine().eval_counters().tuples_examined;
  Result<int> converged = system->RunUntilQuiescent(max_rounds);
  result.rows = peer->engine().catalog().Get(view.relation)->SortedTuples();
  result.rounds = system->rounds_run() - rounds_before;
  result.tuples_examined =
      peer->engine().eval_counters().tuples_examined - tuples_before;

  // Tear down: remove the rule and converge once, so the residuals
  // retract and every stream into the view empties; a teardown that
  // does not quiesce here finishes in later rounds. The view and its
  // streams stay for the next query of this arity.
  WDL_RETURN_IF_ERROR(peer->RemoveRule(rule_id));
  (void)system->RunUntilQuiescent(max_rounds);
  if (!converged.ok()) return converged.status();
  return result;
}

}  // namespace wdl
