#include "runtime/query.h"

#include <algorithm>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "engine/eval.h"
#include "parser/parser.h"

namespace wdl {

namespace {

// Scratch relation names are recycled through a free pool: every name
// ever minted interns one permanent symbol-table entry (base/symbol.h),
// so a long-lived System issuing millions of ad-hoc queries must reuse
// a bounded set of names instead of minting "__query_<n>" forever. The
// pool is process-wide (names must be unique across concurrent queries
// on any System in the process, like the old atomic counter).
std::mutex g_query_names_mu;
std::vector<std::string>& QueryNamePool() {
  static std::vector<std::string> pool;
  return pool;
}

std::string AcquireQueryName() {
  static uint64_t counter = 0;
  std::lock_guard<std::mutex> lock(g_query_names_mu);
  std::vector<std::string>& pool = QueryNamePool();
  if (!pool.empty()) {
    std::string name = std::move(pool.back());
    pool.pop_back();
    return name;
  }
  return "__query_" + std::to_string(counter++);
}

void ReleaseQueryName(std::string name) {
  std::lock_guard<std::mutex> lock(g_query_names_mu);
  QueryNamePool().push_back(std::move(name));
}

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
  WDL_ASSIGN_OR_RETURN(std::shared_ptr<const RulePlan> plan,
                       engine->PrepareRule(query));

  std::vector<Tuple> rows;
  bool crossed = false;
  RuleEvaluator::Sinks sinks;
  sinks.on_local_fact = [&](const Fact& f) { rows.push_back(f.args); };
  sinks.on_delegation = [&](const Delegation&) { crossed = true; };
  RuleEvaluator evaluator(&engine->catalog(), peer->name(), EvalOptions{});
  evaluator.Evaluate(*plan, nullptr, -1, sinks);
  if (crossed) return false;

  // Every body variable is a column, so no two matches share a row.
  std::sort(rows.begin(), rows.end());
  result->rows = std::move(rows);
  result->demand_path = true;
  result->tuples_examined = evaluator.counters().tuples_examined;
  return true;
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

  // Unique while in use (concurrent/nested queries never collide),
  // recycled afterwards so the symbol table stays bounded.
  std::string relation = AcquireQueryName();
  query_rule.head.relation = SymTerm::Name(relation);

  RelationDecl decl;
  decl.relation = relation;
  decl.peer = peer_name;
  decl.kind = RelationKind::kIntensional;
  decl.columns.resize(result.columns.size());
  for (size_t i = 0; i < result.columns.size(); ++i) {
    decl.columns[i].name = result.columns[i];
    decl.columns[i].type = ValueKind::kAny;
  }
  Status declared = peer->engine().DeclareRelation(decl);
  if (!declared.ok()) {
    ReleaseQueryName(std::move(relation));
    return declared;
  }
  Result<uint64_t> rule_id = peer->engine().AddRule(query_rule);
  if (!rule_id.ok()) {
    if (peer->engine().DropScratchRelation(relation).ok()) {
      ReleaseQueryName(std::move(relation));
    }
    return rule_id.status();
  }

  uint64_t tuples_before = peer->engine().eval_counters().tuples_examined;
  Result<int> converged = system->RunUntilQuiescent(max_rounds);

  const Relation* rel = peer->engine().catalog().Get(relation);
  if (rel != nullptr) result.rows = rel->SortedTuples();
  result.rounds = system->rounds_run() - rounds_before;
  result.tuples_examined =
      peer->engine().eval_counters().tuples_examined - tuples_before;

  // Tear down: remove the rule and converge again so any delegated
  // residuals are retracted at remote peers, then drop the scratch
  // relation and recycle its name. A system that failed to quiesce may
  // still have scratch traffic in flight, so the name is abandoned
  // (leaked, like the pre-recycling behavior) rather than reused.
  // Dropping queues kStreamForget notices toward every remote sender
  // that streamed a contribution here; the final converge flushes them
  // so both ends of the stream restart at version 0 and the recycled
  // name's next use begins with a clean snapshot instead of a
  // gap->resync round trip.
  Status removed = peer->engine().RemoveRule(*rule_id);
  bool torn_down = system->RunUntilQuiescent(max_rounds).ok();
  if (removed.ok() && torn_down &&
      peer->engine().DropScratchRelation(relation).ok() &&
      system->RunUntilQuiescent(max_rounds).ok()) {
    ReleaseQueryName(std::move(relation));
  }
  WDL_RETURN_IF_ERROR(removed);
  if (!converged.ok()) return converged.status();
  return result;
}

}  // namespace wdl
