#include "runtime/query.h"

#include <cctype>
#include <cstdlib>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "engine/demand.h"
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

// The demand path's placeholder head relation: parses the body without
// drawing from the scratch-name pool (the demand path installs
// nothing, so the name never reaches a catalog).
constexpr char kDemandQueryRelation[] = "__demand_query";

bool DefaultUseDemandEvaluation() {
  static const bool value = [] {
    // Both fixed demand-path names intern exactly once, up front, so
    // issuing queries never grows the symbol table (the scratch-name
    // recycling invariant).
    Symbol::Intern(kDemandQueryRelation);
    Symbol::Intern(kDemandAtomName);
    const char* env = std::getenv("WDL_QUERY_DEMAND");
    if (env == nullptr) return true;
    std::string v(env);
    for (char& c : v) c = static_cast<char>(std::tolower(c));
    return !(v == "0" || v == "off" || v == "false");
  }();
  return value;
}

/// Parses `body` under a placeholder head and rebuilds the head from
/// the body's variables in order of first occurrence — the query rule
/// both evaluation paths run, and the result's column list.
Result<Rule> BuildQueryRule(const std::string& relation,
                            const std::string& peer_name,
                            const std::string& body,
                            std::vector<std::string>* columns) {
  WDL_ASSIGN_OR_RETURN(
      Rule skeleton,
      ParseRule(relation + "@" + peer_name + "() :- " + body));

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

}  // namespace

QueryOptions::QueryOptions()
    : use_demand_evaluation(DefaultUseDemandEvaluation()) {}

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
  QueryOptions options;
  options.max_rounds = max_rounds;
  return RunQuery(system, peer_name, body, options);
}

Result<QueryResult> RunQuery(System* system, const std::string& peer_name,
                             const std::string& body,
                             const QueryOptions& options) {
  Peer* peer = system->GetPeer(peer_name);
  if (peer == nullptr) {
    return Status::NotFound("no peer named " + peer_name);
  }

  if (options.use_demand_evaluation) {
    // The demand path installs nothing, so it parses under a fixed
    // placeholder head (one permanent symbol process-wide) instead of
    // drawing from the scratch-name pool. Parse failures fall through:
    // the full path re-parses and reports the identical error.
    std::vector<std::string> columns;
    Result<Rule> query_rule =
        BuildQueryRule(kDemandQueryRelation, peer_name, body, &columns);
    if (query_rule.ok()) {
      // Demand evaluation is only sound against a converged system
      // (engine/demand.h); convergence must come first because it can
      // install delegated rules that change the reachability analysis.
      int rounds_before = system->rounds_run();
      if (!system->IsQuiescent()) {
        WDL_ASSIGN_OR_RETURN(int ignored,
                             system->RunUntilQuiescent(options.max_rounds));
        (void)ignored;
      }
      DemandEvaluator evaluator(&peer->engine());
      if (evaluator.Prepare(*query_rule).ok()) {
        QueryResult result;
        result.columns = std::move(columns);
        result.rows = evaluator.Run();
        result.rounds = system->rounds_run() - rounds_before;
        result.demand_path = true;
        result.tuples_examined = evaluator.stats().tuples_examined;
        return result;
      }
      // Ineligible (unbound, cross-peer, negation, deletion rules, ...):
      // fall through to the full fixpoint.
    }
  }

  // Unique while in use (concurrent/nested queries never collide),
  // recycled afterwards so the symbol table stays bounded.
  std::string relation = AcquireQueryName();

  std::vector<std::string> columns;
  Result<Rule> query_rule_result =
      BuildQueryRule(relation, peer_name, body, &columns);
  if (!query_rule_result.ok()) {
    ReleaseQueryName(std::move(relation));  // nothing was declared
    return query_rule_result.status();
  }
  Rule query_rule = std::move(query_rule_result).value();

  RelationDecl decl;
  decl.relation = relation;
  decl.peer = peer_name;
  decl.kind = RelationKind::kIntensional;
  decl.columns.resize(columns.size());
  for (size_t i = 0; i < columns.size(); ++i) {
    decl.columns[i].name = columns[i];
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

  int rounds_before = system->rounds_run();
  uint64_t tuples_before = peer->engine().eval_counters().tuples_examined;
  Result<int> converged = system->RunUntilQuiescent(options.max_rounds);

  QueryResult result;
  result.columns = columns;
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
  // gap->resync round trip. Purely local queries queue nothing and the
  // flush converge is a no-op.
  Status removed = peer->engine().RemoveRule(*rule_id);
  bool torn_down = system->RunUntilQuiescent(options.max_rounds).ok();
  if (removed.ok() && torn_down &&
      peer->engine().DropScratchRelation(relation).ok() &&
      system->RunUntilQuiescent(options.max_rounds).ok()) {
    ReleaseQueryName(std::move(relation));
  }
  WDL_RETURN_IF_ERROR(removed);
  if (!converged.ok()) return converged.status();
  return result;
}

}  // namespace wdl
