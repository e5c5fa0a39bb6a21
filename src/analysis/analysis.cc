#include "analysis/analysis.h"

#include <map>
#include <set>
#include <string>

#include "base/string_util.h"

namespace wdl {

Status CheckRuleSafety(const Rule& rule) {
  if (rule.head.negated) {
    return Status::InvalidArgument("rule head must not be negated: " +
                                   rule.ToString());
  }

  std::set<std::string> bound;
  for (size_t i = 0; i < rule.body.size(); ++i) {
    const Atom& atom = rule.body[i];

    // Relation/peer variables must be bound before this atom is reached:
    // the engine must know *where* to evaluate it.
    auto check_sym = [&](const SymTerm& sym, const char* what) -> Status {
      if (sym.is_variable() && bound.count(sym.var()) == 0) {
        return Status::InvalidArgument(StrFormat(
            "%s variable $%s of body atom %zu is not bound by previous "
            "atoms (bodies evaluate left to right) in rule: %s",
            what, sym.var().c_str(), i + 1, rule.ToString().c_str()));
      }
      return Status::OK();
    };
    WDL_RETURN_IF_ERROR(check_sym(atom.relation, "relation"));
    WDL_RETURN_IF_ERROR(check_sym(atom.peer, "peer"));

    if (atom.negated) {
      // Safe negation: all argument variables already bound.
      for (const Term& t : atom.args) {
        if (t.is_variable() && bound.count(t.var()) == 0) {
          return Status::InvalidArgument(StrFormat(
              "variable $%s of negated atom %s is not bound by previous "
              "positive atoms in rule: %s",
              t.var().c_str(), atom.ToString().c_str(),
              rule.ToString().c_str()));
        }
      }
      continue;  // negated atoms bind nothing
    }

    for (const Term& t : atom.args) {
      if (t.is_variable()) bound.insert(t.var());
    }
    if (atom.relation.is_variable()) bound.insert(atom.relation.var());
    if (atom.peer.is_variable()) bound.insert(atom.peer.var());
  }

  // Head range restriction.
  std::set<std::string> head_vars;
  rule.head.CollectVariables(&head_vars);
  for (const std::string& v : head_vars) {
    if (bound.count(v) == 0) {
      return Status::InvalidArgument(StrFormat(
          "head variable $%s is not bound by the positive body in rule: %s",
          v.c_str(), rule.ToString().c_str()));
    }
  }
  return Status::OK();
}

namespace {

// Predicate id for dependency purposes; variable positions collapse to
// the wildcard "*".
std::string DependencyId(const Atom& atom) {
  std::string rel = atom.relation.is_name() ? atom.relation.name() : "*";
  std::string peer = atom.peer.is_name() ? atom.peer.name() : "*";
  if (rel == "*" || peer == "*") return "*";
  return rel + "@" + peer;
}

struct Edge {
  int from;  // body predicate node
  int to;    // head predicate node
  bool negative;
};

// Tarjan SCC over a small adjacency-list graph.
class SccFinder {
 public:
  explicit SccFinder(int n) : n_(n), adj_(n) {}

  void AddEdge(int from, int to) { adj_[from].push_back(to); }

  // Returns component id per node; ids are in reverse topological order
  // of the condensation (successors have smaller ids than predecessors
  // is NOT guaranteed; we only use equality of ids).
  std::vector<int> Run() {
    index_.assign(n_, -1);
    low_.assign(n_, 0);
    on_stack_.assign(n_, false);
    comp_.assign(n_, -1);
    for (int v = 0; v < n_; ++v) {
      if (index_[v] < 0) Strongconnect(v);
    }
    return comp_;
  }

 private:
  void Strongconnect(int v) {
    // Iterative Tarjan to avoid deep recursion on long rule chains.
    struct Frame {
      int v;
      size_t next_child;
    };
    std::vector<Frame> stack_frames;
    stack_frames.push_back({v, 0});
    while (!stack_frames.empty()) {
      Frame& f = stack_frames.back();
      if (f.next_child == 0) {
        index_[f.v] = low_[f.v] = next_index_++;
        stack_.push_back(f.v);
        on_stack_[f.v] = true;
      }
      bool descended = false;
      while (f.next_child < adj_[f.v].size()) {
        int w = adj_[f.v][f.next_child++];
        if (index_[w] < 0) {
          stack_frames.push_back({w, 0});
          descended = true;
          break;
        }
        if (on_stack_[w] && index_[w] < low_[f.v]) low_[f.v] = index_[w];
      }
      if (descended) continue;
      if (low_[f.v] == index_[f.v]) {
        while (true) {
          int w = stack_.back();
          stack_.pop_back();
          on_stack_[w] = false;
          comp_[w] = num_components_;
          if (w == f.v) break;
        }
        ++num_components_;
      }
      int finished = f.v;
      stack_frames.pop_back();
      if (!stack_frames.empty()) {
        int parent = stack_frames.back().v;
        if (low_[finished] < low_[parent]) low_[parent] = low_[finished];
      }
    }
  }

  int n_;
  std::vector<std::vector<int>> adj_;
  std::vector<int> index_, low_, comp_;
  std::vector<bool> on_stack_;
  std::vector<int> stack_;
  int next_index_ = 0;
  int num_components_ = 0;
};

}  // namespace

Result<Stratification> Stratify(const std::vector<Rule>& rules) {
  // Map predicate ids to dense node ids.
  std::map<std::string, int> node_of;
  auto node = [&](const std::string& id) {
    auto [it, inserted] = node_of.emplace(id, node_of.size());
    (void)inserted;
    return it->second;
  };

  std::vector<Edge> edges;
  for (const Rule& rule : rules) {
    int head = node(DependencyId(rule.head));
    for (const Atom& atom : rule.body) {
      // Negated atoms with a variable relation/peer (resolved only at
      // evaluation time) depend on the wildcard node; they stratify
      // unless the wildcard itself participates in a cycle. The engine
      // re-stratifies at every rule install while the program holds a
      // negated atom, so a rule that would close a loop is rejected.
      edges.push_back({node(DependencyId(atom)), head, atom.negated});
    }
  }

  int n = static_cast<int>(node_of.size());
  SccFinder scc(n);
  for (const Edge& e : edges) scc.AddEdge(e.from, e.to);
  std::vector<int> comp = n > 0 ? scc.Run() : std::vector<int>();

  for (const Edge& e : edges) {
    if (e.negative && comp[e.from] == comp[e.to]) {
      return Status::FailedPrecondition(
          "program is not stratifiable: negation occurs inside a "
          "recursive cycle");
    }
  }

  // Longest-path layering over the condensation, counting only negative
  // edges as level increments (classic stratified datalog strata).
  // Iterate to fixpoint; the condensation is a DAG so this terminates.
  std::vector<int> comp_stratum(n > 0 ? n : 0, 0);
  bool changed = true;
  int guard = n + 2;
  while (changed && guard-- > 0) {
    changed = false;
    for (const Edge& e : edges) {
      int needed = comp_stratum[comp[e.from]] + (e.negative ? 1 : 0);
      if (comp_stratum[comp[e.to]] < needed) {
        comp_stratum[comp[e.to]] = needed;
        changed = true;
      }
    }
  }

  Stratification out;
  out.rule_stratum.reserve(rules.size());
  int max_stratum = 0;
  for (const Rule& rule : rules) {
    int head_comp = comp[node_of.at(DependencyId(rule.head))];
    int s = comp_stratum[head_comp];
    out.rule_stratum.push_back(s);
    if (s > max_stratum) max_stratum = s;
  }
  out.num_strata = rules.empty() ? 1 : max_stratum + 1;
  return out;
}

Status ValidateProgram(const Program& program, Dialect dialect) {
  // Declarations: no duplicates.
  std::map<std::string, const RelationDecl*> decls;
  for (const RelationDecl& d : program.declarations) {
    auto [it, inserted] = decls.emplace(d.PredicateId(), &d);
    if (!inserted) {
      return Status::AlreadyExists("duplicate declaration of relation " +
                                   d.PredicateId());
    }
  }

  // Facts: respect a matching declaration when present.
  for (const Fact& f : program.facts) {
    auto it = decls.find(f.PredicateId());
    if (it == decls.end()) continue;  // undeclared: schema set on insert
    const RelationDecl& d = *it->second;
    if (f.arity() != d.arity()) {
      return Status::OutOfRange(StrFormat(
          "fact %s has arity %zu but relation %s is declared with arity %zu",
          f.ToString().c_str(), f.arity(), d.PredicateId().c_str(),
          d.arity()));
    }
    for (size_t i = 0; i < f.args.size(); ++i) {
      if (!ValueMatchesType(f.args[i], d.columns[i].type)) {
        return Status::InvalidArgument(StrFormat(
            "fact %s: column %zu (%s) expects %s but got %s",
            f.ToString().c_str(), i, d.columns[i].name.c_str(),
            ValueKindToString(d.columns[i].type),
            ValueKindToString(f.args[i].kind())));
      }
    }
  }

  // Rules: safety, dialect gating, stratification.
  bool has_negation = false;
  for (const Rule& r : program.rules) {
    WDL_RETURN_IF_ERROR(CheckRuleSafety(r));
    for (const Atom& a : r.body) {
      if (a.negated) has_negation = true;
    }
  }
  if (has_negation) {
    if (dialect == Dialect::kPaper2013) {
      return Status::Unimplemented(
          "negation is supported by the language but not by the 2013 "
          "system (dialect kPaper2013); use Dialect::kExtended");
    }
    WDL_ASSIGN_OR_RETURN(Stratification strat, Stratify(program.rules));
    (void)strat;
  }
  return Status::OK();
}

bool ValueMatchesType(const Value& value, ValueKind type) {
  return type == ValueKind::kAny || value.kind() == type;
}

}  // namespace wdl
