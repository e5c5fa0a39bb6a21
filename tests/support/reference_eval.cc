#include "support/reference_eval.h"

#include <algorithm>
#include <tuple>

#include "parser/parser.h"

namespace wdl {
namespace test {
namespace {

using Row = std::vector<Value>;
using Binding = std::map<std::string, Value>;

struct Rel {
  RelationKind kind = RelationKind::kExtensional;
  std::vector<ColumnSpec> columns;  // auto-created: arity of first row
  std::set<Row> rows;

  bool Admits(const Row& row) const {
    if (row.size() != columns.size()) return false;
    for (size_t i = 0; i < row.size(); ++i) {
      ValueKind want = columns[i].type;
      if (want != ValueKind::kAny && row[i].kind() != want) return false;
    }
    return true;
  }
};

/// A peer's own rule (no origin) or a residual delegated by `source`.
struct Installed {
  Rule rule;
  std::string origin;
  std::string source;
};

// A relation or peer name; null when its variable is unbound or bound
// to a non-string (a dead branch).
const std::string* Resolve(const SymTerm& sym, const Binding& b) {
  if (sym.is_name()) return &sym.name();
  auto it = b.find(sym.var());
  return it != b.end() && it->second.is_string() ? &it->second.AsString()
                                                 : nullptr;
}

// The atom's arguments under `b`; false if a variable is unbound.
bool Ground(const std::vector<Term>& args, const Binding& b, Row* row) {
  for (const Term& t : args) {
    auto it = t.is_variable() ? b.find(t.var()) : b.end();
    if (t.is_variable() && it == b.end()) return false;
    row->push_back(t.is_variable() ? it->second : t.value());
  }
  return true;
}

// Bound variables become constants (names in relation/peer position);
// unbound ones stay. False when a name position holds a non-string.
bool Substitute(const Atom& atom, const Binding& b, Atom* out) {
  auto sym = [&](const SymTerm& s, SymTerm* dst) {
    auto it = s.is_variable() ? b.find(s.var()) : b.end();
    if (it != b.end() && !it->second.is_string()) return false;
    *dst = it == b.end() ? s : SymTerm::Name(it->second.AsString());
    return true;
  };
  out->negated = atom.negated;
  for (const Term& t : atom.args) {
    auto it = t.is_variable() ? b.find(t.var()) : b.end();
    out->args.push_back(it == b.end() ? t : Term::Constant(it->second));
  }
  return sym(atom.relation, &out->relation) && sym(atom.peer, &out->peer);
}

class Evaluator {
 public:
  Status Run(const ReferenceProgram& input, LogicalState* out);

 private:
  Status Setup(const ReferenceProgram& input);
  Status Stratify();
  void Match(const std::string& at, const Installed& ir, size_t i,
             const Binding& b);
  void Derive(const std::string& peer, const std::string& relation, Row row);

  std::map<std::string, std::map<std::string, Rel>> db_;  // peer -> rels
  std::map<std::string, std::vector<Installed>> rules_;   // per peer
  std::set<std::tuple<std::string, std::string, std::string, std::string>>
      residual_keys_;  // origin, target, source, residual
  std::map<std::string, int> strata_;  // by relation name
  std::set<std::tuple<std::string, std::string, Row>> deletions_;
  bool deleting_ = false;
  bool changed_ = false;
  Status error_;
};

Status Evaluator::Setup(const ReferenceProgram& input) {
  if (!input.wrappers.empty()) return Status::Unimplemented("wrappers");
  for (const auto& [peer, program] : input.peers) db_[peer];
  for (const auto& [peer, program] : input.peers) {
    for (const RelationDecl& d : program.declarations) {
      if (d.peer != peer) return Status::InvalidArgument(d.ToString());
      db_[peer][d.relation] = Rel{d.kind, d.columns, {}};
    }
    for (const Fact& f : program.facts) {
      auto it = db_[peer].find(f.relation);
      if (f.peer != peer || (it != db_[peer].end() &&
                             it->second.kind == RelationKind::kIntensional)) {
        return Status::InvalidArgument("reference: base fact " + f.ToString());
      }
      Derive(peer, f.relation, f.args);
    }
    for (const Rule& r : program.rules) {
      // Deletion heads at another peer; negation over a variable name.
      bool unsupported = r.head_deletes && (r.head.peer.is_variable() ||
                                            r.head.peer.name() != peer);
      for (const Atom& a : r.body) {
        unsupported |= a.negated &&
                       (a.relation.is_variable() || a.peer.is_variable());
      }
      if (unsupported) return Status::Unimplemented(r.ToString());
      rules_[peer].push_back(Installed{r, "", ""});
    }
  }
  return Stratify();
}

// Strata by relation name across all peers: a head sits at or above
// every body relation, strictly above every negated one. Without
// negation everything is stratum 0.
Status Evaluator::Stratify() {
  bool negation = false, variable = false;
  for (const auto& [peer, rules] : rules_) {
    for (const Installed& ir : rules) {
      variable |= ir.rule.head.relation.is_variable();
      for (const Atom& a : ir.rule.body) {
        negation |= a.negated;
        variable |= a.relation.is_variable();
      }
    }
  }
  if (!negation) return Status::OK();
  if (variable) return Status::Unimplemented("reference: variable relation "
                                             "next to negation");
  for (size_t pass = 0; pass <= 2 * strata_.size() + 2; ++pass) {
    bool moved = false;
    for (const auto& [peer, rules] : rules_) {
      for (const Installed& ir : rules) {
        if (ir.rule.head_deletes) continue;
        int& head = strata_[ir.rule.head.relation.name()];
        for (const Atom& a : ir.rule.body) {
          int need = strata_[a.relation.name()] + (a.negated ? 1 : 0);
          moved |= need > head;
          head = std::max(head, need);
        }
      }
    }
    if (!moved) return Status::OK();
  }
  return Status::FailedPrecondition("reference: program is not stratifiable");
}

void Evaluator::Derive(const std::string& peer, const std::string& relation,
                       Row row) {
  if (!db_.count(peer)) return;  // no such peer: the fact is lost
  auto [it, created] = db_[peer].try_emplace(relation);
  if (created) it->second.columns.resize(row.size());  // auto-declared
  if (it->second.Admits(row) && it->second.rows.insert(std::move(row)).second) {
    changed_ = true;
  }
}

void Evaluator::Match(const std::string& at, const Installed& ir, size_t i,
                      const Binding& b) {
  const Rule& rule = ir.rule;
  const Atom& atom = i < rule.body.size() ? rule.body[i] : rule.head;
  const std::string* rel = Resolve(atom.relation, b);
  const std::string* peer = Resolve(atom.peer, b);
  if (rel == nullptr || peer == nullptr) return;
  if (i == rule.body.size()) {
    Row row;
    if (!Ground(atom.args, b, &row)) return;
    if (deleting_) {
      deletions_.emplace(*peer, *rel, std::move(row));
    } else {
      Derive(*peer, *rel, std::move(row));
    }
    return;
  }
  if (*peer != at) {
    // The rest of the rule, under this prefix's bindings, runs at `peer`.
    if (rule.head_deletes) {
      error_ = Status::Unimplemented("reference: delegated deletion rule " +
                                     rule.ToString());
      return;
    }
    Installed residual{Rule(), at, rule.ToString()};
    residual.rule.body.resize(rule.body.size() - i);
    if (!Substitute(rule.head, b, &residual.rule.head)) return;
    for (size_t j = i; j < rule.body.size(); ++j) {
      if (!Substitute(rule.body[j], b, &residual.rule.body[j - i])) return;
    }
    if (db_.count(*peer) &&
        residual_keys_.emplace(at, *peer, residual.source,
                               residual.rule.ToString()).second) {
      rules_[*peer].push_back(std::move(residual));
      changed_ = true;
    }
    return;
  }
  auto found = db_[at].find(*rel);
  const Rel* r = found == db_[at].end() ? nullptr : &found->second;
  if (atom.negated) {
    Row probe;
    if (!Ground(atom.args, b, &probe)) return;  // never ground: dead
    if (r == nullptr || r->rows.count(probe) == 0) Match(at, ir, i + 1, b);
    return;
  }
  if (r == nullptr) return;
  // Rows derived during the scan may or may not be visited; the caller
  // iterates to a fixpoint either way.
  for (const Row& row : r->rows) {
    if (row.size() != atom.args.size()) continue;
    Binding next = b;
    bool ok = true;
    for (size_t j = 0; j < row.size() && ok; ++j) {
      const Term& t = atom.args[j];
      if (t.is_constant()) {
        ok = t.value() == row[j];
      } else {
        auto [it, fresh] = next.emplace(t.var(), row[j]);
        ok = fresh || it->second == row[j];
      }
    }
    if (ok) Match(at, ir, i + 1, next);
  }
}

Status Evaluator::Run(const ReferenceProgram& input, LogicalState* out) {
  WDL_RETURN_IF_ERROR(Setup(input));
  std::map<std::string, size_t> own;
  for (const auto& [peer, rules] : rules_) own[peer] = rules.size();
  int top = 0;  // highest stratum
  for (const auto& [rel, s] : strata_) top = std::max(top, s);
  for (int round = 0;; ++round) {
    if (round == 100) return Status::FailedPrecondition("no steady state");
    // Views and residuals are rebuilt every round; extensional
    // relations keep everything derived into them.
    for (auto& [peer, rules] : rules_) rules.resize(own[peer]);
    residual_keys_.clear();
    for (auto& [peer, rels] : db_) {
      for (auto& [name, rel] : rels) {
        if (rel.kind == RelationKind::kIntensional) rel.rows.clear();
      }
    }
    for (int stratum = 0; stratum <= top; ++stratum) {
      do {
        changed_ = false;
        for (auto& [peer, rules] : rules_) {
          // By index and by copy: residuals may be appended mid-pass.
          for (size_t k = 0; k < rules.size(); ++k) {
            Installed ir = rules[k];
            const Atom& head = ir.rule.head;
            int s = head.relation.is_name() ? strata_[head.relation.name()] : 0;
            if (!ir.rule.head_deletes && s == stratum) Match(peer, ir, 0, {});
          }
        }
        WDL_RETURN_IF_ERROR(error_);
      } while (changed_);
    }
    deletions_.clear();
    deleting_ = true;
    for (const auto& [peer, rules] : rules_) {
      for (const Installed& ir : rules) {
        if (ir.rule.head_deletes) Match(peer, ir, 0, {});
      }
    }
    WDL_RETURN_IF_ERROR(error_);
    deleting_ = false;
    bool removed = false;
    for (const auto& [peer, rel, row] : deletions_) {
      auto it = db_[peer].find(rel);  // views cannot be deleted from
      bool ext = it != db_[peer].end() &&
                 it->second.kind == RelationKind::kExtensional;
      removed |= ext && it->second.rows.erase(row) > 0;
    }
    if (!removed) break;
  }

  for (const auto& [peer, rels] : db_) {
    LogicalState::Peer& p = out->peers[peer];
    for (const auto& [name, rel] : rels) {
      p.relations[name] = LogicalState::Relation{rel.kind, rel.rows};
    }
    for (const Installed& ir : rules_[peer]) {
      p.rules.emplace(ir.rule.ToString(), ir.origin);
    }
  }
  return Status::OK();
}

}  // namespace

Status ReferenceProgram::Load(const std::string& peer, std::string_view text) {
  WDL_ASSIGN_OR_RETURN(Program parsed, ParseProgram(text));
  Program& p = peers[peer];
  p.declarations.insert(p.declarations.end(), parsed.declarations.begin(),
                        parsed.declarations.end());
  for (const Fact& f : parsed.facts) Insert(f);
  p.rules.insert(p.rules.end(), parsed.rules.begin(), parsed.rules.end());
  return Status::OK();
}

void ReferenceProgram::Insert(const Fact& fact) {
  std::vector<Fact>& facts = peers[fact.peer].facts;
  if (std::find(facts.begin(), facts.end(), fact) == facts.end()) {
    facts.push_back(fact);
  }
}

void ReferenceProgram::Remove(const Fact& fact) {
  std::vector<Fact>& facts = peers[fact.peer].facts;
  facts.erase(std::remove(facts.begin(), facts.end(), fact), facts.end());
}

Result<LogicalState> ReferenceEvaluate(const ReferenceProgram& program) {
  LogicalState state;
  Evaluator evaluator;
  WDL_RETURN_IF_ERROR(evaluator.Run(program, &state));
  return state;
}

}  // namespace test
}  // namespace wdl
