#include "ast/rule.h"

#include "base/logging.h"

namespace wdl {

bool Atom::IsGround() const {
  if (relation.is_variable() || peer.is_variable()) return false;
  for (const Term& t : args) {
    if (t.is_variable()) return false;
  }
  return true;
}

Fact Atom::ToFact() const {
  WDL_CHECK(IsGround()) << "ToFact on non-ground atom " << ToString();
  std::vector<Value> values;
  values.reserve(args.size());
  for (const Term& t : args) values.push_back(t.value());
  return Fact(relation.name(), peer.name(), std::move(values));
}

void Atom::CollectVariables(std::set<std::string>* out) const {
  if (relation.is_variable()) out->insert(relation.var());
  if (peer.is_variable()) out->insert(peer.var());
  for (const Term& t : args) {
    if (t.is_variable()) out->insert(t.var());
  }
}

std::string Atom::ToString() const {
  std::string out;
  if (negated) out += "not ";
  out += relation.ToString() + "@" + peer.ToString() + "(";
  for (size_t i = 0; i < args.size(); ++i) {
    if (i > 0) out += ", ";
    out += args[i].ToString();
  }
  out += ")";
  return out;
}

uint64_t Atom::Hash() const {
  uint64_t h = negated ? 0x517cc1b727220a95ULL : 0;
  h = HashCombine(h, relation.Hash());
  h = HashCombine(h, peer.Hash());
  for (const Term& t : args) h = HashCombine(h, t.Hash());
  return h;
}

std::set<std::string> Rule::Variables() const {
  std::set<std::string> vars;
  head.CollectVariables(&vars);
  for (const Atom& a : body) a.CollectVariables(&vars);
  return vars;
}

std::set<std::string> Rule::PositiveBodyVariables() const {
  std::set<std::string> vars;
  for (const Atom& a : body) {
    if (!a.negated) a.CollectVariables(&vars);
  }
  return vars;
}

std::string Rule::ToString() const {
  std::string out = head_deletes ? "-" : "";
  out += head.ToString();
  if (body.empty()) return out;
  out += " :- ";
  for (size_t i = 0; i < body.size(); ++i) {
    if (i > 0) out += ", ";
    out += body[i].ToString();
  }
  return out;
}

uint64_t Rule::Hash() const {
  uint64_t h = head.Hash();
  if (head_deletes) h = HashCombine(h, 0xde1e7e0000000001ULL);
  for (const Atom& a : body) h = HashCombine(h, a.Hash());
  return h;
}

}  // namespace wdl
