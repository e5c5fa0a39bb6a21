#include "storage/catalog.h"

#include "base/string_util.h"

namespace wdl {

Status Catalog::Declare(const RelationDecl& decl) {
  if (decl.peer != owner_peer_) {
    return Status::InvalidArgument(StrFormat(
        "relation %s declared at peer '%s' cannot live in the catalog of "
        "peer '%s'",
        decl.PredicateId().c_str(), decl.peer.c_str(), owner_peer_.c_str()));
  }
  auto it = relations_.find(decl.relation);
  if (it != relations_.end()) {
    if (it->second->decl() == decl) return Status::OK();  // idempotent
    return Status::AlreadyExists(
        "relation " + decl.PredicateId() +
        " already declared with a different schema");
  }
  auto inserted =
      relations_.emplace(decl.relation, std::make_unique<Relation>(decl));
  Relation* rel = inserted.first->second.get();
  by_symbol_[rel->symbol().id()] = rel;
  return Status::OK();
}

Relation* Catalog::Get(const std::string& relation) {
  auto it = relations_.find(relation);
  return it == relations_.end() ? nullptr : it->second.get();
}

const Relation* Catalog::Get(const std::string& relation) const {
  auto it = relations_.find(relation);
  return it == relations_.end() ? nullptr : it->second.get();
}

Result<bool> Catalog::InsertFact(const Fact& fact) {
  if (fact.peer != owner_peer_) {
    return Status::InvalidArgument(StrFormat(
        "fact %s belongs to peer '%s', not '%s'", fact.ToString().c_str(),
        fact.peer.c_str(), owner_peer_.c_str()));
  }
  Relation* rel = Get(fact.relation);
  if (rel == nullptr) {
    if (!auto_declare_) {
      return Status::NotFound("relation " + fact.PredicateId() +
                              " is not declared");
    }
    RelationDecl decl;
    decl.relation = fact.relation;
    decl.peer = owner_peer_;
    decl.kind = RelationKind::kExtensional;
    decl.columns.resize(fact.arity());
    for (size_t i = 0; i < fact.arity(); ++i) {
      decl.columns[i].name = StrFormat("c%zu", i);
      decl.columns[i].type = ValueKind::kAny;
    }
    WDL_RETURN_IF_ERROR(Declare(decl));
    rel = Get(fact.relation);
  }
  return rel->Insert(fact.args);
}

Result<bool> Catalog::RemoveFact(const Fact& fact) {
  if (fact.peer != owner_peer_) {
    return Status::InvalidArgument(StrFormat(
        "fact %s belongs to peer '%s', not '%s'", fact.ToString().c_str(),
        fact.peer.c_str(), owner_peer_.c_str()));
  }
  Relation* rel = Get(fact.relation);
  if (rel == nullptr) {
    return Status::NotFound("relation " + fact.PredicateId() +
                            " is not declared");
  }
  return rel->Remove(fact.args);
}

std::vector<std::string> Catalog::RelationNames() const {
  std::vector<std::string> names;
  names.reserve(relations_.size());
  for (const auto& [name, rel] : relations_) names.push_back(name);
  return names;  // std::map iterates in sorted order
}

Result<std::vector<Fact>> Catalog::Snapshot(
    const std::string& relation) const {
  const Relation* rel = Get(relation);
  if (rel == nullptr) {
    return Status::NotFound("relation " + relation + "@" + owner_peer_ +
                            " is not declared");
  }
  std::vector<Fact> facts;
  for (Tuple& t : rel->SortedTuples()) {
    facts.emplace_back(relation, owner_peer_, std::move(t));
  }
  return facts;
}

size_t Catalog::TotalTuples() const {
  size_t total = 0;
  for (const auto& [name, rel] : relations_) total += rel->size();
  return total;
}

}  // namespace wdl
