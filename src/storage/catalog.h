#ifndef WDL_STORAGE_CATALOG_H_
#define WDL_STORAGE_CATALOG_H_

#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "ast/fact.h"
#include "ast/program.h"
#include "base/result.h"
#include "base/symbol.h"
#include "storage/relation.h"

namespace wdl {

/// The schema-and-data dictionary of a single peer. Relations are keyed
/// by relation name; the owning peer name is fixed at construction (a
/// peer only ever stores relations located at itself — remote facts
/// travel over the network instead).
///
/// WebdamLog programs are dynamic: peers discover new relations at run
/// time (§2, "peers may discover new peers and new relations"). The
/// catalog therefore supports auto-declaration: an insert into an
/// unknown relation creates an extensional relation with inferred
/// any-typed columns when `auto_declare` is enabled (the default,
/// matching the system's behavior).
class Catalog {
 public:
  explicit Catalog(std::string owner_peer, bool auto_declare = true)
      : owner_peer_(std::move(owner_peer)), auto_declare_(auto_declare) {}

  Catalog(const Catalog&) = delete;
  Catalog& operator=(const Catalog&) = delete;

  const std::string& owner_peer() const { return owner_peer_; }

  /// Declares a relation. The declaration's peer must be the owner peer.
  Status Declare(const RelationDecl& decl);

  bool Has(const std::string& relation) const {
    return relations_.count(relation) > 0;
  }

  /// nullptr when undeclared.
  Relation* Get(const std::string& relation);
  const Relation* Get(const std::string& relation) const;

  /// Symbol-id lookup: O(1) integer hash, no string comparison. Every
  /// declared relation's name is interned at Declare time, so compiled
  /// rule plans resolve atoms by id in the join loop (DESIGN.md §4).
  /// nullptr when undeclared (or `sym` is invalid).
  Relation* Get(Symbol sym) {
    auto it = by_symbol_.find(sym.id());
    return it == by_symbol_.end() ? nullptr : it->second;
  }
  const Relation* Get(Symbol sym) const {
    auto it = by_symbol_.find(sym.id());
    return it == by_symbol_.end() ? nullptr : it->second;
  }

  /// Inserts a fact located at this peer, auto-declaring if allowed.
  /// Returns true when the tuple was new.
  Result<bool> InsertFact(const Fact& fact);

  /// Removes a fact; NotFound if the relation is undeclared.
  Result<bool> RemoveFact(const Fact& fact);

  /// Relation names in sorted order (stable listings for UI/tests).
  std::vector<std::string> RelationNames() const;

  /// All resident facts of one relation, in canonical order.
  Result<std::vector<Fact>> Snapshot(const std::string& relation) const;

  /// Total resident tuples across all relations.
  size_t TotalTuples() const;

 private:
  std::string owner_peer_;
  bool auto_declare_;
  std::map<std::string, std::unique_ptr<Relation>> relations_;
  // Interned-name index over relations_. A relation, once declared, is
  // never removed, so a `Relation*` stays valid for the catalog's life.
  std::unordered_map<uint32_t, Relation*> by_symbol_;
};

}  // namespace wdl

#endif  // WDL_STORAGE_CATALOG_H_
