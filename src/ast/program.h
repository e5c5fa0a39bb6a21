#ifndef WDL_AST_PROGRAM_H_
#define WDL_AST_PROGRAM_H_

#include <ostream>
#include <string>
#include <vector>

#include "ast/fact.h"
#include "ast/rule.h"

namespace wdl {

/// Storage discipline of a relation (the WebdamLog model's dichotomy):
/// extensional relations persist across stages and accept updates;
/// intensional relations are views: they hold exactly what their rules
/// and remote contributions derive, maintained from stage to stage.
enum class RelationKind : uint8_t {
  kExtensional = 0,
  kIntensional = 1,
};

const char* RelationKindToString(RelationKind kind);

/// One column of a relation schema. kAny admits any value kind, which
/// wrappers use for loosely typed external data.
struct ColumnSpec {
  std::string name;
  ValueKind type = ValueKind::kAny;

  bool operator==(const ColumnSpec& o) const {
    return name == o.name && type == o.type;
  }
};

/// Declaration of a relation `name@peer` with a fixed schema, e.g.
///   collection ext persistent pictures@alice(id: int, name: string);
struct RelationDecl {
  std::string relation;
  std::string peer;
  RelationKind kind = RelationKind::kExtensional;
  std::vector<ColumnSpec> columns;

  size_t arity() const { return columns.size(); }
  std::string PredicateId() const { return relation + "@" + peer; }
  std::string ToString() const;

  bool operator==(const RelationDecl& o) const {
    return relation == o.relation && peer == o.peer && kind == o.kind &&
           columns == o.columns;
  }
};

/// A parsed WebdamLog program: declarations, base facts, and rules, in
/// source order. This is the unit a peer is initialized with and the
/// unit the parser produces.
struct Program {
  std::vector<RelationDecl> declarations;
  std::vector<Fact> facts;
  std::vector<Rule> rules;

  bool empty() const {
    return declarations.empty() && facts.empty() && rules.empty();
  }

  /// Re-renders the program in surface syntax (one statement per line,
  /// each terminated with ';'). Parsing the output yields an equal
  /// Program — round-tripping is covered by tests.
  std::string ToString() const;
};

inline std::ostream& operator<<(std::ostream& os, const Program& p) {
  return os << p.ToString();
}

}  // namespace wdl

#endif  // WDL_AST_PROGRAM_H_
