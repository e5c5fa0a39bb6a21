#ifndef WDL_TESTS_SUPPORT_REFERENCE_EVAL_H_
#define WDL_TESTS_SUPPORT_REFERENCE_EVAL_H_

#include <map>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "ast/fact.h"
#include "ast/program.h"
#include "base/result.h"

namespace wdl {
namespace test {

/// The logical state of a whole system: per peer, its relations (kind
/// plus tuples) and its rules without ids, each as (rule text, origin
/// peer) with an empty origin for a locally authored rule. The
/// reference evaluator produces one; fixture.h reads one out of a
/// System and renders both the same way.
struct LogicalState {
  struct Relation {
    RelationKind kind = RelationKind::kExtensional;
    std::set<std::vector<Value>> tuples;
  };
  struct Peer {
    std::map<std::string, Relation> relations;
    std::multiset<std::pair<std::string, std::string>> rules;
  };
  std::map<std::string, Peer> peers;
};

/// What every peer holds at the end of a scenario: declarations, its
/// current base facts and its current local rules. Tests rebuild this
/// from their own op scripts, never from the system under test.
struct ReferenceProgram {
  /// Parses `text` and appends it to `peer`'s program.
  Status Load(const std::string& peer, std::string_view text);
  void Insert(const Fact& fact);
  void Remove(const Fact& fact);

  std::map<std::string, Program> peers;
  /// "relation@peer" entries backed by a wrapper (an external system).
  std::vector<std::string> wrappers;
};

/// A deliberately naive whole-system WebdamLog evaluator, written from
/// DESIGN.md §1–2 and sharing no code with the engine, storage, network
/// or runtime layers. All peers' rules run globally and bottom-up, body
/// atoms left to right; an atom at another peer turns the rest of the
/// rule into a residual installed there (every delegation is accepted).
/// Negation is stratified by relation name across peers; local deletion
/// rules run after each fixpoint until they remove nothing. No plans,
/// streams, slice store or laziness.
///
/// The result is what a converged system holds given these inputs
/// alone — history (an extensional head keeping facts whose sources
/// were later removed) is out of scope. Wrappers, deletion heads at
/// another peer and negation over a variable relation or peer return
/// Unimplemented rather than a wrong answer.
Result<LogicalState> ReferenceEvaluate(const ReferenceProgram& program);

}  // namespace test
}  // namespace wdl

#endif  // WDL_TESTS_SUPPORT_REFERENCE_EVAL_H_
