#ifndef WDL_TESTS_SUPPORT_FIXTURE_H_
#define WDL_TESTS_SUPPORT_FIXTURE_H_

#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "runtime/query.h"
#include "runtime/system.h"
#include "support/reference_eval.h"

namespace wdl {
namespace test {

/// The logical state of every peer of `system` (reference_eval.h).
LogicalState LogicalStateOf(const System& system);

/// Canonical text of a state, sorted. Empty relations and peers without
/// state are omitted: a declared but empty relation is no difference.
std::string RenderLogicalState(const LogicalState& state);

/// Expects `system` to hold exactly the (non-empty) logical state the
/// reference evaluator computes for `program`.
void ExpectMatchesReference(const System& system,
                            const ReferenceProgram& program);

/// Which way RunQuery answered (runtime/query.h).
enum class QueryPath { kLocalRead, kScratchRule };

/// Runs `body` at `peer` through RunQuery, expects it to be answered by
/// `path`, and expects the rows the reference evaluator derives for the
/// query added as a rule at `peer` over `program`. Returns the result
/// (empty if the query failed) for further assertions.
QueryResult ExpectQueryMatchesReference(System* system,
                                        const ReferenceProgram& program,
                                        const std::string& peer,
                                        const std::string& body,
                                        QueryPath path);

// Scenario steps that are inputs go to the system and to the reference
// program alike, so the reference sees the scenario's inputs, never the
// system's state.
void Load(Peer* peer, ReferenceProgram* ref, std::string_view text);
void Insert(Peer* peer, ReferenceProgram* ref, const Fact& fact);
void Remove(Peer* peer, ReferenceProgram* ref, const Fact& fact);

/// In-memory multi-peer network fixture: a System plus the peer setup
/// boilerplate (creation, mutual trust, quiescence with asserted
/// success) that the runtime tests otherwise re-clone.
class MultiPeerFixture : public ::testing::Test {
 protected:
  /// Creates and registers a peer.
  Peer* AddPeer(const std::string& name, PeerOptions options = {});

  /// Creates the named peers and makes every pair trust each other's
  /// delegations (skips the approval queue, like the engine tests do).
  std::vector<Peer*> AddTrustedPeers(const std::vector<std::string>& names);

  System system_;
};

}  // namespace test
}  // namespace wdl

#endif  // WDL_TESTS_SUPPORT_FIXTURE_H_
