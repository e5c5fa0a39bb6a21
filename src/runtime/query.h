#ifndef WDL_RUNTIME_QUERY_H_
#define WDL_RUNTIME_QUERY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "base/result.h"
#include "runtime/system.h"
#include "storage/tuple.h"

namespace wdl {

/// Result of an ad-hoc query: one column per distinct variable of the
/// query body, in order of first occurrence, plus the distinct rows in
/// sorted order.
struct QueryResult {
  std::vector<std::string> columns;
  std::vector<Tuple> rows;
  int rounds = 0;  // system rounds the evaluation took
  /// True when a local read of the query peer's catalog answered the
  /// query; false for the scratch-rule path. (The name is older than
  /// the local read; perfbench's social_churn reads the field.)
  bool demand_path = false;
  /// Candidate tuples the evaluation unified against — the "how much
  /// did this query touch" instrument. A local read reports its one
  /// evaluation, O(answers) when the body's constants drive index
  /// probes; the scratch-rule path reports the query peer's whole
  /// fixpoint.
  uint64_t tuples_examined = 0;

  std::string ToString() const;
};

/// Runs an ad-hoc WebdamLog query at `peer` — the §4 "Query tab":
/// "they will be able to use the Query tab to launch one of the
/// pre-defined queries, or to write their own WebdamLog queries".
///
/// `body` is a comma-separated list of body atoms, e.g.
///   "selectedAttendee@Jules($a), pictures@$a($id, $name, $o, $d)".
///
/// The system converges first (at most `max_rounds` rounds), and the
/// query must pass the checks Engine::AddRule runs: left-to-right
/// safety, the dialect, stratifiability. Then the query rule is
/// evaluated once over the peer's catalog, where at quiescence every
/// view is already materialized (DESIGN.md §10). Only a body that
/// reaches another peer — the evaluation emits a delegation — takes the
/// scratch-rule path instead: the rule
///   __query_<n>@peer($v1, ..., $vn) :- body
/// is installed into the peer's scratch view of arity n, the system
/// runs to quiescence (residuals delegate as usual, subject to the
/// targets' delegation gates), the view is read, and the rule is
/// removed with one more convergence so the residuals retract. The
/// view is declared at the peer's first distributed query of arity n
/// and stays; the declaration and the rule edits go through the Peer,
/// so a durable peer logs them.
Result<QueryResult> RunQuery(System* system, const std::string& peer,
                             const std::string& body, int max_rounds = 300);

}  // namespace wdl

#endif  // WDL_RUNTIME_QUERY_H_
