#ifndef WDL_DURABILITY_SNAPSHOT_H_
#define WDL_DURABILITY_SNAPSHOT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "ast/program.h"
#include "base/result.h"
#include "engine/delegation.h"
#include "storage/tuple.h"

namespace wdl {

/// Everything one peer needs on disk to restart without rebuilding
/// derived state over the wire (DESIGN.md §11). A snapshot captures the
/// peer at a stage boundary — inbound queues drained, emission diffs
/// settled — so restoring it and replaying the WAL suffix reproduces
/// the peer exactly:
///
///  - catalog declarations, plus tuples for extensional relations
///    (intensional views are seeded from the slices on the first
///    stage);
///  - installed rules with their engine-local ids, origin peers, and
///    delegation keys;
///  - `SliceStore` streams: per-(relation, sender) slices with their
///    applied stream versions (support counts rebuild on restore);
///  - `SentContribution` state: per-(target, relation) shipped tuple
///    sets with their stream versions — the diffing base that lets a
///    recovered peer resume emitting precise deltas instead of blanket
///    re-snapshots;
///  - shipped delegations and the gate's pending-approval queue.
///
/// Plain data; encode/decode below reuse the binary wire codec's
/// primitives, with a whole-payload CRC-32 so a half-written or
/// bit-rotted snapshot is rejected and recovery falls back to the
/// previous generation.
struct SnapshotData {
  std::string peer;
  uint64_t next_rule_id = 1;
  uint64_t next_seq = 0;
  std::vector<std::string> known_peers;

  struct RelationState {
    RelationDecl decl;
    std::vector<Tuple> tuples;  // extensional only; empty for views
  };
  std::vector<RelationState> relations;

  struct RuleState {
    uint64_t id = 0;
    std::string origin_peer;
    uint64_t delegation_key = 0;
    Rule rule;
  };
  std::vector<RuleState> rules;

  struct StreamState {
    std::string relation;
    std::string sender;
    uint64_t version = 0;
    std::vector<Tuple> tuples;
  };
  std::vector<StreamState> slices;

  struct SentState {
    std::string target_peer;
    std::string relation;
    uint64_t version = 0;
    std::vector<Tuple> tuples;
  };
  std::vector<SentState> sent;

  std::vector<Delegation> sent_delegations;
  std::vector<Delegation> pending_delegations;  // gate approval queue
};

/// Self-contained file image: magic "WDLS" | format version u16 |
/// payload CRC-32 u32 | payload length u32 | payload.
std::string EncodeSnapshot(const SnapshotData& snap);
Result<SnapshotData> DecodeSnapshot(std::string_view bytes);

}  // namespace wdl

#endif  // WDL_DURABILITY_SNAPSHOT_H_
