#ifndef WDL_WORKLOAD_SOCIAL_GRAPH_H_
#define WDL_WORKLOAD_SOCIAL_GRAPH_H_

#include <cstdint>
#include <string>
#include <vector>

#include "base/result.h"
#include "runtime/peer.h"

namespace wdl {

class System;

/// Parameters of a synthetic follower graph. Popularity is
/// Zipf-distributed over peer ids: peer 0 is the biggest hub, peer 1
/// the second, and so on — the id *is* the popularity rank, which
/// keeps generation deterministic and hub selection trivial.
struct SocialGraphOptions {
  uint32_t num_peers = 1000;
  /// Average out-degree; total sampled edges ~= num_peers * this
  /// (slightly fewer survive self-loop and duplicate removal).
  uint32_t mean_followers = 8;
  /// Skew of the follow-target distribution: weight(rank r) = 1/(r+1)^s.
  /// 1.0 is the classic social-graph skew; 0.0 degenerates to uniform.
  double zipf_exponent = 1.0;
  uint64_t seed = 42;
};

/// A generated follower graph. "f follows v" means f's feed aggregates
/// v's posts; v's follower list is who a post of v fans out to.
struct SocialGraph {
  uint32_t num_peers = 0;
  size_t edge_count = 0;
  /// followers[v] = sorted, duplicate-free follower ids of v.
  std::vector<std::vector<uint32_t>> followers;

  uint32_t InDegree(uint32_t v) const {
    return static_cast<uint32_t>(followers[v].size());
  }
};

/// "u00000042" — fixed width so peer-name (map) order equals id order
/// and every name costs the same (fits std::string's inline buffer).
std::string SocialPeerName(uint32_t id);

SocialGraph GenerateSocialGraph(const SocialGraphOptions& options);

/// The WebdamLog program every social peer runs. One delegating rule:
///
///   rule feed@u($id, $who) :- follows@u($who), post@$who($id);
///
/// The body's variable-peer atom makes each followed peer a delegation
/// target: following installs a residual rule at the followee,
/// unfollowing retracts it, and a post at a hub fans out through the
/// hub's installed residuals to every follower's feed.
std::string SocialProgramText(const std::string& peer);

/// Options social peers are created with (delegations auto-trusted, so
/// follow storms install residuals without an approval step).
PeerOptions SocialPeerOptions();

/// One step of a churn script. Scripts are plain data so the same
/// sequence can drive a system and rebuild the reference evaluator's
/// input, then compare states.
struct SocialOp {
  enum class Kind : uint8_t { kFollow, kUnfollow, kPost };
  Kind kind;
  uint32_t actor = 0;   // the follower (kFollow/kUnfollow) or author
  uint32_t target = 0;  // the followee; unused for kPost
  int64_t post_id = 0;  // unused for follow ops
};

/// Deterministic op sequence over actors [0, num_actors): ~half
/// follows (Zipf-picked targets, so hubs accrete followers), a quarter
/// unfollows of currently-followed targets, a quarter posts by
/// Zipf-picked authors. Unfollows are only emitted for live edges, so
/// every op does real work.
std::vector<SocialOp> MakeChurnScript(uint32_t num_peers,
                                      uint32_t num_actors, size_t num_ops,
                                      double zipf_exponent, uint64_t seed);

/// Applies ops / graph edges to a System, creating and programming
/// peers on first touch (so idle peers stay engine-less slots).
class SocialDriver {
 public:
  explicit SocialDriver(System* system) : system_(system) {}

  /// Creates `id`'s peer if absent and loads the social program once.
  Status EnsurePeer(uint32_t id);

  /// Installs the static graph: every edge becomes a follows-fact (and
  /// hence, after stages run, a residual rule at the followee).
  Status SeedFollows(const SocialGraph& graph);

  Status Follow(uint32_t follower, uint32_t followee);
  Status Unfollow(uint32_t follower, uint32_t followee);
  Status Post(uint32_t author, int64_t post_id);
  Status Apply(const SocialOp& op);

 private:
  System* system_;
  std::vector<bool> programmed_;
};

}  // namespace wdl

#endif  // WDL_WORKLOAD_SOCIAL_GRAPH_H_
