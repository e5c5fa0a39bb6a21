#ifndef WDL_RUNTIME_SYSTEM_H_
#define WDL_RUNTIME_SYSTEM_H_

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "base/result.h"
#include "net/network.h"
#include "runtime/peer.h"
#include "runtime/wrapper.h"

namespace wdl {

struct SystemOptions {
  uint64_t network_seed = 42;
  LinkConfig default_link;
  /// When > 0, every N-th round each peer submits version-only
  /// heartbeats for its outbound contribution streams (see
  /// Peer::MakeHeartbeats). Bounds the staleness window of a stream
  /// that went silent right after a dropped frame to roughly one
  /// interval plus a resync round trip. 0 disables (the default:
  /// change-triggered repair only, as before).
  int heartbeat_interval_rounds = 0;
  /// Durability root (DESIGN.md §11). Non-empty makes every peer this
  /// System creates durable, with its data dir at
  /// `durability_root/<peer name>` (unless the peer's own
  /// PeerOptions::durability.dir is already set). Empty (the default)
  /// keeps peers fully in-memory. Per-peer knobs (fsync policy,
  /// snapshot interval) come from `durability`, applied to every
  /// created peer.
  std::string durability_root;
  DurabilityOptions durability;
};

/// Counters for one RunRound call.
struct RoundReport {
  int round = 0;
  size_t envelopes_delivered = 0;
  size_t stages_run = 0;
  size_t envelopes_sent = 0;
  // Propagation-plane telemetry: what this round's stages *submitted*,
  // by protocol. Message/tuple counts are pre-loss (a dropped or
  // partitioned envelope is still counted — the stage did the work);
  // bytes_sent is what actually reached the wire, so the two bases
  // differ under lossy links.
  size_t delta_messages = 0;       // kDerivedDelta envelopes
  size_t resync_requests = 0;      // kResyncRequest envelopes
  size_t heartbeats_sent = 0;      // version-only stream heartbeats
  uint64_t delta_tuples_sent = 0;    // inserts+deletes in deltas
  uint64_t bytes_sent = 0;           // wire bytes submitted this round
};

/// The multi-peer coordinator: owns the transport and the peers, and
/// advances global time in rounds. One round =
///   deliver due messages -> handle link resets -> sync wrappers ->
///   run a stage at every peer with pending work -> submit their
///   outbound envelopes.
///
/// A round visits only the *ready set*: the peers that may have work.
/// A peer joins it when its engine raises a work notice (materialized,
/// took a fact, rule, delegation or inbound frame — through the Peer
/// API or engine() directly — or ran a stage that left work behind);
/// it leaves when a round finds it idle. So the per-round and
/// quiescence cost scales with the peers that have work, not with the
/// registered peers, and a converged system does no work — quiescence
/// is "no peer has pending work and nothing is in flight". The set is
/// ordered by peer name, the order stages run and submit in (DESIGN.md
/// §2).
///
/// The default transport is the deterministic SimulatedNetwork; an
/// asynchronous transport (TcpNetwork) can be injected instead, in
/// which case quiescence is a *local* judgment: remote peers of other
/// processes may still be computing.
class System {
 public:
  explicit System(SystemOptions options = {});
  /// Hosts this system's peers on an injected transport (e.g. a
  /// started TcpNetwork). The network must outlive nothing — the
  /// system takes ownership.
  System(std::unique_ptr<Network> network, SystemOptions options = {});

  System(const System&) = delete;
  System& operator=(const System&) = delete;

  /// Creates and registers a peer as a lightweight slot: its engine
  /// materializes on first fact, first rule, or first inbound frame
  /// that carries engine work, so an idle peer costs ~520 bytes
  /// (DESIGN.md §9). The registry itself is the discovery
  /// control plane (PeerNames()); peers learn of each other from
  /// traffic (envelope senders, Hello messages) — deliberately *not* by
  /// an all-pairs known-peer exchange here, which would cost O(peers²)
  /// work and memory at registration and cap the system at toy sizes.
  Peer* CreatePeer(const std::string& name, PeerOptions options = {});
  Peer* GetPeer(const std::string& name);
  const Peer* GetPeer(const std::string& name) const;
  std::vector<std::string> PeerNames() const;
  size_t PeerCount() const { return peers_.size(); }

  /// Peers whose engine has been materialized. The instrument behind
  /// "an idle peer costs ~nothing": a 100k-peer system with 200 active
  /// users holds 200 engines.
  size_t MaterializedPeerCount() const;

  /// Approximate resident bytes of per-peer fixed bookkeeping for
  /// `name` (registry map node + Peer::ApproxIdleBytes; engine state
  /// excluded — it scales with data, not peer count). 0 for unknown
  /// peers. The idle-peer regression ceiling is asserted against this.
  size_t ApproxPeerBytes(const std::string& name) const;

  /// The simulated network, for tests and benches that configure links
  /// and read deterministic stats. Only valid when the system was built
  /// with the default (simulated) transport.
  SimulatedNetwork& network();
  const SimulatedNetwork& network() const;
  /// The transport, whichever kind it is.
  Network& transport() { return *network_; }
  const Network& transport() const { return *network_; }

  /// Attaches a wrapper to its peer (calls Setup immediately; Sync runs
  /// each round before the stages).
  Status AttachWrapper(std::unique_ptr<Wrapper> wrapper);

  /// Advances time by one round and runs it.
  RoundReport RunRound();

  /// Runs rounds until the system is quiescent; returns the number of
  /// rounds this call ran, or FailedPrecondition after `max_rounds`.
  Result<int> RunUntilQuiescent(int max_rounds = 1000);

  /// True when nothing is in flight and no peer has pending work.
  /// Checks only the ready set, which holds every peer whose
  /// HasPendingWork() is true, so it costs O(peers with work).
  bool IsQuiescent() const;

  double now() const { return now_; }
  int rounds_run() const { return rounds_run_; }

 private:
  void SyncWrappers();

  SystemOptions options_;
  std::unique_ptr<Network> network_;
  SimulatedNetwork* simulated_ = nullptr;  // network_ when simulated
  struct ByName {
    bool operator()(const Peer* a, const Peer* b) const {
      return a->name() < b->name();
    }
  };
  // Peers that may have pending work (a superset of those that do), in
  // name order. Declared before peers_ so it outlives their listeners.
  std::set<Peer*, ByName> ready_;
  std::map<std::string, std::unique_ptr<Peer>> peers_;
  std::vector<std::unique_ptr<Wrapper>> wrappers_;
  double now_ = 0.0;
  int rounds_run_ = 0;
};

}  // namespace wdl

#endif  // WDL_RUNTIME_SYSTEM_H_
