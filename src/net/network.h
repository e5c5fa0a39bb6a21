#ifndef WDL_NET_NETWORK_H_
#define WDL_NET_NETWORK_H_

#include <map>
#include <queue>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "base/result.h"
#include "base/rng.h"
#include "net/message.h"

namespace wdl {

/// Delivery characteristics of one directed link. Latency is measured
/// in stage-time units (1.0 = one system round); the default 0.5 means
/// "arrives before the next round", matching a LAN where message
/// delivery is faster than a computation stage.
struct LinkConfig {
  double latency = 0.5;
  double jitter = 0.0;           // uniform extra latency in [0, jitter)
  double drop_probability = 0.0; // iid per message
  /// iid per message: the frame is delivered twice (with independent
  /// latency draws, so the copies can reorder around later traffic).
  /// Exercises the at-least-once tolerance of the delta protocol.
  double duplicate_probability = 0.0;
};

struct NetworkStats {
  uint64_t messages_submitted = 0;
  uint64_t messages_delivered = 0;
  uint64_t messages_dropped = 0;    // random loss
  uint64_t messages_partitioned = 0; // lost to a partition
  uint64_t messages_duplicated = 0;  // extra copies injected by links
  uint64_t bytes_sent = 0;           // frames the sender actually emitted
  /// Wire bytes of the *extra* copies injected by duplicate_probability.
  /// Kept out of bytes_sent so protocol byte accounting (BENCH_pr3/pr4
  /// comparisons) measures what the sender shipped, not the link fault
  /// injection; total wire occupancy is the sum of both.
  uint64_t bytes_duplicated = 0;

  void Reset() { *this = NetworkStats(); }
};

/// Abstract transport between peers, addressed by peer name.
class Network {
 public:
  virtual ~Network() = default;
  /// Queues an envelope for delivery; `now` is current system time.
  virtual Status Submit(Envelope envelope, double now) = 0;
  /// Pops every envelope whose delivery time is <= `now`, in delivery
  /// order (time, then submission sequence).
  virtual std::vector<Envelope> DeliverDue(double now) = 0;
  virtual bool HasInFlight() const = 0;
  /// Point-in-time copy of the transport counters.
  virtual NetworkStats StatsSnapshot() const = 0;
  /// Peers whose link to this endpoint was reset (connection dropped or
  /// re-established) since the last call. The runtime reacts by
  /// re-shipping its streams to — and re-requesting the streams from —
  /// those peers, so a restarted process heals like a gap-detected
  /// stream. A simulated network never resets links.
  virtual std::vector<std::string> TakePeerResets() { return {}; }
};

/// Deterministic in-process network simulator. Every envelope is
/// round-tripped through the binary wire codec (encode on submit,
/// decode on delivery), so byte accounting is exact and the codec is on
/// the hot path of every experiment. Jitter and drops come from a
/// seeded PRNG: identical seeds replay identical executions.
///
/// This is the paper-substitution for the live LAN + cloud deployment;
/// see DESIGN.md §2. Latency/jitter/drop/duplicate/partition knobs let
/// tests exercise reorderings and failures that a demo floor never
/// shows.
class SimulatedNetwork : public Network {
 public:
  explicit SimulatedNetwork(uint64_t seed = 42,
                            LinkConfig default_link = LinkConfig{});

  /// Overrides the link from `from` to `to` (directed). Per-link state
  /// exists only for links configured here — a default-config link
  /// costs nothing until (or unless) traffic crosses it, so an N-peer
  /// system carries O(configured links), never O(N²). To shape *every*
  /// link, use SetDefaultLink instead of an all-pairs SetLink loop.
  void SetLink(const std::string& from, const std::string& to,
               LinkConfig config);

  /// Replaces the config that links without a SetLink override use —
  /// O(1) however many peers exist. Affects frames submitted from now
  /// on; in-flight frames keep the latency they were assigned.
  void SetDefaultLink(LinkConfig config) { default_link_ = config; }

  /// Severs (or heals) both directions between `a` and `b`. Messages
  /// submitted while partitioned are lost, as over a real WAN cut.
  void SetPartitioned(const std::string& a, const std::string& b,
                      bool partitioned);

  /// Severs (or heals) `peer` from *everyone* in O(1) — the building
  /// block for regional partitions at scale: cutting a 5k-peer region
  /// off a 100k-peer world is 5k isolations, not 5k×95k pair entries.
  /// Messages to or from an isolated peer are lost (counted as
  /// partitioned), exactly as with SetPartitioned.
  void SetIsolated(const std::string& peer, bool isolated);

  Status Submit(Envelope envelope, double now) override;
  std::vector<Envelope> DeliverDue(double now) override;
  bool HasInFlight() const override { return !in_flight_.empty(); }
  NetworkStats StatsSnapshot() const override { return stats_; }

  const NetworkStats& stats() const { return stats_; }
  void ResetStats() { stats_.Reset(); }

  /// Per-directed-edge message counts, for topology experiments (F2).
  const std::map<std::pair<std::string, std::string>, uint64_t>&
  edge_message_counts() const {
    return edge_messages_;
  }

  /// Per-edge counting grows one map entry per active directed edge —
  /// fine for topology experiments, unwanted bookkeeping for 100k-peer
  /// scale runs. Disabled, Submit keeps aggregate stats only. Default
  /// on (the seed behavior).
  void set_track_edge_counts(bool track) { track_edge_counts_ = track; }

 private:
  struct InFlight {
    double deliver_at;
    uint64_t seq;
    std::string bytes;

    bool operator>(const InFlight& o) const {
      if (deliver_at != o.deliver_at) return deliver_at > o.deliver_at;
      return seq > o.seq;
    }
  };

  const LinkConfig& LinkFor(const std::string& from,
                            const std::string& to) const;

  Rng rng_;
  LinkConfig default_link_;
  std::map<std::pair<std::string, std::string>, LinkConfig> links_;
  std::set<std::pair<std::string, std::string>> partitions_;
  std::set<std::string> isolated_;
  bool track_edge_counts_ = true;
  std::priority_queue<InFlight, std::vector<InFlight>, std::greater<>>
      in_flight_;
  uint64_t next_seq_ = 0;
  NetworkStats stats_;
  std::map<std::pair<std::string, std::string>, uint64_t> edge_messages_;
};

}  // namespace wdl

#endif  // WDL_NET_NETWORK_H_
