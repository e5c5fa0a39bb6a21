// Layer attribution from outside the program: the benchmark times
// calls into each layer's public interface from its own files.
//
//  - TimingNetwork decorates the transport handed to System and times
//    DeliverDue and Submit (and timestamps StatsSnapshot, which
//    System::RunRound calls right before its pending-peer scan and
//    again at its very end).
//  - MarkerWrapper is a no-op Wrapper: System::RunRound syncs wrappers
//    after delivering envelopes to Peer::HandleEnvelope and before it
//    runs Peer::RunStage over pending peers, so its Sync timestamp
//    splits the round.
//  - Tracer::Time wraps the benchmark's own calls (Peer::Insert/Remove,
//    RunQuery, System::IsQuiescent, its visibility checks and waits).
//
// Spans stay in memory; WriteChromeTrace writes them out when the run
// ends (chrome://tracing / Perfetto JSON).
#ifndef WDL_PERFBENCH_TRACE_H_
#define WDL_PERFBENCH_TRACE_H_

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "net/network.h"
#include "runtime/system.h"
#include "runtime/wrapper.h"

namespace wdl::bench {

enum class Span : uint8_t {
  kRound,    // System::RunRound self time (minus the four below)
  kDeliver,  // Network::DeliverDue
  kHandle,   // DeliverDue end -> marker Sync: Peer::HandleEnvelope loop
  kStage,    // marker Sync -> first Submit: pending scan + RunStage
  kSubmit,   // Network::Submit
  kQuiesce,  // System::IsQuiescent called by the benchmark
  kWrite,    // Peer::Insert / Peer::Remove called by the benchmark
  kQuery,    // RunQuery
  kCheck,    // the benchmark's visibility and result checks
  kWait,     // rounds that did nothing, plus the poll sleep after them
  kCount
};

const char* SpanName(Span kind);

class Tracer {
 public:
  Tracer();

  bool enabled() const { return enabled_; }
  /// Turns recording on or off; only between rounds.
  void set_enabled(bool on) { enabled_ = on; }

  /// Times `fn` as one span of `kind` (just calls it when disabled).
  template <typename Fn>
  void Time(Span kind, Fn&& fn) {
    if (!enabled_) {
      fn();
      return;
    }
    int64_t t0 = NowNs();
    fn();
    Record(kind, t0, NowNs());
  }

  /// Runs one System round and attributes its time. A round that
  /// delivered nothing and ran no stage is booked whole as kWait.
  RoundReport Round(System& system);

  // Hooks for the decorator and the marker; ignored outside Round().
  void NoteDeliver(int64_t t0, int64_t t1);
  void NoteSubmit(int64_t t0, int64_t t1);
  void NoteSync(int64_t t);
  void NoteStats(int64_t t);

  /// Accumulated time of `kind` in microseconds (self time for kRound).
  double TotalUs(Span kind) const {
    return static_cast<double>(total_ns_[static_cast<size_t>(kind)]) / 1e3;
  }
  /// Time covered by top-level spans, in seconds.
  double CoveredSeconds() const {
    return static_cast<double>(covered_ns_) / 1e9;
  }

  /// Writes the recorded spans as a Chrome trace event file.
  bool WriteChromeTrace(const std::string& path) const;

  int64_t NowNs() const;

 private:
  struct RawSpan {
    Span kind;
    int64_t start_ns;
    int64_t end_ns;
  };
  // Raw spans kept for the trace file; totals keep counting beyond it.
  static constexpr size_t kMaxRawSpans = 200000;

  void Record(Span kind, int64_t t0, int64_t t1);
  void Keep(Span kind, int64_t t0, int64_t t1);

  Clock::time_point origin_;
  bool enabled_ = false;
  std::array<int64_t, static_cast<size_t>(Span::kCount)> total_ns_{};
  int64_t covered_ns_ = 0;
  std::vector<RawSpan> spans_;

  // Timestamps of the round in progress.
  bool in_round_ = false;
  int64_t deliver_start_ = -1;
  int64_t deliver_end_ = -1;
  int64_t sync_at_ = -1;
  int64_t last_stats_at_ = -1;
  int64_t first_submit_ = -1;
  int64_t submit_ns_ = 0;
  std::vector<std::pair<int64_t, int64_t>> submits_;
};

/// Network decorator timing the transport calls System makes.
class TimingNetwork : public Network {
 public:
  TimingNetwork(std::unique_ptr<Network> inner, Tracer* tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  Status Submit(Envelope envelope, double now) override;
  std::vector<Envelope> DeliverDue(double now) override;
  bool HasInFlight() const override { return inner_->HasInFlight(); }
  NetworkStats StatsSnapshot() const override;
  std::vector<std::string> TakePeerResets() override {
    return inner_->TakePeerResets();
  }

 private:
  std::unique_ptr<Network> inner_;
  Tracer* tracer_;
};

/// No-op wrapper whose Sync marks the deliver/stage boundary of a round.
class MarkerWrapper : public Wrapper {
 public:
  MarkerWrapper(std::string peer, Tracer* tracer)
      : peer_(std::move(peer)), tracer_(tracer) {}

  const std::string& peer_name() const override { return peer_; }
  Status Setup(Peer*) override { return Status::OK(); }
  Status Sync(Peer*) override;

 private:
  std::string peer_;
  Tracer* tracer_;
};

/// Runs traced rounds until the in-process system is quiescent (each
/// IsQuiescent call is timed as kQuiesce). Adds the rounds and stages
/// it ran to `*rounds` / `*stages` when non-null. False when
/// `max_rounds` were not enough.
bool Converge(System& system, Tracer& tracer, int max_rounds,
              uint64_t* rounds = nullptr, uint64_t* stages = nullptr);

}  // namespace wdl::bench

#endif  // WDL_PERFBENCH_TRACE_H_
