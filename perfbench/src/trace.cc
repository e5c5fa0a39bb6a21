#include "trace.h"

#include <cstdio>

namespace wdl::bench {

const char* SpanName(Span kind) {
  switch (kind) {
    case Span::kRound: return "runtime.round";
    case Span::kDeliver: return "net.deliver";
    case Span::kHandle: return "peer.handle";
    case Span::kStage: return "peer.stage";
    case Span::kSubmit: return "net.submit";
    case Span::kQuiesce: return "runtime.quiesce";
    case Span::kWrite: return "peer.write";
    case Span::kQuery: return "query.run";
    case Span::kCheck: return "bench.check";
    case Span::kWait: return "bench.wait";
    case Span::kCount: break;
  }
  return "?";
}

Tracer::Tracer() : origin_(Clock::now()) { spans_.reserve(1024); }

int64_t Tracer::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

void Tracer::Keep(Span kind, int64_t t0, int64_t t1) {
  if (spans_.size() < kMaxRawSpans) spans_.push_back({kind, t0, t1});
}

void Tracer::Record(Span kind, int64_t t0, int64_t t1) {
  total_ns_[static_cast<size_t>(kind)] += t1 - t0;
  covered_ns_ += t1 - t0;
  Keep(kind, t0, t1);
}

RoundReport Tracer::Round(System& system) {
  if (!enabled_) return system.RunRound();
  in_round_ = true;
  deliver_start_ = deliver_end_ = sync_at_ = last_stats_at_ = -1;
  first_submit_ = -1;
  submit_ns_ = 0;
  submits_.clear();
  int64_t t0 = NowNs();
  RoundReport report = system.RunRound();
  int64_t t1 = NowNs();
  in_round_ = false;

  if (report.envelopes_delivered == 0 && report.stages_run == 0) {
    Record(Span::kWait, t0, t1);
    return report;
  }
  auto add = [&](Span kind, int64_t a, int64_t b) {
    if (a < 0 || b < a) return int64_t{0};
    total_ns_[static_cast<size_t>(kind)] += b - a;
    Keep(kind, a, b);
    return b - a;
  };
  int64_t children = 0;
  children += add(Span::kDeliver, deliver_start_, deliver_end_);
  children += add(Span::kHandle, deliver_end_, sync_at_);
  int64_t stage_end = first_submit_ >= 0 ? first_submit_ : last_stats_at_;
  children += add(Span::kStage, sync_at_, stage_end);
  total_ns_[static_cast<size_t>(Span::kSubmit)] += submit_ns_;
  children += submit_ns_;
  for (const auto& [a, b] : submits_) Keep(Span::kSubmit, a, b);
  total_ns_[static_cast<size_t>(Span::kRound)] += (t1 - t0) - children;
  covered_ns_ += t1 - t0;
  Keep(Span::kRound, t0, t1);
  return report;
}

void Tracer::NoteDeliver(int64_t t0, int64_t t1) {
  if (!in_round_) return;
  deliver_start_ = t0;
  deliver_end_ = t1;
}

void Tracer::NoteSubmit(int64_t t0, int64_t t1) {
  if (!in_round_) return;
  if (first_submit_ < 0) first_submit_ = t0;
  submit_ns_ += t1 - t0;
  if (submits_.size() < 64) submits_.emplace_back(t0, t1);
}

void Tracer::NoteSync(int64_t t) {
  if (in_round_) sync_at_ = t;
}

void Tracer::NoteStats(int64_t t) {
  if (in_round_) last_stats_at_ = t;
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fputs("{\"traceEvents\":[\n", out);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const RawSpan& s = spans_[i];
    std::fprintf(out,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f}\n",
                 i == 0 ? "" : ",", SpanName(s.kind),
                 static_cast<double>(s.start_ns) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3);
  }
  std::fputs("]}\n", out);
  return std::fclose(out) == 0;
}

Status TimingNetwork::Submit(Envelope envelope, double now) {
  if (!tracer_->enabled()) return inner_->Submit(std::move(envelope), now);
  int64_t t0 = tracer_->NowNs();
  Status st = inner_->Submit(std::move(envelope), now);
  tracer_->NoteSubmit(t0, tracer_->NowNs());
  return st;
}

std::vector<Envelope> TimingNetwork::DeliverDue(double now) {
  if (!tracer_->enabled()) return inner_->DeliverDue(now);
  int64_t t0 = tracer_->NowNs();
  std::vector<Envelope> out = inner_->DeliverDue(now);
  tracer_->NoteDeliver(t0, tracer_->NowNs());
  return out;
}

NetworkStats TimingNetwork::StatsSnapshot() const {
  NetworkStats stats = inner_->StatsSnapshot();
  if (tracer_->enabled()) tracer_->NoteStats(tracer_->NowNs());
  return stats;
}

Status MarkerWrapper::Sync(Peer*) {
  if (tracer_->enabled()) tracer_->NoteSync(tracer_->NowNs());
  return Status::OK();
}

bool Converge(System& system, Tracer& tracer, int max_rounds,
              uint64_t* rounds, uint64_t* stages) {
  for (int i = 0; i <= max_rounds; ++i) {
    bool quiet = false;
    tracer.Time(Span::kQuiesce, [&] { quiet = system.IsQuiescent(); });
    if (quiet) return true;
    if (i == max_rounds) break;
    RoundReport r = tracer.Round(system);
    if (rounds != nullptr) ++*rounds;
    if (stages != nullptr) *stages += r.stages_run;
  }
  return false;
}

}  // namespace wdl::bench
