#include "report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace wdl::bench {

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  size_t idx = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(idx, values.size() - 1)];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

std::vector<Window> RunSlices(double seconds, int slices,
                              const std::function<Window(double)>& mix) {
  std::vector<Window> out;
  for (int i = 0; i < slices; ++i) out.push_back(mix(seconds / slices));
  return out;
}

void EndToEnd::FromSlices(const std::vector<Window>& slices) {
  std::vector<double> rates, cpu, p50, p90;
  Window all;
  bool slice_p90 = true;  // every slice has >= 10 samples above its p90
  for (const Window& w : slices) {
    rates.push_back(w.OpsPerSecond());
    cpu.push_back(w.PerOp(w.cpu_ms));
    p50.push_back(Percentile(w.visible_ms, 50));
    p90.push_back(Percentile(w.visible_ms, 90));
    slice_p90 = slice_p90 && w.visible_ms.size() >= 100;
    all.Merge(w);
    std::fprintf(stderr, "  slice: %.1f ops/s, %.4f cpu ms/op, p90 %.3f ms\n",
                 rates.back(), cpu.back(), p90.back());
  }
  ops_per_s = Median(rates);
  cpu_ms_per_op = Median(cpu);
  visible_p50_ms = Median(p50);
  visible_p90_ms = slice_p90 ? Median(p90) : Percentile(all.visible_ms, 90);
}

void Window::Merge(const Window& o) {
  seconds += o.seconds;
  ops += o.ops;
  failed += o.failed;
  rounds += o.rounds;
  stages += o.stages;
  visible_ms.insert(visible_ms.end(), o.visible_ms.begin(), o.visible_ms.end());
  query_ms.insert(query_ms.end(), o.query_ms.begin(), o.query_ms.end());
  demand_queries += o.demand_queries;
  query_tuples_examined += o.query_tuples_examined;
  cpu_ms += o.cpu_ms;
}

TracedRun RunTraced(Tracer& tracer, double seconds, int pairs,
                    const std::function<Window(double)>& mix) {
  TracedRun run;
  const double slice = seconds / (2 * pairs);
  for (int i = 0; i < pairs; ++i) {
    run.plain.Merge(mix(slice));
    tracer.set_enabled(true);
    run.traced.Merge(mix(slice));
    tracer.set_enabled(false);
  }
  run.all = run.plain;
  run.all.Merge(run.traced);
  return run;
}

void LayerReport::FromSpans(const Tracer& tracer, const TracedRun& run) {
  const Window& w = run.traced;
  overhead = run.plain.OpsPerSecond() > 0
                 ? w.OpsPerSecond() / run.plain.OpsPerSecond()
                 : 0.0;
  round_us = w.PerOp(tracer.TotalUs(Span::kRound) + tracer.TotalUs(Span::kQuiesce));
  deliver_us = w.PerOp(tracer.TotalUs(Span::kDeliver));
  submit_us = w.PerOp(tracer.TotalUs(Span::kSubmit));
  handle_us = w.PerOp(tracer.TotalUs(Span::kHandle));
  stage_us = w.PerOp(tracer.TotalUs(Span::kStage));
  write_us = w.PerOp(tracer.TotalUs(Span::kWrite));
  query_us = w.PerOp(tracer.TotalUs(Span::kQuery));
  wait_us = w.PerOp(tracer.TotalUs(Span::kWait));
  coverage = w.seconds > 0 ? tracer.CoveredSeconds() / w.seconds : 0.0;
  visible_samples = static_cast<double>(w.visible_ms.size());
  visible_p99_ms = Percentile(run.plain.visible_ms, 99);
}

Counters SampleCounters(const System& system) {
  Counters c;
  for (const std::string& name : system.PeerNames()) {
    const Peer* peer = system.GetPeer(name);
    if (peer == nullptr || !peer->has_engine()) continue;
    const Engine& engine = peer->engine();
    c.eval.MergeFrom(engine.eval_counters());
    const PropagationCounters& p = engine.propagation_counters();
    c.delta_tuples += p.delta_inserts_shipped + p.delta_deletes_shipped;
    c.snapshots += p.snapshots_shipped;
    c.resyncs += p.resyncs_requested;
  }
  c.plans = SharedPlanCache::Instance().stats();
  c.net = system.transport().StatsSnapshot();
  return c;
}

void FillCounterLayers(const Counters& before, const Counters& after,
                       const Window& w, LayerReport* out) {
  auto per_op = [&](uint64_t a, uint64_t b) {
    return w.PerOp(static_cast<double>(b - a));
  };
  const EvalCounters& e0 = before.eval;
  const EvalCounters& e1 = after.eval;
  out->tuples_examined = per_op(e0.tuples_examined, e1.tuples_examined);
  out->index_lookups = per_op(e0.index_lookups, e1.index_lookups);
  out->full_scans = per_op(e0.full_scans, e1.full_scans);
  out->rederive_checks = per_op(e0.rederive_checks, e1.rederive_checks);
  out->tuples_retracted = per_op(e0.tuples_retracted, e1.tuples_retracted);
  out->stages_full = per_op(e0.stages_full, e1.stages_full);
  out->stages_incremental =
      per_op(e0.stages_incremental, e1.stages_incremental);
  const uint64_t compiles = after.plans.compiles - before.plans.compiles;
  const uint64_t hits = after.plans.hits - before.plans.hits;
  out->plan_compiles = w.PerOp(static_cast<double>(compiles));
  out->plan_cache_hit_ratio =
      compiles + hits > 0 ? static_cast<double>(hits) / (compiles + hits) : 0.0;
  out->prop_delta_tuples = per_op(before.delta_tuples, after.delta_tuples);
  out->prop_snapshots = per_op(before.snapshots, after.snapshots);
  out->prop_resyncs = per_op(before.resyncs, after.resyncs);
  const uint64_t messages =
      after.net.messages_submitted - before.net.messages_submitted;
  const uint64_t bytes = after.net.bytes_sent - before.net.bytes_sent;
  out->net_messages = w.PerOp(static_cast<double>(messages));
  out->net_bytes_per_message =
      messages > 0 ? static_cast<double>(bytes) / messages : 0.0;
  out->runtime_stages = w.PerOp(static_cast<double>(w.stages));
  out->runtime_rounds = w.PerOp(static_cast<double>(w.rounds));
}

void FillQueryLayers(const TracedRun& run, LayerReport* out) {
  out->query_p50_ms = Percentile(run.plain.query_ms, 50);
  out->query_p99_ms = Percentile(run.plain.query_ms, 99);
  if (run.all.query_ms.empty()) return;
  const double queries = static_cast<double>(run.all.query_ms.size());
  out->query_tuples_examined =
      static_cast<double>(run.all.query_tuples_examined) / queries;
  out->query_demand_share = static_cast<double>(run.all.demand_queries) / queries;
}

void EmitEndToEnd(const EndToEnd& e, RunResult* out) {
  out->Add("setup_s", e.setup_s, "s");
  out->Add("ops_per_s", e.ops_per_s, "1/s");
  out->Add("visible_p50_ms", e.visible_p50_ms, "ms");
  out->Add("visible_p90_ms", e.visible_p90_ms, "ms");
  out->Add("cpu_ms_per_op", e.cpu_ms_per_op, "ms");
  out->Add("peak_rss_mb", e.peak_rss_mb, "MB");
}

void EmitLayers(const LayerReport& l, RunResult* out) {
  out->Add("runtime.round_us_per_op", l.round_us, "us");
  out->Add("net.deliver_us_per_op", l.deliver_us, "us");
  out->Add("net.submit_us_per_op", l.submit_us, "us");
  out->Add("peer.handle_us_per_op", l.handle_us, "us");
  out->Add("peer.stage_us_per_op", l.stage_us, "us");
  out->Add("peer.write_us_per_op", l.write_us, "us");
  out->Add("query.run_us_per_op", l.query_us, "us");
  out->Add("bench.wait_us_per_op", l.wait_us, "us");
  out->Add("trace.coverage", l.coverage, "ratio");
  out->Add("trace.overhead", l.overhead, "ratio");
  out->Add("wire_bytes_per_op", l.wire_bytes_per_op, "B");
  out->Add("query_p50_ms", l.query_p50_ms, "ms");
  out->Add("query_p99_ms", l.query_p99_ms, "ms");
  out->Add("visible.samples", l.visible_samples, "count");
  out->Add("visible_p99_ms", l.visible_p99_ms, "ms");
  out->Add("engine.tuples_examined_per_op", l.tuples_examined, "count");
  out->Add("engine.index_lookups_per_op", l.index_lookups, "count");
  out->Add("engine.full_scans_per_op", l.full_scans, "count");
  out->Add("engine.rederive_checks_per_op", l.rederive_checks, "count");
  out->Add("engine.tuples_retracted_per_op", l.tuples_retracted, "count");
  out->Add("engine.stages_full_per_op", l.stages_full, "count");
  out->Add("engine.stages_incremental_per_op", l.stages_incremental, "count");
  out->Add("engine.plan_compiles_per_op", l.plan_compiles, "count");
  out->Add("engine.plan_cache_hit_ratio", l.plan_cache_hit_ratio, "ratio");
  out->Add("query.tuples_examined_per_query", l.query_tuples_examined, "count");
  out->Add("query.demand_share", l.query_demand_share, "ratio");
  out->Add("prop.delta_tuples_per_op", l.prop_delta_tuples, "count");
  out->Add("prop.snapshots_per_op", l.prop_snapshots, "count");
  out->Add("prop.resyncs_per_op", l.prop_resyncs, "count");
  out->Add("net.messages_per_op", l.net_messages, "count");
  out->Add("net.bytes_per_message", l.net_bytes_per_message, "B");
  out->Add("runtime.stages_per_op", l.runtime_stages, "count");
  out->Add("runtime.rounds_per_op", l.runtime_rounds, "count");
  out->Add("runtime.materialized_peers", l.materialized_peers, "count");
  for (const auto& [name, d] :
       {std::pair<const char*, const DaemonLayer*>{"sigmod", &l.sigmod},
        {"viewer", &l.viewer}}) {
    std::string p = std::string("peerd.") + name;
    out->Add(p + ".cpu_ms_per_op", d->cpu_ms_per_op, "ms");
    out->Add(p + ".busy_share", d->busy_share, "ratio");
    out->Add(p + ".write_syscalls_per_op", d->write_syscalls_per_op, "count");
    out->Add(p + ".write_bytes_per_op", d->write_bytes_per_op, "B");
    out->Add(std::string("durability.") + name + ".disk_bytes_per_op",
             d->disk_bytes_per_op, "B");
  }
  out->Add("tcp.reconnects", l.tcp_reconnects, "count");
  out->Add("tcp.send_failures", l.tcp_send_failures, "count");
}

}  // namespace wdl::bench
