// The metric sets every workload reports. Each workload fills the
// fields it exercises; the rest stay 0, so every run prints the full
// set of names with their units (BENCHMARK.json lists the same names).
#ifndef WDL_PERFBENCH_REPORT_H_
#define WDL_PERFBENCH_REPORT_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "bench.h"
#include "engine/eval.h"
#include "engine/plan_cache.h"
#include "net/network.h"
#include "runtime/system.h"
#include "trace.h"

namespace wdl::bench {

/// What one measured window of the main mix produced.
struct Window {
  double seconds = 0.0;
  uint64_t ops = 0;      // main-mix ops completed inside the window
  uint64_t failed = 0;   // non-OK or past their visibility deadline
  uint64_t rounds = 0;   // rounds that did work
  uint64_t stages = 0;   // stages those rounds ran
  std::vector<double> visible_ms;
  std::vector<double> query_ms;
  uint64_t demand_queries = 0;         // answered on the demand path
  uint64_t query_tuples_examined = 0;  // QueryResult::tuples_examined
  double cpu_ms = 0.0;   // user+sys of every process of the workload

  double OpsPerSecond() const { return seconds > 0 ? ops / seconds : 0.0; }
  double PerOp(double total) const { return ops > 0 ? total / ops : 0.0; }
  /// Adds another window of the same run.
  void Merge(const Window& o);
};

/// The measurement of a traced run: alternating untraced and traced
/// windows, so drift over the run cancels out of the overhead ratio.
struct TracedRun {
  Window plain;   // the untraced windows, merged
  Window traced;  // the traced windows, merged
  Window all;     // both
};

constexpr int kTracePairs = 5;

/// Runs `mix(seconds / (2 * pairs))` 2 * `pairs` times, tracing every
/// second window.
TracedRun RunTraced(Tracer& tracer, double seconds, int pairs,
                    const std::function<Window(double)>& mix);

/// End-to-end metrics (BENCHMARK.json "end_to_end").
struct EndToEnd {
  double setup_s = 0.0;
  double ops_per_s = 0.0;
  double visible_p50_ms = 0.0;
  double visible_p90_ms = 0.0;
  double cpu_ms_per_op = 0.0;
  /// VmHWM summed over the processes at the end of set-up: after a
  /// fixed amount of work, so it does not grow with throughput.
  double peak_rss_mb = 0.0;

  /// Fills everything but setup_s and peak_rss_mb from consecutive
  /// slices of one run: rates, per-op costs and percentiles are medians
  /// over the slices (robust to bursts of interference from other
  /// tenants of the machine). A p90 comes from all samples instead when
  /// a slice has too few for ten to lie above its p90.
  void FromSlices(const std::vector<Window>& slices);
};

constexpr int kSlices = 10;

/// Runs `mix(seconds / slices)` `slices` times.
std::vector<Window> RunSlices(double seconds, int slices,
                              const std::function<Window(double)>& mix);

/// Process metrics of one wdl_peerd daemon over the traced window.
struct DaemonLayer {
  double cpu_ms_per_op = 0.0;
  double busy_share = 0.0;
  double write_syscalls_per_op = 0.0;
  double write_bytes_per_op = 0.0;
  double disk_bytes_per_op = 0.0;
};

/// Per-layer metrics (BENCHMARK.json "per_layer").
struct LayerReport {
  // Span times per main-mix op, microseconds.
  double round_us = 0.0;  // RunRound self time + the bench's IsQuiescent
  double deliver_us = 0.0;
  double submit_us = 0.0;
  double handle_us = 0.0;
  double stage_us = 0.0;
  double write_us = 0.0;
  double query_us = 0.0;
  double wait_us = 0.0;
  double coverage = 0.0;  // spans / bench wall time
  double overhead = 0.0;  // traced / untraced ops_per_s
  // Figures only some workloads have (0 elsewhere).
  double wire_bytes_per_op = 0.0;
  double query_p50_ms = 0.0;
  double query_p99_ms = 0.0;
  double visible_samples = 0.0;  // in the traced windows
  double visible_p99_ms = 0.0;   // over the untraced windows
  // Exact counts from the public counters, per main-mix op.
  double tuples_examined = 0.0;
  double index_lookups = 0.0;
  double full_scans = 0.0;
  double rederive_checks = 0.0;
  double tuples_retracted = 0.0;
  double stages_full = 0.0;
  double stages_incremental = 0.0;
  double plan_compiles = 0.0;
  double plan_cache_hit_ratio = 0.0;
  double query_tuples_examined = 0.0;  // per query
  double query_demand_share = 0.0;
  double prop_delta_tuples = 0.0;
  double prop_snapshots = 0.0;
  double prop_resyncs = 0.0;
  double net_messages = 0.0;
  double net_bytes_per_message = 0.0;
  double runtime_stages = 0.0;
  double runtime_rounds = 0.0;
  double materialized_peers = 0.0;
  DaemonLayer sigmod;
  DaemonLayer viewer;
  double tcp_reconnects = 0.0;
  double tcp_send_failures = 0.0;

  /// Span-derived fields (per traced op) and the tracing overhead.
  void FromSpans(const Tracer& tracer, const TracedRun& run);
};

/// Public counters summed over every materialized engine of a System,
/// plus the process-wide plan cache and the transport.
struct Counters {
  EvalCounters eval;
  uint64_t delta_tuples = 0;
  uint64_t snapshots = 0;
  uint64_t resyncs = 0;
  SharedPlanCache::Stats plans;
  NetworkStats net;
};
Counters SampleCounters(const System& system);

/// Counter-derived fields over a window: (after - before) per op.
void FillCounterLayers(const Counters& before, const Counters& after,
                       const Window& w, LayerReport* out);

/// Query-layer fields: latencies over the untraced windows, rows of
/// work and the demand-path share over all of them.
void FillQueryLayers(const TracedRun& run, LayerReport* out);

void EmitEndToEnd(const EndToEnd& e, RunResult* out);
void EmitLayers(const LayerReport& l, RunResult* out);

}  // namespace wdl::bench

#endif  // WDL_PERFBENCH_REPORT_H_
