// Durability-plane costs (DESIGN.md §11): what a durable peer pays per
// logged record under each fsync policy, what a snapshot costs to
// write at size, and the payoff — recovering a converged two-peer
// state from disk versus rebuilding the same state over the wire.
//
// Expected shape: kNever/kBatch appends are page-cache writes (sub-µs
// per record, batch adds one fsync per stage), kAlways is disk-bound;
// recovery-from-disk beats the wire rebuild by the full cost of
// re-deriving and re-shipping every tuple.

#include <benchmark/benchmark.h>
#include <unistd.h>

#include <cstdint>
#include <string>

#include "durability/durability.h"
#include "durability/snapshot.h"
#include "durability/wal.h"
#include "runtime/system.h"

namespace wdl {
namespace {

Value I(int64_t v) { return Value::Int(v); }

std::string MakeTempRoot() {
  std::string tmpl = "/tmp/wdl_bench_durability_XXXXXX";
  if (::mkdtemp(tmpl.data()) == nullptr) std::abort();
  return tmpl;
}

// One WAL record per iteration through the full PeerDurability path
// (encode, frame, write, policy-driven fsync), with EndBatch called
// every kBatchRecords appends — the shape of one evaluation stage.
void BM_WalAppend(benchmark::State& state) {
  constexpr int kBatchRecords = 32;
  DurabilityOptions options;
  options.dir = MakeTempRoot() + "/p";
  options.fsync_policy = static_cast<FsyncPolicy>(state.range(0));
  options.snapshot_interval_records = 0;  // pure append, no rotation
  auto opened = PeerDurability::Open(options);
  if (!opened.ok()) std::abort();
  PeerDurability& pd = **opened;

  WalRecord record;
  record.type = WalRecordType::kLocalFactInsert;
  record.fact = Fact("data", "bench", {I(0), I(1234567890), I(42)});
  int in_batch = 0;
  for (auto _ : state) {
    if (!pd.Append(record).ok()) std::abort();
    if (++in_batch == kBatchRecords) {
      if (!pd.EndBatch().ok()) std::abort();
      in_batch = 0;
    }
  }
  (void)pd.EndBatch();
  state.SetItemsProcessed(static_cast<int64_t>(pd.counters().records_appended));
  state.counters["bytes_per_record"] =
      pd.counters().records_appended == 0
          ? 0.0
          : static_cast<double>(pd.counters().bytes_appended) /
                static_cast<double>(pd.counters().records_appended);
  state.counters["fsyncs"] = static_cast<double>(pd.counters().fsyncs);
  state.SetLabel(FsyncPolicyToString(options.fsync_policy));
}
BENCHMARK(BM_WalAppend)->Arg(0)->Arg(1)->Arg(2)
    ->Unit(benchmark::kMicrosecond);

// Snapshot write cost at size: encode + atomic write + rotation, via
// the same WriteSnapshot path peers use.
void BM_SnapshotWrite(benchmark::State& state) {
  const int64_t tuples = state.range(0);
  SnapshotData snap;
  snap.peer = "bench";
  SnapshotData::RelationState rs;
  rs.decl.relation = "data";
  rs.decl.peer = "bench";
  rs.decl.kind = RelationKind::kExtensional;
  rs.decl.columns = {ColumnSpec{"x", ValueKind::kInt}};
  for (int64_t i = 0; i < tuples; ++i) rs.tuples.push_back({I(i)});
  snap.relations.push_back(rs);

  DurabilityOptions options;
  options.dir = MakeTempRoot() + "/p";
  options.fsync_policy = FsyncPolicy::kNever;
  auto opened = PeerDurability::Open(options);
  if (!opened.ok()) std::abort();
  PeerDurability& pd = **opened;
  for (auto _ : state) {
    if (!pd.WriteSnapshot(snap).ok()) std::abort();
  }
  state.SetItemsProcessed(state.iterations() * tuples);
  state.counters["snapshot_bytes"] = static_cast<double>(
      pd.counters().snapshots_written == 0
          ? 0
          : pd.counters().snapshot_bytes / pd.counters().snapshots_written);
}
BENCHMARK(BM_SnapshotWrite)->Arg(10000)->Arg(100000)
    ->Unit(benchmark::kMillisecond);

SystemOptions DurableSystemOptions(const std::string& root) {
  SystemOptions o;
  o.durability_root = root;
  o.heartbeat_interval_rounds = 2;
  return o;
}

/// Builds the workload both recovery benches restart from: alice holds
/// N extensional facts, bob materializes them in an intensional view.
void LoadAndConverge(System& system, int64_t tuples) {
  PeerOptions po;
  po.trust_all_delegations = true;
  Peer* alice = system.CreatePeer("alice", po);
  Peer* bob = system.CreatePeer("bob", po);
  if (!alice->LoadProgramText("collection ext data@alice(x: int);").ok()) {
    std::abort();
  }
  if (!bob->LoadProgramText("collection int view@bob(x: int);").ok()) {
    std::abort();
  }
  if (!alice->AddRuleText("rule view@bob($x) :- data@alice($x);").ok()) {
    std::abort();
  }
  for (int64_t i = 0; i < tuples; ++i) {
    if (!alice->Insert(Fact("data", "alice", {I(i)})).ok()) std::abort();
  }
  if (!system.RunUntilQuiescent().ok()) std::abort();
}

// Restarting a converged durable pair from disk: snapshot + WAL replay
// + the first (no-op) reconvergence rounds. Zero tuples cross the wire.
void BM_RecoveryFromDisk(benchmark::State& state) {
  const int64_t tuples = state.range(0);
  std::string root = MakeTempRoot();
  {
    System system(DurableSystemOptions(root));
    LoadAndConverge(system, tuples);
  }
  uint64_t resyncs = 0;
  for (auto _ : state) {
    System system(DurableSystemOptions(root));
    PeerOptions po;
    po.trust_all_delegations = true;
    system.CreatePeer("alice", po);
    system.CreatePeer("bob", po);
    if (!system.RunUntilQuiescent().ok()) std::abort();
    resyncs = system.GetPeer("bob")
                  ->engine()
                  .propagation_counters()
                  .resyncs_requested;
    benchmark::DoNotOptimize(resyncs);
  }
  state.SetItemsProcessed(state.iterations() * tuples);
  state.counters["resyncs"] = static_cast<double>(resyncs);
}
BENCHMARK(BM_RecoveryFromDisk)->Arg(10000)->Arg(100000)
    ->Unit(benchmark::kMillisecond);

// The alternative a memory-only peer pays after losing its state:
// re-derive everything and ship it over the (simulated) wire.
void BM_RebuildOverWire(benchmark::State& state) {
  const int64_t tuples = state.range(0);
  for (auto _ : state) {
    SystemOptions sys;
    sys.heartbeat_interval_rounds = 2;
    System system(sys);
    LoadAndConverge(system, tuples);
    benchmark::DoNotOptimize(system.rounds_run());
  }
  state.SetItemsProcessed(state.iterations() * tuples);
}
BENCHMARK(BM_RebuildOverWire)->Arg(10000)->Arg(100000)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace wdl

BENCHMARK_MAIN();
