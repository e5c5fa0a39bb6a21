// Experiment S1 — end-to-end picture propagation (DESIGN.md §3).
//
// The §4 claim under test: "a photo uploaded by Émilien into his local
// relation pictures@Émilien is instantly published to pictures@sigmod,
// and then propagated to pictures@SigmodFB". We measure that pipeline —
// upload at an attendee, conference hub, Facebook wall — in wall time
// and in system rounds, as the batch size grows, plus the rating and
// customization pipeline (S2).
//
// Expected shape: rounds to full propagation are constant (pipeline
// depth), wall time grows linearly with batch size.

#include <benchmark/benchmark.h>

#include "base/string_util.h"
#include "parser/parser.h"
#include "runtime/system.h"
#include "wepic/wepic.h"

namespace wdl {
namespace {

Value I(int64_t v) { return Value::Int(v); }

void BM_UploadToFacebookWall(benchmark::State& state) {
  int batch = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    WepicApp app;
    (void)app.SetupConference();
    (void)app.AddAttendee("Emilien");
    (void)app.AddAttendee("Jules");
    (void)app.Converge();
    int rounds_before = app.system().rounds_run();
    state.ResumeTiming();

    for (int i = 0; i < batch; ++i) {
      (void)app.UploadPicture("Emilien", i, StrFormat("p%d", i),
                              std::string(256, 'x'));
      (void)app.AuthorizeFacebook("Emilien", i);
    }
    Result<int> rounds = app.Converge(10000);
    benchmark::DoNotOptimize(rounds);

    state.PauseTiming();
    state.counters["rounds"] =
        rounds.ok() ? (*rounds - rounds_before) : -1;
    state.counters["on_wall"] = static_cast<double>(
        app.facebook().GroupPictures(kFacebookGroup).size());
    state.counters["bytes"] = static_cast<double>(
        app.system().network().stats().bytes_sent);
    state.ResumeTiming();
  }
}
BENCHMARK(BM_UploadToFacebookWall)->Arg(1)->Arg(16)->Arg(64)
    ->Unit(benchmark::kMillisecond);

// S2: re-convergence cost of swapping the selection rule for the
// rating filter with a populated system.
void BM_RuleCustomizationReconvergence(benchmark::State& state) {
  int pictures = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    WepicApp app;
    (void)app.SetupConference();
    (void)app.AddAttendee("Emilien");
    (void)app.AddAttendee("Jules");
    app.attendee("Emilien")->gate().TrustPeer("Jules");
    for (int i = 0; i < pictures; ++i) {
      (void)app.UploadPicture("Emilien", i, StrFormat("p%d", i), "d");
      (void)app.RatePicture("Emilien", i, i % 2 == 0 ? 5 : 3);
    }
    (void)app.SelectAttendee("Jules", "Emilien");
    (void)app.Converge(10000);
    state.ResumeTiming();

    (void)app.InstallRatingFilter("Jules", 5);
    Result<int> rounds = app.Converge(10000);
    benchmark::DoNotOptimize(rounds);

    state.PauseTiming();
    state.counters["frame_size"] = static_cast<double>(
        app.attendee("Jules")
            ->engine()
            .catalog()
            .Get("attendeePictures")
            ->size());
    state.ResumeTiming();
  }
}
BENCHMARK(BM_RuleCustomizationReconvergence)->Arg(10)->Arg(100)
    ->Unit(benchmark::kMillisecond);

// A converged two-peer pipeline: `view_size` base facts at a feed the
// intensional board@hub.
void SeedBoard(System* system, int view_size) {
  Peer* a = system->CreatePeer("a");
  (void)system->CreatePeer("hub")->LoadProgramText(
      "collection int board@hub(x: int);");
  (void)a->LoadProgramText(
      "collection ext data@a(x: int);"
      "rule board@hub($x) :- data@a($x);");
  for (int i = 0; i < view_size; ++i) {
    (void)a->Insert(Fact("data", "a", {I(i)}));
  }
  (void)system->RunUntilQuiescent(10000);
}

// P1 — the PR3 claim under test: once a large view has converged, a
// one-tuple change must cost wire bytes and compute proportional to the
// *change*, not the view. Arg0 is the converged view size; the loop
// body is one insert + reconvergence against a warm two-peer pipeline.
// Expected shape: flat in view size.
void BM_IncrementalChange(benchmark::State& state) {
  const int view_size = static_cast<int>(state.range(0));
  System system;
  SeedBoard(&system, view_size);
  Peer* a = system.GetPeer("a");
  Peer* hub = system.GetPeer("hub");

  // Warm-up traffic (seeding the view) is excluded from every counter:
  // the benchmark's claim is about the steady-state per-change cost.
  uint64_t bytes_before = system.network().stats().bytes_sent;
  const PropagationCounters sender_before =
      a->engine().propagation_counters();
  // Gaps are detected at the *receiver* of the delta stream.
  const uint64_t resyncs_before =
      hub->engine().propagation_counters().resyncs_requested;
  int64_t next = view_size;
  for (auto _ : state) {
    (void)a->Insert(Fact("data", "a", {I(next++)}));
    benchmark::DoNotOptimize(system.RunUntilQuiescent(10000));
  }

  const PropagationCounters& pc = a->engine().propagation_counters();
  double iters = static_cast<double>(state.iterations());
  state.counters["wire_bytes_per_change"] =
      static_cast<double>(system.network().stats().bytes_sent -
                          bytes_before) / iters;
  state.counters["delta_tuples_per_change"] =
      static_cast<double>(pc.delta_inserts_shipped +
                          pc.delta_deletes_shipped -
                          sender_before.delta_inserts_shipped -
                          sender_before.delta_deletes_shipped) / iters;
  state.counters["resyncs"] = static_cast<double>(
      hub->engine().propagation_counters().resyncs_requested -
      resyncs_before);
}
BENCHMARK(BM_IncrementalChange)
    ->Arg(100)->Arg(1000)->Arg(10000)
    ->Unit(benchmark::kMicrosecond);

// P2 — the same claim for churn with deletions: each iteration swaps
// one tuple (insert one, delete another), the canonical "one user
// changed one thing" round of the north-star workload.
void BM_IncrementalSwap(benchmark::State& state) {
  const int view_size = static_cast<int>(state.range(0));
  System system;
  SeedBoard(&system, view_size);
  Peer* a = system.GetPeer("a");

  int64_t next = view_size;
  int64_t oldest = 0;
  for (auto _ : state) {
    (void)a->Insert(Fact("data", "a", {I(next++)}));
    (void)a->Remove(Fact("data", "a", {I(oldest++)}));
    benchmark::DoNotOptimize(system.RunUntilQuiescent(10000));
  }
  state.counters["view_size"] = static_cast<double>(
      system.GetPeer("hub")->engine().catalog().Get("board")->size());
}
BENCHMARK(BM_IncrementalSwap)->Arg(1000)->Arg(10000)
    ->Unit(benchmark::kMicrosecond);

// P3 — the PR4 claim under test: with incremental maintenance, the
// *compute* cost of a stage tracks the change size, not the view size
// (PR3 already made the wire cost O(change)). A converged recursive
// view (transitive closure over a chain; 10k or 100k tuples) absorbs a
// one-tuple change per stage: each iteration appends one edge at the
// chain's end (Δ-driven forward derivation) and removes it again
// (support-counted DRed retraction), so state is steady across
// iterations. The arg is the chain length (142 -> ~10k-tuple view,
// 448 -> ~100k). Expected shape: flat in the view size; the
// `examined_per_change` / `retracted_per_change` counters prove the
// work is O(change). The clear-and-recompute side of this comparison
// (~30x slower at 142, ~160x at 448) is recorded in BENCH_pr4.json as
// BM_IncrementalStage/0/*; the recompute mode it measured is gone.
void BM_IncrementalStage(benchmark::State& state) {
  const int chain = static_cast<int>(state.range(0));

  Engine engine("a");
  Result<Program> program = ParseProgram(R"(
    collection ext edge@a(x: int, y: int);
    collection int tc@a(x: int, y: int);
    rule tc@a($x, $y) :- edge@a($x, $y);
    rule tc@a($x, $z) :- edge@a($x, $y), tc@a($y, $z);
  )");
  if (!program.ok() || !engine.LoadProgram(*program).ok()) {
    state.SkipWithError("program load failed");
    return;
  }
  for (int i = 0; i + 1 < chain; ++i) {
    (void)engine.InsertFact(Fact("edge", "a", {I(i), I(i + 1)}));
  }
  while (engine.HasPendingWork()) (void)engine.RunStage();

  const EvalCounters& ec = engine.eval_counters();
  const uint64_t examined_before = ec.tuples_examined;
  const uint64_t retracted_before = ec.tuples_retracted;
  const uint64_t rederive_before = ec.rederive_checks;
  const Fact extra("edge", "a", {I(chain - 1), I(chain)});
  for (auto _ : state) {
    (void)engine.InsertFact(extra);
    while (engine.HasPendingWork()) (void)engine.RunStage();
    (void)engine.RemoveFact(extra);
    while (engine.HasPendingWork()) (void)engine.RunStage();
  }

  const double changes = 2.0 * static_cast<double>(state.iterations());
  state.counters["view_size"] = static_cast<double>(
      engine.catalog().Get("tc")->size());
  state.counters["examined_per_change"] =
      static_cast<double>(ec.tuples_examined - examined_before) / changes;
  state.counters["retracted_per_change"] =
      static_cast<double>(ec.tuples_retracted - retracted_before) / changes;
  state.counters["rederive_checks_per_change"] =
      static_cast<double>(ec.rederive_checks - rederive_before) / changes;
  state.counters["stages_incremental"] =
      static_cast<double>(ec.stages_incremental);
  state.counters["stages_full"] = static_cast<double>(ec.stages_full);
}
BENCHMARK(BM_IncrementalStage)->Arg(142)->Arg(448)
    ->Unit(benchmark::kMicrosecond);

// P5 — an edit of a relation read under negation: a view of N items
// minus a blocklist (`visible(x) :- item(x), not banned(x)`) absorbs
// one blocklist insert and its removal per iteration. Expected shape:
// flat in N; `examined_per_change` is the change, not the view.
void BM_NegatedEdit(benchmark::State& state) {
  const int items = static_cast<int>(state.range(0));

  Engine engine("a");
  Result<Program> program = ParseProgram(R"(
    collection ext item@a(x: int);
    collection ext banned@a(x: int);
    collection int visible@a(x: int);
    rule visible@a($x) :- item@a($x), not banned@a($x);
  )");
  if (!program.ok() || !engine.LoadProgram(*program).ok()) {
    state.SkipWithError("program load failed");
    return;
  }
  for (int i = 0; i < items; ++i) {
    (void)engine.InsertFact(Fact("item", "a", {I(i)}));
  }
  while (engine.HasPendingWork()) (void)engine.RunStage();

  const EvalCounters& ec = engine.eval_counters();
  const uint64_t examined_before = ec.tuples_examined;
  const uint64_t full_before = ec.stages_full;
  const Fact edit("banned", "a", {I(items / 2)});
  for (auto _ : state) {
    (void)engine.InsertFact(edit);
    while (engine.HasPendingWork()) {
      benchmark::DoNotOptimize(engine.RunStage());
    }
    (void)engine.RemoveFact(edit);
    while (engine.HasPendingWork()) {
      benchmark::DoNotOptimize(engine.RunStage());
    }
  }

  const double changes = 2.0 * static_cast<double>(state.iterations());
  state.counters["view_size"] = static_cast<double>(
      engine.catalog().Get("visible")->size());
  state.counters["examined_per_change"] =
      static_cast<double>(ec.tuples_examined - examined_before) / changes;
  state.counters["stages_full"] =
      static_cast<double>(ec.stages_full - full_before);
}
BENCHMARK(BM_NegatedEdit)->Arg(1000)->Arg(10000)->Arg(100000)
    ->Unit(benchmark::kMicrosecond);

// Incremental propagation: with the pipeline warm, one more upload.
void BM_SingleIncrementalUpload(benchmark::State& state) {
  WepicApp app;
  (void)app.SetupConference();
  (void)app.AddAttendee("Emilien");
  (void)app.Converge();
  int64_t next_id = 0;
  for (auto _ : state) {
    (void)app.UploadPicture("Emilien", next_id, "inc.jpg", "d");
    (void)app.AuthorizeFacebook("Emilien", next_id);
    ++next_id;
    benchmark::DoNotOptimize(app.Converge(10000));
  }
  state.counters["wall_size"] = static_cast<double>(
      app.facebook().GroupPictures(kFacebookGroup).size());
}
BENCHMARK(BM_SingleIncrementalUpload)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace wdl

BENCHMARK_MAIN();
