// Multi-core Δ-driven evaluation (DESIGN.md §8): the parallel paths
// must be *bit-identical* to the single-threaded oracle. Every test
// here compares fingerprints across thread counts against the
// threads == 1 configuration, which preserves the exact pre-parallel
// code path. Engagement is asserted through the parallel_rounds
// counter so a gate that silently fell back to serial cannot pass
// these checks vacuously.

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "base/thread_pool.h"
#include "runtime/fingerprint.h"
#include "runtime/system.h"
#include "support/builders.h"
#include "support/fixture.h"

namespace wdl {
namespace {

using test::F;
using test::I;
using test::S;

// ---------------------------------------------------------------------
// ThreadPool unit tests.

TEST(ThreadPoolTest, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.threads(), 4);
  constexpr int kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  pool.ParallelFor(kN, [&](int i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (int i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPoolTest, ReusableAcrossManyJobs) {
  // The barrier must fully retire each job before the next reuses the
  // shared job slot — run many back-to-back jobs of varying widths.
  ThreadPool pool(3);
  for (int job = 1; job <= 64; ++job) {
    std::atomic<int> sum{0};
    pool.ParallelFor(job, [&](int i) {
      sum.fetch_add(i + 1, std::memory_order_relaxed);
    });
    EXPECT_EQ(sum.load(), job * (job + 1) / 2);
  }
}

TEST(ThreadPoolTest, SingleThreadAndEmptyJobsRunInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.threads(), 1);
  int count = 0;
  pool.ParallelFor(5, [&](int) { ++count; });
  EXPECT_EQ(count, 5);
  pool.ParallelFor(0, [&](int) { ++count; });
  pool.ParallelFor(-3, [&](int) { ++count; });
  EXPECT_EQ(count, 5);
}

// ---------------------------------------------------------------------
// Intra-peer partitioned evaluation: single-peer fixpoints across
// eval_threads counts vs the serial oracle.

constexpr const char* kTcProgram =
    "collection ext edge@p(x: int, y: int);"
    "collection int tc@p(x: int, y: int);"
    "rule tc@p($x, $y) :- edge@p($x, $y);"
    "rule tc@p($x, $z) :- tc@p($x, $y), edge@p($y, $z);";

std::unique_ptr<Peer> MakeTcChainPeer(int eval_threads, int n) {
  PeerOptions opts;
  opts.engine.eval_threads = eval_threads;
  auto peer = std::make_unique<Peer>("p", opts);
  EXPECT_TRUE(peer->LoadProgramText(kTcProgram).ok());
  for (int i = 0; i < n; ++i) {
    EXPECT_TRUE(peer->Insert(F("edge", "p", {I(i), I(i + 1)})).ok());
  }
  return peer;
}

TEST(ParallelEngineTest, TcChainFingerprintIdenticalAcrossThreadCounts) {
  constexpr int kChain = 64;
  std::unique_ptr<Peer> oracle = MakeTcChainPeer(1, kChain);
  (void)oracle->RunStage();
  EXPECT_EQ(oracle->engine().eval_counters().parallel_rounds, 0u);
  const std::string want = PeerStateFingerprint(*oracle);
  ASSERT_EQ(oracle->engine().catalog().Get("tc")->size(),
            size_t{kChain} * (kChain + 1) / 2);

  for (int threads : {2, 4, 8}) {
    std::unique_ptr<Peer> peer = MakeTcChainPeer(threads, kChain);
    (void)peer->RunStage();
    EXPECT_EQ(PeerStateFingerprint(*peer), want) << "threads=" << threads;
    EXPECT_GT(peer->engine().eval_counters().parallel_rounds, 0u)
        << "threads=" << threads << ": parallel path never engaged";
  }
}

TEST(ParallelEngineTest, SameGenFingerprintIdenticalAcrossThreadCounts) {
  // Bushier deltas than the chain: a complete binary tree's
  // same-generation pairs, stressing partition merge with wide rounds.
  constexpr const char* kSgProgram =
      "collection ext par@p(c: int, d: int);"
      "collection int sg@p(x: int, y: int);"
      "rule sg@p($x, $x) :- par@p($x, $_);"
      "rule sg@p($x, $y) :- par@p($x, $xp), sg@p($xp, $yp), "
      "par@p($y, $yp);";
  auto run = [&](int threads) {
    PeerOptions opts;
    opts.engine.eval_threads = threads;
    Peer peer("p", opts);
    EXPECT_TRUE(peer.LoadProgramText(kSgProgram).ok());
    for (int parent = 1; parent < (1 << 5); ++parent) {
      EXPECT_TRUE(
          peer.Insert(F("par", "p", {I(2 * parent), I(parent)})).ok());
      EXPECT_TRUE(
          peer.Insert(F("par", "p", {I(2 * parent + 1), I(parent)})).ok());
    }
    (void)peer.RunStage();
    if (threads > 1) {
      EXPECT_GT(peer.engine().eval_counters().parallel_rounds, 0u)
          << "threads=" << threads;
    }
    return PeerStateFingerprint(peer);
  };
  const std::string want = run(1);
  for (int threads : {2, 4, 8}) {
    EXPECT_EQ(run(threads), want) << "threads=" << threads;
  }
}

TEST(ParallelEngineTest, MixedRuleSetsRunEligibleRulesParallel) {
  // A rule set mixing round-eligible rules (the TC pair) with a
  // delegation-capable one (variable body peer — must stay serial)
  // used to fall back to the serial loop for the *whole stage*. Now
  // only the ineligible rule runs serially, against the same frozen Δ
  // the partitioned rules consumed; parallel_mixed_rounds counts the
  // rounds that took the combined path.
  constexpr const char* kMixedProgram =
      "collection ext edge@p(x: int, y: int);"
      "collection int tc@p(x: int, y: int);"
      "collection ext follows@p(w: string);"
      "collection ext post@p(id: int);"
      "collection int feed@p(id: int, author: string);"
      "rule tc@p($x, $y) :- edge@p($x, $y);"
      "rule tc@p($x, $z) :- tc@p($x, $y), edge@p($y, $z);"
      "rule feed@p($id, $w) :- follows@p($w), post@$w($id);";
  auto run = [&](int threads) {
    PeerOptions opts;
    opts.engine.eval_threads = threads;
    Peer peer("p", opts);
    EXPECT_TRUE(peer.LoadProgramText(kMixedProgram).ok());
    for (int i = 0; i < 48; ++i) {
      EXPECT_TRUE(peer.Insert(F("edge", "p", {I(i), I(i + 1)})).ok());
    }
    // Self-follow keeps the delegating rule entirely local, so the
    // whole mixed stage settles in one RunStage.
    EXPECT_TRUE(peer.Insert(F("follows", "p", {S("p")})).ok());
    EXPECT_TRUE(peer.Insert(F("post", "p", {I(3)})).ok());
    (void)peer.RunStage();
    const EvalCounters& counters = peer.engine().eval_counters();
    if (threads == 1) {
      EXPECT_EQ(counters.parallel_rounds, 0u);
      EXPECT_EQ(counters.parallel_mixed_rounds, 0u);
    } else {
      EXPECT_GT(counters.parallel_rounds, 0u) << "threads=" << threads;
      EXPECT_GT(counters.parallel_mixed_rounds, 0u)
          << "threads=" << threads
          << ": ineligible rule forced the whole stage serial";
    }
    EXPECT_TRUE(peer.engine().catalog().Get("feed")->Contains(
        {I(3), S("p")}));
    return PeerStateFingerprint(peer);
  };
  const std::string want = run(1);
  for (int threads : {2, 4}) {
    EXPECT_EQ(run(threads), want) << "threads=" << threads;
  }
}

TEST(ParallelEngineTest, IncrementalDeletionChurnMatchesSerialOracle) {
  // Δ-driven incremental stages (insertions *and* DRed retraction) must
  // agree with the oracle after every settle, not just at the end.
  constexpr int kChain = 32;
  auto step = [](Peer& peer, int round) {
    // Deterministic churn: delete one edge, re-add another.
    int del = (round * 7) % kChain;
    int add = (round * 11 + 3) % kChain;
    EXPECT_TRUE(peer.Remove(F("edge", "p", {I(del), I(del + 1)})).ok());
    EXPECT_TRUE(peer.Insert(F("edge", "p", {I(add), I(add + 1)})).ok());
    (void)peer.RunStage();
  };

  std::unique_ptr<Peer> oracle = MakeTcChainPeer(1, kChain);
  std::unique_ptr<Peer> parallel = MakeTcChainPeer(4, kChain);
  (void)oracle->RunStage();
  (void)parallel->RunStage();
  for (int round = 0; round < 6; ++round) {
    step(*oracle, round);
    step(*parallel, round);
    EXPECT_EQ(PeerStateFingerprint(*parallel), PeerStateFingerprint(*oracle))
        << "round " << round;
  }
  EXPECT_EQ(oracle->engine().eval_counters().parallel_rounds, 0u);
  EXPECT_GT(parallel->engine().eval_counters().parallel_rounds, 0u);
  EXPECT_GT(oracle->engine().eval_counters().tuples_retracted, 0u);
  EXPECT_EQ(parallel->engine().eval_counters().tuples_retracted,
            oracle->engine().eval_counters().tuples_retracted);
}

TEST(ParallelEngineTest, CountersDeterministicAcrossRepeatedParallelRuns) {
  // At a fixed thread count the partitioning is content-hashed and the
  // merge order is fixed, so two identical runs must report *identical*
  // work counters — not merely identical states.
  auto counters = [](int threads) {
    std::unique_ptr<Peer> peer = MakeTcChainPeer(threads, 48);
    (void)peer->RunStage();
    return peer->engine().eval_counters();
  };
  const EvalCounters a = counters(4);
  const EvalCounters b = counters(4);
  EXPECT_GT(a.parallel_rounds, 0u);
  EXPECT_EQ(a.parallel_rounds, b.parallel_rounds);
  EXPECT_EQ(a.tuples_examined, b.tuples_examined);
  EXPECT_EQ(a.bindings_completed, b.bindings_completed);
  EXPECT_EQ(a.slot_bindings, b.slot_bindings);
  EXPECT_EQ(a.index_lookups, b.index_lookups);
  EXPECT_EQ(a.full_scans, b.full_scans);
  EXPECT_EQ(a.delta_index_probes, b.delta_index_probes);
  EXPECT_EQ(a.delta_scans, b.delta_scans);
}

// ---------------------------------------------------------------------
// Inter-peer worker pool: whole-system fingerprints across
// worker_threads x eval_threads vs the (1, 1) oracle.

// A randomized multi-peer workload exercising the shapes that stress
// parallel rounds: delegation churn (the variable-peer rule re-targets
// as selections toggle), deletions, and local recursion at one peer.
std::string RunMultiPeerWorkload(int worker_threads, int eval_threads,
                                 uint64_t* parallel_rounds_out = nullptr) {
  SystemOptions sys_opts;
  sys_opts.network_seed = 7;
  sys_opts.worker_threads = worker_threads;
  System system(sys_opts);
  PeerOptions peer_opts;
  peer_opts.engine.eval_threads = eval_threads;
  peer_opts.trust_all_delegations = true;
  Peer* hub = system.CreatePeer("hub", peer_opts);
  Peer* b = system.CreatePeer("b", peer_opts);
  Peer* c = system.CreatePeer("c", peer_opts);

  EXPECT_TRUE(hub->LoadProgramText(R"(
    collection ext selected@hub(who: string);
    collection int gallery@hub(id: int);
    rule gallery@hub($id) :- selected@hub($w), pictures@$w($id);
  )").ok());
  EXPECT_TRUE(b->LoadProgramText(R"(
    collection ext pictures@b(id: int);
    collection ext edge@b(x: int, y: int);
    collection int tc@b(x: int, y: int);
    rule tc@b($x, $y) :- edge@b($x, $y);
    rule tc@b($x, $z) :- tc@b($x, $y), edge@b($y, $z);
    rule summary@hub($x) :- tc@b($x, $_);
  )").ok());
  EXPECT_TRUE(c->LoadProgramText(R"(
    collection ext pictures@c(id: int);
  )").ok());
  for (int i = 0; i < 24; ++i) {
    EXPECT_TRUE(b->Insert(F("edge", "b", {I(i), I(i + 1)})).ok());
  }

  // Deterministic LCG drives the churn so every configuration replays
  // the exact same script of inserts, deletes, and re-delegations.
  uint64_t s = 99;
  auto next = [&s](int mod) {
    s = s * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<int>((s >> 33) % mod);
  };
  const std::vector<std::string> names = {"b", "c"};
  for (int round = 0; round < 10; ++round) {
    const std::string& who = names[next(2)];
    if (next(3) == 0) {
      EXPECT_TRUE(hub->Remove(F("selected", "hub", {S(who)})).ok());
    } else {
      EXPECT_TRUE(hub->Insert(F("selected", "hub", {S(who)})).ok());
    }
    Peer* owner = system.GetPeer(who);
    int id = next(16);
    if (next(4) == 0) {
      EXPECT_TRUE(owner->Remove(F("pictures", who, {I(id)})).ok());
    } else {
      EXPECT_TRUE(owner->Insert(F("pictures", who, {I(id)})).ok());
    }
    int e = next(24);
    if (next(5) == 0) {
      EXPECT_TRUE(b->Remove(F("edge", "b", {I(e), I(e + 1)})).ok());
    } else {
      EXPECT_TRUE(b->Insert(F("edge", "b", {I(e), I(e + 1)})).ok());
    }
    EXPECT_TRUE(system.RunUntilQuiescent().ok());
  }

  if (parallel_rounds_out != nullptr) {
    *parallel_rounds_out = hub->engine().eval_counters().parallel_rounds +
                           b->engine().eval_counters().parallel_rounds +
                           c->engine().eval_counters().parallel_rounds;
  }
  return GlobalStateFingerprint(system);
}

TEST(ParallelSystemTest, RandomizedWorkloadFingerprintSweep) {
  uint64_t oracle_parallel = 0;
  const std::string want = RunMultiPeerWorkload(1, 1, &oracle_parallel);
  EXPECT_EQ(oracle_parallel, 0u);

  for (int threads : {2, 4, 8}) {
    uint64_t parallel = 0;
    EXPECT_EQ(RunMultiPeerWorkload(threads, threads, &parallel), want)
        << "threads=" << threads;
    EXPECT_GT(parallel, 0u) << "threads=" << threads;
  }
  // Mixed configurations: each level's parallelism is independent.
  EXPECT_EQ(RunMultiPeerWorkload(4, 1), want);
  EXPECT_EQ(RunMultiPeerWorkload(1, 4), want);
}

TEST(ParallelSystemTest, LossyLinkResyncMatchesSerialOracle) {
  // Loss, heartbeats, and resync snapshots ride the same buffered
  // envelope path: because stage output is submitted in peer-name order
  // regardless of worker count, the simulated network draws the same
  // RNG stream and the repaired state is identical to the oracle's.
  auto run = [](int worker_threads) {
    SystemOptions opts;
    opts.network_seed = 11;
    opts.worker_threads = worker_threads;
    opts.heartbeat_interval_rounds = 4;
    System system(opts);
    PeerOptions peer_opts;
    peer_opts.engine.eval_threads = worker_threads;
    Peer* a = system.CreatePeer("a", peer_opts);
    Peer* hub = system.CreatePeer("hub", peer_opts);
    EXPECT_TRUE(hub->LoadProgramText(
        "collection int board@hub(x: int);").ok());
    EXPECT_TRUE(a->LoadProgramText(R"(
      collection ext data@a(x: int);
      rule board@hub($x) :- data@a($x);
    )").ok());
    EXPECT_TRUE(a->Insert(F("data", "a", {I(1)})).ok());
    EXPECT_TRUE(system.RunUntilQuiescent().ok());

    // Lose the last frame of the stream, go silent, let the heartbeat
    // expose the gap and the resync repair it.
    LinkConfig dead;
    dead.drop_probability = 1.0;
    system.network().SetLink("a", "hub", dead);
    EXPECT_TRUE(a->Insert(F("data", "a", {I(2)})).ok());
    EXPECT_TRUE(system.RunUntilQuiescent().ok());
    system.network().SetLink("a", "hub", LinkConfig{});
    for (int round = 0; round < 12; ++round) (void)system.RunRound();
    EXPECT_TRUE(system.RunUntilQuiescent().ok());
    EXPECT_EQ(hub->engine().catalog().Get("board")->size(), 2u);
    return GlobalStateFingerprint(system);
  };
  const std::string want = run(1);
  for (int threads : {2, 4}) {
    EXPECT_EQ(run(threads), want) << "threads=" << threads;
  }
}

}  // namespace
}  // namespace wdl
