// Experiment F2 + S9 — topology and social scale (DESIGN.md §3, §9).
//
// Part 1 regenerates the paper's deployment picture as data: the three
// Wepic peers (Émilien, Jules, sigmod) plus the SigmodFB wrapper, with
// a LAN link between the laptops and a slower "cloud" link to sigmod.
//
// Part 2 is the million-peer runtime workload: one process hosting a
// Zipf-distributed follower graph (src/workload/social_graph.h) where
// peers follow/unfollow (delegation install/retract storms), hubs post
// (viral fan-out through the installed residuals), and regions
// partition and heal (heartbeat-driven resync). Reports peers/sec,
// deltas/sec, bytes-per-idle-peer, plan-cache compile/hit counts, and
// peak RSS. The 1M-peer footprint point registers only when
// WDL_BENCH_BIG is set, so routine smoke runs stay small; the manual
// CI job (bench-100k) and operators opt in.

#include <benchmark/benchmark.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdlib>
#include <string>
#include <vector>

#include "engine/plan_cache.h"
#include "runtime/system.h"
#include "wepic/wepic.h"
#include "workload/social_graph.h"

namespace wdl {

double PeakRssMb() {
  struct rusage usage = {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KB on Linux
}

// --- Part 1: the Figure 2 topology -----------------------------------

void RunDemoWorkload(WepicApp* app) {
  (void)app->UploadPicture("Emilien", 1, "sea.jpg", "b1");
  (void)app->UploadPicture("Jules", 2, "dinner.jpg", "b2");
  (void)app->AuthorizeFacebook("Emilien", 1);
  (void)app->SelectAttendee("Jules", "Emilien");
  (void)app->Converge(10000);
}

void BM_Figure2Topology(benchmark::State& state) {
  // Cloud latency in rounds: 0.5 (LAN-like) scaled by the arg.
  double cloud_latency = 0.5 * static_cast<double>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    WepicApp app;
    (void)app.SetupConference();
    (void)app.AddAttendee("Emilien");
    (void)app.AddAttendee("Jules");
    app.attendee("Emilien")->gate().TrustPeer("Jules");
    app.attendee("Jules")->gate().TrustPeer("Emilien");
    // Laptops are LAN-adjacent; everything to/from the cloud peers is
    // slower.
    SimulatedNetwork& net = app.system().network();
    for (const char* laptop : {"Emilien", "Jules"}) {
      for (const char* cloud : {"sigmod", "SigmodFB"}) {
        net.SetLink(laptop, cloud, LinkConfig{.latency = cloud_latency});
        net.SetLink(cloud, laptop, LinkConfig{.latency = cloud_latency});
      }
    }
    net.ResetStats();
    int rounds_before = app.system().rounds_run();
    state.ResumeTiming();

    RunDemoWorkload(&app);

    state.PauseTiming();
    state.counters["rounds"] =
        app.system().rounds_run() - rounds_before;
    state.counters["messages"] = static_cast<double>(
        net.stats().messages_submitted);
    state.counters["bytes"] = static_cast<double>(net.stats().bytes_sent);
    // The Figure 2 arrows, aggregated: laptop<->laptop vs laptop<->cloud.
    uint64_t lan = 0, wan = 0;
    for (const auto& [edge, count] : net.edge_message_counts()) {
      bool a_laptop = edge.first == "Emilien" || edge.first == "Jules";
      bool b_laptop = edge.second == "Emilien" || edge.second == "Jules";
      if (a_laptop && b_laptop) {
        lan += count;
      } else {
        wan += count;
      }
    }
    state.counters["lan_msgs"] = static_cast<double>(lan);
    state.counters["wan_msgs"] = static_cast<double>(wan);
    state.ResumeTiming();
  }
}
BENCHMARK(BM_Figure2Topology)->Arg(1)->Arg(3)->Arg(10)
    ->Unit(benchmark::kMillisecond);

// Demo-floor wifi jitter: the same workload with heavy delivery-time
// jitter, which reorders messages across every link. The staged
// protocol is insensitive to reordering (derived sets are full-state
// replacements and updates are idempotent), so the workload converges
// to the same wall contents — at the cost of extra rounds.
void BM_JitteryNetwork(benchmark::State& state) {
  double jitter = 0.5 * static_cast<double>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    WepicApp app(WepicOptions{.network_seed = 7, .engine = {}});
    (void)app.SetupConference();
    (void)app.AddAttendee("Emilien");
    (void)app.AddAttendee("Jules");
    app.attendee("Emilien")->gate().TrustPeer("Jules");
    app.attendee("Jules")->gate().TrustPeer("Emilien");
    // One O(1) default-link change shapes every edge — the all-pairs
    // SetLink loop this replaced is exactly the O(peers²) pattern the
    // scale benches below cannot afford.
    app.system().network().SetDefaultLink(
        LinkConfig{.latency = 0.5, .jitter = jitter});
    state.ResumeTiming();
    RunDemoWorkload(&app);
    state.PauseTiming();
    state.counters["rounds"] = app.system().rounds_run();
    state.counters["wall_pictures"] = static_cast<double>(
        app.facebook().GroupPictures(kFacebookGroup).size());
    state.ResumeTiming();
  }
}
BENCHMARK(BM_JitteryNetwork)->Arg(0)->Arg(4)->Arg(16)
    ->Unit(benchmark::kMillisecond);

// --- Part 2: social scale --------------------------------------------

// How much does an idle registered user cost? Creates N peers and
// touches none of them: no engines materialize, and the per-peer bytes
// stay under the committed 1 KB ceiling (tests/scale_test.cc holds the
// line; this reports the actual number at depth).
void BM_SocialIdleFootprint(benchmark::State& state) {
  const uint32_t n = static_cast<uint32_t>(state.range(0));
  uint64_t peers_created = 0;
  double bytes_per_peer = 0.0;
  double materialized = 0.0;
  for (auto _ : state) {
    System system;
    system.network().set_track_edge_counts(false);
    for (uint32_t i = 0; i < n; ++i) {
      system.CreatePeer(SocialPeerName(i), SocialPeerOptions());
    }
    (void)system.RunRound();  // an all-idle round is ~free
    peers_created += n;
    state.PauseTiming();
    materialized = static_cast<double>(system.MaterializedPeerCount());
    size_t sampled = 0;
    size_t total = 0;
    const uint32_t stride = n > 4096 ? n / 4096 : 1;
    for (uint32_t i = 0; i < n; i += stride) {
      total += system.ApproxPeerBytes(SocialPeerName(i));
      ++sampled;
    }
    bytes_per_peer = static_cast<double>(total) /
                     static_cast<double>(sampled ? sampled : 1);
    state.ResumeTiming();
  }
  state.counters["peers_per_sec"] = benchmark::Counter(
      static_cast<double>(peers_created), benchmark::Counter::kIsRate);
  state.counters["bytes_per_peer"] = bytes_per_peer;
  state.counters["materialized_peers"] = materialized;
  state.counters["peak_rss_mb"] = PeakRssMb();
}
BENCHMARK(BM_SocialIdleFootprint)->Arg(10000)->Arg(100000)
    ->Unit(benchmark::kMillisecond);

// Follow/unfollow storm over a Zipf world: every follow ships a
// residual rule to the followee (delegation install), every unfollow
// retracts it, every post streams deltas through whatever residuals
// are installed. Only the actors and the peers they touch materialize.
void BM_SocialFollowChurn(benchmark::State& state) {
  const uint32_t peers = static_cast<uint32_t>(state.range(0));
  const uint32_t actors = std::min<uint32_t>(peers / 8 + 1, 256);
  const std::vector<SocialOp> script =
      MakeChurnScript(peers, actors, 600, /*zipf_exponent=*/1.0,
                      /*seed=*/11);
  const SharedPlanCache::Stats cache_before =
      SharedPlanCache::Instance().stats();
  uint64_t ops_applied = 0;
  uint64_t deltas = 0;
  uint64_t rounds = 0;
  double materialized = 0.0;
  for (auto _ : state) {
    state.PauseTiming();
    System system;
    system.network().set_track_edge_counts(false);
    for (uint32_t i = 0; i < peers; ++i) {
      system.CreatePeer(SocialPeerName(i), SocialPeerOptions());
    }
    SocialDriver driver(&system);
    state.ResumeTiming();

    size_t since_round = 0;
    for (const SocialOp& op : script) {
      (void)driver.Apply(op);
      ++ops_applied;
      if (++since_round % 8 == 0) {
        RoundReport r = system.RunRound();
        deltas += r.delta_tuples_sent;
        ++rounds;
      }
    }
    for (int guard = 0; !system.IsQuiescent() && guard < 10000; ++guard) {
      RoundReport r = system.RunRound();
      deltas += r.delta_tuples_sent;
      ++rounds;
    }

    state.PauseTiming();
    materialized = static_cast<double>(system.MaterializedPeerCount());
    state.ResumeTiming();
  }
  const SharedPlanCache::Stats cache_after =
      SharedPlanCache::Instance().stats();
  state.counters["ops_per_sec"] = benchmark::Counter(
      static_cast<double>(ops_applied), benchmark::Counter::kIsRate);
  state.counters["deltas_per_sec"] = benchmark::Counter(
      static_cast<double>(deltas), benchmark::Counter::kIsRate);
  state.counters["rounds"] = static_cast<double>(rounds);
  state.counters["materialized_peers"] = materialized;
  state.counters["plan_compiles"] =
      static_cast<double>(cache_after.compiles - cache_before.compiles);
  state.counters["plan_cache_hits"] =
      static_cast<double>(cache_after.hits - cache_before.hits);
  state.counters["peak_rss_mb"] = PeakRssMb();
}
BENCHMARK(BM_SocialFollowChurn)->Arg(1000)->Arg(10000)
    ->Unit(benchmark::kMillisecond);

// Viral fan-out: the biggest hub's followers subscribe (one residual
// each at the hub), then the hub posts a burst; every post streams one
// delta tuple per follower. Throughput is residual-rule evaluation +
// delta shipping at high fan-out.
void BM_SocialViralPost(benchmark::State& state) {
  const uint32_t peers = static_cast<uint32_t>(state.range(0));
  SocialGraphOptions gopt;
  gopt.num_peers = peers;
  SocialGraph graph = GenerateSocialGraph(gopt);
  std::vector<uint32_t> fans = graph.followers[0];
  if (fans.size() > 1200) fans.resize(1200);
  constexpr int kPosts = 8;
  uint64_t deltas = 0;
  uint64_t posts = 0;
  uint64_t rounds = 0;
  for (auto _ : state) {
    state.PauseTiming();
    System system;
    system.network().set_track_edge_counts(false);
    for (uint32_t i = 0; i < peers; ++i) {
      system.CreatePeer(SocialPeerName(i), SocialPeerOptions());
    }
    SocialDriver driver(&system);
    for (uint32_t f : fans) (void)driver.Follow(f, 0);
    (void)system.RunUntilQuiescent(100000);
    state.ResumeTiming();

    for (int k = 0; k < kPosts; ++k) {
      (void)driver.Post(0, 1000 + k);
      ++posts;
      for (int guard = 0; !system.IsQuiescent() && guard < 1000; ++guard) {
        RoundReport r = system.RunRound();
        deltas += r.delta_tuples_sent;
        ++rounds;
      }
    }
  }
  state.counters["fanout"] = static_cast<double>(fans.size());
  state.counters["posts_per_sec"] = benchmark::Counter(
      static_cast<double>(posts), benchmark::Counter::kIsRate);
  state.counters["deltas_per_sec"] = benchmark::Counter(
      static_cast<double>(deltas), benchmark::Counter::kIsRate);
  state.counters["rounds"] = static_cast<double>(rounds);
  state.counters["peak_rss_mb"] = PeakRssMb();
}
BENCHMARK(BM_SocialViralPost)->Arg(10000)->Unit(benchmark::kMillisecond);

// Regional partition + heal: a slice of the hub's followers goes dark
// (O(1)/peer isolation), the hub posts into the void, the region heals,
// and heartbeat-driven resync repairs every stale feed.
void BM_SocialPartitionHeal(benchmark::State& state) {
  const uint32_t peers = static_cast<uint32_t>(state.range(0));
  SocialGraphOptions gopt;
  gopt.num_peers = peers;
  SocialGraph graph = GenerateSocialGraph(gopt);
  std::vector<uint32_t> fans = graph.followers[0];
  if (fans.size() > 400) fans.resize(400);
  const size_t dark = fans.size() / 10 + 1;
  uint64_t resyncs = 0;
  uint64_t rounds = 0;
  double stale_after_heal = 0.0;
  int64_t post_id = 5000;
  for (auto _ : state) {
    state.PauseTiming();
    SystemOptions options;
    options.heartbeat_interval_rounds = 4;
    System system(options);
    system.network().set_track_edge_counts(false);
    for (uint32_t i = 0; i < peers; ++i) {
      system.CreatePeer(SocialPeerName(i), SocialPeerOptions());
    }
    SocialDriver driver(&system);
    for (uint32_t f : fans) (void)driver.Follow(f, 0);
    (void)system.RunUntilQuiescent(100000);
    state.ResumeTiming();

    // Lights out for the region, post into it, heal, repair.
    for (size_t i = 0; i < dark; ++i) {
      system.network().SetIsolated(SocialPeerName(fans[i]), true);
    }
    const int64_t id = post_id++;
    (void)driver.Post(0, id);
    for (int guard = 0; !system.IsQuiescent() && guard < 1000; ++guard) {
      RoundReport r = system.RunRound();
      resyncs += r.resync_requests;
      ++rounds;
    }
    for (size_t i = 0; i < dark; ++i) {
      system.network().SetIsolated(SocialPeerName(fans[i]), false);
    }
    // One heartbeat interval plus the resync round trip, then settle.
    for (int round = 0; round < 16; ++round) {
      RoundReport r = system.RunRound();
      resyncs += r.resync_requests;
      ++rounds;
    }
    for (int guard = 0; !system.IsQuiescent() && guard < 1000; ++guard) {
      RoundReport r = system.RunRound();
      resyncs += r.resync_requests;
      ++rounds;
    }

    state.PauseTiming();
    stale_after_heal = 0.0;
    for (size_t i = 0; i < dark; ++i) {
      const Peer* fan = system.GetPeer(SocialPeerName(fans[i]));
      const Relation* feed = fan->engine().catalog().Get("feed");
      if (feed == nullptr ||
          !feed->Contains({Value::Int(id),
                           Value::String(SocialPeerName(0))})) {
        stale_after_heal += 1.0;
      }
    }
    state.ResumeTiming();
  }
  state.counters["dark_peers"] = static_cast<double>(dark);
  state.counters["resyncs"] = static_cast<double>(resyncs);
  state.counters["rounds"] = static_cast<double>(rounds);
  state.counters["stale_after_heal"] = stale_after_heal;
  state.counters["peak_rss_mb"] = PeakRssMb();
}
BENCHMARK(BM_SocialPartitionHeal)->Arg(10000)
    ->Unit(benchmark::kMillisecond);

}  // namespace wdl

int main(int argc, char** argv) {
  // The million-peer footprint point costs real memory and minutes;
  // keep it out of routine smoke runs, in reach of the manual CI job.
  if (std::getenv("WDL_BENCH_BIG") != nullptr) {
    benchmark::RegisterBenchmark("BM_SocialIdleFootprint",
                                 &wdl::BM_SocialIdleFootprint)
        ->Arg(1000000)
        ->Unit(benchmark::kMillisecond);
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
