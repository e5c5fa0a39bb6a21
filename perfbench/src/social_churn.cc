// social_churn: thousands of lazily materialized peers, in process on
// SimulatedNetwork (no TCP, no disk).
//
// A 10k-peer Zipf follower graph (src/workload/) is seeded, then a
// MakeChurnScript follow/unfollow/post stream runs closed loop: each op
// is applied and the system is run until quiescent, which is when the
// op is visible. Follows and unfollows install and retract delegated
// residual rules at the followee (a rule-set change recomputes there,
// hubs included); hub posts fan out to every follower's feed. After
// every kQueryEvery-th script op, a follower the op touched reads its
// feed through RunQuery (the query layer), and the rows are checked
// against the model.
#include <cstdio>
#include <iterator>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "bench.h"
#include "procstat.h"
#include "report.h"
#include "runtime/query.h"
#include "trace.h"
#include "workload/social_graph.h"

namespace wdl::bench {
namespace {

constexpr int kMaxRounds = 10000;
// A feed read runs the full query path, which converges the whole
// system twice (about 11 ms at 10k peers); one read per eight script
// ops keeps the main mix mostly writes.
constexpr size_t kQueryEvery = 8;
constexpr uint64_t kNoLimit = std::numeric_limits<uint64_t>::max();

/// The system under test plus the benchmark's model of it.
class Social {
 public:
  Social(const SocialGraphOptions& graph, Tracer* tracer)
      : graph_(graph), tracer_(tracer) {}

  Status Build() {
    auto sim = std::make_unique<SimulatedNetwork>(graph_.seed);
    sim->set_track_edge_counts(false);
    system_ = std::make_unique<System>(
        std::make_unique<TimingNetwork>(std::move(sim), tracer_));
    for (uint32_t i = 0; i < graph_.num_peers; ++i) {
      system_->CreatePeer(SocialPeerName(i), SocialPeerOptions());
    }
    WDL_RETURN_IF_ERROR(system_->AttachWrapper(
        std::make_unique<MarkerWrapper>(SocialPeerName(0), tracer_)));
    driver_ = std::make_unique<SocialDriver>(system_.get());
    follows_.assign(graph_.num_peers, {});
    followers_.assign(graph_.num_peers, {});
    posts_.assign(graph_.num_peers, {});
    SocialGraph graph = GenerateSocialGraph(graph_);
    for (uint32_t v = 0; v < graph.num_peers; ++v) {
      for (uint32_t f : graph.followers[v]) {
        WDL_RETURN_IF_ERROR(driver_->Follow(f, v));
        follows_[f].insert(v);
        followers_[v].insert(f);
      }
    }
    if (!Converge(*system_, *tracer_, kMaxRounds)) {
      return Status::FailedPrecondition("seeded graph did not converge");
    }
    return Status::OK();
  }

  System& system() { return *system_; }

  /// False for script ops the model says change nothing (a follow the
  /// seeded graph already has, an unfollow of an absent edge).
  bool ChangesState(const SocialOp& op) const {
    switch (op.kind) {
      case SocialOp::Kind::kFollow:
        return follows_[op.actor].count(op.target) == 0;
      case SocialOp::Kind::kUnfollow:
        return follows_[op.actor].count(op.target) > 0;
      case SocialOp::Kind::kPost:
        return true;
    }
    return false;
  }

  Status Apply(const SocialOp& op) {
    Status st;
    tracer_->Time(Span::kWrite, [&] { st = driver_->Apply(op); });
    switch (op.kind) {
      case SocialOp::Kind::kFollow:
        follows_[op.actor].insert(op.target);
        followers_[op.target].insert(op.actor);
        break;
      case SocialOp::Kind::kUnfollow:
        follows_[op.actor].erase(op.target);
        followers_[op.target].erase(op.actor);
        break;
      case SocialOp::Kind::kPost:
        posts_[op.actor].push_back(op.post_id);
        break;
    }
    return st;
  }

  /// Reads the feed of a follower `op` touched (the follower itself,
  /// or for a post one of the author's followers, chosen by the post
  /// id) through RunQuery and checks the rows against the model.
  void QueryFeed(const SocialOp& op, Window* w, RunResult* result) {
    uint32_t u = op.actor;
    if (op.kind == SocialOp::Kind::kPost) {
      const std::set<uint32_t>& fans = followers_[op.actor];
      if (fans.empty()) return;
      u = *std::next(fans.begin(), op.post_id % fans.size());
    }
    const std::string body = "feed@" + SocialPeerName(u) + "($id, $who)";
    const Clock::time_point t0 = Clock::now();
    Result<QueryResult> q = Status::OK();
    tracer_->Time(Span::kQuery, [&] {
      q = RunQuery(system_.get(), SocialPeerName(u), body);
    });
    w->query_ms.push_back(SecondsBetween(t0, Clock::now()) * 1e3);
    if (!q.ok()) {
      result->Fail("query " + body + ": " + q.status().ToString());
      return;
    }
    w->demand_queries += q->demand_path ? 1 : 0;
    w->query_tuples_examined += q->tuples_examined;
    tracer_->Time(Span::kCheck, [&] {
      std::vector<Tuple> expected = ExpectedFeed(u);
      std::set<Tuple> got(q->rows.begin(), q->rows.end());
      if (q->rows.size() != expected.size() ||
          got != std::set<Tuple>(expected.begin(), expected.end())) {
        result->Fail("query " + body + " returned " +
                     std::to_string(q->rows.size()) + " rows, the model " +
                     std::to_string(expected.size()));
      }
    });
  }

  /// Compares every peer's feed with the model: the posts of everyone
  /// it follows. "" when they match. `corrupt` adds a post nobody made
  /// to peer 0's expected feed.
  std::string CheckFeeds(bool corrupt) const {
    for (uint32_t u = 0; u < graph_.num_peers; ++u) {
      std::vector<Tuple> expected = ExpectedFeed(u);
      if (corrupt && u == 0) {
        expected.push_back({Value::Int(-1), Value::String("nobody")});
      }
      const std::string name = SocialPeerName(u);
      const Peer* peer = system_->GetPeer(name);
      const Relation* feed = peer != nullptr && peer->has_engine()
                                 ? peer->engine().catalog().Get("feed")
                                 : nullptr;
      size_t held = feed == nullptr ? 0 : feed->size();
      if (held != expected.size()) {
        return "feed@" + name + " holds " + std::to_string(held) +
               " tuples, the model " + std::to_string(expected.size());
      }
      for (const Tuple& t : expected) {
        if (!feed->Contains(t)) return "feed@" + name + " lacks " + TupleToString(t);
      }
    }
    return "";
  }

 private:
  /// Model: the posts of everyone `u` follows, as (id, author) rows.
  std::vector<Tuple> ExpectedFeed(uint32_t u) const {
    std::vector<Tuple> out;
    for (uint32_t v : follows_[u]) {
      for (int64_t id : posts_[v]) {
        out.push_back({Value::Int(id), Value::String(SocialPeerName(v))});
      }
    }
    return out;
  }

  SocialGraphOptions graph_;
  Tracer* tracer_;
  std::unique_ptr<System> system_;
  std::unique_ptr<SocialDriver> driver_;
  std::vector<std::set<uint32_t>> follows_;    // follower -> followees
  std::vector<std::set<uint32_t>> followers_;  // followee -> followers
  std::vector<std::vector<int64_t>> posts_;  // author -> post ids
};

/// Runs script ops from `*next` on, each to quiescence, until `seconds`
/// pass or `max_ops` ops are done.
Window RunMix(Social& social, Tracer& tracer,
              const std::vector<SocialOp>& script, size_t* next,
              double seconds, uint64_t max_ops, RunResult* result) {
  Window w;
  const double cpu0 = SelfCpuMs();
  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  Clock::time_point now = start;
  while (now < end && w.ops + w.failed < max_ops) {
    if (*next >= script.size()) {
      result->Fail("the churn script ran out; make it longer");
      break;
    }
    const SocialOp& op = script[(*next)++];
    if (!social.ChangesState(op)) continue;
    const Clock::time_point t0 = Clock::now();
    Status st = social.Apply(op);
    bool ok = st.ok() && Converge(social.system(), tracer, kMaxRounds,
                                  &w.rounds, &w.stages);
    now = Clock::now();
    if (ok) {
      ++w.ops;
      w.visible_ms.push_back(SecondsBetween(t0, now) * 1e3);
      if (*next % kQueryEvery == 0) {
        social.QueryFeed(op, &w, result);
        now = Clock::now();
      }
    } else {
      ++w.failed;
    }
  }
  w.seconds = SecondsBetween(start, now);
  w.cpu_ms = SelfCpuMs() - cpu0;
  return w;
}

}  // namespace

RunResult RunSocialChurn(const RunOptions& options) {
  RunResult result;
  Tracer tracer;
  SocialGraphOptions graph;
  graph.num_peers = options.smoke ? 400 : 10000;
  graph.mean_followers = 2;
  graph.zipf_exponent = 1.0;
  graph.seed = options.seed;
  // The seed draws the follower graph; the churn script is the same for
  // every seed. A run completes only ~1000 ops, and a seed-drawn script
  // changes how many of them are hub posts (each a fan-out to ~2000
  // feeds) by about a fifth, which moved ops_per_s by 14% between seeds:
  // input variance that would drown any change worth measuring.
  const uint32_t actors = 256;
  const std::vector<SocialOp> script =
      MakeChurnScript(graph.num_peers, actors, options.smoke ? 2000 : 400000,
                      graph.zipf_exponent, /*seed=*/1);
  const int setups = options.smoke ? 2 : 3;
  const uint64_t warmup_ops = options.smoke ? 20 : 300;

  // Set up several times on the same inputs and keep the last
  // instance; setup_s is the median.
  std::vector<double> setup_s;
  std::unique_ptr<Social> social;
  size_t next = 0;
  for (int i = 0; i < setups; ++i) {
    social.reset();
    const Clock::time_point t0 = Clock::now();
    social = std::make_unique<Social>(graph, &tracer);
    Status built = social->Build();
    next = 0;
    Window warm;
    if (built.ok()) {
      warm = RunMix(*social, tracer, script, &next, 60.0, warmup_ops, &result);
    }
    if (!built.ok() || warm.failed > 0 || !result.correct) {
      result.Fail("social set-up failed: " + built.ToString());
      return result;
    }
    setup_s.push_back(SecondsBetween(t0, Clock::now()));
    std::fprintf(stderr, "  setup: %.3fs\n", setup_s.back());
  }

  EndToEnd e2e;
  e2e.setup_s = Median(setup_s);
  e2e.peak_rss_mb = PeakRssMb(0);
  LayerReport layers;
  Window measured;
  if (!options.trace) {
    std::vector<Window> slices =
        RunSlices(options.seconds, kSlices, [&](double s) {
          return RunMix(*social, tracer, script, &next, s, kNoLimit, &result);
        });
    e2e.FromSlices(slices);
    for (const Window& w : slices) measured.Merge(w);
  } else {
    const Counters before = SampleCounters(social->system());
    TracedRun run = RunTraced(tracer, options.seconds, kTracePairs,
                              [&](double s) {
                                return RunMix(*social, tracer, script, &next,
                                              s, kNoLimit, &result);
                              });
    const Counters after = SampleCounters(social->system());
    layers.FromSpans(tracer, run);
    FillCounterLayers(before, after, run.all, &layers);
    FillQueryLayers(run, &layers);
    layers.wire_bytes_per_op = run.all.PerOp(
        static_cast<double>(after.net.bytes_sent - before.net.bytes_sent));
    layers.materialized_peers =
        static_cast<double>(social->system().MaterializedPeerCount());
    measured = run.all;
  }

  std::string mismatch = social->CheckFeeds(options.corrupt_expectation);
  if (!mismatch.empty()) result.Fail(mismatch);

  result.attempted = measured.ops + measured.failed;
  result.failed = measured.failed;
  if (options.trace) {
    EmitLayers(layers, &result);
    if (!tracer.WriteChromeTrace(options.work_dir +
                                 "/social_churn.trace.json")) {
      std::fprintf(stderr, "could not write the trace file\n");
    }
  } else {
    EmitEndToEnd(e2e, &result);
  }
  std::fprintf(stderr, "social_churn: setup %.3fs, %llu ops in %.2fs\n",
               e2e.setup_s, static_cast<unsigned long long>(measured.ops),
               measured.seconds);
  return result;
}

}  // namespace wdl::bench
