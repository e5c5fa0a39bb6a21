// wepic_tcp: the paper's deployment over real TCP.
//
// Two durable wdl_peerd daemons (--data-dir, see kFsync): `sigmod`
// runs WepicApp::SigmodProgramText(); the attendee `viewer` runs
// AttendeeProgramText("viewer"), selects sigmod's pictures, and mirrors
// its attendeePictures view to `obs`. This process hosts, on one
// TcpNetwork, the writer attendees, `obs`, and every other peer the
// programs name (SigmodFB, idle). Writers upload fixed-size blob
// pictures and keep a sliding window of their newest ones: retiring
// the oldest removes it locally and, through a deletion rule, from
// pictures@sigmod (an extensional relation, so plain deltas never
// delete there). An op is visible when its picture appears in, or
// disappears from, seen@obs: writer -> sigmod -> viewer -> obs, three
// TCP hops through both daemons.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <limits>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "base/rng.h"
#include "base/string_util.h"
#include "bench.h"
#include "durability/wal.h"
#include "net/tcp_network.h"
#include "procstat.h"
#include "report.h"
#include "trace.h"
#include "wepic/wepic.h"

namespace wdl::bench {
namespace {

constexpr size_t kBlobBytes = 1024;
constexpr auto kDeadline = std::chrono::seconds(5);
// Sleep after a round that found nothing to do. It bounds how late the
// bench notices a delivery, and how much CPU its own polling burns.
constexpr auto kPollSleep = std::chrono::microseconds(200);
// The daemons log and snapshot as in production but do not fsync: on a
// shared virtual disk, fsync latency moved ops_per_s by a third between
// identical runs (--fsync batch) against under a tenth without it.
constexpr const char* kFsync = "never";
constexpr uint64_t kNoLimit = std::numeric_limits<uint64_t>::max();
constexpr const char* kDaemonNames[] = {"sigmod", "viewer"};

std::string WriterProgram(const std::string& w) {
  const char* n = w.c_str();
  return WepicApp::AttendeeProgramText(w) +
         StrFormat("collection ext retired@%s(id: int, name: string, "
                   "owner: string, data: blob);\n"
                   "rule -pictures@sigmod($id, $name, $owner, $data) :- "
                   "retired@%s($id, $name, $owner, $data);\n",
                   n, n);
}

std::string ViewerProgram() {
  return WepicApp::AttendeeProgramText("viewer") +
         "fact selectedAttendee@viewer(\"sigmod\");\n"
         "rule seen@obs($id, $name, $owner, $data) :- "
         "attendeePictures@viewer($id, $name, $owner, $data);\n";
}

constexpr const char* kObsProgram =
    "collection int seen@obs(id: int, name: string, owner: string, "
    "data: blob);\n";

int PortOfAddrFile(const std::string& path) {
  std::string addr = ReadFile(path);
  size_t colon = addr.rfind(':');
  return colon == std::string::npos ? -1 : std::atoi(addr.c_str() + colon + 1);
}

/// One writer attendee: its live window and its outstanding op.
struct Writer {
  std::string name;
  int64_t id_base = 0;
  Peer* peer = nullptr;
  std::deque<Tuple> live;        // uploaded, oldest first
  std::optional<Tuple> retired;  // the last picture retired
  int64_t next_seq = 0;
  bool busy = false;
  bool expect_present = false;  // upload: appears; retire: disappears
  Tuple pending;
  Clock::time_point issued;
};

/// Process-level counters of the cluster at one instant.
struct ClusterSample {
  double cpu_ms = 0.0;  // bench process + both daemons
  double daemon_cpu_ms[2] = {0.0, 0.0};
  ProcIo daemon_io[2];
  TcpBytes tcp;
};

uint64_t SentBy(const TcpBytes& tcp, pid_t pid) {
  auto it = tcp.sent_by_pid.find(pid);
  return it == tcp.sent_by_pid.end() ? 0 : it->second;
}

class Cluster {
 public:
  Cluster(const RunOptions& options, Tracer* tracer, int writers,
          size_t window)
      : options_(options), tracer_(tracer), dir_(options.work_dir),
        window_(window) {
    for (int i = 0; i < writers; ++i) {
      Writer w;
      w.name = "attendee" + std::to_string(i);
      w.id_base = (i + 1) * 1000000000LL;
      writers_.push_back(std::move(w));
    }
  }
  ~Cluster() {
    for (ChildProcess& d : daemons_) d.Stop();
    system_.reset();
  }
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  Status Start();
  /// Runs the closed loop: every writer keeps one op outstanding until
  /// `seconds` pass or `max_ops` ops were issued; then drains.
  Window RunMix(double seconds, uint64_t max_ops);
  /// Runs rounds until seen@obs equals the model; false on timeout.
  bool Settle(double timeout_s);
  /// "" when seen@obs holds exactly the live pictures. `corrupt` adds
  /// a picture nobody uploaded to the expectation.
  std::string CheckSeen(bool corrupt) const;
  ClusterSample Sample(bool with_tcp) const;
  /// Last resyncs_requested a daemon logged at an idle point.
  uint64_t DaemonResyncs(int i) const;
  double PeakRssMb() const;

  System& system() { return *system_; }
  TcpNetwork* tcp() const { return tcp_; }
  pid_t daemon_pid(int i) const { return daemons_[i].pid(); }

 private:
  Tuple Picture(const Writer& w, int64_t seq) const;
  void Issue(Writer& w, uint64_t* failed);

  const RunOptions& options_;
  Tracer* tracer_;
  ScratchDir dir_;
  size_t window_;
  ChildProcess daemons_[2];
  TcpNetwork* tcp_ = nullptr;  // owned by system_
  std::unique_ptr<System> system_;
  std::vector<Writer> writers_;
  const Relation* seen_ = nullptr;
  std::set<int> ports_;
};

Status Cluster::Start() {
  if (!dir_.ok()) return Status::Internal("cannot create a run directory");
  const std::string d = dir_.path();
  auto tcp = std::make_unique<TcpNetwork>();
  WDL_RETURN_IF_ERROR(tcp->Start());
  tcp_ = tcp.get();
  tcp->AddLocalPeer("obs");
  tcp->AddLocalPeer(kSigmodFBPeer);
  for (const Writer& w : writers_) tcp->AddLocalPeer(w.name);
  for (const char* name : kDaemonNames) {
    tcp->SetPeerAddressFile(name, d + "/" + name + ".addr");
  }
  WDL_RETURN_IF_ERROR(AtomicWriteFile(
      d + "/bench.addr", "127.0.0.1:" + std::to_string(tcp->port()) + "\n"));
  WDL_RETURN_IF_ERROR(
      AtomicWriteFile(d + "/sigmod.wdl", WepicApp::SigmodProgramText()));
  WDL_RETURN_IF_ERROR(AtomicWriteFile(d + "/viewer.wdl", ViewerProgram()));

  const std::string bench_addr = "=@" + d + "/bench.addr";
  std::vector<std::string> sigmod_peers = {
      "viewer=@" + d + "/viewer.addr", std::string(kSigmodFBPeer) + bench_addr};
  for (const Writer& w : writers_) sigmod_peers.push_back(w.name + bench_addr);
  const std::vector<std::string> viewer_peers = {
      "sigmod=@" + d + "/sigmod.addr", "obs" + bench_addr};
  for (int i = 0; i < 2; ++i) {
    const std::string name = kDaemonNames[i];
    std::vector<std::string> argv = {
        options_.peerd_path, "--name", name, "--program", d + "/" + name + ".wdl",
        "--listen", "0", "--addr-file", d + "/" + name + ".addr",
        "--data-dir", d + "/" + name + ".data", "--fsync", kFsync,
        "--idle-ms", "100"};
    for (const std::string& p : i == 0 ? sigmod_peers : viewer_peers) {
      argv.push_back("--peer");
      argv.push_back(p);
    }
    if (!daemons_[i].Start(argv, d + "/" + name + ".log")) {
      return Status::Internal("cannot start " + options_.peerd_path);
    }
  }
  ports_.insert(tcp->port());
  for (const char* name : kDaemonNames) {
    const std::string addr = d + "/" + name + ".addr";
    if (!WaitForFile(addr, 10000)) {
      return Status::Unavailable(std::string(name) +
                                 " did not publish its address; see " + d +
                                 "/" + name + ".log");
    }
    ports_.insert(PortOfAddrFile(addr));
  }

  system_ = std::make_unique<System>(
      std::make_unique<TimingNetwork>(std::move(tcp), tracer_));
  Peer* obs = system_->CreatePeer("obs");
  obs->AddKnownPeer("viewer");
  WDL_RETURN_IF_ERROR(obs->LoadProgramText(kObsProgram));
  seen_ = obs->engine().catalog().Get("seen");
  Peer* fb = system_->CreatePeer(kSigmodFBPeer);
  fb->gate().TrustPeer(kSigmodPeer);
  fb->AddKnownPeer(kSigmodPeer);
  for (Writer& w : writers_) {
    w.peer = system_->CreatePeer(w.name);
    // As in WepicApp: attendees trust sigmod, whose authorization rule
    // delegates one residual per picture to its owner.
    w.peer->gate().TrustPeer(kSigmodPeer);
    w.peer->AddKnownPeer(kSigmodPeer);
    WDL_RETURN_IF_ERROR(w.peer->LoadProgramText(WriterProgram(w.name)));
  }
  return system_->AttachWrapper(std::make_unique<MarkerWrapper>("obs", tracer_));
}

Tuple Cluster::Picture(const Writer& w, int64_t seq) const {
  const int64_t id = w.id_base + seq;
  Rng rng(options_.seed * 0x9e3779b97f4a7c15ULL + static_cast<uint64_t>(id));
  std::string data(kBlobBytes, '\0');
  for (size_t i = 0; i < data.size(); i += 8) {
    uint64_t r = rng.Next();
    for (size_t j = 0; j < 8 && i + j < data.size(); ++j) {
      data[i + j] = static_cast<char>(r >> (8 * j));
    }
  }
  return {Value::Int(id),
          Value::String(StrFormat("pic%lld.jpg", static_cast<long long>(id))),
          Value::String(w.name), Value::MakeBlob(std::move(data))};
}

void Cluster::Issue(Writer& w, uint64_t* failed) {
  w.issued = Clock::now();
  w.busy = true;
  bool ok = true;
  tracer_->Time(Span::kWrite, [&] {
    if (w.live.size() < window_) {
      w.pending = Picture(w, w.next_seq++);
      w.expect_present = true;
      Result<bool> r = w.peer->Insert(Fact("pictures", w.name, w.pending));
      ok = r.ok() && *r;
      w.live.push_back(w.pending);
    } else {
      w.pending = w.live.front();
      w.expect_present = false;
      w.live.pop_front();
      Result<bool> r = w.peer->Remove(Fact("pictures", w.name, w.pending));
      ok = r.ok() && *r;
      if (w.retired.has_value()) {
        Result<bool> old = w.peer->Remove(Fact("retired", w.name, *w.retired));
        ok = ok && old.ok() && *old;
      }
      Result<bool> retire = w.peer->Insert(Fact("retired", w.name, w.pending));
      ok = ok && retire.ok() && *retire;
      w.retired = w.pending;
    }
  });
  if (!ok) {
    ++*failed;
    w.busy = false;
  }
}

Window Cluster::RunMix(double seconds, uint64_t max_ops) {
  Window w;
  const double cpu0 = Sample(false).cpu_ms;
  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  uint64_t issued = 0;
  Clock::time_point now = start;
  while (true) {
    bool any_busy = false;
    for (Writer& wr : writers_) {
      if (!wr.busy && now < end && issued < max_ops) {
        Issue(wr, &w.failed);
        ++issued;
      }
      any_busy = any_busy || wr.busy;
    }
    if (!any_busy && (now >= end || issued >= max_ops)) break;

    RoundReport r = tracer_->Round(*system_);
    const bool idle = r.envelopes_delivered == 0 && r.stages_run == 0;
    if (idle) {
      tracer_->Time(Span::kWait,
                    [] { std::this_thread::sleep_for(kPollSleep); });
    } else {
      ++w.rounds;
      w.stages += r.stages_run;
    }
    now = Clock::now();
    tracer_->Time(Span::kCheck, [&] {
      for (Writer& wr : writers_) {
        if (!wr.busy) continue;
        if (!idle && seen_->Contains(wr.pending) == wr.expect_present) {
          wr.busy = false;
          ++w.ops;
          w.visible_ms.push_back(SecondsBetween(wr.issued, now) * 1e3);
        } else if (now - wr.issued > kDeadline) {
          wr.busy = false;
          ++w.failed;
        }
      }
    });
  }
  w.seconds = SecondsBetween(start, now);
  w.cpu_ms = Sample(false).cpu_ms - cpu0;
  return w;
}

bool Cluster::Settle(double timeout_s) {
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(timeout_s));
  while (Clock::now() < deadline) {
    if (CheckSeen(false).empty()) return true;
    RoundReport r = system_->RunRound();
    if (r.envelopes_delivered == 0 && r.stages_run == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  return CheckSeen(false).empty();
}

std::string Cluster::CheckSeen(bool corrupt) const {
  std::vector<Tuple> expected;
  for (const Writer& w : writers_) {
    expected.insert(expected.end(), w.live.begin(), w.live.end());
  }
  if (corrupt && !writers_.empty()) expected.push_back(Picture(writers_[0], -1));
  if (seen_->size() != expected.size()) {
    return "seen@obs holds " + std::to_string(seen_->size()) +
           " pictures, the model " + std::to_string(expected.size());
  }
  for (const Tuple& t : expected) {
    if (!seen_->Contains(t)) return "seen@obs lacks picture " + t[0].ToString();
  }
  return "";
}

ClusterSample Cluster::Sample(bool with_tcp) const {
  ClusterSample s;
  s.cpu_ms = SelfCpuMs();
  for (int i = 0; i < 2; ++i) {
    s.daemon_cpu_ms[i] = ProcessCpuMs(daemons_[i].pid());
    s.daemon_io[i] = ReadProcIo(daemons_[i].pid());
    s.cpu_ms += s.daemon_cpu_ms[i];
  }
  if (with_tcp) s.tcp = SampleTcpBytes(ports_);
  return s;
}

uint64_t Cluster::DaemonResyncs(int i) const {
  const std::string log =
      ReadFile(dir_.path() + "/" + kDaemonNames[i] + ".log");
  const std::string key = "resyncs_requested=";
  size_t at = log.rfind(key);
  return at == std::string::npos
             ? 0
             : std::strtoull(log.c_str() + at + key.size(), nullptr, 10);
}

double Cluster::PeakRssMb() const {
  return bench::PeakRssMb(0) + bench::PeakRssMb(daemons_[0].pid()) +
         bench::PeakRssMb(daemons_[1].pid());
}

}  // namespace

RunResult RunWepicTcp(const RunOptions& options) {
  RunResult result;
  if (access(options.peerd_path.c_str(), X_OK) != 0) {
    result.Fail("no wdl_peerd binary at '" + options.peerd_path + "'");
    return result;
  }
  Tracer tracer;
  const int writers = 2;
  const size_t window = options.smoke ? 4 : 16;
  const int setups = options.smoke ? 2 : 3;
  // Warm-up fills every window, then turns it over twice.
  const uint64_t warmup_ops = writers * window * 5;

  std::vector<double> setup_s;
  std::unique_ptr<Cluster> cluster;
  for (int i = 0; i < setups; ++i) {
    cluster.reset();
    const Clock::time_point t0 = Clock::now();
    cluster = std::make_unique<Cluster>(options, &tracer, writers, window);
    Status started = cluster->Start();
    Window warm;
    if (started.ok()) warm = cluster->RunMix(60.0, warmup_ops);
    if (!started.ok() || warm.failed > 0) {
      result.Fail("wepic set-up failed: " + started.ToString());
      return result;
    }
    setup_s.push_back(SecondsBetween(t0, Clock::now()));
    std::fprintf(stderr, "  setup: %.3fs\n", setup_s.back());
  }

  EndToEnd e2e;
  e2e.setup_s = Median(setup_s);
  e2e.peak_rss_mb = cluster->PeakRssMb();
  LayerReport layers;
  Window measured;
  if (!options.trace) {
    std::vector<Window> slices =
        RunSlices(options.seconds, kSlices,
                  [&](double s) { return cluster->RunMix(s, kNoLimit); });
    e2e.FromSlices(slices);
    for (const Window& w : slices) measured.Merge(w);
  } else {
    // Counts and process figures cover every window of the run: the
    // spans do not change the work, only when it happens.
    const Counters before = SampleCounters(cluster->system());
    const ClusterSample p0 = cluster->Sample(true);
    TracedRun run = RunTraced(tracer, options.seconds, kTracePairs,
                              [&](double s) {
                                return cluster->RunMix(s, kNoLimit);
                              });
    const ClusterSample p1 = cluster->Sample(true);
    const Counters after = SampleCounters(cluster->system());
    measured = run.all;
    layers.FromSpans(tracer, run);
    FillCounterLayers(before, after, measured, &layers);
    layers.wire_bytes_per_op = measured.PerOp(
        static_cast<double>(p1.tcp.total_sent - p0.tcp.total_sent));
    DaemonLayer* daemon_layers[2] = {&layers.sigmod, &layers.viewer};
    for (int i = 0; i < 2; ++i) {
      const pid_t pid = cluster->daemon_pid(i);
      const double cpu = p1.daemon_cpu_ms[i] - p0.daemon_cpu_ms[i];
      const double wchar = static_cast<double>(p1.daemon_io[i].wchar -
                                               p0.daemon_io[i].wchar);
      const double sent = static_cast<double>(SentBy(p1.tcp, pid)) -
                          static_cast<double>(SentBy(p0.tcp, pid));
      DaemonLayer* dl = daemon_layers[i];
      dl->cpu_ms_per_op = measured.PerOp(cpu);
      dl->busy_share =
          measured.seconds > 0 ? cpu / (measured.seconds * 1e3) : 0.0;
      dl->write_syscalls_per_op = measured.PerOp(static_cast<double>(
          p1.daemon_io[i].syscw - p0.daemon_io[i].syscw));
      dl->write_bytes_per_op = measured.PerOp(wchar);
      // wchar counts socket sends too; what is left is file writes:
      // the WAL, snapshots and the daemon's log.
      dl->disk_bytes_per_op = measured.PerOp(std::max(0.0, wchar - sent));
    }
    const TcpTransportStats ts = cluster->tcp()->TcpStatsSnapshot();
    layers.tcp_reconnects = static_cast<double>(ts.reconnects);
    layers.tcp_send_failures = static_cast<double>(ts.send_failures);
    layers.materialized_peers =
        static_cast<double>(cluster->system().MaterializedPeerCount());
  }

  uint64_t failed = measured.failed;
  if (!cluster->Settle(10.0)) ++failed;
  std::string mismatch = cluster->CheckSeen(options.corrupt_expectation);
  if (!mismatch.empty()) result.Fail(mismatch);
  if (options.trace) {
    // Let both daemons reach an idle point and log their counters.
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    layers.prop_resyncs += measured.PerOp(static_cast<double>(
        cluster->DaemonResyncs(0) + cluster->DaemonResyncs(1)));
  }
  cluster.reset();

  result.attempted = measured.ops + failed;
  result.failed = failed;
  if (options.trace) {
    EmitLayers(layers, &result);
    if (!tracer.WriteChromeTrace(options.work_dir + "/wepic_tcp.trace.json")) {
      std::fprintf(stderr, "could not write the trace file\n");
    }
  } else {
    EmitEndToEnd(e2e, &result);
  }
  std::fprintf(stderr, "wepic_tcp: setup %.3fs, %llu ops in %.2fs\n",
               e2e.setup_s, static_cast<unsigned long long>(measured.ops),
               measured.seconds);
  return result;
}

}  // namespace wdl::bench
