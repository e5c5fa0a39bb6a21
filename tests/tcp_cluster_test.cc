// The paper's deployment, for real: N separate OS processes, each a
// wdl_peerd hosting one peer, rendezvousing through address files and
// converging over TCP to exactly the state the in-process simulator
// computes. The restart test SIGKILLs one daemon mid-conversation and
// starts a fresh one from nothing but its program file: the survivors'
// link-reset handling plus the resync protocol must rebuild it. The
// daemon's own contract rides along: it exits cleanly on SIGTERM and at
// --max-runtime-ms, refuses bad numbers, sleeps without CPU or extra
// threads when idle, and keeps heartbeating while idle when asked to.
//
// The daemon binary path is injected by CMake as WDL_PEERD_PATH.

#include <fcntl.h>
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "net/tcp_network.h"
#include "runtime/fingerprint.h"
#include "runtime/system.h"

namespace wdl {
namespace {

const char* kAlice = R"(
  collection ext edge@alice(src: string, dst: string);
  collection int reach@alice(src: string, dst: string);
  collection ext selected@alice(p: string);
  collection int gallery@alice(id: int, name: string);
  fact edge@alice("a", "b");
  fact edge@alice("b", "c");
  fact edge@alice("c", "d");
  rule reach@alice($x, $y) :- edge@alice($x, $y);
  rule reach@alice($x, $z) :- reach@alice($x, $y), edge@alice($y, $z);
  fact selected@alice("bob");
  fact selected@alice("carol");
  rule gallery@alice($id, $n) :- selected@alice($p), pictures@$p($id, $n);
  rule mirror@bob($x, $y) :- reach@alice($x, $y);
)";

const char* kBob = R"(
  collection ext pictures@bob(id: int, name: string);
  fact pictures@bob(1, "sea.jpg");
  fact pictures@bob(2, "boat.jpg");
)";

const char* kCarol = R"(
  collection ext pictures@carol(id: int, name: string);
  fact pictures@carol(3, "cat.jpg");
)";

const std::vector<std::pair<std::string, const char*>> kCluster = {
    {"alice", kAlice}, {"bob", kBob}, {"carol", kCarol}};

std::map<std::string, std::string> SimulatorOracle() {
  System sim;
  PeerOptions po;
  po.trust_all_delegations = true;
  std::vector<Peer*> peers;
  for (const auto& [name, program] : kCluster) {
    (void)program;
    peers.push_back(sim.CreatePeer(name, po));
  }
  for (size_t i = 0; i < peers.size(); ++i) {
    EXPECT_TRUE(peers[i]->LoadProgramText(kCluster[i].second).ok());
  }
  EXPECT_TRUE(sim.RunUntilQuiescent().ok());
  std::map<std::string, std::string> fps;
  for (Peer* p : peers) fps[p->name()] = PeerStateFingerprint(*p);
  return fps;
}

std::string ReadFileOrEmpty(const std::string& path) {
  std::ifstream in(path);
  if (!in) return {};
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

bool AwaitFile(const std::string& path, int timeout_ms) {
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(timeout_ms);
  while (::access(path.c_str(), F_OK) != 0) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return true;
}

/// User plus system CPU a process has used, from /proc/<pid>/stat.
double ProcessCpuMs(pid_t pid) {
  std::string stat = ReadFileOrEmpty("/proc/" + std::to_string(pid) + "/stat");
  size_t paren = stat.rfind(')');  // the command name may hold blanks
  if (paren == std::string::npos) return -1.0;
  std::istringstream fields(stat.substr(paren + 2));
  std::string field;
  unsigned long long utime = 0, stime = 0;
  for (int i = 3; fields >> field && i <= 15; ++i) {
    if (i == 14) utime = std::stoull(field);
    if (i == 15) stime = std::stoull(field);
  }
  return 1000.0 * static_cast<double>(utime + stime) /
         static_cast<double>(::sysconf(_SC_CLK_TCK));
}

/// The "Threads:" line of /proc/<pid>/status.
std::string ThreadsLine(pid_t pid) {
  std::istringstream status(
      ReadFileOrEmpty("/proc/" + std::to_string(pid) + "/status"));
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) return line;
  }
  return "";
}

class TcpClusterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    std::string tmpl = ::testing::TempDir() + "/wdl_cluster_XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl.data()), nullptr);
    dir_ = tmpl;
    for (const auto& [name, program] : kCluster) {
      std::ofstream out(dir_ + "/" + name + ".wdl");
      out << program;
      ASSERT_TRUE(out.good());
    }
  }

  void TearDown() override {
    // StopPeer erases from pids_; don't iterate the live map.
    std::vector<std::string> names;
    for (const auto& [name, pid] : pids_) names.push_back(name);
    for (const std::string& name : names) StopPeer(name);
  }

  /// One cluster member: its program, address and fingerprint files
  /// under the test directory, and an address file for every other
  /// member.
  void SpawnPeer(const std::string& name,
                 const std::vector<std::string>& extra_args = {}) {
    std::vector<std::string> args = {
        "--listen",      "0",
        "--fingerprint", dir_ + "/" + name + ".fp",
        "--idle-ms",     "150",
    };
    args.insert(args.end(), extra_args.begin(), extra_args.end());
    for (const auto& [other, program] : kCluster) {
      (void)program;
      if (other == name) continue;
      args.push_back("--peer");
      args.push_back(other + "=@" + dir_ + "/" + other + ".addr");
    }
    Spawn(name, args);
  }

  /// fork+exec one wdl_peerd with --name, --program and --addr-file
  /// derived from `name`, then `args`; stderr goes to <dir>/<name>.log.
  void Spawn(const std::string& name, const std::vector<std::string>& args) {
    std::vector<std::string> argv_strings = {
        WDL_PEERD_PATH, "--name", name,
        "--program",    dir_ + "/" + name + ".wdl",
        "--addr-file",  dir_ + "/" + name + ".addr",
    };
    argv_strings.insert(argv_strings.end(), args.begin(), args.end());
    pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      // Send both streams to the log: a daemon that inherited the
      // test's stdout pipe would keep ctest waiting on it even after
      // the test exits.
      std::string log = dir_ + "/" + name + ".log";
      int fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
      if (fd >= 0) {
        ::dup2(fd, 1);
        ::dup2(fd, 2);
        ::close(fd);
      }
      std::vector<char*> argv;
      argv.reserve(argv_strings.size() + 1);
      for (std::string& a : argv_strings) argv.push_back(a.data());
      argv.push_back(nullptr);
      ::execv(argv[0], argv.data());
      ::_exit(127);  // exec failed
    }
    pids_[name] = pid;
  }

  void KillPeerHard(const std::string& name) {
    auto it = pids_.find(name);
    ASSERT_NE(it, pids_.end());
    ASSERT_EQ(::kill(it->second, SIGKILL), 0);
    int status = 0;
    ASSERT_EQ(::waitpid(it->second, &status, 0), it->second);
    pids_.erase(it);
  }

  /// The daemon's wait status once it has exited, or nullopt if it is
  /// still running after `timeout_ms`.
  std::optional<int> AwaitExit(const std::string& name, int timeout_ms) {
    auto it = pids_.find(name);
    if (it == pids_.end()) return std::nullopt;
    auto deadline = std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(timeout_ms);
    do {
      int status = 0;
      if (::waitpid(it->second, &status, WNOHANG) == it->second) {
        pids_.erase(it);
        return status;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    } while (std::chrono::steady_clock::now() < deadline);
    return std::nullopt;
  }

  /// SIGTERM, which must end the daemon with exit code 0 within 5 s;
  /// otherwise the test fails and the daemon is SIGKILLed.
  void StopPeer(const std::string& name) {
    auto it = pids_.find(name);
    if (it == pids_.end()) return;
    const pid_t pid = it->second;
    ::kill(pid, SIGTERM);
    std::optional<int> status = AwaitExit(name, 5000);
    if (!status.has_value()) {
      ADD_FAILURE() << name << " still running 5 s after SIGTERM; killed";
      ::kill(pid, SIGKILL);
      ::waitpid(pid, nullptr, 0);
      pids_.erase(name);
      return;
    }
    EXPECT_TRUE(WIFEXITED(*status) && WEXITSTATUS(*status) == 0)
        << name << " ended with wait status " << *status << "\n"
        << ReadFileOrEmpty(dir_ + "/" + name + ".log");
  }

  /// Spawns bob with `extra_args` plus each bad flag in turn: each must
  /// exit 2 with usage and leave no address file, i.e. never listen.
  void ExpectUsageBeforeListening(
      const std::vector<std::pair<std::string, std::string>>& bad,
      const std::vector<std::string>& extra_args = {}) {
    const std::string addr = dir_ + "/bob.addr";
    for (const auto& [flag, value] : bad) {
      std::vector<std::string> args = extra_args;
      args.push_back(flag);
      args.push_back(value);
      Spawn("bob", args);
      std::optional<int> status = AwaitExit("bob", 5000);
      ASSERT_TRUE(status.has_value())
          << flag << " '" << value << "' accepted";
      EXPECT_TRUE(WIFEXITED(*status) && WEXITSTATUS(*status) == 2)
          << flag << " '" << value << "': wait status " << *status;
      EXPECT_NE(ReadFileOrEmpty(dir_ + "/bob.log").find("usage:"),
                std::string::npos)
          << flag << " '" << value << "'";
      EXPECT_NE(::access(addr.c_str(), F_OK), 0)
          << flag << " '" << value << "' wrote an address file";
      ::unlink(addr.c_str());
      ::unlink((dir_ + "/bob.log").c_str());
    }
  }

  /// Waits until every peer's published fingerprint equals the oracle's.
  bool AwaitFingerprints(const std::map<std::string, std::string>& oracle,
                         int timeout_ms) {
    auto deadline = std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(timeout_ms);
    while (std::chrono::steady_clock::now() < deadline) {
      bool all = true;
      for (const auto& [name, want] : oracle) {
        if (ReadFileOrEmpty(dir_ + "/" + name + ".fp") != want) {
          all = false;
          break;
        }
      }
      if (all) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    return false;
  }

  void DumpStateOnFailure(const std::map<std::string, std::string>& oracle) {
    for (const auto& [name, want] : oracle) {
      std::string got = ReadFileOrEmpty(dir_ + "/" + name + ".fp");
      if (got != want) {
        ADD_FAILURE() << name << " fingerprint mismatch.\n--- want:\n"
                      << want << "--- got:\n"
                      << got << "--- log:\n"
                      << ReadFileOrEmpty(dir_ + "/" + name + ".log");
      }
    }
  }

  std::string dir_;
  std::map<std::string, pid_t> pids_;
};

TEST_F(TcpClusterTest, ThreeProcessesConvergeAndHealAfterKill) {
  auto oracle = SimulatorOracle();
  ASSERT_EQ(oracle.size(), 3u);

  for (const auto& [name, program] : kCluster) {
    (void)program;
    SpawnPeer(name);
  }
  bool converged = AwaitFingerprints(oracle, 90000);
  if (!converged) DumpStateOnFailure(oracle);
  ASSERT_TRUE(converged) << "initial convergence timed out";

  // Kill bob without ceremony; its fingerprint file is stale evidence,
  // so remove it before demanding fresh convergence.
  KillPeerHard("bob");
  ASSERT_EQ(::unlink((dir_ + "/bob.fp").c_str()), 0);

  // A fresh daemon restarts from the program file alone — everything
  // bob had learned (alice's mirror, the delegated gallery rule) must
  // come back through the survivors' link-reset + resync handling.
  SpawnPeer("bob");
  converged = AwaitFingerprints(oracle, 90000);
  if (!converged) DumpStateOnFailure(oracle);
  ASSERT_TRUE(converged) << "post-restart convergence timed out";
}

// The durable variant (DESIGN.md §11, OPERATIONS.md): every daemon
// runs with --data-dir, bob is SIGKILLed at convergence and restarted
// over the same directory. It must come back from disk — the recovery
// banner in its log, the same fingerprint on the wire, and crucially
// ZERO resync requests and ZERO applied snapshots: the log covered
// everything, so nothing is rebuilt over the network.
TEST_F(TcpClusterTest, DurableClusterRecoversFromDiskWithoutResync) {
  auto oracle = SimulatorOracle();
  ASSERT_EQ(oracle.size(), 3u);

  for (const auto& [name, program] : kCluster) {
    (void)program;
    SpawnPeer(name, {"--data-dir", dir_ + "/data/" + name});
  }
  bool converged = AwaitFingerprints(oracle, 90000);
  if (!converged) DumpStateOnFailure(oracle);
  ASSERT_TRUE(converged) << "initial convergence timed out";

  KillPeerHard("bob");
  ASSERT_EQ(::unlink((dir_ + "/bob.fp").c_str()), 0);
  // Fresh log so the greps below only see the restarted process.
  ASSERT_EQ(::unlink((dir_ + "/bob.log").c_str()), 0);

  SpawnPeer("bob", {"--data-dir", dir_ + "/data/bob"});
  converged = AwaitFingerprints(oracle, 90000);
  if (!converged) DumpStateOnFailure(oracle);
  ASSERT_TRUE(converged) << "post-restart convergence timed out";

  std::string log = ReadFileOrEmpty(dir_ + "/bob.log");
  EXPECT_NE(log.find("wdl_peerd bob recovered from"), std::string::npos)
      << log;
  // The daemon prints one parseable counter line per quiescent point;
  // a recovery that needed the network would show nonzero counters on
  // some line. Counters are monotonic, so "every occurrence is 0" is
  // exactly "recovery used the network zero times".
  EXPECT_NE(log.find("resyncs_requested=0"), std::string::npos) << log;
  for (const char* key : {"resyncs_requested=", "snapshots_applied="}) {
    for (size_t at = log.find(key); at != std::string::npos;
         at = log.find(key, at + 1)) {
      EXPECT_EQ(log[at + std::strlen(key)], '0') << key << "\n" << log;
    }
  }
}

// An idle daemon blocks in its poll until something happens; a stop
// signal is one of those things, and so is its --max-runtime-ms.
TEST_F(TcpClusterTest, IdleDaemonExitsPromptlyOnSigterm) {
  // No remote peers: the daemon is idle as soon as its program loads.
  Spawn("bob", {"--fingerprint", dir_ + "/bob.fp", "--idle-ms", "20"});
  ASSERT_TRUE(AwaitFile(dir_ + "/bob.fp", 10000));
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  ASSERT_EQ(::kill(pids_["bob"], SIGTERM), 0);
  std::optional<int> status = AwaitExit("bob", 1000);
  ASSERT_TRUE(status.has_value()) << "still running 1 s after SIGTERM";
  EXPECT_TRUE(WIFEXITED(*status) && WEXITSTATUS(*status) == 0) << *status;
  EXPECT_NE(ReadFileOrEmpty(dir_ + "/bob.log").find("wdl_peerd bob exiting"),
            std::string::npos);
}

TEST_F(TcpClusterTest, MaxRuntimeEndsAnIdleDaemon) {
  Spawn("bob", {"--max-runtime-ms", "300"});
  std::optional<int> status = AwaitExit("bob", 2000);
  ASSERT_TRUE(status.has_value()) << "still running 2 s after its start";
  EXPECT_TRUE(WIFEXITED(*status) && WEXITSTATUS(*status) == 0) << *status;
  EXPECT_NE(ReadFileOrEmpty(dir_ + "/bob.log").find("wdl_peerd bob exiting"),
            std::string::npos);
}

TEST_F(TcpClusterTest, BadNumericFlagsExitWithUsageBeforeListening) {
  const std::vector<std::pair<std::string, std::string>> bad = {
      {"--listen", "70000"},          {"--listen", "abc"},
      {"--listen", "-1"},             {"--listen", ""},
      {"--idle-ms", "1e3"},           {"--idle-ms", " 5"},
      {"--heartbeat-rounds", "-5"},   {"--max-runtime-ms", "99999999999"},
      {"--snapshot-every", "-1"},     {"--snapshot-every", "4096x"},
      {"--peer", "carol=127.0.0.1:99999"}, {"--peer", "carol=127.0.0.1:x"},
  };
  ExpectUsageBeforeListening(bad);
}

TEST_F(TcpClusterTest, BadFsyncPolicyExitsWithUsageBeforeListening) {
  // Checked in the argument loop like the numeric flags, before the
  // daemon listens, although only --data-dir makes the policy matter.
  const std::vector<std::string> durable = {"--data-dir", dir_ + "/bob-data"};
  ExpectUsageBeforeListening(
      {{"--fsync", "sometimes"}, {"--fsync", ""}, {"--fsync", "Batch"}},
      durable);
  if (HasFatalFailure()) return;  // TearDown stops the daemon left running

  // A valid policy still listens and publishes its address.
  std::vector<std::string> good = durable;
  good.insert(good.end(), {"--fsync", "never", "--max-runtime-ms", "200"});
  Spawn("bob", good);
  std::optional<int> status = AwaitExit("bob", 5000);
  ASSERT_TRUE(status.has_value());
  EXPECT_TRUE(WIFEXITED(*status) && WEXITSTATUS(*status) == 0)
      << ReadFileOrEmpty(dir_ + "/bob.log");
  EXPECT_EQ(::access((dir_ + "/bob.addr").c_str(), F_OK), 0);
}

TEST_F(TcpClusterTest, ConvergedDaemonsIdleWithoutCpuOrThreads) {
  auto oracle = SimulatorOracle();
  for (const auto& [name, program] : kCluster) {
    (void)program;
    SpawnPeer(name);
  }
  bool converged = AwaitFingerprints(oracle, 90000);
  if (!converged) DumpStateOnFailure(oracle);
  ASSERT_TRUE(converged);
  // Past every daemon's --idle-ms publication.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));

  std::map<std::string, double> cpu_before;
  for (const auto& [name, pid] : pids_) cpu_before[name] = ProcessCpuMs(pid);
  std::this_thread::sleep_for(std::chrono::seconds(5));
  for (const auto& [name, pid] : pids_) {
    const double used = ProcessCpuMs(pid) - cpu_before[name];
    EXPECT_GE(used, 0.0) << name;
    EXPECT_LT(used, 25.0) << name << " used " << used << " ms of CPU idle";
    // Two inbound connections and two outbound links, one thread.
    EXPECT_EQ(ThreadsLine(pid), "Threads:\t1") << name;
  }
}

// --heartbeat-rounds counts rounds, so a daemon asked for heartbeats
// keeps running rounds while idle; without it, it sends nothing idle.
TEST_F(TcpClusterTest, IdleDaemonHeartbeatsOnlyWhenAsked) {
  {
    std::ofstream out(dir_ + "/src.wdl");
    out << R"(
      collection ext data@src(x: int);
      fact data@src(1);
      rule out@sink($x) :- data@src($x);
    )";
  }
  const std::string sink_addr = dir_ + "/sink.addr";
  for (int rounds : {50, 0}) {
    SCOPED_TRACE("--heartbeat-rounds " + std::to_string(rounds));
    TcpNetwork sink;
    ASSERT_TRUE(sink.Start().ok());
    sink.AddLocalPeer("sink");
    {
      std::ofstream out(sink_addr + ".tmp");
      out << "127.0.0.1:" << sink.port() << "\n";
    }
    ASSERT_EQ(::rename((sink_addr + ".tmp").c_str(), sink_addr.c_str()), 0);
    const std::string fp = dir_ + "/src.fp";
    ::unlink(fp.c_str());
    Spawn("src", {"--peer", "sink=@" + sink_addr, "--heartbeat-rounds",
                  std::to_string(rounds), "--fingerprint", fp, "--idle-ms",
                  "50"});

    size_t data = 0, heartbeats = 0;
    auto pump_until = [&](TcpNetwork::Clock::time_point until) {
      while (TcpNetwork::Clock::now() < until) {
        sink.Wait(std::min(until, TcpNetwork::Clock::now() +
                                      std::chrono::milliseconds(10)));
        for (const Envelope& e : sink.DeliverDue(0.0)) {
          if (e.message.type != MessageType::kDerivedDelta) continue;
          const DerivedDelta& d = e.message.delta;
          bool beat = d.version == d.base_version && !d.snapshot &&
                      d.inserts.empty() && d.deletes.empty();
          ++(beat ? heartbeats : data);
        }
      }
    };
    auto deadline = TcpNetwork::Clock::now() + std::chrono::seconds(10);
    while (TcpNetwork::Clock::now() < deadline &&
           (data == 0 || ::access(fp.c_str(), F_OK) != 0)) {
      pump_until(TcpNetwork::Clock::now() + std::chrono::milliseconds(20));
    }
    ASSERT_GT(data, 0u) << ReadFileOrEmpty(dir_ + "/src.log");
    ASSERT_EQ(::access(fp.c_str(), F_OK), 0) << "src never went idle";

    heartbeats = 0;
    pump_until(TcpNetwork::Clock::now() + std::chrono::seconds(1));
    if (rounds > 0) {
      EXPECT_GE(heartbeats, 5u);
    } else {
      EXPECT_EQ(heartbeats, 0u);
    }
    StopPeer("src");
  }
}

}  // namespace
}  // namespace wdl
