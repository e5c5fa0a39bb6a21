// wdl_peerd: hosts one WebdamLog peer as an OS process over TCP.
//
// This is the deployment shape of the paper — every participant runs
// its own peer with its own data and program, and peers exchange facts
// (updates) and rules (delegations) over the network. One daemon = one
// peer: it loads a program file, listens on a TCP port, connects to
// the peers named in its address map, and runs stages whenever there
// is work; in between, its one thread blocks in the transport's
// poll(2) (DESIGN.md §7). When the peer has been locally quiescent
// for --idle-ms it publishes its canonical state fingerprint to
// --fingerprint (and republishes after every later burst of
// activity), which is how the multi-process convergence tests — and
// operators — observe it.
//
// Rendezvous: with --listen 0 the OS picks the port; --addr-file
// publishes "host:port" for the others, and --peer name=@file entries
// are re-read on every connect attempt, so a cluster can start in any
// order and a restarted peer can come back on a fresh port.
//
// Example 3-peer cluster (see README); alice's command line, wrapped:
//   wdl_peerd --name alice --program alice.wdl --listen 0
//     --addr-file /tmp/w/alice.addr --peer bob=@/tmp/w/bob.addr
//     --peer carol=@/tmp/w/carol.addr --fingerprint /tmp/w/alice.fp

#include <signal.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "net/tcp_network.h"
#include "runtime/fingerprint.h"
#include "runtime/system.h"

namespace {

volatile sig_atomic_t g_stop = 0;

void HandleSignal(int) { g_stop = 1; }

/// Where a remote peer listens: a fixed host:port, or an address file.
struct PeerAddress {
  std::string name;
  std::string host;
  uint16_t port = 0;
  std::string file;  // non-empty: --peer NAME=@FILE
};

struct PeerdArgs {
  std::string name;
  std::string program_path;
  std::string bind_address = "127.0.0.1";
  uint16_t listen_port = 0;
  std::string addr_file;
  std::string fingerprint_path;
  int idle_ms = 200;
  int heartbeat_rounds = 0;
  int max_runtime_ms = 0;  // 0: run until a signal arrives
  bool trust_all = true;
  // Durability (OPERATIONS.md): empty --data-dir = memory-only peer.
  std::string data_dir;
  wdl::FsyncPolicy fsync = wdl::FsyncPolicy::kBatch;
  uint64_t snapshot_every = 4096;
  std::vector<PeerAddress> peers;
};

/// Parses all of `text` as a decimal number in [0, max]: no sign, no
/// blanks, nothing after the digits.
bool ParseNumber(const char* text, uint64_t max, uint64_t* out) {
  if (!std::isdigit(static_cast<unsigned char>(text[0]))) return false;
  errno = 0;
  char* end = nullptr;
  unsigned long long value = std::strtoull(text, &end, 10);
  if (errno != 0 || *end != '\0' || value > max) return false;
  *out = value;
  return true;
}

int Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --name NAME --program FILE [--listen PORT]\n"
      "  [--bind ADDR] [--addr-file PATH] [--peer NAME=HOST:PORT|NAME=@FILE]...\n"
      "  [--fingerprint PATH] [--idle-ms N] [--heartbeat-rounds N]\n"
      "  [--max-runtime-ms N] [--no-trust]\n"
      "  [--data-dir DIR] [--fsync never|batch|always] [--snapshot-every N]\n",
      argv0);
  return 2;
}

bool WriteFileAtomic(const std::string& path, const std::string& content) {
  std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out) return false;
    out << content;
    if (!out.flush()) return false;
  }
  return std::rename(tmp.c_str(), path.c_str()) == 0;
}

}  // namespace

int main(int argc, char** argv) {
  // SIGTERM/SIGINT only set g_stop. They are blocked while the loop
  // decides to wait and let in by the wait itself (ppoll), so a signal
  // that lands just before the wait still ends it.
  struct sigaction action {};
  action.sa_handler = HandleSignal;
  sigemptyset(&action.sa_mask);
  sigaction(SIGTERM, &action, nullptr);
  sigaction(SIGINT, &action, nullptr);
  sigset_t stop_signals;
  sigemptyset(&stop_signals);
  sigaddset(&stop_signals, SIGTERM);
  sigaddset(&stop_signals, SIGINT);
  sigset_t run_mask;
  sigprocmask(SIG_SETMASK, nullptr, &run_mask);
  sigdelset(&run_mask, SIGTERM);
  sigdelset(&run_mask, SIGINT);
  sigprocmask(SIG_SETMASK, &run_mask, nullptr);

  PeerdArgs args;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    uint64_t n = 0;
    // Every numeric flag: a bad value is a usage error, never a default.
    auto number = [&](uint64_t max) {
      if (ParseNumber(v, max, &n)) return true;
      std::fprintf(stderr, "bad value for %s: %s\n", arg.c_str(), v);
      return false;
    };
    if (arg == "--name" && (v = next())) {
      args.name = v;
    } else if (arg == "--program" && (v = next())) {
      args.program_path = v;
    } else if (arg == "--bind" && (v = next())) {
      args.bind_address = v;
    } else if (arg == "--listen" && (v = next())) {
      if (!number(UINT16_MAX)) return Usage(argv[0]);
      args.listen_port = static_cast<uint16_t>(n);
    } else if (arg == "--addr-file" && (v = next())) {
      args.addr_file = v;
    } else if (arg == "--fingerprint" && (v = next())) {
      args.fingerprint_path = v;
    } else if (arg == "--idle-ms" && (v = next())) {
      if (!number(INT_MAX)) return Usage(argv[0]);
      args.idle_ms = static_cast<int>(n);
    } else if (arg == "--heartbeat-rounds" && (v = next())) {
      if (!number(INT_MAX)) return Usage(argv[0]);
      args.heartbeat_rounds = static_cast<int>(n);
    } else if (arg == "--max-runtime-ms" && (v = next())) {
      if (!number(INT_MAX)) return Usage(argv[0]);
      args.max_runtime_ms = static_cast<int>(n);
    } else if (arg == "--no-trust") {
      args.trust_all = false;
    } else if (arg == "--data-dir" && (v = next())) {
      args.data_dir = v;
    } else if (arg == "--fsync" && (v = next())) {
      wdl::Result<wdl::FsyncPolicy> policy = wdl::ParseFsyncPolicy(v);
      if (!policy.ok()) {
        std::fprintf(stderr, "bad value for --fsync: %s\n", v);
        return Usage(argv[0]);
      }
      args.fsync = *policy;
    } else if (arg == "--snapshot-every" && (v = next())) {
      if (!number(UINT64_MAX)) return Usage(argv[0]);
      args.snapshot_every = n;
    } else if (arg == "--peer" && (v = next())) {
      std::string spec = v;
      size_t eq = spec.find('=');
      if (eq == std::string::npos || eq == 0 || eq + 1 == spec.size()) {
        std::fprintf(stderr, "bad --peer spec: %s\n", spec.c_str());
        return Usage(argv[0]);
      }
      PeerAddress peer;
      peer.name = spec.substr(0, eq);
      std::string where = spec.substr(eq + 1);
      if (where[0] == '@') {
        peer.file = where.substr(1);
      } else {
        size_t colon = where.rfind(':');
        if (colon == std::string::npos ||
            !ParseNumber(where.c_str() + colon + 1, UINT16_MAX, &n) ||
            n == 0) {
          std::fprintf(stderr, "bad --peer address for %s: %s\n",
                       peer.name.c_str(), where.c_str());
          return Usage(argv[0]);
        }
        peer.host = where.substr(0, colon);
        peer.port = static_cast<uint16_t>(n);
      }
      args.peers.push_back(std::move(peer));
    } else {
      std::fprintf(stderr, "unknown or incomplete argument: %s\n",
                   arg.c_str());
      return Usage(argv[0]);
    }
  }
  if (args.name.empty() || args.program_path.empty()) return Usage(argv[0]);

  std::ifstream program_in(args.program_path);
  if (!program_in) {
    std::fprintf(stderr, "cannot read program file %s\n",
                 args.program_path.c_str());
    return 1;
  }
  std::stringstream program_text;
  program_text << program_in.rdbuf();

  wdl::TcpNetworkOptions net_options;
  net_options.bind_address = args.bind_address;
  net_options.listen_port = args.listen_port;
  auto network = std::make_unique<wdl::TcpNetwork>(net_options);
  wdl::TcpNetwork* tcp = network.get();
  wdl::Status started = tcp->Start();
  if (!started.ok()) {
    std::fprintf(stderr, "transport start failed: %s\n",
                 started.ToString().c_str());
    return 1;
  }
  tcp->AddLocalPeer(args.name);
  for (const PeerAddress& peer : args.peers) {
    if (!peer.file.empty()) {
      tcp->SetPeerAddressFile(peer.name, peer.file);
    } else {
      tcp->SetPeerAddress(peer.name, peer.host, peer.port);
    }
  }
  if (!args.addr_file.empty()) {
    std::string addr =
        args.bind_address + ":" + std::to_string(tcp->port()) + "\n";
    if (!WriteFileAtomic(args.addr_file, addr)) {
      std::fprintf(stderr, "cannot write addr file %s\n",
                   args.addr_file.c_str());
      return 1;
    }
  }
  std::fprintf(stderr, "wdl_peerd %s listening on %s:%u\n",
               args.name.c_str(), args.bind_address.c_str(), tcp->port());

  wdl::SystemOptions system_options;
  system_options.heartbeat_interval_rounds = args.heartbeat_rounds;
  wdl::System system(std::move(network), system_options);
  wdl::PeerOptions peer_options;
  peer_options.trust_all_delegations = args.trust_all;
  if (!args.data_dir.empty()) {
    peer_options.durability.dir = args.data_dir;
    peer_options.durability.fsync_policy = args.fsync;
    peer_options.durability.snapshot_interval_records = args.snapshot_every;
  }
  wdl::Peer* peer = system.CreatePeer(args.name, peer_options);
  if (!args.data_dir.empty()) {
    // A daemon started with --data-dir must not silently run
    // memory-only: fail hard so the operator sees it.
    if (!peer->durability_status().ok()) {
      std::fprintf(stderr, "durability open/recovery failed: %s\n",
                   peer->durability_status().ToString().c_str());
      return 1;
    }
    const wdl::DurabilityCounters& dc = peer->durability()->counters();
    std::fprintf(stderr,
                 "wdl_peerd %s durability: dir=%s fsync=%s generation=%llu "
                 "snapshot=%s wal_records=%llu torn_tail=%s\n",
                 args.name.c_str(), args.data_dir.c_str(),
                 wdl::FsyncPolicyToString(
                     peer_options.durability.fsync_policy),
                 static_cast<unsigned long long>(dc.generation),
                 dc.snapshot_recovered ? "yes" : "no",
                 static_cast<unsigned long long>(dc.wal_records_recovered),
                 dc.torn_tail_truncated ? "truncated" : "clean");
  }
  for (const PeerAddress& remote : args.peers) peer->AddKnownPeer(remote.name);
  if (peer->recovered()) {
    // State came back from disk; the program already lives in it.
    // Re-loading would duplicate facts benignly but also re-log the
    // whole program every restart.
    std::fprintf(stderr, "wdl_peerd %s recovered from %s\n",
                 args.name.c_str(), args.data_dir.c_str());
  } else {
    wdl::Status loaded = peer->LoadProgramText(program_text.str());
    if (!loaded.ok()) {
      std::fprintf(stderr, "program load failed: %s\n",
                   loaded.ToString().c_str());
      return 1;
    }
  }

  using Clock = std::chrono::steady_clock;
  const Clock::time_point start = Clock::now();
  const Clock::time_point stop_at =
      args.max_runtime_ms > 0
          ? start + std::chrono::milliseconds(args.max_runtime_ms)
          : Clock::time_point::max();
  Clock::time_point last_activity = start;
  bool published = false;
  while (!g_stop && Clock::now() < stop_at) {
    wdl::RoundReport report = system.RunRound();
    bool worked = report.envelopes_delivered > 0 || report.stages_run > 0;
    if (worked) {
      last_activity = Clock::now();
      published = false;  // state may have moved; republish when idle
      continue;
    }
    if (!published && system.IsQuiescent() &&
        Clock::now() - last_activity >=
            std::chrono::milliseconds(args.idle_ms)) {
      if (!args.fingerprint_path.empty()) {
        if (!WriteFileAtomic(args.fingerprint_path,
                             wdl::PeerStateFingerprint(*peer))) {
          std::fprintf(stderr, "cannot write fingerprint %s\n",
                       args.fingerprint_path.c_str());
        }
      }
      if (peer->has_engine()) {
        // One parseable line per quiescent point; the durable-cluster
        // test greps these to assert recovery needed no full resyncs.
        const wdl::PropagationCounters& pc =
            peer->engine().propagation_counters();
        std::fprintf(
            stderr,
            "wdl_peerd %s idle: resyncs_requested=%llu "
            "snapshots_applied=%llu deltas_shipped=%llu\n",
            args.name.c_str(),
            static_cast<unsigned long long>(pc.resyncs_requested),
            static_cast<unsigned long long>(pc.snapshots_applied),
            static_cast<unsigned long long>(pc.deltas_shipped));
      }
      published = true;
    }
    // Sleep in the kernel until a frame, a writable link, a reconnect
    // or the next deadline: the end of the idle window before the
    // fingerprint is published, --max-runtime-ms, and with heartbeats
    // on the next round (they are counted in rounds, so an idle daemon
    // keeps running one per millisecond).
    const Clock::time_point now = Clock::now();
    Clock::time_point deadline = stop_at;
    const Clock::time_point publish_at =
        last_activity + std::chrono::milliseconds(args.idle_ms);
    if (!published && publish_at > now) {
      deadline = std::min(deadline, publish_at);
    }
    if (args.heartbeat_rounds > 0) {
      deadline = std::min(deadline, now + std::chrono::milliseconds(1));
    }
    sigprocmask(SIG_BLOCK, &stop_signals, nullptr);
    if (!g_stop) tcp->Wait(deadline, &run_mask);
    sigprocmask(SIG_SETMASK, &run_mask, nullptr);
  }
  std::fprintf(stderr, "wdl_peerd %s exiting\n", args.name.c_str());
  return 0;
}
