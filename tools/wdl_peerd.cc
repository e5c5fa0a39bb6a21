// wdl_peerd: hosts one WebdamLog peer as an OS process over TCP.
//
// This is the deployment shape of the paper — every participant runs
// its own peer with its own data and program, and peers exchange facts
// (updates) and rules (delegations) over the network. One daemon = one
// peer: it loads a program file, listens on a TCP port, connects to
// the peers named in its address map, and runs stages whenever there
// is work. When the peer has been locally quiescent for --idle-ms it
// publishes its canonical state fingerprint to --fingerprint (and
// republishes after every later burst of activity), which is how the
// multi-process convergence tests — and operators — observe it.
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

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "net/tcp_network.h"
#include "runtime/fingerprint.h"
#include "runtime/system.h"

namespace {

std::atomic<bool> g_stop{false};

void HandleSignal(int) { g_stop = true; }

struct PeerdArgs {
  std::string name;
  std::string program_path;
  std::string bind_address = "127.0.0.1";
  int listen_port = 0;
  std::string addr_file;
  std::string fingerprint_path;
  int idle_ms = 200;
  int heartbeat_rounds = 0;
  int max_runtime_ms = 0;  // 0: run until a signal arrives
  bool trust_all = true;
  // Durability (OPERATIONS.md): empty --data-dir = memory-only peer.
  std::string data_dir;
  std::string fsync = "batch";
  uint64_t snapshot_every = 4096;
  // name -> "host:port" or "@/path/to/addr/file"
  std::vector<std::pair<std::string, std::string>> peers;
};

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
  PeerdArgs args;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (arg == "--name" && (v = next())) {
      args.name = v;
    } else if (arg == "--program" && (v = next())) {
      args.program_path = v;
    } else if (arg == "--bind" && (v = next())) {
      args.bind_address = v;
    } else if (arg == "--listen" && (v = next())) {
      args.listen_port = std::atoi(v);
    } else if (arg == "--addr-file" && (v = next())) {
      args.addr_file = v;
    } else if (arg == "--fingerprint" && (v = next())) {
      args.fingerprint_path = v;
    } else if (arg == "--idle-ms" && (v = next())) {
      args.idle_ms = std::atoi(v);
    } else if (arg == "--heartbeat-rounds" && (v = next())) {
      args.heartbeat_rounds = std::atoi(v);
    } else if (arg == "--max-runtime-ms" && (v = next())) {
      args.max_runtime_ms = std::atoi(v);
    } else if (arg == "--no-trust") {
      args.trust_all = false;
    } else if (arg == "--data-dir" && (v = next())) {
      args.data_dir = v;
    } else if (arg == "--fsync" && (v = next())) {
      args.fsync = v;
    } else if (arg == "--snapshot-every" && (v = next())) {
      args.snapshot_every = static_cast<uint64_t>(std::atoll(v));
    } else if (arg == "--peer" && (v = next())) {
      std::string spec = v;
      size_t eq = spec.find('=');
      if (eq == std::string::npos || eq == 0 || eq + 1 == spec.size()) {
        std::fprintf(stderr, "bad --peer spec: %s\n", spec.c_str());
        return Usage(argv[0]);
      }
      args.peers.emplace_back(spec.substr(0, eq), spec.substr(eq + 1));
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
  net_options.listen_port = static_cast<uint16_t>(args.listen_port);
  auto network = std::make_unique<wdl::TcpNetwork>(net_options);
  wdl::TcpNetwork* tcp = network.get();
  wdl::Status started = tcp->Start();
  if (!started.ok()) {
    std::fprintf(stderr, "transport start failed: %s\n",
                 started.ToString().c_str());
    return 1;
  }
  tcp->AddLocalPeer(args.name);
  for (const auto& [peer, where] : args.peers) {
    if (!where.empty() && where[0] == '@') {
      tcp->SetPeerAddressFile(peer, where.substr(1));
    } else {
      size_t colon = where.rfind(':');
      int port = colon == std::string::npos
                     ? 0
                     : std::atoi(where.c_str() + colon + 1);
      if (port <= 0 || port > 65535) {
        std::fprintf(stderr, "bad --peer address for %s: %s\n", peer.c_str(),
                     where.c_str());
        return 1;
      }
      tcp->SetPeerAddress(peer, where.substr(0, colon),
                          static_cast<uint16_t>(port));
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
    wdl::Result<wdl::FsyncPolicy> policy = wdl::ParseFsyncPolicy(args.fsync);
    if (!policy.ok()) {
      std::fprintf(stderr, "%s\n", policy.status().ToString().c_str());
      return 1;
    }
    peer_options.durability.dir = args.data_dir;
    peer_options.durability.fsync_policy = *policy;
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
  for (const auto& [remote, where] : args.peers) {
    (void)where;
    peer->AddKnownPeer(remote);
  }
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

  std::signal(SIGTERM, HandleSignal);
  std::signal(SIGINT, HandleSignal);

  using Clock = std::chrono::steady_clock;
  const Clock::time_point start = Clock::now();
  Clock::time_point last_activity = start;
  bool published = false;
  while (!g_stop) {
    if (args.max_runtime_ms > 0 &&
        Clock::now() - start >=
            std::chrono::milliseconds(args.max_runtime_ms)) {
      break;
    }
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
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::fprintf(stderr, "wdl_peerd %s exiting\n", args.name.c_str());
  return 0;
}
