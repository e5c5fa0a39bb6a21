#ifndef WDL_NET_TCP_NETWORK_H_
#define WDL_NET_TCP_NETWORK_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "base/result.h"
#include "net/network.h"

namespace wdl {

struct TcpNetworkOptions {
  std::string bind_address = "127.0.0.1";
  /// 0 picks an ephemeral port; read the actual one with port() after
  /// Start() (the wdl_peerd rendezvous files are built on this).
  uint16_t listen_port = 0;
  /// Frames longer than this are rejected before any allocation and
  /// the connection is dropped — a hostile length prefix must not
  /// drive a reserve.
  size_t max_frame_bytes = 64u << 20;
  int connect_retry_initial_ms = 25;
  int connect_retry_max_ms = 1000;
};

/// Transport-level counters beyond the protocol-level NetworkStats.
struct TcpTransportStats {
  uint64_t frames_received = 0;
  uint64_t decode_failures = 0;   // each one dropped its connection
  uint64_t oversized_frames = 0;  // each one dropped its connection
  uint64_t connections_accepted = 0;
  uint64_t connects = 0;    // successful outbound connects
  uint64_t reconnects = 0;  // connects after a previously live session
  uint64_t send_failures = 0;
};

/// Real TCP transport between peers: one listening endpoint per
/// process, one outbound connection per remote peer, thread-per-
/// connection on both sides.
///
/// Framing is a u32 little-endian length prefix followed by one
/// envelope in the binary wire format (net/wire.h) — the codec the
/// simulator has exercised since the seed. Decoding happens entirely
/// inside the reader thread into a local Envelope; a frame that fails
/// to decode (truncated, corrupt, hostile counts) NEVER reaches the
/// engine: the reader drops the connection instead of trying to
/// re-synchronize the byte stream, and the reconnect machinery heals
/// the lost state through the kResyncRequest path.
///
/// Submit() never blocks on the network: frames queue per link and a
/// sender thread per remote peer connects (with exponential backoff),
/// sends, and reconnects as needed. A successful reconnect after a
/// live session — and a closed inbound connection — surface the
/// affected peer through TakePeerResets(), which the runtime turns
/// into stream resyncs (Engine::NoteLinkReset).
///
/// `now` timestamps are ignored: delivery is as fast as the wire.
/// HasInFlight()/IsQuiescent() are *local* judgments (queued or
/// undelivered frames at this endpoint); a remote peer may still be
/// computing, so distributed convergence is detected by idle time, not
/// by the simulator's global quiescence.
class TcpNetwork : public Network {
 public:
  explicit TcpNetwork(TcpNetworkOptions options = {});
  ~TcpNetwork() override;

  TcpNetwork(const TcpNetwork&) = delete;
  TcpNetwork& operator=(const TcpNetwork&) = delete;

  /// Binds, listens, and starts the acceptor. Must be called (once)
  /// before Submit.
  Status Start();
  /// Stops every thread and closes every socket; idempotent. Queued
  /// but unsent frames are discarded (the peers' resync machinery owns
  /// loss recovery, not the transport).
  void Shutdown();

  uint16_t port() const { return port_; }

  /// Peers hosted by this process: envelopes addressed to them loop
  /// back through an encode/decode round trip (same codec coverage and
  /// byte accounting as the simulator) without touching a socket.
  void AddLocalPeer(const std::string& peer);
  void SetPeerAddress(const std::string& peer, std::string host,
                      uint16_t port);
  /// The address is re-read from `path` (first line "host:port") on
  /// every connect attempt, so a cluster can rendezvous through the
  /// filesystem before every process is up — and keeps working when a
  /// restarted peer comes back on a different port.
  void SetPeerAddressFile(const std::string& peer, std::string path);

  Status Submit(Envelope envelope, double now) override;
  std::vector<Envelope> DeliverDue(double now) override;
  bool HasInFlight() const override;
  NetworkStats StatsSnapshot() const override;
  std::vector<std::string> TakePeerResets() override;

  TcpTransportStats TcpStatsSnapshot() const;

 private:
  struct LinkAddress {
    std::string host;
    uint16_t port = 0;
    std::string file;  // non-empty: resolve host:port from this file
  };

  /// One outbound connection (queue + sender thread) per remote peer.
  struct Link {
    std::string peer;
    LinkAddress address;
    std::mutex mutex;
    std::condition_variable cv;
    std::deque<std::string> queue;  // length-prefixed frames
    bool sending = false;           // a frame is mid-send
    int fd = -1;
    bool ever_connected = false;
    std::thread thread;
  };

  struct InboundConn {
    int fd = -1;
    std::thread thread;
    std::set<std::string> senders;  // peer names seen on this conn
    std::atomic<bool> done{false};
  };

  /// Accepts on `listen_fd`, a copy of listen_fd_ taken at Start():
  /// Shutdown() resets the member while this loop may still be reading.
  void AcceptLoop(int listen_fd);
  void ReadLoop(InboundConn* conn);
  void SendLoop(Link* link);
  /// One connect attempt against the link's (possibly file-resolved)
  /// address; returns a connected fd or -1.
  int ConnectOnce(Link* link);
  Link* GetOrCreateLink(const std::string& peer);
  void NoteReset(const std::string& peer);
  void PushInbox(Envelope e);

  TcpNetworkOptions options_;
  std::atomic<bool> started_{false};
  std::atomic<bool> stopping_{false};
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::thread accept_thread_;

  mutable std::mutex links_mutex_;
  std::map<std::string, LinkAddress> addresses_;
  std::map<std::string, std::unique_ptr<Link>> links_;
  std::set<std::string> local_peers_;

  std::mutex inbound_mutex_;
  std::vector<std::unique_ptr<InboundConn>> inbound_;

  mutable std::mutex inbox_mutex_;
  std::vector<Envelope> inbox_;

  std::mutex resets_mutex_;
  std::vector<std::string> resets_;

  mutable std::mutex stats_mutex_;
  NetworkStats stats_;
  TcpTransportStats tcp_stats_;
};

}  // namespace wdl

#endif  // WDL_NET_TCP_NETWORK_H_
