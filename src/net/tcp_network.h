#ifndef WDL_NET_TCP_NETWORK_H_
#define WDL_NET_TCP_NETWORK_H_

#include <poll.h>
#include <signal.h>

#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <set>
#include <string>
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
/// process, one outbound connection per remote peer, all of them
/// non-blocking sockets driven by poll(2) on the owner's thread. The
/// class starts no thread and takes no lock: every call must come from
/// that one thread.
///
/// Framing is a u32 little-endian length prefix followed by one
/// envelope in the binary wire format (net/wire.h) — the codec the
/// simulator has exercised since the seed. Inbound bytes are
/// reassembled per connection and each complete frame is decoded into
/// a local Envelope; a frame that fails to decode (truncated, corrupt,
/// hostile counts) NEVER reaches the engine: the connection is dropped
/// instead of re-synchronizing the byte stream, and the reconnect
/// machinery heals the lost state through the kResyncRequest path.
///
/// Submit() never blocks and writes nothing: it queues the frame on its
/// peer's link. DeliverDue() first writes every link's queue, all of it
/// in one sendmsg (the socket takes what it can, the rest waits for
/// POLLOUT), so the frames one round submits leave together and reach
/// the peer in one read, however the two processes are scheduled. Then
/// it polls with a zero timeout: it accepts, reads, completes connects,
/// and reconnects links whose backoff is due. Wait() is the same with a
/// timeout, for a host with nothing else to do. A link connects when
/// it first has a frame to send and, once live, reconnects whenever it
/// drops, since frames written into a dying connection vanish without
/// an error. A reconnect after a live session — and a closed inbound
/// connection — surface the affected peer through TakePeerResets(),
/// which the runtime turns into stream resyncs (Engine::NoteLinkReset).
///
/// `now` timestamps are ignored: delivery is as fast as the wire.
/// HasInFlight()/IsQuiescent() are *local* judgments (queued or
/// undelivered frames at this endpoint); a remote peer may still be
/// computing, so distributed convergence is detected by idle time, not
/// by the simulator's global quiescence.
class TcpNetwork : public Network {
 public:
  using Clock = std::chrono::steady_clock;

  explicit TcpNetwork(TcpNetworkOptions options = {});
  ~TcpNetwork() override;

  TcpNetwork(const TcpNetwork&) = delete;
  TcpNetwork& operator=(const TcpNetwork&) = delete;

  /// Binds and listens. Must be called (once) before Submit.
  Status Start();
  /// Writes what each live link's socket takes of its queue, then
  /// closes every socket; idempotent. Frames still queued are discarded
  /// (the peers' resync machinery owns loss recovery, not the
  /// transport).
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
  NetworkStats StatsSnapshot() const override { return stats_; }
  std::vector<std::string> TakePeerResets() override;

  TcpTransportStats TcpStatsSnapshot() const { return tcp_stats_; }

  /// Blocks until a socket is readable, a queued link is writable or
  /// finishes connecting, a reconnect backoff is due, or `deadline`
  /// passes, then handles what woke it; returns at once when envelopes
  /// or resets are waiting to be taken. With `sigmask`, the poll runs
  /// under that signal mask (ppoll(2)), so a caller that blocks its
  /// stop signals outside the wait still wakes on them.
  void Wait(Clock::time_point deadline, const sigset_t* sigmask = nullptr);

 private:
  /// One outbound connection per remote peer.
  struct Link {
    std::string host;
    uint16_t port = 0;
    std::string file;  // non-empty: resolve host:port from this file
    std::deque<std::string> queue;  // length-prefixed frames
    size_t head_written = 0;        // bytes of queue.front() on the wire
    int fd = -1;
    bool connecting = false;  // non-blocking connect not yet complete
    bool ever_connected = false;
    int backoff_ms = 0;
    Clock::time_point retry_at;  // no connect attempt before this
    int poll_index = -1;
  };

  /// One accepted connection.
  struct Inbound {
    int fd = -1;
    std::string buffer;             // bytes of not yet complete frames
    std::set<std::string> senders;  // peer names seen on this conn
    int poll_index = -1;
  };

  /// Writes the queued frames of every live link, then one poll over
  /// every socket with `timeout` (nullptr: no limit), then the I/O it
  /// reported and the reconnects that are due.
  void Poll(const timespec* timeout, const sigset_t* sigmask);
  void Accept();
  /// Reads what the socket holds and delivers every complete frame;
  /// false when the connection must be dropped.
  bool Read(Inbound& conn);
  /// Starts a non-blocking connect against the link's (possibly
  /// file-resolved) address.
  void Connect(Link& link);
  void Connected(const std::string& peer, Link& link);
  /// Writes as much of the link's queue as the socket takes.
  void Flush(Link& link);
  /// A link connects when it has frames to send and, once it has been
  /// live, whenever it is down: the frames a dying connection swallowed
  /// are re-served after the reconnect's reset.
  static bool WantsConnect(const Link& link) {
    return link.fd < 0 && (link.ever_connected || !link.queue.empty());
  }
  /// Closes the link's socket; the head frame is re-sent whole after
  /// the next connect, which is tried at once or, with `backoff`, after
  /// the next backoff step.
  void Disconnect(Link& link, bool backoff);
  void NoteReset(const std::string& peer) { resets_.push_back(peer); }

  TcpNetworkOptions options_;
  bool started_ = false;
  int listen_fd_ = -1;
  uint16_t port_ = 0;

  std::map<std::string, Link> links_;  // registered remote peers
  std::set<std::string> local_peers_;
  std::vector<Inbound> inbound_;
  std::vector<pollfd> poll_fds_;  // rebuilt by every Poll

  std::vector<Envelope> inbox_;
  std::vector<std::string> resets_;
  NetworkStats stats_;
  TcpTransportStats tcp_stats_;
};

}  // namespace wdl

#endif  // WDL_NET_TCP_NETWORK_H_
