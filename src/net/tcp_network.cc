#include "net/tcp_network.h"

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <fstream>

#include "base/logging.h"
#include "base/string_util.h"
#include "net/wire.h"

namespace wdl {

namespace {

constexpr size_t kFramePrefixBytes = 4;
constexpr size_t kReadChunkBytes = 64u << 10;
constexpr size_t kMaxFlushFrames = 64;

void CloseFd(int& fd) {
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
  }
}

void SetNoDelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

bool WouldBlock() { return errno == EAGAIN || errno == EWOULDBLOCK; }

}  // namespace

TcpNetwork::TcpNetwork(TcpNetworkOptions options)
    : options_(std::move(options)) {}

TcpNetwork::~TcpNetwork() { Shutdown(); }

Status TcpNetwork::Start() {
  if (started_) return Status::FailedPrecondition("TcpNetwork already started");
  started_ = true;
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return Status::Unavailable(StrFormat("socket: %s", strerror(errno)));
  }
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.listen_port);
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    CloseFd(fd);
    return Status::InvalidArgument("bad bind address " +
                                   options_.bind_address);
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    Status st = Status::Unavailable(StrFormat(
        "bind %s:%u: %s", options_.bind_address.c_str(),
        options_.listen_port, strerror(errno)));
    CloseFd(fd);
    return st;
  }
  if (::listen(fd, 64) < 0) {
    Status st = Status::Unavailable(StrFormat("listen: %s", strerror(errno)));
    CloseFd(fd);
    return st;
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
    port_ = ntohs(bound.sin_port);
  }
  listen_fd_ = fd;
  return Status::OK();
}

void TcpNetwork::Shutdown() {
  CloseFd(listen_fd_);
  for (Inbound& conn : inbound_) CloseFd(conn.fd);
  inbound_.clear();
  for (auto& [peer, link] : links_) {
    if (link.fd >= 0 && !link.connecting) Flush(link);
    CloseFd(link.fd);
    link.queue.clear();
    link.head_written = 0;
  }
}

void TcpNetwork::AddLocalPeer(const std::string& peer) {
  local_peers_.insert(peer);
}

void TcpNetwork::SetPeerAddress(const std::string& peer, std::string host,
                                uint16_t port) {
  Link& link = links_[peer];
  link.host = std::move(host);
  link.port = port;
  link.file.clear();
}

void TcpNetwork::SetPeerAddressFile(const std::string& peer,
                                    std::string path) {
  links_[peer].file = std::move(path);
}

Status TcpNetwork::Submit(Envelope envelope, double /*now*/) {
  if (listen_fd_ < 0) {
    return Status::FailedPrecondition("TcpNetwork is not running");
  }
  std::string bytes = EncodeEnvelope(envelope);
  ++stats_.messages_submitted;

  if (local_peers_.count(envelope.to) > 0) {
    // Same-process peer: still round-trip the codec so byte accounting
    // and format coverage match the socket path.
    Result<Envelope> decoded = DecodeEnvelope(bytes);
    if (!decoded.ok()) {
      return Status::Internal("loopback decode failed: " +
                              decoded.status().ToString());
    }
    stats_.bytes_sent += bytes.size();
    ++stats_.messages_delivered;
    inbox_.push_back(std::move(decoded).value());
    return Status::OK();
  }

  auto it = links_.find(envelope.to);
  if (it == links_.end()) {
    return Status::NotFound("no address for peer " + envelope.to);
  }
  Link& link = it->second;
  std::string frame;
  frame.reserve(kFramePrefixBytes + bytes.size());
  uint32_t len = static_cast<uint32_t>(bytes.size());
  for (size_t i = 0; i < kFramePrefixBytes; ++i) {
    frame.push_back(static_cast<char>(len >> (8 * i)));
  }
  frame += bytes;
  link.queue.push_back(std::move(frame));
  if (link.fd < 0 && Clock::now() >= link.retry_at) Connect(link);
  return Status::OK();
}

void TcpNetwork::Connect(Link& link) {
  std::string host = link.host;
  uint16_t port = link.port;
  if (!link.file.empty()) {
    host.clear();  // not rendezvoused yet unless the file says otherwise
    std::ifstream in(link.file);
    std::string line;
    size_t colon = std::string::npos;
    if (in && std::getline(in, line)) colon = line.rfind(':');
    if (colon != std::string::npos) {
      int p = std::atoi(line.c_str() + colon + 1);
      if (p > 0 && p <= 65535) {
        host = line.substr(0, colon);
        port = static_cast<uint16_t>(p);
      }
    }
  }
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  if (host.empty() || port == 0 ||
      ::getaddrinfo(host.c_str(), std::to_string(port).c_str(), &hints,
                    &res) != 0) {
    Disconnect(link, /*backoff=*/true);
    return;
  }
  int fd = ::socket(res->ai_family, res->ai_socktype | SOCK_NONBLOCK |
                                        SOCK_CLOEXEC,
                    res->ai_protocol);
  int rc = fd < 0 ? -1 : ::connect(fd, res->ai_addr, res->ai_addrlen);
  int err = rc < 0 ? errno : 0;
  ::freeaddrinfo(res);
  if (rc < 0 && err != EINPROGRESS) {
    CloseFd(fd);
    Disconnect(link, /*backoff=*/true);
    return;
  }
  SetNoDelay(fd);
  link.fd = fd;
  // Even a connect that completed at once is finished by the next poll
  // (the socket reports writable), so Submit never writes.
  link.connecting = true;
}

void TcpNetwork::Connected(const std::string& peer, Link& link) {
  link.connecting = false;
  link.backoff_ms = 0;
  ++tcp_stats_.connects;
  // A fresh session after a live one: whatever the peer missed (or
  // forgot, if it restarted) must be re-established. The runtime turns
  // this into snapshot re-ships and resync requests.
  if (link.ever_connected) {
    ++tcp_stats_.reconnects;
    NoteReset(peer);
  }
  link.ever_connected = true;
  Flush(link);
}

void TcpNetwork::Disconnect(Link& link, bool backoff) {
  CloseFd(link.fd);
  link.connecting = false;
  link.head_written = 0;
  link.retry_at = Clock::time_point();
  if (!backoff) return;
  // Exponential backoff between failed connects; Connected() resets it.
  link.backoff_ms =
      link.backoff_ms == 0
          ? options_.connect_retry_initial_ms
          : std::min(link.backoff_ms * 2, options_.connect_retry_max_ms);
  link.retry_at = Clock::now() + std::chrono::milliseconds(link.backoff_ms);
}

void TcpNetwork::Flush(Link& link) {
  while (!link.queue.empty()) {
    // Everything queued goes out in one sendmsg: the frames a round
    // submits reach the peer in one read, whatever the timing.
    iovec iov[kMaxFlushFrames];
    size_t count = 0;
    for (const std::string& frame : link.queue) {
      if (count == kMaxFlushFrames) break;
      const size_t skip = count == 0 ? link.head_written : 0;
      iov[count].iov_base = const_cast<char*>(frame.data() + skip);
      iov[count].iov_len = frame.size() - skip;
      ++count;
    }
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = count;
    ssize_t n = ::sendmsg(link.fd, &msg, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && WouldBlock()) return;  // the poll waits for POLLOUT
    if (n < 0) {
      // The frame stays at the head of the queue and is re-sent whole
      // after the reconnect. The receiver drops a partial first copy
      // with the dead connection, and the version gate absorbs a full
      // one.
      ++tcp_stats_.send_failures;
      Disconnect(link, /*backoff=*/false);
      return;
    }
    size_t sent = static_cast<size_t>(n);
    while (sent > 0) {
      const std::string& frame = link.queue.front();
      const size_t rest = frame.size() - link.head_written;
      if (sent < rest) {
        link.head_written += sent;
        return;  // the socket took what it could; POLLOUT resumes
      }
      sent -= rest;
      stats_.bytes_sent += frame.size() - kFramePrefixBytes;
      link.queue.pop_front();
      link.head_written = 0;
    }
  }
}

void TcpNetwork::Accept() {
  while (true) {
    int fd = ::accept4(listen_fd_, nullptr, nullptr,
                       SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      return;  // drained (EAGAIN), or out of descriptors for now
    }
    SetNoDelay(fd);
    ++tcp_stats_.connections_accepted;
    inbound_.push_back(Inbound{fd, {}, {}, -1});
  }
}

bool TcpNetwork::Read(Inbound& conn) {
  char chunk[kReadChunkBytes];
  while (true) {
    ssize_t n = ::recv(conn.fd, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && WouldBlock()) return true;
    if (n <= 0) return false;  // EOF or hard error
    conn.buffer.append(chunk, static_cast<size_t>(n));
    size_t at = 0;
    while (conn.buffer.size() - at >= kFramePrefixBytes) {
      uint32_t len = 0;
      for (size_t i = 0; i < kFramePrefixBytes; ++i) {
        len |= static_cast<uint32_t>(static_cast<uint8_t>(conn.buffer[at + i]))
               << (8 * i);
      }
      if (len == 0 || len > options_.max_frame_bytes) {
        // Rejected before the buffer grows toward the claimed length.
        ++tcp_stats_.oversized_frames;
        return false;
      }
      if (conn.buffer.size() - at - kFramePrefixBytes < len) break;
      Result<Envelope> decoded = DecodeEnvelope(
          std::string_view(conn.buffer).substr(at + kFramePrefixBytes, len));
      if (!decoded.ok()) {
        // A frame that does not decode means the stream is corrupt or
        // hostile; there is no way to re-synchronize mid-stream, so
        // drop the connection. Nothing of the frame reached the
        // engine, and the sender's reconnect triggers the resync path.
        WDL_LOG(Warning) << "tcp frame decode failed, dropping connection: "
                         << decoded.status();
        ++tcp_stats_.decode_failures;
        return false;
      }
      conn.senders.insert(decoded.value().from);
      ++tcp_stats_.frames_received;
      ++stats_.messages_delivered;
      inbox_.push_back(std::move(decoded).value());
      at += kFramePrefixBytes + len;
    }
    conn.buffer.erase(0, at);
    if (static_cast<size_t>(n) < sizeof(chunk)) return true;
  }
}

void TcpNetwork::Poll(const timespec* timeout, const sigset_t* sigmask) {
  if (listen_fd_ < 0) return;
  for (auto& [peer, link] : links_) {
    if (link.fd >= 0 && !link.connecting) Flush(link);
  }
  poll_fds_.clear();
  poll_fds_.push_back({listen_fd_, POLLIN, 0});
  for (Inbound& conn : inbound_) {
    conn.poll_index = static_cast<int>(poll_fds_.size());
    poll_fds_.push_back({conn.fd, POLLIN, 0});
  }
  for (auto& [peer, link] : links_) {
    link.poll_index = -1;
    if (link.fd < 0) continue;
    // The remote never writes on our outbound connection: readable
    // means it hung up.
    short events = POLLIN;
    if (link.connecting || !link.queue.empty()) events |= POLLOUT;
    link.poll_index = static_cast<int>(poll_fds_.size());
    poll_fds_.push_back({link.fd, events, 0});
  }
  if (::ppoll(poll_fds_.data(), poll_fds_.size(), timeout, sigmask) > 0) {
    for (Inbound& conn : inbound_) {
      if (poll_fds_[conn.poll_index].revents == 0 || Read(conn)) continue;
      CloseFd(conn.fd);
      // The peers behind a dead inbound connection may have crashed
      // (their next frames are lost until they reconnect): treat it as
      // a link reset so the runtime re-requests their streams.
      for (const std::string& sender : conn.senders) NoteReset(sender);
    }
    inbound_.erase(std::remove_if(inbound_.begin(), inbound_.end(),
                                  [](const Inbound& c) { return c.fd < 0; }),
                   inbound_.end());
    for (auto& [peer, link] : links_) {
      if (link.poll_index < 0 || link.fd < 0) continue;
      short revents = poll_fds_[link.poll_index].revents;
      if (link.connecting && revents != 0) {
        int err = 0;
        socklen_t len = sizeof(err);
        ::getsockopt(link.fd, SOL_SOCKET, SO_ERROR, &err, &len);
        if (err != 0) {
          Disconnect(link, /*backoff=*/true);
        } else {
          Connected(peer, link);
        }
      } else if (revents & (POLLIN | POLLHUP | POLLERR)) {
        // Backoff: an endpoint that accepts and hangs up at once must
        // not turn the reconnect into a spin.
        Disconnect(link, /*backoff=*/true);
      } else if (revents & POLLOUT) {
        Flush(link);
      }
    }
    if (poll_fds_[0].revents != 0) Accept();
  }
  const Clock::time_point now = Clock::now();
  for (auto& [peer, link] : links_) {
    if (WantsConnect(link) && now >= link.retry_at) Connect(link);
  }
}

void TcpNetwork::Wait(Clock::time_point deadline, const sigset_t* sigmask) {
  if (!inbox_.empty() || !resets_.empty()) deadline = Clock::now();
  for (const auto& [peer, link] : links_) {
    if (WantsConnect(link)) deadline = std::min(deadline, link.retry_at);
  }
  timespec timeout{};
  if (deadline != Clock::time_point::max()) {
    auto ns = std::max<int64_t>(
        0, std::chrono::duration_cast<std::chrono::nanoseconds>(
               deadline - Clock::now())
               .count());
    timeout.tv_sec = static_cast<time_t>(ns / 1000000000);
    timeout.tv_nsec = static_cast<long>(ns % 1000000000);
  }
  Poll(deadline == Clock::time_point::max() ? nullptr : &timeout, sigmask);
}

std::vector<Envelope> TcpNetwork::DeliverDue(double /*now*/) {
  const timespec zero{};
  Poll(&zero, nullptr);
  std::vector<Envelope> out;
  out.swap(inbox_);
  return out;
}

bool TcpNetwork::HasInFlight() const {
  if (!inbox_.empty()) return true;
  for (const auto& [peer, link] : links_) {
    if (!link.queue.empty()) return true;
  }
  return false;
}

std::vector<std::string> TcpNetwork::TakePeerResets() {
  // Dedupe, preserving first-seen order.
  std::vector<std::string> out;
  std::set<std::string> seen;
  for (std::string& peer : resets_) {
    if (seen.insert(peer).second) out.push_back(std::move(peer));
  }
  resets_.clear();
  return out;
}

}  // namespace wdl
