// TcpNetwork unit tests: framing, loopback, hostile frames, the
// link-reset signals the runtime turns into resyncs, and the poll loop
// (partial reads and writes, Wait, no threads). Everything runs against
// real sockets on 127.0.0.1 with ephemeral ports. TcpNetwork does its
// I/O only inside DeliverDue and Wait (Submit queues, and at most starts
// a connect), so every wait loop below drives the endpoints it waits on.

#include "net/tcp_network.h"

#include <arpa/inet.h>
#include <dirent.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "net/wire.h"

namespace wdl {
namespace {

bool WaitUntil(const std::function<bool()>& pred, int timeout_ms = 5000) {
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return pred();
}

Envelope Hello(const std::string& from, const std::string& to,
               uint64_t seq = 1) {
  Envelope e;
  e.from = from;
  e.to = to;
  e.seq = seq;
  e.message = Message::Hello(from);
  return e;
}

// Raw client socket for speaking (mis)framed bytes at a listener.
int RawConnect(uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  return fd;
}

std::string Framed(const std::string& payload) {
  std::string frame;
  uint32_t len = static_cast<uint32_t>(payload.size());
  for (int i = 0; i < 4; ++i) frame.push_back(static_cast<char>(len >> (8 * i)));
  return frame + payload;
}

/// True when the remote closed the connection (recv sees EOF).
bool SeesEof(int fd, int timeout_ms = 5000) {
  timeval tv{};
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = (timeout_ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  char c;
  return ::recv(fd, &c, 1, 0) == 0;
}

TEST(TcpNetworkTest, StartPicksEphemeralPortAndSubmitBeforeStartFails) {
  TcpNetwork net;
  Status st = net.Submit(Hello("a", "b"), 0.0);
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
  ASSERT_TRUE(net.Start().ok());
  EXPECT_NE(net.port(), 0);
}

TEST(TcpNetworkTest, LocalPeerLoopsBackThroughTheCodec) {
  TcpNetwork net;
  ASSERT_TRUE(net.Start().ok());
  net.AddLocalPeer("alice");

  ASSERT_TRUE(net.Submit(Hello("alice", "alice", 3), 0.0).ok());
  std::vector<Envelope> got = net.DeliverDue(0.0);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].from, "alice");
  EXPECT_EQ(got[0].seq, 3u);
  NetworkStats stats = net.StatsSnapshot();
  EXPECT_EQ(stats.messages_delivered, 1u);
  EXPECT_GT(stats.bytes_sent, 0u);  // loopback still counts wire bytes
}

TEST(TcpNetworkTest, SubmitToUnknownPeerIsNotFound) {
  TcpNetwork net;
  ASSERT_TRUE(net.Start().ok());
  Status st = net.Submit(Hello("alice", "nobody"), 0.0);
  EXPECT_EQ(st.code(), StatusCode::kNotFound);
}

TEST(TcpNetworkTest, DeliversAcrossRealSockets) {
  TcpNetwork a, b;
  ASSERT_TRUE(a.Start().ok());
  ASSERT_TRUE(b.Start().ok());
  a.AddLocalPeer("alice");
  b.AddLocalPeer("bob");
  a.SetPeerAddress("bob", "127.0.0.1", b.port());

  ASSERT_TRUE(a.Submit(Hello("alice", "bob", 11), 0.0).ok());
  std::vector<Envelope> got;
  ASSERT_TRUE(WaitUntil([&] {
    a.DeliverDue(0.0);
    for (Envelope& e : b.DeliverDue(0.0)) got.push_back(std::move(e));
    return !got.empty();
  }));
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].from, "alice");
  EXPECT_EQ(got[0].to, "bob");
  EXPECT_EQ(got[0].seq, 11u);
  // A clean first connect is not a reset.
  EXPECT_TRUE(a.TakePeerResets().empty());
  EXPECT_EQ(b.TcpStatsSnapshot().frames_received, 1u);
  EXPECT_TRUE(WaitUntil([&] {
    a.DeliverDue(0.0);
    return !a.HasInFlight();
  }));
}

// Submit only queues. The sender's next DeliverDue writes the link's
// whole queue in one sendmsg, so frames submitted together (one round's
// output) reach the receiver in one read, whatever the scheduling.
TEST(TcpNetworkTest, FramesSubmittedTogetherArriveTogether) {
  TcpNetwork a, b;
  ASSERT_TRUE(a.Start().ok());
  ASSERT_TRUE(b.Start().ok());
  a.AddLocalPeer("alice");
  b.AddLocalPeer("bob");
  a.SetPeerAddress("bob", "127.0.0.1", b.port());
  ASSERT_TRUE(a.Submit(Hello("alice", "bob", 1), 0.0).ok());
  ASSERT_TRUE(WaitUntil([&] {
    a.DeliverDue(0.0);
    return !b.DeliverDue(0.0).empty();
  }));

  for (uint64_t seq = 2; seq <= 4; ++seq) {
    ASSERT_TRUE(a.Submit(Hello("alice", "bob", seq), 0.0).ok());
  }
  b.Wait(TcpNetwork::Clock::now() + std::chrono::milliseconds(20));
  EXPECT_TRUE(b.DeliverDue(0.0).empty());  // nothing written yet
  a.DeliverDue(0.0);
  EXPECT_FALSE(a.HasInFlight());
  std::vector<Envelope> batch;
  ASSERT_TRUE(WaitUntil([&] {
    batch = b.DeliverDue(0.0);
    return !batch.empty();
  }));
  ASSERT_EQ(batch.size(), 3u);
  for (size_t i = 0; i < batch.size(); ++i) EXPECT_EQ(batch[i].seq, i + 2);
}

TEST(TcpNetworkTest, GarbageFrameDropsTheConnection) {
  TcpNetwork net;
  ASSERT_TRUE(net.Start().ok());
  net.AddLocalPeer("bob");

  int fd = RawConnect(net.port());
  std::string frame = Framed("this is not an envelope");
  ASSERT_EQ(::send(fd, frame.data(), frame.size(), 0),
            static_cast<ssize_t>(frame.size()));
  EXPECT_TRUE(WaitUntil([&] {
    net.DeliverDue(0.0);
    return net.TcpStatsSnapshot().decode_failures == 1;
  }));
  // The reader refuses to resynchronize a corrupt stream: it hangs up.
  EXPECT_TRUE(SeesEof(fd));
  EXPECT_EQ(net.TcpStatsSnapshot().frames_received, 0u);
  EXPECT_TRUE(net.DeliverDue(0.0).empty());
  ::close(fd);
}

TEST(TcpNetworkTest, HostileLengthPrefixIsRejectedBeforeAllocation) {
  TcpNetworkOptions options;
  options.max_frame_bytes = 1 << 16;
  TcpNetwork net(options);
  ASSERT_TRUE(net.Start().ok());

  int fd = RawConnect(net.port());
  const char huge[4] = {'\xff', '\xff', '\xff', '\xff'};  // 4 GiB claim
  ASSERT_EQ(::send(fd, huge, 4, 0), 4);
  EXPECT_TRUE(WaitUntil([&] {
    net.DeliverDue(0.0);
    return net.TcpStatsSnapshot().oversized_frames == 1;
  }));
  EXPECT_TRUE(SeesEof(fd));
  ::close(fd);

  // Zero-length frames are equally meaningless and equally fatal.
  fd = RawConnect(net.port());
  const char zero[4] = {0, 0, 0, 0};
  ASSERT_EQ(::send(fd, zero, 4, 0), 4);
  EXPECT_TRUE(WaitUntil([&] {
    net.DeliverDue(0.0);
    return net.TcpStatsSnapshot().oversized_frames == 2;
  }));
  EXPECT_TRUE(SeesEof(fd));
  ::close(fd);
}

TEST(TcpNetworkTest, TruncatedFrameAtEofDeliversNothing) {
  TcpNetwork net;
  ASSERT_TRUE(net.Start().ok());

  int fd = RawConnect(net.port());
  // Claim 100 bytes, provide 10, hang up mid-frame.
  std::string partial = Framed(std::string(100, 'x')).substr(0, 4 + 10);
  ASSERT_EQ(::send(fd, partial.data(), partial.size(), 0),
            static_cast<ssize_t>(partial.size()));
  ::close(fd);
  ASSERT_TRUE(WaitUntil([&] {
    net.DeliverDue(0.0);
    return net.TcpStatsSnapshot().connections_accepted == 1;
  }));
  net.Wait(TcpNetwork::Clock::now() + std::chrono::milliseconds(50));
  EXPECT_EQ(net.TcpStatsSnapshot().frames_received, 0u);
  EXPECT_TRUE(net.DeliverDue(0.0).empty());
}

TEST(TcpNetworkTest, FrameSentOneByteAtATimeIsDeliveredOnce) {
  TcpNetwork net;
  ASSERT_TRUE(net.Start().ok());
  net.AddLocalPeer("bob");

  int fd = RawConnect(net.port());
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  std::string frame = Framed(EncodeEnvelope(Hello("alice", "bob", 7)));
  std::vector<Envelope> got;
  auto pump = [&] {
    for (Envelope& e : net.DeliverDue(0.0)) got.push_back(std::move(e));
  };
  for (size_t i = 0; i + 1 < frame.size(); ++i) {
    ASSERT_EQ(::send(fd, frame.data() + i, 1, 0), 1);
    pump();
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  pump();
  EXPECT_TRUE(got.empty()) << "a partial frame was delivered";

  ASSERT_EQ(::send(fd, frame.data() + frame.size() - 1, 1, 0), 1);
  ASSERT_TRUE(WaitUntil([&] {
    pump();
    return !got.empty();
  }));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  pump();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].from, "alice");
  EXPECT_EQ(got[0].seq, 7u);
  EXPECT_EQ(net.TcpStatsSnapshot().frames_received, 1u);
  ::close(fd);
}

TEST(TcpNetworkTest, FrameLargerThanTheSocketBuffersCrossesIntact) {
  TcpNetwork a, b;
  ASSERT_TRUE(a.Start().ok());
  ASSERT_TRUE(b.Start().ok());
  a.AddLocalPeer("alice");
  b.AddLocalPeer("bob");
  a.SetPeerAddress("bob", "127.0.0.1", b.port());

  std::string blob(8u << 20, '\0');
  for (size_t i = 0; i < blob.size(); ++i) {
    blob[i] = static_cast<char>(i * 131 + (i >> 13));
  }
  Envelope big;
  big.from = "alice";
  big.to = "bob";
  big.seq = 5;
  big.message = Message::FactInserts(
      {Fact("photos", "bob", {Value::Int(1), Value::MakeBlob(blob)})});
  ASSERT_TRUE(a.Submit(big, 0.0).ok());
  ASSERT_TRUE(a.Submit(Hello("alice", "bob", 6), 0.0).ok());

  // Until bob reads, the kernel holds far less than 8 MiB: alice's
  // link is left with a partly written head frame, waiting for POLLOUT.
  ASSERT_TRUE(WaitUntil([&] {
    a.DeliverDue(0.0);
    return a.TcpStatsSnapshot().connects == 1;
  }));
  a.DeliverDue(0.0);
  EXPECT_TRUE(a.HasInFlight());

  std::vector<Envelope> got;
  ASSERT_TRUE(WaitUntil([&] {
    a.DeliverDue(0.0);
    for (Envelope& e : b.DeliverDue(0.0)) got.push_back(std::move(e));
    return got.size() == 2;
  }));
  EXPECT_EQ(got[0].seq, 5u);
  ASSERT_EQ(got[0].message.facts.size(), 1u);
  EXPECT_EQ(got[0].message.facts[0], big.message.facts[0]);
  EXPECT_EQ(got[1].seq, 6u);  // per-link FIFO behind the big frame
  EXPECT_FALSE(a.HasInFlight());
  EXPECT_EQ(a.TcpStatsSnapshot().send_failures, 0u);
}

TEST(TcpNetworkTest, WaitSleepsUntilItsDeadlineOnAQuietNetwork) {
  TcpNetwork net;
  ASSERT_TRUE(net.Start().ok());
  const auto start = TcpNetwork::Clock::now();
  net.Wait(start + std::chrono::milliseconds(100));
  const auto slept = TcpNetwork::Clock::now() - start;
  EXPECT_GE(slept, std::chrono::milliseconds(100));
  EXPECT_LT(slept, std::chrono::milliseconds(1000));
}

TEST(TcpNetworkTest, WaitWakesWhenAFrameArrives) {
  TcpNetwork net;
  ASSERT_TRUE(net.Start().ok());
  net.AddLocalPeer("bob");
  int fd = RawConnect(net.port());
  ASSERT_TRUE(WaitUntil([&] {
    net.DeliverDue(0.0);
    return net.TcpStatsSnapshot().connections_accepted == 1;
  }));

  // The frame comes from another thread of this test while the
  // transport's owner is blocked in Wait.
  const std::string frame = Framed(EncodeEnvelope(Hello("alice", "bob", 9)));
  std::atomic<int64_t> sent_at_ns{0};
  std::thread sender([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    sent_at_ns = TcpNetwork::Clock::now().time_since_epoch().count();
    ::send(fd, frame.data(), frame.size(), 0);
  });
  net.Wait(TcpNetwork::Clock::now() + std::chrono::seconds(5));
  const int64_t woke_at_ns =
      TcpNetwork::Clock::now().time_since_epoch().count();
  sender.join();
  EXPECT_GE(woke_at_ns, sent_at_ns.load())
      << "Wait returned before the frame was sent";
  EXPECT_LT(woke_at_ns - sent_at_ns.load(), int64_t{50} * 1000 * 1000);

  std::vector<Envelope> got = net.DeliverDue(0.0);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].seq, 9u);
  ::close(fd);
}

size_t ThreadCount() {
  size_t n = 0;
  DIR* dir = ::opendir("/proc/self/task");
  if (dir == nullptr) return 0;
  while (dirent* entry = ::readdir(dir)) {
    if (entry->d_name[0] != '.') ++n;
  }
  ::closedir(dir);
  return n;
}

TEST(TcpNetworkTest, LinksAndConnectionsStartNoThread) {
  const size_t threads_before = ThreadCount();
  ASSERT_GT(threads_before, 0u);

  // alice links out to three peers; two of them link back in.
  TcpNetwork a;
  ASSERT_TRUE(a.Start().ok());
  a.AddLocalPeer("alice");
  std::vector<std::unique_ptr<TcpNetwork>> others;
  for (int i = 0; i < 3; ++i) {
    const std::string name = "p" + std::to_string(i);
    others.push_back(std::make_unique<TcpNetwork>());
    TcpNetwork& o = *others.back();
    ASSERT_TRUE(o.Start().ok());
    o.AddLocalPeer(name);
    a.SetPeerAddress(name, "127.0.0.1", o.port());
    ASSERT_TRUE(a.Submit(Hello("alice", name), 0.0).ok());
    if (i < 2) {
      o.SetPeerAddress("alice", "127.0.0.1", a.port());
      ASSERT_TRUE(o.Submit(Hello(name, "alice"), 0.0).ok());
    }
  }
  ASSERT_TRUE(WaitUntil([&] {
    bool all = a.TcpStatsSnapshot().frames_received == 2;
    a.DeliverDue(0.0);
    for (auto& o : others) {
      o->DeliverDue(0.0);
      all = all && o->TcpStatsSnapshot().frames_received == 1;
    }
    return all;
  }));
  EXPECT_EQ(a.TcpStatsSnapshot().connects, 3u);
  EXPECT_EQ(a.TcpStatsSnapshot().connections_accepted, 2u);
  EXPECT_EQ(ThreadCount(), threads_before);
}

TEST(TcpNetworkTest, InboundCloseSignalsResetOfTheSender) {
  TcpNetwork b;
  ASSERT_TRUE(b.Start().ok());
  b.AddLocalPeer("bob");
  {
    TcpNetwork a;
    ASSERT_TRUE(a.Start().ok());
    a.AddLocalPeer("alice");
    a.SetPeerAddress("bob", "127.0.0.1", b.port());
    ASSERT_TRUE(a.Submit(Hello("alice", "bob"), 0.0).ok());
    ASSERT_TRUE(WaitUntil([&] {
      a.DeliverDue(0.0);
      b.DeliverDue(0.0);
      return b.TcpStatsSnapshot().frames_received == 1;
    }));
  }  // alice's process "dies"
  std::vector<std::string> resets;
  ASSERT_TRUE(WaitUntil([&] {
    b.DeliverDue(0.0);
    for (std::string& r : b.TakePeerResets()) resets.push_back(std::move(r));
    return !resets.empty();
  }));
  EXPECT_EQ(resets, std::vector<std::string>{"alice"});
}

TEST(TcpNetworkTest, ReconnectsThroughAddressFileAndSignalsReset) {
  std::string addr_file =
      ::testing::TempDir() + "/tcp_network_test_bob.addr";
  auto write_addr = [&](uint16_t port) {
    std::string tmp = addr_file + ".tmp";
    FILE* f = ::fopen(tmp.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fprintf(f, "127.0.0.1:%u\n", port);
    ::fclose(f);
    ASSERT_EQ(::rename(tmp.c_str(), addr_file.c_str()), 0);
  };

  TcpNetworkOptions fast_retry;
  fast_retry.connect_retry_initial_ms = 5;
  fast_retry.connect_retry_max_ms = 40;
  TcpNetwork a(fast_retry);
  ASSERT_TRUE(a.Start().ok());
  a.AddLocalPeer("alice");
  a.SetPeerAddressFile("bob", addr_file);

  auto b1 = std::make_unique<TcpNetwork>();
  ASSERT_TRUE(b1->Start().ok());
  b1->AddLocalPeer("bob");
  write_addr(b1->port());

  ASSERT_TRUE(a.Submit(Hello("alice", "bob", 1), 0.0).ok());
  ASSERT_TRUE(WaitUntil([&] {
    a.DeliverDue(0.0);
    b1->DeliverDue(0.0);
    return b1->TcpStatsSnapshot().frames_received == 1;
  }));
  EXPECT_TRUE(a.TakePeerResets().empty());

  // Kill bob's first incarnation; bring up a second one on a fresh
  // ephemeral port and republish the address file — exactly what a
  // restarted wdl_peerd does.
  b1.reset();
  TcpNetwork b2;
  ASSERT_TRUE(b2.Start().ok());
  b2.AddLocalPeer("bob");
  write_addr(b2.port());

  // Keep offering traffic: the first send after the death may be
  // swallowed by a kernel buffer, the next one errors, the link
  // reconnects — to the *new* port — and redelivers from the queue.
  uint64_t seq = 2;
  std::vector<std::string> resets;
  ASSERT_TRUE(WaitUntil([&] {
    (void)a.Submit(Hello("alice", "bob", seq++), 0.0);
    a.DeliverDue(0.0);
    b2.DeliverDue(0.0);
    for (std::string& r : a.TakePeerResets()) resets.push_back(std::move(r));
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    return !resets.empty() && b2.TcpStatsSnapshot().frames_received > 0;
  }, 10000));
  EXPECT_EQ(resets[0], "bob");
  EXPECT_GE(a.TcpStatsSnapshot().reconnects, 1u);
  ::unlink(addr_file.c_str());
}

// A peer that dies with our last frame unread takes that frame with
// it, and the write reported no error. The link must come back by
// itself, with nothing queued, so that its reset makes the runtime
// re-serve what was lost; without it a restarted peer could wait
// forever for state it will never be sent.
TEST(TcpNetworkTest, LiveLinkReconnectsAfterHangupWithNothingQueued) {
  std::string addr_file =
      ::testing::TempDir() + "/tcp_network_test_hangup.addr";
  auto write_addr = [&](uint16_t port) {
    std::string tmp = addr_file + ".tmp";
    FILE* f = ::fopen(tmp.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fprintf(f, "127.0.0.1:%u\n", port);
    ::fclose(f);
    ASSERT_EQ(::rename(tmp.c_str(), addr_file.c_str()), 0);
  };

  // bob's first incarnation: a bare listener that never reads.
  int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  ASSERT_EQ(::listen(listener, 4), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len),
            0);
  write_addr(ntohs(addr.sin_port));

  TcpNetworkOptions fast_retry;
  fast_retry.connect_retry_initial_ms = 5;
  fast_retry.connect_retry_max_ms = 40;
  TcpNetwork a(fast_retry);
  ASSERT_TRUE(a.Start().ok());
  a.AddLocalPeer("alice");
  a.SetPeerAddressFile("bob", addr_file);
  ASSERT_TRUE(a.Submit(Hello("alice", "bob", 1), 0.0).ok());
  ASSERT_TRUE(WaitUntil([&] {
    a.DeliverDue(0.0);
    return !a.HasInFlight();
  }));
  int conn = ::accept(listener, nullptr, nullptr);
  ASSERT_GE(conn, 0);
  ::close(conn);  // bob dies with alice's frame unread
  ::close(listener);

  TcpNetwork b2;
  ASSERT_TRUE(b2.Start().ok());
  b2.AddLocalPeer("bob");
  write_addr(b2.port());

  std::vector<std::string> resets;
  ASSERT_TRUE(WaitUntil([&] {
    a.DeliverDue(0.0);
    b2.DeliverDue(0.0);
    for (std::string& r : a.TakePeerResets()) resets.push_back(std::move(r));
    return !resets.empty();
  }));
  EXPECT_EQ(resets, std::vector<std::string>{"bob"});
  EXPECT_EQ(a.TcpStatsSnapshot().reconnects, 1u);
  EXPECT_TRUE(WaitUntil([&] {
    a.DeliverDue(0.0);
    b2.DeliverDue(0.0);
    return b2.TcpStatsSnapshot().connections_accepted == 1;
  }));
  ::unlink(addr_file.c_str());
}

}  // namespace
}  // namespace wdl
