// UdpTransport over real loopback sockets: cluster-config parsing, raw
// datagram delivery, the batched receive path (one recvmmsg per
// readiness event), the endpoint-registration threading contract, and
// the decorator-composition check — the same (Batching + reliability)
// stack that runs over SimTransport must behave identically over UDP,
// including under forced datagram loss.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <netinet/in.h>
#include <string>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>
#include <vector>

#include "causal/osend.h"
#include "common/loop_runner.h"
#include "common/sim_env.h"
#include "common/udp_ports.h"
#include "fault/chaos_transport.h"
#include "fault/fault_plan.h"
#include "group/group_view.h"
#include "net/cluster_config.h"
#include "net/event_loop.h"
#include "net/udp_transport.h"
#include "transport/batching.h"
#include "transport/reliable.h"
#include "util/ensure.h"
#include "util/serde.h"

namespace cbc {
namespace {

using net::ClusterConfig;
using net::EventLoop;
using net::UdpTransport;
using testkit::LoopRunner;

// ---------- ClusterConfig ----------

TEST(ClusterConfig, ParsesIdsCommentsAndBlanks) {
  const ClusterConfig config = ClusterConfig::parse(
      "# cluster\n"
      "0 127.0.0.1:9001\n"
      "\n"
      "1 localhost:9002\n"
      "2 10.0.0.7:9003\n");
  ASSERT_EQ(config.size(), 3u);
  EXPECT_EQ(config.member(1).host, "localhost");
  EXPECT_EQ(config.member(2).port, 9003);
  EXPECT_EQ(config.to_view(), (std::vector<NodeId>{0, 1, 2}));
  // Reverse lookup: sockaddr identity back to a node id.
  EXPECT_EQ(config.node_at(0x7F000001, 9001), std::optional<NodeId>{0});
  EXPECT_EQ(config.node_at(0x7F000001, 9999), std::nullopt);
}

TEST(ClusterConfig, RejectsMalformedInput) {
  EXPECT_THROW(ClusterConfig::parse(""), InvalidArgument);
  EXPECT_THROW(ClusterConfig::parse("0 nocolon\n"), InvalidArgument);
  EXPECT_THROW(ClusterConfig::parse("0 127.0.0.1:0\n"), InvalidArgument);
  EXPECT_THROW(ClusterConfig::parse("0 127.0.0.1:70000\n"), InvalidArgument);
  EXPECT_THROW(ClusterConfig::parse("1 127.0.0.1:9001\n"), InvalidArgument);
  EXPECT_THROW(ClusterConfig::parse("0 127.0.0.1:9001\n2 127.0.0.1:9002\n"),
               InvalidArgument);
  EXPECT_THROW(ClusterConfig::parse("0 127.0.0.1:9001 extra\n"),
               InvalidArgument);
  EXPECT_THROW(ClusterConfig::parse("0 999.1.1.1:9001\n"), InvalidArgument);
  // The port and the id are whole numbers: both of these read port 9100.
  EXPECT_THROW(ClusterConfig::parse("0 127.0.0.1:9100x\n"), InvalidArgument);
  EXPECT_THROW(ClusterConfig::parse("0 127.0.0.1:+9100\n"), InvalidArgument);
  EXPECT_THROW(ClusterConfig::parse("0x 127.0.0.1:9100\n"), InvalidArgument);
}

// ---------- Raw datagram delivery ----------

TEST(UdpTransport, DeliversDatagramsBetweenLocalEndpoints) {
  const auto ports = testkit::reserve_udp_ports(2);
  EventLoop loop;
  UdpTransport udp(loop, ClusterConfig::localhost(ports));

  std::mutex mutex;
  std::condition_variable cv;
  std::vector<std::pair<NodeId, std::uint64_t>> received;
  udp.add_endpoint([](NodeId, const WireFrame&) {});  // node 0: sender only
  udp.add_endpoint([&](NodeId from, const WireFrame& frame) {
    Reader reader(frame.bytes());
    const std::lock_guard<std::mutex> guard(mutex);
    received.emplace_back(from, reader.u64());
    cv.notify_all();
  });
  ASSERT_EQ(udp.endpoint_count(), 2u);

  LoopRunner runner(loop);
  for (std::uint64_t i = 0; i < 10; ++i) {
    Writer writer;
    writer.u64(i);
    udp.send(0, 1, writer.take_shared());
  }
  std::unique_lock<std::mutex> wait(mutex);
  ASSERT_TRUE(cv.wait_for(wait, std::chrono::seconds(5),
                          [&] { return received.size() == 10u; }))
      << "only " << received.size() << " datagrams arrived";
  for (const auto& [from, value] : received) {
    EXPECT_EQ(from, 0u);
  }
  EXPECT_GE(udp.stats().datagrams_sent, 10u);
  EXPECT_GE(udp.stats().datagrams_received, 10u);
}

TEST(UdpTransport, OversizeSendIsDroppedAndCounted) {
  const auto ports = testkit::reserve_udp_ports(2);
  EventLoop loop;
  UdpTransport::Options options;
  options.max_datagram_bytes = 64;
  UdpTransport udp(loop, ClusterConfig::localhost(ports), options);
  udp.add_endpoint([](NodeId, const WireFrame&) {});
  udp.add_endpoint([](NodeId, const WireFrame&) {});
  udp.send(0, 1, std::vector<std::uint8_t>(1000, 0xAB));
  EXPECT_EQ(udp.stats().oversize_drops, 1u);
  EXPECT_EQ(udp.stats().datagrams_sent, 0u);
}

// ---------- Batched receive (one recvmmsg per readiness event) ----------

/// Loopback usually queues a datagram on the receiving socket before
/// sendto() returns, but under load the kernel may defer that work to a
/// softirq thread: give it time, so the first read finds every datagram.
void settle_loopback() {
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
}

/// A socket outside the cluster config, bound to an ephemeral loopback
/// port: its datagrams come from an unknown source.
class StrangerSocket {
 public:
  StrangerSocket() : fd_(::socket(AF_INET, SOCK_DGRAM, 0)) {
    require(fd_ >= 0, "StrangerSocket: socket() failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    require(::bind(fd_, reinterpret_cast<const sockaddr*>(&addr),
                   sizeof(addr)) == 0,
            "StrangerSocket: bind() failed");
  }
  ~StrangerSocket() { ::close(fd_); }
  StrangerSocket(const StrangerSocket&) = delete;
  StrangerSocket& operator=(const StrangerSocket&) = delete;

  void send_to(const sockaddr_in& dest, std::uint64_t value) const {
    Writer writer;
    writer.u64(value);
    const std::vector<std::uint8_t> bytes = writer.take();
    const auto* to = reinterpret_cast<const sockaddr*>(&dest);
    ASSERT_EQ(::sendto(fd_, bytes.data(), bytes.size(), 0, to, sizeof(dest)),
              static_cast<ssize_t>(bytes.size()));
  }

 private:
  int fd_;
};

TEST(UdpTransport, BatchedReceiveKeepsPerSourceOrderInFewCalls) {
  constexpr std::size_t kSources = 3;
  constexpr std::uint64_t kDatagrams = 64;
  const auto ports = testkit::reserve_udp_ports(kSources + 1);
  const ClusterConfig config = ClusterConfig::localhost(ports);
  const auto receiver_id = static_cast<NodeId>(kSources);

  EventLoop sender_loop;  // never runs: the senders only send
  UdpTransport::Options sender_options;
  sender_options.local_ids = {0, 1, 2};
  UdpTransport senders(sender_loop, config, sender_options);

  EventLoop loop;
  UdpTransport::Options receiver_options;
  receiver_options.local_ids = {receiver_id};
  UdpTransport receiver(loop, config, receiver_options);
  std::vector<std::vector<std::uint64_t>> by_source(kSources);
  std::uint64_t arrived = 0;
  receiver.add_endpoint([&](NodeId from, const WireFrame& frame) {
    Reader reader(frame.bytes());
    by_source.at(from).push_back(reader.u64());
    if (++arrived == kDatagrams) {
      loop.stop();
    }
  });
  for (std::size_t i = 0; i < kSources; ++i) {
    senders.add_endpoint([](NodeId, const WireFrame&) {});
  }

  // Queue every datagram, round-robin over the sources, before the
  // receiver's loop runs: the first readiness event finds all of them.
  for (std::uint64_t i = 0; i < kDatagrams; ++i) {
    Writer writer;
    writer.u64(i / kSources);
    senders.send(static_cast<NodeId>(i % kSources), receiver_id,
                 writer.take_shared());
  }
  ASSERT_EQ(senders.stats().datagrams_sent, kDatagrams);
  settle_loopback();
  loop.schedule(5'000'000, [&] { loop.stop(); });  // backstop
  loop.run();

  ASSERT_EQ(arrived, kDatagrams);
  for (std::size_t source = 0; source < kSources; ++source) {
    const std::vector<std::uint64_t>& seqs = by_source[source];
    for (std::size_t k = 0; k < seqs.size(); ++k) {
      EXPECT_EQ(seqs[k], k) << "source " << source << " out of order";
    }
  }
  // Eight full batches of eight and one call that finds the socket empty.
  const UdpTransport::Stats stats = receiver.stats();
  EXPECT_EQ(stats.datagrams_received, kDatagrams);
  EXPECT_LE(stats.recv_calls, 9u);
  EXPECT_EQ(stats.unknown_source, 0u);
}

TEST(UdpTransport, MaxSizeDatagramArrivesIntact) {
  const auto ports = testkit::reserve_udp_ports(2);
  EventLoop loop;
  UdpTransport udp(loop, ClusterConfig::localhost(ports));
  std::vector<std::uint8_t> sent(udp.max_datagram_bytes());
  for (std::size_t i = 0; i < sent.size(); ++i) {
    sent[i] = static_cast<std::uint8_t>((i * 131) ^ (i >> 8));
  }
  std::vector<std::uint8_t> got;
  udp.add_endpoint([](NodeId, const WireFrame&) {});
  udp.add_endpoint([&](NodeId, const WireFrame& frame) {
    got.assign(frame.bytes().begin(), frame.bytes().end());
    loop.stop();
  });
  udp.send(0, 1, sent);
  ASSERT_EQ(udp.stats().datagrams_sent, 1u);
  loop.schedule(5'000'000, [&] { loop.stop(); });  // backstop
  loop.run();
  ASSERT_EQ(got.size(), 60u * 1024);
  EXPECT_TRUE(got == sent) << "the 60 KiB datagram arrived altered";
}

TEST(UdpTransport, UnknownSourceMidBatchIsCountedWithoutLosingNeighbours) {
  const auto ports = testkit::reserve_udp_ports(2);
  const ClusterConfig config = ClusterConfig::localhost(ports);
  EventLoop sender_loop;  // never runs: the sender only sends
  UdpTransport::Options sender_options;
  sender_options.local_ids = {0};
  UdpTransport sender(sender_loop, config, sender_options);
  sender.add_endpoint([](NodeId, const WireFrame&) {});

  EventLoop loop;
  UdpTransport::Options receiver_options;
  receiver_options.local_ids = {1};
  UdpTransport receiver(loop, config, receiver_options);
  std::vector<std::uint64_t> received;
  receiver.add_endpoint([&](NodeId from, const WireFrame& frame) {
    EXPECT_EQ(from, 0u);
    Reader reader(frame.bytes());
    received.push_back(reader.u64());
    if (received.size() == 2) {
      loop.stop();
    }
  });

  const StrangerSocket stranger;
  const auto send_known = [&](std::uint64_t value) {
    Writer writer;
    writer.u64(value);
    sender.send(0, 1, writer.take_shared());
  };
  send_known(1);
  stranger.send_to(config.sockaddr_of(1), 99);
  send_known(2);
  settle_loopback();
  loop.schedule(5'000'000, [&] { loop.stop(); });  // backstop
  loop.run();

  EXPECT_EQ(received, (std::vector<std::uint64_t>{1, 2}));
  const UdpTransport::Stats stats = receiver.stats();
  EXPECT_EQ(stats.datagrams_received, 2u);
  EXPECT_EQ(stats.unknown_source, 1u);
  // All three came back from one call, and a short batch means the
  // socket is empty: no second call that fails with EAGAIN.
  EXPECT_EQ(stats.recv_calls, 1u);
}

// ---------- Endpoint-registration threading contract (transport.h) ----------

TEST(UdpTransport, AddEndpointBeforeRunWorks) {
  const auto ports = testkit::reserve_udp_ports(1);
  EventLoop loop;
  UdpTransport udp(loop, ClusterConfig::localhost(ports));
  EXPECT_EQ(udp.add_endpoint([](NodeId, const WireFrame&) {}), 0u);
  EXPECT_EQ(udp.endpoint_count(), 1u);
}

TEST(UdpTransport, LateAddEndpointOffLoopThreadFailsLoudly) {
  const auto ports = testkit::reserve_udp_ports(2);
  EventLoop loop;
  UdpTransport udp(loop, ClusterConfig::localhost(ports));
  udp.add_endpoint([](NodeId, const WireFrame&) {});
  LoopRunner runner(loop);
  // The documented contract: once the loop runs, registration from any
  // other thread is an InvalidArgument, not a silent race.
  EXPECT_THROW(udp.add_endpoint([](NodeId, const WireFrame&) {}),
               InvalidArgument);
}

TEST(UdpTransport, LateAddEndpointOnLoopThreadWorks) {
  const auto ports = testkit::reserve_udp_ports(2);
  EventLoop loop;
  UdpTransport udp(loop, ClusterConfig::localhost(ports));
  udp.add_endpoint([](NodeId, const WireFrame&) {});
  LoopRunner runner(loop);
  std::mutex mutex;
  std::condition_variable cv;
  bool added = false;
  loop.post([&] {
    const NodeId id = udp.add_endpoint([](NodeId, const WireFrame&) {});
    EXPECT_EQ(id, 1u);
    const std::lock_guard<std::mutex> guard(mutex);
    added = true;
    cv.notify_all();
  });
  std::unique_lock<std::mutex> wait(mutex);
  ASSERT_TRUE(
      cv.wait_for(wait, std::chrono::seconds(5), [&] { return added; }));
  EXPECT_EQ(udp.endpoint_count(), 2u);
}

// ---------- Decorator composition: Batching + reliability over UDP ----------

/// A sender/receiver pair of OSend members (reliability enabled) over a
/// BatchingTransport over any Transport. The sender issues a FIFO
/// dependency chain, which pins the delivery order: every correct run —
/// simulated or real, lossy or not — must produce the same sequence.
struct ChainStack {
  explicit ChainStack(Transport& transport)
      : batching(transport),
        view(testkit::make_view(2)),
        sender(batching, view, [](const Delivery&) {}, member_options()),
        receiver(
            batching, view,
            [this](const Delivery& delivery) {
              const std::lock_guard<std::mutex> guard(mutex);
              delivered.push_back(delivery.label());
            },
            member_options()) {}

  static OSendMember::Options member_options() {
    OSendMember::Options options;
    options.reliability.enabled = true;
    return options;
  }

  void broadcast_chain(std::size_t messages) {
    MessageId previous = MessageId::null();
    for (std::size_t i = 0; i < messages; ++i) {
      Writer payload;
      payload.u64(i);
      previous = sender.broadcast("m" + std::to_string(i), payload.take(),
                                  DepSpec::after(previous));
    }
  }

  [[nodiscard]] std::size_t delivered_count() {
    const std::lock_guard<std::mutex> guard(mutex);
    return delivered.size();
  }

  BatchingTransport batching;
  GroupView view;
  OSendMember sender;
  OSendMember receiver;
  std::mutex mutex;
  std::vector<std::string> delivered;
};

TEST(UdpComposition, LossyUdpMatchesSimTransportDeliveryOrder) {
  constexpr std::size_t kMessages = 200;

  // Reference run: deterministic simulator, no loss.
  testkit::SimEnv env;
  ChainStack sim_stack(env.transport);
  sim_stack.broadcast_chain(kMessages);
  env.run();
  ASSERT_EQ(sim_stack.delivered.size(), kMessages);

  // Real run: loopback UDP under a seeded ChaosTransport dropping ~20%
  // of frames per link (the FaultPlan replacement for the old test-only
  // send-filter shim).
  const auto ports = testkit::reserve_udp_ports(2);
  EventLoop loop;
  UdpTransport udp(loop, ClusterConfig::localhost(ports));
  fault::ChaosTransport::Options chaos_options;
  chaos_options.plan =
      fault::FaultPlan::parse("seed 7\nlink * * drop 0.2\n");
  fault::ChaosTransport chaos(udp, std::move(chaos_options));
  ChainStack udp_stack(chaos);  // endpoints register before the loop runs
  {
    LoopRunner runner(loop);
    udp_stack.broadcast_chain(kMessages);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(20);
    while (udp_stack.delivered_count() < kMessages &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }  // loop stopped and joined: the stack is quiescent below this line

  // Identical delivery order: the FIFO dependency chain pins it, and the
  // reliability layer must have healed every dropped frame.
  EXPECT_EQ(udp_stack.delivered, sim_stack.delivered);
  EXPECT_GT(chaos.stats().drops, 0u);
  EXPECT_EQ(udp.stats().handler_parse_errors, 0u);
}

}  // namespace
}  // namespace cbc
