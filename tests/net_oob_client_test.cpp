// net::OobClient over loopback against a member's real receive path:
// UdpTransport -> BatchingTransport -> ReliableEndpoint on an EventLoop
// thread, the stack every pre-stack exchange (state transfer, the kv
// router) talks to.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <span>
#include <thread>
#include <vector>

#include "common/loop_runner.h"
#include "common/udp_ports.h"
#include "kv/session.h"
#include "net/cluster_config.h"
#include "net/event_loop.h"
#include "net/oob_client.h"
#include "net/udp_transport.h"
#include "transport/batching.h"
#include "transport/reliable.h"
#include "util/buffer.h"

namespace cbc {
namespace {

using net::OobClient;

constexpr NodeId kMember = 0;
constexpr NodeId kClient = 1;

/// Member 0's stack on a loop thread; member 1's address is the client's.
/// `reply(from, payload)` runs on the loop thread for every oob request.
class Member {
 public:
  using Reply =
      std::function<void(Member&, NodeId, std::span<const std::uint8_t>)>;

  explicit Member(Reply reply)
      : config_(net::ClusterConfig::localhost(testkit::reserve_udp_ports(2))),
        udp_(loop_, config_, udp_options()),
        batching_(udp_),
        reply_(std::move(reply)),
        endpoint_(batching_, [](NodeId, const WireFrame&) {},
                  endpoint_options()),
        runner_(loop_) {}

  [[nodiscard]] sockaddr_in address() const {
    return config_.sockaddr_of(kMember);
  }
  [[nodiscard]] sockaddr_in client_address() const {
    return config_.sockaddr_of(kClient);
  }
  [[nodiscard]] std::uint64_t requests() const { return requests_.load(); }

  ReliableEndpoint& endpoint() { return endpoint_; }
  net::UdpTransport& udp() { return udp_; }

 private:
  static net::UdpTransport::Options udp_options() {
    net::UdpTransport::Options options;
    options.local_ids = {kMember};
    return options;
  }
  ReliableEndpoint::Options endpoint_options() {
    ReliableEndpoint::Options options;
    options.oob_handler = [this](NodeId from,
                                 std::span<const std::uint8_t> payload) {
      requests_.fetch_add(1);
      if (reply_) {
        reply_(*this, from, payload);
      }
    };
    return options;
  }

  net::ClusterConfig config_;
  net::EventLoop loop_;
  net::UdpTransport udp_;
  BatchingTransport batching_;
  Reply reply_;
  std::atomic<std::uint64_t> requests_{0};
  ReliableEndpoint endpoint_;
  testkit::LoopRunner runner_;  // last: stops the loop before the rest goes
};

/// Accepts exactly the payload `want`.
OobClient::Answer payload_is(std::vector<std::uint8_t> want) {
  return [want = std::move(want)](std::span<const std::uint8_t> payload) {
    return std::vector<std::uint8_t>(payload.begin(), payload.end()) == want;
  };
}

TEST(OobClient, RequestReachesTheHandlerAndItsReplyComesBack) {
  Member member([](Member& self, NodeId from,
                   std::span<const std::uint8_t> payload) {
    std::vector<std::uint8_t> reply(payload.begin(), payload.end());
    reply.push_back(0xEE);
    self.endpoint().send_oob(from, reply);
  });
  OobClient client({member.client_address()});
  const OobClient::Outcome outcome =
      client.exchange(0, member.address(), std::vector<std::uint8_t>{1, 2, 3},
                      std::chrono::seconds(5), payload_is({1, 2, 3, 0xEE}));
  EXPECT_TRUE(outcome.answered);
  EXPECT_EQ(outcome.strays, 0u);
  EXPECT_GE(member.requests(), 1u);
  EXPECT_EQ(member.requests(), outcome.resends + 1);
  EXPECT_EQ(member.endpoint().stats().oob_frames, member.requests());
}

TEST(OobClient, SilenceTriggersResendsAtItsPeriod) {
  Member member(nullptr);  // hears every request, answers none
  OobClient client({member.client_address()});
  const auto start = std::chrono::steady_clock::now();
  const OobClient::Outcome outcome =
      client.exchange(0, member.address(), std::vector<std::uint8_t>{7},
                      std::chrono::milliseconds(450), payload_is({}));
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_FALSE(outcome.answered);
  EXPECT_GE(elapsed, std::chrono::milliseconds(450));
  // Sends at 0, 100, 200, 300 and 400 ms: the first is no resend. A
  // loaded host may let the last one slip past the deadline.
  EXPECT_GE(outcome.resends, 3u);
  EXPECT_LE(outcome.resends, 4u);
  for (int waited = 0; waited < 1000 && member.requests() <= outcome.resends;
       waited += 5) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(member.requests(), outcome.resends + 1);
}

TEST(OobClient, KvClientCountsResendsAsTheClientDoes) {
  // No replica runs: every exchange times out, and each send after the
  // first is one KvClient::Stats::resends.
  const kv::KvLayout layout =
      kv::KvLayout::localhost(1, 1, testkit::reserve_udp_ports(2));
  kv::KvClient client(layout, {.exchange_timeout_ms = 250});
  kv::OpRequest request;
  request.type = kv::MsgType::kGet;
  request.key = "k";
  EXPECT_FALSE(client.exchange(0, 0, request).has_value());
  EXPECT_EQ(client.stats().exchanges, 1u);
  EXPECT_EQ(client.stats().exchange_timeouts, 1u);
  EXPECT_GE(client.stats().resends, 1u);
  EXPECT_LE(client.stats().resends, 2u);
}

TEST(OobClient, DataFramesAndNonBatchDatagramsAreSkippedAsStray) {
  Member member([](Member& self, NodeId from,
                   std::span<const std::uint8_t>) {
    // Ahead of the reply: a datagram without batch framing, then a
    // reliable data frame that rides the reply's batch.
    self.udp().send(kMember, from,
                    make_buffer(std::vector<std::uint8_t>{0xFF, 0xFF}));
    self.endpoint().send(from, std::vector<std::uint8_t>{0x42});
    self.endpoint().send_oob(from, std::vector<std::uint8_t>{9});
  });
  OobClient client({member.client_address()});
  const OobClient::Outcome outcome =
      client.exchange(0, member.address(), std::vector<std::uint8_t>{1},
                      std::chrono::seconds(5), payload_is({9}));
  EXPECT_TRUE(outcome.answered);
  EXPECT_EQ(outcome.strays, 2u);
}

TEST(OobClient, AnAddressStillHeldByAMemberIsRefused) {
  Member member(nullptr);
  EXPECT_THROW(OobClient({member.client_address(), member.address()}),
               InvalidArgument);
}

}  // namespace
}  // namespace cbc
