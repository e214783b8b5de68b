// Distributed file service — the paper's opening example (§1): "a
// distributed file service may be implemented by a group of servers, with
// each server maintaining a local copy of files and exchanging messages
// with other servers in the group to update the various file copies in
// response to client requests."
//
// This example combines two of the library's ordering tools:
//  - reads/stat-like traffic flows as plain causal messages;
//  - a multi-file atomic update (several writes that must land in the
//    same relative order everywhere) uses a §5.2 SCOPED total order:
//    ASend({write1, write2, write3}, Occurs_After(tx-begin)).
#include <iostream>
#include <map>
#include <memory>
#include <vector>

#include "sim/network.h"
#include "sim/scheduler.h"
#include "total/scoped_order.h"
#include "transport/sim_transport.h"
#include "util/serde.h"

int main() {
  using namespace cbc;

  sim::Scheduler scheduler;
  sim::SimNetwork network(scheduler,
                          std::make_unique<sim::UniformJitterLatency>(1000, 4000),
                          /*seed=*/17);
  SimTransport transport(network);
  const GroupView view(1, {0, 1, 2});

  // Each server applies delivered writes to its local file table.
  struct Server {
    std::unique_ptr<ScopedOrderMember> member;
    std::map<std::string, std::string> files;
    std::vector<std::string> applied;  // order of applied writes
  };
  std::vector<Server> servers(3);
  for (std::size_t i = 0; i < 3; ++i) {
    servers[i].member = std::make_unique<ScopedOrderMember>(
        transport, view, [&servers, i](const Delivery& delivery) {
          if (delivery.label().rfind("write:", 0) == 0) {
            Reader reader(delivery.payload());
            const std::string path = reader.str();
            const std::string content = reader.str();
            servers[i].files[path] = content;
            servers[i].applied.push_back(path);
          }
        });
  }

  auto write_payload = [](const std::string& path, const std::string& body) {
    Writer writer;
    writer.str(path);
    writer.str(body);
    return writer.take();
  };

  // --- A single-file write: plain causal traffic.
  servers[0].member->send_causal("write:motd",
                                 write_payload("/etc/motd", "hello"),
                                 DepSpec::none());
  scheduler.run();

  // --- A multi-file "transaction": server 1 opens an update scope; two
  //     servers contribute writes; the close releases them in the SAME
  //     order at every server.
  const ScopeId tx = servers[1].member->open_scope("tx-begin");
  scheduler.run();
  servers[1].member->send_scoped(tx, "write:passwd",
                                 write_payload("/etc/passwd", "v2"));
  servers[2].member->send_scoped(tx, "write:shadow",
                                 write_payload("/etc/shadow", "v2"));
  scheduler.run();
  servers[1].member->close_scope(tx, "tx-commit");
  scheduler.run();

  std::cout << "Per-server applied-write order:\n";
  for (std::size_t i = 0; i < 3; ++i) {
    std::cout << "  server " << i << ": ";
    for (const std::string& path : servers[i].applied) {
      std::cout << path << " ";
    }
    std::cout << "\n";
  }
  bool identical = true;
  for (std::size_t i = 1; i < 3; ++i) {
    identical = identical && servers[i].applied == servers[0].applied &&
                servers[i].files == servers[0].files;
  }
  std::cout << "\nAll file copies identical and applied in one order: "
            << (identical ? "yes" : "NO") << "\n";
  std::cout << "The tx writes were concurrent on the wire (no server "
               "coordination), yet the scoped total order (§5.2 eq. 5) made "
               "every server apply them identically.\n";
  return identical ? 0 : 1;
}
