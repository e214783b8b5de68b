// One member's production stack, assembled the way cbc_node and cbc_kv
// assemble theirs (src/net/node_main.cpp, src/kv/kv_main.cpp):
//
//   inner transport (UdpTransport, or ChaosTransport over SimTransport)
//     -> BatchingTransport (default options)
//       -> OSendMember (reliability enabled, every other option default)
//         -> InvariantChecker (derived spec, `nop` digest exemption)
//           -> [delivery tap]
//             -> ReplicaNode<object::Value> (fifo_chain front end)
//
// The traced run splices the span decorators of layers.h in between and
// attaches obs hooks; the untraced run does neither. check_parity()
// asserts the options against the binaries' choices and prints them.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <ostream>
#include <set>
#include <span>
#include <string>

#include "activity/commutativity.h"
#include "causal/osend.h"
#include "check/invariant_checker.h"
#include "group/group_view.h"
#include "layers.h"
#include "object/value.h"
#include "obs/hooks.h"
#include "obs/metrics.h"
#include "replica/front_end.h"
#include "replica/replica_node.h"
#include "transport/batching.h"

namespace perfbench {

using Replica = cbc::ReplicaNode<cbc::object::Value>;

/// What the benchmark asks of one stack.
struct StackConfig {
  cbc::CommutativitySpec spec;
  std::string object;  ///< catalog name of the replicated object
  /// Sink of the reliability layer's out-of-band frames (state-transfer
  /// requests for cbc_node, client requests for cbc_kv).
  std::function<void(cbc::NodeId, std::span<const std::uint8_t>)> oob_handler;
  /// cbc_node's delivery tap between the checker and the replica; empty
  /// for cbc_kv, which has none.
  std::function<void(const cbc::Delivery&)> tap;
  /// Set only for traced stacks, which attach obs hooks to it and get the
  /// span decorators spliced in; nullptr = a production stack as shipped.
  cbc::obs::MetricsRegistry* registry = nullptr;
};

/// The options the benchmark hands each layer, kept for check_parity().
struct StackOptions {
  cbc::BatchingTransport::Options batching;
  cbc::OSendMember::Options osend;
  cbc::check::InvariantChecker::Options check;
  cbc::FrontEndManager::Options front_end;
};

/// Hooks for one component: off unless a registry is given.
[[nodiscard]] cbc::obs::Hooks hooks(cbc::obs::MetricsRegistry* registry,
                                    std::string prefix);

/// The production option set (node_main / kv_main) for one member.
[[nodiscard]] StackOptions production_options(const StackConfig& config);

/// One member's layers above its inner transport. Destruction runs
/// top-down: the replica (which owns the ordering member) goes before the
/// transports it sends through.
class MemberStack {
 public:
  MemberStack(cbc::Transport& inner, const cbc::GroupView& view,
              cbc::check::InvariantMonitor& monitor, const StackConfig& config);

  MemberStack(const MemberStack&) = delete;
  MemberStack& operator=(const MemberStack&) = delete;

  [[nodiscard]] Replica& replica() { return *replica_; }
  [[nodiscard]] const Replica& replica() const { return *replica_; }
  [[nodiscard]] cbc::check::InvariantChecker& checker() { return *checker_; }
  [[nodiscard]] const cbc::check::InvariantChecker& checker() const {
    return *checker_;
  }
  [[nodiscard]] const StackOptions& options() const { return options_; }
  /// Bytes handed to the inner transport (traced run only).
  [[nodiscard]] std::uint64_t inner_bytes() const;

  /// Submits through ReplicaNode::submit inside a replica.submit span.
  cbc::MessageId submit(const cbc::object::Op& op);

 private:
  StackOptions options_;
  std::unique_ptr<SpanTransport> net_boundary_;
  std::unique_ptr<cbc::BatchingTransport> batching_;
  std::unique_ptr<SpanTransport> causal_boundary_;
  cbc::check::InvariantChecker* checker_ = nullptr;  // owned via replica_
  std::unique_ptr<Replica> replica_;
};

/// Asserts that `options` are the binaries' choices and that obs hooks
/// are attached only when `traced`; writes one `# stack ...` header line
/// per option. Returns false (and names the mismatch) on any deviation.
bool check_parity(const StackOptions& options, bool traced, std::ostream& out);

/// Installs the always-on flight recorder both binaries install before
/// building their stacks (in-memory ring, as without --flight).
void install_flight_recorder(const std::string& dump_path);

}  // namespace perfbench
