// Front-end manager — the client side of the §6.1 access protocol.
//
// The paper's client() pseudocode, verbatim in structure:
//
//   Ncid := 0; {Cid} := ∅;
//   forever
//     if op is non-commutative:
//        if {Cid} = ∅:  OSend(rqst, RPC_GRP, Occurs_After(Ncid-1))
//        else:          OSend(rqst, RPC_GRP, Occurs_After(∧{Cid}))
//        {Cid} := ∅
//     if op is commutative:
//        OSend(rqst, RPC_GRP, Occurs_After(Ncid-1));  insert id in {Cid}
//
// yielding the cycle  rqst_nc(r-1) → ||{rqst_c(r,k)} → rqst_nc(r).
//
// One refinement over the literal pseudocode: {Cid} and the last sync
// come from *delivered* traffic, not only the manager's own submissions —
// the paper already requires this ("the manager keeps track of the
// occurrence of commutative and non-commutative operations"; its graph
// must equal the replicas'), and it is what makes a sync message's
// Occurs_After set cover commutative requests issued by other members.
// The manager keeps no copy of that open cycle: it reads the replica's
// StablePointDetector, which sees every delivery in order.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "activity/stable_point.h"
#include "causal/delivery.h"

namespace cbc {

/// Generates causally-labelled request messages over a BroadcastMember.
class FrontEndManager {
 public:
  struct Options {
    /// When true, each commutative submission also names this manager's
    /// previous commutative submission in its Occurs_After set, forcing
    /// this member's own commutative ops to deliver in submission (FIFO)
    /// order everywhere — strictly stronger than the paper's pseudocode
    /// (which leaves them fully concurrent) but still within its model:
    /// Occurs_After accepts any message set. Cluster workloads use this so
    /// a member's round marker causally follows all its round ops.
    bool fifo_chain = false;
  };

  /// `member` and `cycle` must outlive the manager. `cycle` classifies
  /// operations and supplies the open cycle (the last sync and {Cid}); its
  /// owner feeds it every message delivered at this member (ReplicaNode
  /// does this).
  FrontEndManager(BroadcastMember& member, const StablePointDetector& cycle,
                  Options options);

  /// Submits one operation; label becomes "<kind>#<n>" and the
  /// Occurs_After set follows the client() pseudocode above.
  MessageId submit(const std::string& kind, std::vector<std::uint8_t> args);

  /// Count of sync messages submitted by this manager (its Ncid).
  [[nodiscard]] std::uint64_t nc_submitted() const { return nc_submitted_; }
  [[nodiscard]] std::uint64_t c_submitted() const { return c_submitted_; }

 private:
  BroadcastMember& member_;
  const StablePointDetector& cycle_;
  Options options_;
  MessageId last_own_commutative_ = MessageId::null();  // fifo_chain tail
  std::uint64_t nc_submitted_ = 0;
  std::uint64_t c_submitted_ = 0;
  std::uint64_t label_counter_ = 0;
};

}  // namespace cbc
