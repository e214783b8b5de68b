#include "replica/front_end.h"

namespace cbc {

FrontEndManager::FrontEndManager(BroadcastMember& member,
                                 const StablePointDetector& cycle,
                                 Options options)
    : member_(member), cycle_(cycle), options_(options) {}

MessageId FrontEndManager::submit(const std::string& kind,
                                  std::vector<std::uint8_t> args) {
  const std::string label =
      kind + "#" + std::to_string(member_.id()) + "." +
      std::to_string(++label_counter_);
  const MessageId last_sync = cycle_.last_sync();
  if (cycle_.spec().is_commutative(kind)) {
    ++c_submitted_;
    // Commutative requests order only after the last sync message; they
    // stay concurrent with one another (||{rqst_c}) — unless fifo_chain
    // adds this member's own previous commutative op (null ids are
    // ignored by DepSpec, so the first link needs no special case).
    DepSpec deps =
        options_.fifo_chain
            ? DepSpec::after_all({last_sync, last_own_commutative_})
            : DepSpec::after(last_sync);
    const MessageId message = member_.broadcast(label, std::move(args), deps);
    last_own_commutative_ = message;
    return message;
  }
  ++nc_submitted_;
  const std::vector<MessageId>& cids = cycle_.open_set();
  const DepSpec deps =
      cids.empty() ? DepSpec::after(last_sync) : DepSpec::after_all(cids);
  // The detector closes {Cid} when this sync message is delivered locally
  // (synchronously, when its dependencies are already met here).
  return member_.broadcast(label, std::move(args), deps);
}

}  // namespace cbc
