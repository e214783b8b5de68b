// Scoped total ordering over OSend (paper §5.2, eq. 5).
//
// The paper defines ASend as a *function interposed between the causal
// broadcast and application layers* that totally orders a bounded SET of
// messages relative to causal anchors:
//
//     ASend({m1', m2'}, Occurs_After(Msg))
//       ==>   Msg -> m1' -> m2'  at all members,  or
//             Msg -> m2' -> m1'  at all members
//
// "In terms of the OSend based causal broadcast interface, a total order
//  can be defined over a set of messages {m} specified by (lbl_a, lbl_d),
//  where lbl_a and lbl_d refer to the ascendant node of {m} and the
//  descendant node(s) of {m}."
//
// ScopedOrderMember implements exactly that: a *scope* is opened by an
// ascendant message (lbl_a), spontaneous messages submitted into the
// scope ride OSend with Occurs_After(ascendant) — mutually concurrent on
// the wire — and a descendant message (lbl_d, AND-dependent on the whole
// set) closes it. Members defer the application delivery of in-scope
// messages until the descendant arrives, then release them in one
// deterministic sort. Causal traffic outside scopes flows untouched —
// total order is paid for only where the application asks for it, unlike
// the whole-stream ASendMember ("the case where lbl_d is NULL and lbl_a
// is a termination message represents a total order on ALL messages").
//
// The member is written against the abstract BroadcastMember interface:
// the default factory builds an OSendMember, but any causally ordered
// discipline (or layered stack) can be injected.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "causal/osend.h"

namespace cbc {

/// Identifier of one ordering scope (unique per opener).
struct ScopeId {
  NodeId opener = kNoNode;
  std::uint64_t index = 0;
  auto operator<=>(const ScopeId&) const = default;
};

/// One member speaking causal broadcast with on-demand scoped total order.
class ScopedOrderMember {
 public:
  struct Options {
    OSendMember::Options member;
  };

  ScopedOrderMember(Transport& transport, const GroupView& view,
                    DeliverFn deliver)
      : ScopedOrderMember(transport, view, std::move(deliver), Options{}) {}
  ScopedOrderMember(Transport& transport, const GroupView& view,
                    DeliverFn deliver, Options options);

  /// Injects the underlying ordering member (must provide causal order
  /// with Occurs_After dependencies; OSendMember is the default).
  ScopedOrderMember(std::unique_ptr<BroadcastMember> member,
                    DeliverFn deliver);

  /// Plain causal traffic — delivered immediately in causal order,
  /// untouched by any scope.
  MessageId send_causal(std::string label, std::vector<std::uint8_t> payload,
                        const DepSpec& deps);

  /// Opens a totally-ordered scope with an ascendant message lbl_a.
  /// Returns the scope id (usable by ANY member for submissions once the
  /// ascendant is seen). One member opens; all may submit.
  ScopeId open_scope(std::string ascendant_label,
                     std::vector<std::uint8_t> payload = {});

  /// Submits a message into an open scope: on the wire it is concurrent
  /// with the scope's other messages; to the application it is delivered
  /// only at scope close, in the deterministic merged order.
  MessageId send_scoped(ScopeId scope, std::string label,
                        std::vector<std::uint8_t> payload);

  /// Closes a scope with the descendant message lbl_d: an AND-dependency
  /// on every scoped message this member has SEEN (the opener typically
  /// closes; with racing submitters, stragglers join the next scope —
  /// same caveat as §6.1 coverage). At every member, delivery of the
  /// descendant releases the scope's messages in sorted order first.
  MessageId close_scope(ScopeId scope, std::string descendant_label,
                        std::vector<std::uint8_t> payload = {});

  [[nodiscard]] BroadcastMember& member() { return *member_; }
  [[nodiscard]] const BroadcastMember& member() const { return *member_; }
  [[nodiscard]] NodeId id() const { return member_->id(); }

 private:
  struct ScopeState {
    MessageId ascendant;
    std::vector<Delivery> held;       // wire-delivered, not yet released
    std::vector<MessageId> seen_ids;  // for the closer's AND-set
    bool closed = false;
  };

  static std::string scope_tag(ScopeId scope);
  static bool parse_scope(const std::string& label, ScopeId& scope,
                          std::string& inner, bool& is_open, bool& is_close);
  void on_delivery(const Delivery& delivery);

  DeliverFn deliver_;
  std::unique_ptr<BroadcastMember> member_;
  std::uint64_t next_scope_ = 1;
  std::map<ScopeId, ScopeState> scopes_;
};

}  // namespace cbc
