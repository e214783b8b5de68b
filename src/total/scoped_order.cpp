#include "total/scoped_order.h"

#include <algorithm>
#include <limits>
#include <string_view>

#include "util/ensure.h"
#include "util/parse.h"

namespace cbc {

ScopedOrderMember::ScopedOrderMember(Transport& transport,
                                     const GroupView& view, DeliverFn deliver,
                                     Options options)
    : ScopedOrderMember(
          std::make_unique<OSendMember>(
              transport, view, [](const Delivery&) {}, options.member),
          std::move(deliver)) {}

ScopedOrderMember::ScopedOrderMember(std::unique_ptr<BroadcastMember> member,
                                     DeliverFn deliver)
    : deliver_(std::move(deliver)), member_(std::move(member)) {
  require(static_cast<bool>(deliver_),
          "ScopedOrderMember: empty deliver callback");
  member_->set_deliver(
      [this](const Delivery& delivery) { on_delivery(delivery); });
}

std::string ScopedOrderMember::scope_tag(ScopeId scope) {
  return "@" + std::to_string(scope.opener) + "." +
         std::to_string(scope.index);
}

bool ScopedOrderMember::parse_scope(const std::string& label, ScopeId& scope,
                                    std::string& inner, bool& is_open,
                                    bool& is_close) {
  if (label.empty() || label[0] != '@') {
    return false;
  }
  const std::size_t dot = label.find('.');
  const std::size_t kind_pos = label.find('|');
  if (dot == std::string::npos || kind_pos == std::string::npos ||
      kind_pos < dot + 2) {
    return false;
  }
  // '@' labels are reserved for scopes, so a tag "@<opener>.<index>.<k>|"
  // whose numbers do not parse is a forged or corrupt frame, not plain
  // causal traffic.
  const std::string_view tag(label);
  try {
    require(tag[kind_pos - 2] == '.', "scope tag has no '.' before its kind");
    scope.opener = static_cast<NodeId>(
        parse_uint("scope opener", tag.substr(1, dot - 1), 0, kNoNode - 1));
    scope.index = parse_uint("scope index",
                             tag.substr(dot + 1, kind_pos - dot - 3), 0,
                             std::numeric_limits<std::uint64_t>::max());
  } catch (const InvalidArgument& error) {
    protocol_ensure(false, std::string("ScopedOrder: malformed scope tag: ") +
                               error.what());
  }
  const char kind = label[kind_pos - 1];
  is_open = kind == 'o';
  is_close = kind == 'c';
  inner = label.substr(kind_pos + 1);
  return true;
}

MessageId ScopedOrderMember::send_causal(std::string label,
                                         std::vector<std::uint8_t> payload,
                                         const DepSpec& deps) {
  require(label.empty() || label[0] != '@',
          "ScopedOrderMember: '@' labels are reserved for scopes");
  return member_->broadcast(std::move(label), std::move(payload), deps);
}

ScopeId ScopedOrderMember::open_scope(std::string ascendant_label,
                                      std::vector<std::uint8_t> payload) {
  const ScopeId scope{member_->id(), next_scope_++};
  member_->broadcast(scope_tag(scope) + ".o|" + ascendant_label,
                     std::move(payload), DepSpec::none());
  return scope;
}

MessageId ScopedOrderMember::send_scoped(ScopeId scope, std::string label,
                                         std::vector<std::uint8_t> payload) {
  const auto it = scopes_.find(scope);
  require(it != scopes_.end(),
          "ScopedOrderMember::send_scoped: unknown scope (ascendant not yet "
          "seen here)");
  require(!it->second.closed,
          "ScopedOrderMember::send_scoped: scope already closed");
  return member_->broadcast(scope_tag(scope) + ".m|" + label,
                            std::move(payload),
                            DepSpec::after(it->second.ascendant));
}

MessageId ScopedOrderMember::close_scope(ScopeId scope,
                                         std::string descendant_label,
                                         std::vector<std::uint8_t> payload) {
  const auto it = scopes_.find(scope);
  require(it != scopes_.end(),
          "ScopedOrderMember::close_scope: unknown scope");
  require(!it->second.closed,
          "ScopedOrderMember::close_scope: scope already closed");
  DepSpec deps = DepSpec::after_all(it->second.seen_ids);
  deps.add(it->second.ascendant);
  return member_->broadcast(scope_tag(scope) + ".c|" + descendant_label,
                            std::move(payload), deps);
}

void ScopedOrderMember::on_delivery(const Delivery& delivery) {
  ScopeId scope;
  std::string inner;
  bool is_open = false;
  bool is_close = false;
  if (!parse_scope(delivery.label(), scope, inner, is_open, is_close)) {
    deliver_(delivery);  // plain causal traffic
    return;
  }
  if (is_open) {
    ScopeState state;
    state.ascendant = delivery.id;
    scopes_.emplace(scope, std::move(state));
    Delivery ascendant = delivery;
    ascendant.override_label(inner);
    deliver_(ascendant);  // lbl_a is ordinary causal traffic to the app
    return;
  }
  const auto it = scopes_.find(scope);
  protocol_ensure(it != scopes_.end(),
                  "ScopedOrder: scoped message before its ascendant");
  ScopeState& state = it->second;
  if (is_close) {
    protocol_ensure(!state.closed, "ScopedOrder: scope closed twice");
    state.closed = true;
    // Release the held set in the deterministic merge order: identical at
    // every member for the messages the descendant covered.
    std::sort(state.held.begin(), state.held.end(),
              [](const Delivery& a, const Delivery& b) {
                if (a.label() != b.label()) return a.label() < b.label();
                return a.id < b.id;
              });
    for (Delivery& held : state.held) {
      const std::string& wire_label = held.label();
      held.override_label(wire_label.substr(wire_label.find('|') + 1));
      deliver_(held);
    }
    state.held.clear();
    Delivery closer = delivery;
    closer.override_label(inner);
    deliver_(closer);
    return;
  }
  // In-scope member message.
  if (state.closed) {
    // A straggler the closer's AND-set did not cover: total order was
    // never promised for it — release in causal (arrival) order.
    Delivery straggler = delivery;
    straggler.override_label(inner);
    deliver_(straggler);
    return;
  }
  state.seen_ids.push_back(delivery.id);
  state.held.push_back(delivery);  // label un-mangled at release
}

}  // namespace cbc
