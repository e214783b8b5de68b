// Spec-defined replicated objects (§5.2's "arbitrary shared data" and
// PAPERS.md: extending causal consistency to any object defined by a
// sequential specification).
//
// The paper's replica protocol (§6.1) is object-agnostic: any state
// machine can ride the causal discipline provided the access protocol
// knows which operation pairs commute. A ReplicatedObject packages that
// contract — op set, transition function, serialized state — behind one
// interface, so replicas, checkpoints, state transfer, and the offline
// history checker handle "the object" without knowing which one. The
// commutativity relation is NOT hand-labelled: it is derived by probing
// op pairs against the object's own sequential specification
// (object/sequential_spec.h).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/serde.h"

namespace cbc::object {

/// One operation as a client submits it: the kind (the label prefix the
/// front-end manager classifies by) plus serde-encoded arguments. The
/// per-app Op builders in src/apps all produce this type.
struct Op {
  std::string kind;
  std::vector<std::uint8_t> args;
};

/// The universal inert marker every replicated object understands: kind
/// "nop", args = one u64 tag. Cluster workloads use it for in-band round/
/// departure/admission markers (src/net/node_main.cpp): being commutative
/// it joins the open causal cycle, being inert it cannot perturb the
/// object.
[[nodiscard]] Op nop(std::uint64_t tag);

/// FNV-1a 64-bit over a byte span — the content digest of read-your-state
/// responses (e.g. Document::publish) and of kv keys and fences.
[[nodiscard]] std::uint64_t fnv1a64(std::span<const std::uint8_t> bytes);

/// Abstract replicated state machine. Implementations must be
/// deterministic: apply() depends only on the current state and the
/// operation — that determinism is what lets every member reach the same
/// state from the same causal order, and what lets the sequential spec be
/// probed for commutativity.
class ReplicatedObject {
 public:
  virtual ~ReplicatedObject() = default;

  /// The catalog name of this object's type ("counter", "set", ...).
  [[nodiscard]] virtual std::string type_name() const = 0;

  /// Applies one operation and returns its *response*: empty for pure
  /// updates, the observed value for reads. The response is part of the
  /// sequential specification — two ops commute only when swapping them
  /// changes neither the final state nor either response.
  virtual std::vector<std::uint8_t> apply(std::string_view kind,
                                          Reader& args) = 0;

  /// Snapshot serialization (checkpointing / recovery state transfer).
  virtual void encode(Writer& writer) const = 0;

  /// Replaces this object's state with a decoded snapshot.
  virtual void restore(Reader& reader) = 0;

  [[nodiscard]] virtual std::unique_ptr<ReplicatedObject> clone() const = 0;

  /// Semantic state equality (replica agreement checks).
  [[nodiscard]] virtual bool equals(const ReplicatedObject& other) const = 0;

  [[nodiscard]] virtual std::string to_string() const = 0;
};

}  // namespace cbc::object
