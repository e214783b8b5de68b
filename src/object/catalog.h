// The object catalog: name -> how to build the object, its sequential
// specification, and the round-workload hooks cluster binaries and
// benches use to generate deterministic traffic.
//
// Entries are installed explicitly (apps::install_objects()) rather than
// by static initializers, which the linker is free to drop from static
// libraries. Installation is idempotent — the last entry under a name
// wins — so tests and binaries may both install freely.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "object/replicated_object.h"
#include "object/sequential_spec.h"
#include "object/value.h"
#include "util/thread_annotations.h"
#include "util/types.h"

namespace cbc::object {

struct CatalogEntry {
  std::string name;

  /// Fresh object in its initial state.
  std::function<std::unique_ptr<ReplicatedObject>()> make;

  /// Behavioural spec; derive_commutativity(spec()) is the access
  /// protocol's commutativity table.
  std::function<SequentialSpec()> spec;

  /// One commutative (C-class) workload op for member `node`, round
  /// `round`, slot `k`. Must be deterministic in its arguments so
  /// independent cluster runs agree digest-for-digest.
  std::function<Op(NodeId node, std::uint64_t round, std::uint64_t k)>
      workload_op;

  /// The sync (non-C-class) op closing each round's causal activity. It
  /// may read (the counter's `rd`) or update: an object whose C-class IS
  /// its reads (the registry: queries commute, updates close) closes
  /// rounds with an update. Either way a cluster checkpoint is captured
  /// once the replica has applied the sync, so it holds the agreed
  /// stable-point state.
  Op sync_op;
};

class Catalog {
 public:
  /// The process-wide catalog.
  static Catalog& instance();

  /// Installs (or replaces) an entry under entry.name.
  void install(CatalogEntry entry);

  /// Looks an entry up; nullopt when the name is unknown.
  [[nodiscard]] std::optional<CatalogEntry> find(
      const std::string& name) const;

  /// Installed names, sorted.
  [[nodiscard]] std::vector<std::string> names() const;

  /// Fresh Value of a named type; throws InvalidArgument when unknown.
  [[nodiscard]] Value make_value(const std::string& name) const;

 private:
  mutable Mutex mutex_{kRankLeaf, "object catalog"};
  std::map<std::string, CatalogEntry> entries_ CBC_GUARDED_BY(mutex_);
};

}  // namespace cbc::object
