// cbc_check — offline causal-consistency oracle over recorded histories.
//
//   cbc_check [--object NAME] history0.bin history1.bin ...
//   cbc_check --kv-replicas R [--site-local KIND]... history...
//
// Loads one SiteHistory per file (written by cbc_node --record-history),
// resolves the object's sequential spec from the catalog, and verifies
// CC / CM / CCv (see history_checker.h). Exit 0 when every property
// holds, 1 on any violation, 2 on usage/load errors.
//
// --kv-replicas R enables the sharded-service merge: each input file is
// one (shard, rank) replica of a cbc_kv deployment, its `site` already
// shard-qualified (site = shard * R + rank). Files are grouped by rank
// and concatenated across shards in shard order into one merged site
// history per rank. Sound because cbc_kv asserts NO cross-shard causal
// edges (§5.2 — context crosses shards only by enlarging same-shard
// frontiers), so any fixed interleaving of the shard histories
// linearizes the merged causal order, and using the SAME shard order at
// every rank makes cross-shard concurrent non-commuting pairs uniformly
// arbitrated by construction. A causally-stale served read still fails
// CC: its carried same-shard context deps would follow it in its own
// site order.
//
// --site-local KIND (repeatable; cbc_kv passes `get`) marks kinds that
// are recorded only at the site that served them, exempting them from
// CCv's same-operation-set requirement.
#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "apps/install.h"
#include "check/history.h"
#include "check/history_checker.h"
#include "object/catalog.h"
#include "object/sequential_spec.h"
#include "util/ensure.h"
#include "util/parse.h"

namespace {

void usage() {
  std::cerr << "usage: cbc_check [--object NAME] [--kv-replicas R]\n"
               "                 [--site-local KIND]... HISTORY_FILE...\n";
}

/// Groups per-(shard, rank) kv histories by rank and concatenates each
/// group across shards in shard order (site = shard * replicas + rank).
std::vector<cbc::check::SiteHistory> merge_kv_sites(
    std::vector<cbc::check::SiteHistory> sites, std::uint64_t replicas) {
  std::sort(sites.begin(), sites.end(),
            [](const cbc::check::SiteHistory& a,
               const cbc::check::SiteHistory& b) { return a.site < b.site; });
  std::vector<cbc::check::SiteHistory> merged;
  for (cbc::check::SiteHistory& site : sites) {
    const cbc::NodeId rank = site.site % static_cast<cbc::NodeId>(replicas);
    auto it = std::find_if(merged.begin(), merged.end(),
                           [rank](const cbc::check::SiteHistory& m) {
                             return m.site == rank;
                           });
    if (it == merged.end()) {
      cbc::check::SiteHistory fresh;
      fresh.object = site.object;
      fresh.site = rank;
      merged.push_back(std::move(fresh));
      it = merged.end() - 1;
    }
    // Sites are sorted by shard-qualified id, so within one rank the
    // shards append in shard order — identical at every rank.
    it->ops.insert(it->ops.end(),
                   std::make_move_iterator(site.ops.begin()),
                   std::make_move_iterator(site.ops.end()));
  }
  return merged;
}

}  // namespace

int main(int argc, char** argv) {
  std::string object;
  std::vector<std::string> paths;
  std::uint64_t kv_replicas = 0;
  cbc::check::HistoryChecker::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--object") {
      if (i + 1 >= argc) {
        std::cerr << "cbc_check: --object needs a value\n";
        return 2;
      }
      object = argv[++i];
    } else if (arg == "--kv-replicas") {
      if (i + 1 >= argc) {
        std::cerr << "cbc_check: --kv-replicas needs a value\n";
        return 2;
      }
      try {
        kv_replicas = cbc::parse_uint(arg, argv[++i], 1, cbc::kNoNode);
      } catch (const cbc::InvalidArgument& error) {
        std::cerr << "cbc_check: " << error.what() << "\n";
        usage();
        return 2;
      }
    } else if (arg == "--site-local") {
      if (i + 1 >= argc) {
        std::cerr << "cbc_check: --site-local needs a value\n";
        return 2;
      }
      options.site_local_kinds.emplace_back(argv[++i]);
    } else if (arg == "--help" || arg == "-h") {
      usage();
      return 2;
    } else {
      paths.push_back(arg);
    }
  }
  if (paths.empty()) {
    usage();
    return 2;
  }

  try {
    cbc::apps::install_objects();
    std::vector<cbc::check::SiteHistory> sites;
    sites.reserve(paths.size());
    for (const std::string& path : paths) {
      sites.push_back(cbc::check::SiteHistory::load(path));
      if (object.empty()) {
        object = sites.back().object;
      }
      if (sites.back().object != object) {
        std::cerr << "cbc_check: " << path << " records object '"
                  << sites.back().object << "', expected '" << object
                  << "'\n";
        return 2;
      }
    }
    if (kv_replicas != 0) {
      sites = merge_kv_sites(std::move(sites), kv_replicas);
    }
    const auto entry = cbc::object::Catalog::instance().find(object);
    if (!entry.has_value()) {
      std::cerr << "cbc_check: unknown object '" << object << "'\n";
      return 2;
    }
    const cbc::object::SequentialSpec spec = entry->spec();
    const cbc::check::HistoryChecker checker(
        spec, cbc::object::derive_commutativity(spec), options);
    const cbc::check::HistoryChecker::Result result = checker.check(sites);
    std::cout << "object=" << object << " sites=" << sites.size() << " "
              << result.summary() << "\n";
    for (const std::string& violation : result.violations) {
      std::cout << "  " << violation << "\n";
    }
    return result.ok() ? 0 : 1;
  } catch (const std::exception& error) {
    std::cerr << "cbc_check: fatal: " << error.what() << "\n";
    return 2;
  }
}
