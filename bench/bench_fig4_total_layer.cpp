// F4 — Figure 4: "Functional layer for total ordering of messages and
// application-specific protocols".
//
// The same spontaneously generated messages are delivered (a) straight
// off the causal layer (no ordering constraints — arrival order) and
// (b) through the ASend total-ordering function interposed between the
// causal-broadcast and application layers. Under (a) member sequences
// diverge; under (b) every member sees the identical sequence.
#include <set>

#include "bench_common.h"
#include "causal/osend.h"
#include "common/group_fixture.h"
#include "total/asend.h"
#include "util/rng.h"

namespace cbc {
namespace {

using benchkit::Table;
using testkit::Group;
using testkit::SimEnv;

template <typename MemberT>
std::size_t distinct_sequences(const SimEnv::Config& config, std::size_t n,
                               int messages) {
  SimEnv env(config);
  Group<MemberT> group(env.transport, n);
  Rng rng(config.seed * 13 + 1);
  for (int k = 0; k < messages; ++k) {
    group[rng.next_below(n)].broadcast("spont#" + std::to_string(k), {},
                                       DepSpec::none());
    env.run_until(env.scheduler.now() +
                  static_cast<SimTime>(rng.next_below(1500)));
  }
  env.run();
  std::set<std::string> sequences;
  for (std::size_t i = 0; i < n; ++i) {
    std::string seq;
    for (const Delivery& delivery : group.log(i)) {
      seq += delivery.label() + ";";
    }
    sequences.insert(seq);
  }
  return sequences.size();
}

int run() {
  benchkit::banner("F4",
                   "Figure 4 — total-ordering layer between causal "
                   "broadcast and the application");
  Table table({"seed", "distinct_seqs_causal", "distinct_seqs_asend"});
  const int seeds = 10;
  std::size_t causal_diverged = 0;
  bool asend_always_one = true;
  for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
    SimEnv::Config config;
    config.jitter_us = 4000;
    config.seed = seed;
    const std::size_t causal = distinct_sequences<OSendMember>(config, 4, 20);
    const std::size_t asend = distinct_sequences<ASendMember>(config, 4, 20);
    causal_diverged += causal > 1 ? 1 : 0;
    asend_always_one = asend_always_one && asend == 1;
    table.row({benchkit::num(seed), benchkit::num(static_cast<std::uint64_t>(causal)),
               benchkit::num(static_cast<std::uint64_t>(asend))});
  }
  table.print();
  benchkit::claim(
      "a function interposed between the causal broadcast and application "
      "layers imposes an arbitrary delivery order on spontaneous messages "
      "and enforces it identically at all members (§5.2, eq. 5)");
  benchkit::measured(
      "raw causal delivery diverged in " + std::to_string(causal_diverged) +
      "/" + std::to_string(seeds) + " seeds; ASend produced exactly one "
      "sequence in every seed: " + (asend_always_one ? "yes" : "NO"));
  return asend_always_one ? 0 : 1;
}

}  // namespace
}  // namespace cbc

int main() { return cbc::run(); }
