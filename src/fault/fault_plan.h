// Seeded, declarative fault-injection plans.
//
// A FaultPlan is the single description of the adversity a run must
// survive: per-link loss/duplication/delay/reorder rates, scripted
// network partitions with heal times, and scheduled crash points. The
// same plan text drives both the in-process deterministic simulator (a
// ChaosTransport over SimTransport, whose network only delays frames;
// tests set testkit::SimEnv::Config::fault_plan) and the multi-process
// cluster (`cbc_node --fault-plan`), so a schedule that breaks the
// checker in simulation is the same schedule the real cluster is
// hammered with — the paper's reproducibility emphasis applied to the
// faults themselves, not just the protocol.
//
// Plan text format (one directive per line, '#' comments):
//
//     seed <u64>
//     link <from|*> <to|*> [drop <p>] [dup <p>] [delay <min_us> <max_us>]
//                          [reorder <p>]
//     partition <start_us> <duration_us> <ids>|<ids>[|<ids>...]
//     crash <node> <at_us>
//
// Link rules match most-specific-first (exact pair, then `from *`, then
// `* to`, then `* *`); probabilities are in [0,1]. Every number is a
// whole token (util/parse.h): no sign, suffix or NaN. A partition drops
// every frame crossing between its groups during [start, start+duration);
// nodes absent from every group are unaffected. It decides at send time,
// so a frame already in flight when the window opens is delivered. A
// crash point silences a node (all frames to/from it dropped) from
// `at_us` on — and, when the plan is installed on that node's own
// ChaosTransport, fires the `on_crash` hook so the process can die for
// real.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "transport/transport.h"

namespace cbc::fault {

/// Per-link fault rates. Wildcards are encoded out-of-band (LinkPattern);
/// a rule with all-zero rates is a valid "quiet" override.
struct LinkRule {
  double drop = 0.0;       ///< P(frame silently lost)
  double duplicate = 0.0;  ///< P(frame delivered twice)
  double reorder = 0.0;    ///< P(frame gets an extra overtaking delay)
  SimTime delay_min_us = 0;  ///< uniform added latency, lower bound
  SimTime delay_max_us = 0;  ///< uniform added latency, upper bound

  [[nodiscard]] bool quiet() const {
    return drop == 0.0 && duplicate == 0.0 && reorder == 0.0 &&
           delay_max_us == 0;
  }
};

/// A scripted split: frames crossing between two different groups during
/// [start_us, start_us + duration_us) are dropped; the network heals
/// itself when the window closes.
struct Partition {
  SimTime start_us = 0;
  SimTime duration_us = 0;
  std::vector<std::vector<NodeId>> groups;

  [[nodiscard]] bool active_at(SimTime now_us) const {
    return now_us >= start_us && now_us - start_us < duration_us;
  }
  /// True when `from` and `to` sit in different groups of this partition.
  [[nodiscard]] bool separates(NodeId from, NodeId to) const;
};

/// A scheduled process death: the node falls silent at `at_us`.
struct CrashPoint {
  NodeId node = 0;
  SimTime at_us = 0;
};

/// Parsed, immutable fault plan. Value type — copy freely.
class FaultPlan {
 public:
  /// Empty plan: no faults, seed 1.
  FaultPlan() = default;

  /// Loads a plan file; throws InvalidArgument on unreadable/invalid input.
  static FaultPlan load(const std::string& path);
  /// Parses plan text; throws InvalidArgument with a line number on error.
  static FaultPlan parse(std::string_view text);

  [[nodiscard]] std::uint64_t seed() const { return seed_; }

  /// Most-specific rule for a directed link, or nullptr when no rule
  /// matches (equivalent to a quiet link).
  [[nodiscard]] const LinkRule* rule_for(NodeId from, NodeId to) const;

  /// True when any scripted partition separates `from` and `to` at `now`.
  [[nodiscard]] bool partitioned(NodeId from, NodeId to,
                                 SimTime now_us) const;

  /// The node's scripted crash time, if any.
  [[nodiscard]] std::optional<SimTime> crash_time(NodeId node) const;

  [[nodiscard]] const std::vector<Partition>& partitions() const {
    return partitions_;
  }
  [[nodiscard]] const std::vector<CrashPoint>& crashes() const {
    return crashes_;
  }

  /// True when the plan injects nothing at all.
  [[nodiscard]] bool empty() const {
    return rules_.empty() && partitions_.empty() && crashes_.empty();
  }

 private:
  struct LinkPattern {
    bool from_any = false;
    bool to_any = false;
    NodeId from = 0;
    NodeId to = 0;
    LinkRule rule;

    [[nodiscard]] bool matches(NodeId f, NodeId t) const {
      return (from_any || from == f) && (to_any || to == t);
    }
    /// Lower is more specific: exact=0, from-wild... see rule_for.
    [[nodiscard]] int wildcards() const {
      return (from_any ? 1 : 0) + (to_any ? 2 : 0);
    }
  };

  std::uint64_t seed_ = 1;
  std::vector<LinkPattern> rules_;
  std::vector<Partition> partitions_;
  std::vector<CrashPoint> crashes_;
};

}  // namespace cbc::fault
