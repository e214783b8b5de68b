#include "fault/fault_plan.h"

#include <algorithm>
#include <fstream>
#include <limits>
#include <sstream>

#include "util/ensure.h"
#include "util/parse.h"

namespace cbc::fault {

namespace {

[[noreturn]] void fail(std::size_t line_no, const std::string& what) {
  throw InvalidArgument("FaultPlan: line " + std::to_string(line_no) + ": " +
                        what);
}

/// The largest node id a plan may name (kNoNode means "no node").
constexpr std::uint64_t kMaxNode = kNoNode - 1;
constexpr auto kMaxTime =
    static_cast<std::uint64_t>(std::numeric_limits<SimTime>::max());

double probability(const std::string& token, std::size_t line_no,
                   const char* what) {
  try {
    return parse_probability(what, token);
  } catch (const InvalidArgument& error) {
    fail(line_no, error.what());
  }
}

std::uint64_t whole(const std::string& token, std::size_t line_no,
                    const char* what, std::uint64_t max) {
  try {
    return parse_uint(what, token, 0, max);
  } catch (const InvalidArgument& error) {
    fail(line_no, error.what());
  }
}

NodeId node_id(const std::string& token, std::size_t line_no,
               const char* what) {
  return static_cast<NodeId>(whole(token, line_no, what, kMaxNode));
}

SimTime time_us(const std::string& token, std::size_t line_no,
                const char* what) {
  return static_cast<SimTime>(whole(token, line_no, what, kMaxTime));
}

/// Splits "0,1|2" into {{0,1},{2}}.
std::vector<std::vector<NodeId>> parse_groups(const std::string& token,
                                              std::size_t line_no) {
  std::vector<std::vector<NodeId>> groups;
  std::istringstream group_stream(token);
  std::string group;
  while (std::getline(group_stream, group, '|')) {
    std::vector<NodeId> ids;
    std::istringstream id_stream(group);
    std::string id;
    while (std::getline(id_stream, id, ',')) {
      if (id.empty()) {
        fail(line_no, "empty node id in partition groups '" + token + "'");
      }
      ids.push_back(node_id(id, line_no, "partition node id"));
    }
    if (ids.empty()) {
      fail(line_no, "empty group in partition groups '" + token + "'");
    }
    groups.push_back(std::move(ids));
  }
  if (groups.size() < 2) {
    fail(line_no, "partition needs at least two '|'-separated groups");
  }
  return groups;
}

}  // namespace

bool Partition::separates(NodeId from, NodeId to) const {
  const auto group_of = [&](NodeId node) -> int {
    for (std::size_t g = 0; g < groups.size(); ++g) {
      if (std::find(groups[g].begin(), groups[g].end(), node) !=
          groups[g].end()) {
        return static_cast<int>(g);
      }
    }
    return -1;  // unlisted nodes are unaffected
  };
  const int gf = group_of(from);
  const int gt = group_of(to);
  return gf >= 0 && gt >= 0 && gf != gt;
}

FaultPlan FaultPlan::load(const std::string& path) {
  std::ifstream in(path);
  require(in.good(), "FaultPlan: cannot read '" + path + "'");
  std::ostringstream text;
  text << in.rdbuf();
  return parse(text.str());
}

FaultPlan FaultPlan::parse(std::string_view text) {
  FaultPlan plan;
  std::istringstream lines{std::string(text)};
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(lines, line)) {
    line_no += 1;
    const std::size_t start = line.find_first_not_of(" \t\r");
    if (start == std::string::npos || line[start] == '#') {
      continue;
    }
    std::istringstream fields(line);
    std::string directive;
    fields >> directive;
    if (directive == "seed") {
      std::string value;
      if (!(fields >> value)) {
        fail(line_no, "expected 'seed <u64>'");
      }
      plan.seed_ = whole(value, line_no, "seed",
                         std::numeric_limits<std::uint64_t>::max());
    } else if (directive == "link") {
      std::string from_token;
      std::string to_token;
      if (!(fields >> from_token >> to_token)) {
        fail(line_no, "expected 'link <from|*> <to|*> ...'");
      }
      LinkPattern pattern;
      if (from_token == "*") {
        pattern.from_any = true;
      } else {
        pattern.from = node_id(from_token, line_no, "link endpoint");
      }
      if (to_token == "*") {
        pattern.to_any = true;
      } else {
        pattern.to = node_id(to_token, line_no, "link endpoint");
      }
      std::string knob;
      while (fields >> knob) {
        std::string value;
        if (!(fields >> value)) {
          fail(line_no, "'" + knob + "' is missing its value");
        }
        if (knob == "drop") {
          pattern.rule.drop = probability(value, line_no, "drop");
        } else if (knob == "dup") {
          pattern.rule.duplicate = probability(value, line_no, "dup");
        } else if (knob == "reorder") {
          pattern.rule.reorder = probability(value, line_no, "reorder");
        } else if (knob == "delay") {
          std::string max_value;
          if (!(fields >> max_value)) {
            fail(line_no, "expected 'delay <min_us> <max_us>'");
          }
          pattern.rule.delay_min_us = time_us(value, line_no, "delay minimum");
          pattern.rule.delay_max_us =
              time_us(max_value, line_no, "delay maximum");
          if (pattern.rule.delay_min_us > pattern.rule.delay_max_us) {
            fail(line_no, "delay minimum exceeds maximum");
          }
        } else {
          fail(line_no, "unknown link knob '" + knob + "'");
        }
      }
      plan.rules_.push_back(std::move(pattern));
    } else if (directive == "partition") {
      std::string start_token;
      std::string duration_token;
      std::string groups_token;
      std::string extra;
      if (!(fields >> start_token >> duration_token >> groups_token) ||
          (fields >> extra)) {
        fail(line_no, "expected 'partition <start_us> <duration_us> <groups>'");
      }
      Partition partition;
      partition.start_us = time_us(start_token, line_no, "partition start");
      partition.duration_us =
          time_us(duration_token, line_no, "partition duration");
      partition.groups = parse_groups(groups_token, line_no);
      plan.partitions_.push_back(std::move(partition));
    } else if (directive == "crash") {
      std::string node_token;
      std::string at_token;
      std::string extra;
      if (!(fields >> node_token >> at_token) || (fields >> extra)) {
        fail(line_no, "expected 'crash <node> <at_us>'");
      }
      CrashPoint crash;
      crash.node = node_id(node_token, line_no, "crash node");
      crash.at_us = time_us(at_token, line_no, "crash time");
      plan.crashes_.push_back(crash);
    } else {
      fail(line_no, "unknown directive '" + directive + "'");
    }
  }
  return plan;
}

const LinkRule* FaultPlan::rule_for(NodeId from, NodeId to) const {
  const LinkPattern* best = nullptr;
  for (const LinkPattern& pattern : rules_) {
    if (!pattern.matches(from, to)) {
      continue;
    }
    if (best == nullptr || pattern.wildcards() < best->wildcards()) {
      best = &pattern;
    }
  }
  return best == nullptr ? nullptr : &best->rule;
}

bool FaultPlan::partitioned(NodeId from, NodeId to, SimTime now_us) const {
  for (const Partition& partition : partitions_) {
    if (partition.active_at(now_us) && partition.separates(from, to)) {
      return true;
    }
  }
  return false;
}

std::optional<SimTime> FaultPlan::crash_time(NodeId node) const {
  for (const CrashPoint& crash : crashes_) {
    if (crash.node == node) {
      return crash.at_us;
    }
  }
  return std::nullopt;
}

}  // namespace cbc::fault
