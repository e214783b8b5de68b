// Chrome trace-event JSON (loadable in Perfetto / chrome://tracing) — the
// one serializer behind every trace file this repo writes.
//
// The paper's explicit Occurs_After DAG is exactly the causality metadata
// distributed tracers normally have to reconstruct; here it is carried on
// every envelope already (the MessageId and DepSpec), so tracing needs no
// wire-format change and no second event store: the flight recorder
// (obs/flight_recorder.h) journals every stage keyed by MessageId, and
// flight_to_trace_events() turns a decoded ring into these events —
// per-stage instants, `deliver` spans whose duration is the causal hold
// time, the `msg` submit→deliver flow, and one `Occurs_After` flow edge
// per declared dependency.
//
// Timestamps are wall-clock microseconds (CLOCK_REALTIME), NOT the
// transport clock, so per-process trace files from one cluster run merge
// into a single timeline (obs/trace_merge.h); the `pid` field is the
// member's NodeId.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "graph/message_id.h"

namespace cbc::obs {

/// One Chrome trace event. `args_json` is a pre-rendered fragment of
/// `"key":value` pairs (no surrounding braces).
struct TraceEvent {
  std::string name;
  std::string cat;
  char ph = 'i';             ///< i / X / s / f / M
  std::int64_t ts_us = 0;    ///< wall-clock micros
  std::int64_t dur_us = 0;   ///< ph == 'X' only
  std::uint32_t pid = 0;
  std::uint64_t flow_id = 0; ///< ph == 's' / 'f' only
  std::string args_json;
};

/// Wall-clock microseconds (CLOCK_REALTIME) — shared across processes.
[[nodiscard]] std::int64_t wall_now_us();

/// Escapes a string for inclusion inside a JSON string literal.
[[nodiscard]] std::string json_escape(std::string_view text);

/// Renders a list of events as one `{"traceEvents":[...]}` document (one
/// event per line).
[[nodiscard]] std::string render_trace_events(
    const std::vector<TraceEvent>& events);

/// Stable flow id of one message (its hash).
[[nodiscard]] inline std::uint64_t flow_id(const MessageId& id) {
  return std::hash<MessageId>{}(id);
}

/// Flow id of one Occurs_After edge dep -> dependent.
[[nodiscard]] inline std::uint64_t edge_flow_id(const MessageId& dep,
                                                const MessageId& dependent) {
  return flow_id(dep) * 0x9E3779B97F4A7C15ULL ^ flow_id(dependent);
}

}  // namespace cbc::obs
