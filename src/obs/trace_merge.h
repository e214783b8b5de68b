// Stitches the per-process Chrome trace files written by ClusterHarness
// nodes into one cross-process timeline. Each node writes
// `{"traceEvents":[...]}` with wall-clock timestamps and pid = its
// NodeId, so merging is validation + concatenation — the flow events
// (`ph:"s"`/`ph:"f"` with matching cat+id) become cross-process arrows
// once the events share one file.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/json_lite.h"

namespace cbc::obs {

/// What a merged (or single) trace contains — for test assertions and
/// the CI smoke gate.
struct TraceSummary {
  std::size_t events = 0;
  /// pid -> number of `deliver` complete events on that process row.
  std::map<std::uint32_t, std::size_t> deliver_events;
  /// Matched Occurs_After flow edges (a start and an end sharing an id
  /// in the `occurs_after` category).
  std::size_t occurs_after_flows = 0;
  /// Matched per-message submit→deliver flows (`msg` category).
  std::size_t message_flows = 0;
  /// Flow starts/ends whose partner is missing.
  std::size_t unmatched_flows = 0;
};

/// Parses one Chrome trace-event JSON document and validates the
/// required fields on every event. Throws InvalidArgument on malformed
/// input.
[[nodiscard]] JsonValue parse_chrome_trace(const std::string& text);

/// Counts deliver spans per pid and Occurs_After flow pairs in a parsed
/// trace document.
[[nodiscard]] TraceSummary summarize_chrome_trace(const JsonValue& doc);

/// Reads and validates per-node trace files. Throws InvalidArgument if
/// any input fails to load or parse.
[[nodiscard]] std::vector<JsonValue> load_trace_files(
    const std::vector<std::string>& paths);

/// Per-pid clock correction in micros to ADD to that pid's timestamps,
/// derived from the `clock_offset` instants (cat "clock") decoded from
/// the reliable endpoints' kClockOffset flight records: each instant on
/// pid A reporting peer B carries
/// offset_us = (B's wall clock − A's wall clock). The lowest pid of
/// each connected component anchors it at correction 0; the rest follow
/// by BFS over the latest sample per pair. Pids with no clock data get
/// correction 0.
[[nodiscard]] std::map<std::uint32_t, double> clock_corrections(
    const std::vector<JsonValue>& docs);

struct MergeOptions {
  /// Shift every event's ts by its pid's clock correction before
  /// sorting, putting all processes on one estimated wall clock.
  bool align = false;
};

/// Merges parsed per-node trace documents into one sorted document.
[[nodiscard]] std::string merge_trace_docs(const std::vector<JsonValue>& docs,
                                           const MergeOptions& options = {});

/// Reads, validates, and merges per-node trace files into one document;
/// events are sorted by timestamp. Throws InvalidArgument if any input
/// fails to load or parse.
[[nodiscard]] std::string merge_trace_files(
    const std::vector<std::string>& paths, const MergeOptions& options = {});

/// Bucket-free percentile summary of one latency component (exact, from
/// the individual samples in the trace).
struct LatencyStat {
  std::size_t count = 0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
};

/// End-to-end latency decomposition of a (merged) timeline, computed
/// from decoded flight records: stage instants, deliver spans, and kv
/// records.
/// Cross-node deltas (wire, deliver) are clock-corrected via
/// clock_corrections(), so they are meaningful even when node clocks
/// disagree by more than the latencies being measured.
struct LatencyReport {
  LatencyStat encode;   ///< submit -> encode (serialization cost)
  LatencyStat wire;     ///< wire_tx at sender -> wire_rx at receiver
  LatencyStat hold;     ///< causal hold-back time per delivery
  LatencyStat deliver;  ///< submit at sender -> deliver at receiver
  LatencyStat kv_wait;  ///< kv context-wait time per drained request
  /// Hold time grouped by the message's *sender* — which peer's traffic
  /// stalls the causal layer.
  std::map<std::uint32_t, LatencyStat> hold_by_sender;
  /// kv context wait grouped by the serving process (per shard replica).
  std::map<std::uint32_t, LatencyStat> kv_wait_by_pid;
};

/// Computes the decomposition across all input docs (alignment is
/// applied internally; pass the same docs whether or not the merged
/// output was aligned).
[[nodiscard]] LatencyReport latency_report(const std::vector<JsonValue>& docs);

/// Human-readable rendering (one component per line).
[[nodiscard]] std::string render_latency_report(const LatencyReport& report);

/// Machine-readable rendering (one JSON object; CI gates).
[[nodiscard]] std::string latency_report_json(const LatencyReport& report);

}  // namespace cbc::obs
