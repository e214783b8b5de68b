// Always-on flight recorder — a fixed-size lock-free ring of binary
// per-envelope events that survives the process.
//
// This is the repo's one per-envelope event pipeline: it answers "what
// happened" both after a crash nobody scheduled and for a run traced on
// purpose (`cbc_node --trace` sizes the ring up and decodes it at exit).
// Every `cbc_node`/`cbc_kv` process keeps one recording continuously:
// each protocol stage (submit, encode, wire tx/rx, reliable retransmit
// and duplicate drop, causal-hold enter/exit, deliver, stable point, kv
// park/drain, fault decisions, clock-offset samples) appends one 40-byte
// record keyed by the `MessageId` the envelope codec already carries end
// to end. The ring overwrites oldest-first, so the file is always "the
// last N things this process did" at a cost of one relaxed fetch_add,
// five relaxed stores, and a vDSO clock read per event — well under the
// 5% budget the BENCH_m1 gate enforces.
//
// Two backing modes:
//  - file-backed (`Options::path`): the ring lives in a shared file
//    mapping, so the journal survives ANY death — SIGKILL included —
//    with no dump step at all. This is what the binaries run.
//  - in-memory (empty path): tests and library users; `dump(path)`
//    writes an atomic snapshot (tmp + rename, raw write(2) only — safe
//    to call from a signal handler or a FaultPlan crash point).
//
// Writers follow a per-slot seqlock: claim a ticket with one fetch_add,
// invalidate the slot's stamp, store the fields, then publish the stamp
// (ticket + 1, release). A reader (or the offline decoder looking at a
// file whose writer died mid-record) sees either a whole record or a
// stamp/ticket mismatch it can skip — never a torn record presented as
// valid. `cbc_flight` and `cbc_node --trace` decode rings into the
// Chrome trace schema of obs/trace.h, so a postmortem merges into the
// same Perfetto timeline as the survivors' traces
// (`cbc_trace_merge merged.json survivors... killed.json`).
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "graph/message_id.h"
#include "obs/trace.h"

namespace cbc::obs {

/// Protocol stage of one flight record. Values are the on-disk encoding;
/// append only.
enum class FlightEvent : std::uint8_t {
  kSubmit = 1,       ///< broadcast submitted, id assigned
  kEncode = 2,       ///< frame encoded; arg = encoded bytes
  kWireTx = 3,       ///< data frame handed to the wire; arg = peer id
  kWireRx = 4,       ///< data frame received; arg = peer id
  kHoldEnter = 5,    ///< entered the causal hold-back queue; arg = missing deps
  kHoldExit = 6,     ///< left the hold-back queue; arg = hold micros
  kDeliver = 7,      ///< delivered to the application; arg = hold micros
  kStablePoint = 8,  ///< stable point closed; arg = cycle
  kKvPark = 9,       ///< kv request parked on a context frontier; arg = session
  kKvDrain = 10,     ///< parked kv request drained; arg = wait micros
  kFault = 11,       ///< FaultPlan decision; arg = FaultKind
  kMark = 12,        ///< free-form process marker; arg caller-defined
  /// Clock-offset estimate changed; id.sender = peer, arg = signed micros.
  kClockOffset = 13,
  kRetransmit = 14,  ///< data frame re-sent; arg = peer id
  kDupDrop = 15,     ///< duplicate data frame suppressed; arg = peer id
};

/// Which FaultPlan decision fired — the `arg` of a kFault record.
enum class FaultKind : std::uint8_t {
  kDrop = 1,
  kDuplicate = 2,
  kDelay = 3,
  kReorder = 4,
  kPartitionDrop = 5,
  kCrashDrop = 6,
  kCrash = 7,  ///< scripted local crash point about to fire
};

/// Human-readable name of one event kind ("?" for values outside the
/// enum — the decoder uses that as a validity check).
[[nodiscard]] const char* flight_event_name(FlightEvent event);

/// One decoded journal entry (the in-memory, validated form).
struct FlightRecord {
  std::uint64_t ticket = 0;  ///< global claim order (monotonic per process)
  std::int64_t ts_us = 0;    ///< wall-clock micros (CLOCK_REALTIME)
  MessageId id;
  FlightEvent event = FlightEvent::kMark;
  std::uint64_t arg = 0;
};

/// The always-on journal. All methods are thread-safe; record() is
/// lock-free and signal-safe (no allocation, no locks, no syscalls
/// beyond the vDSO clock read).
class FlightRecorder {
 public:
  struct Options {
    /// Ring capacity in records. Rounded up to a power of two.
    std::size_t capacity = 1 << 14;
    /// NodeId stamped into the header (decodes as the trace pid).
    std::uint32_t node_id = 0;
    /// Role tag for the decoded process label: 0 = cbc_node, 1 = cbc_kv.
    std::uint32_t role = 0;
    /// When non-empty, the ring lives in a shared mapping of this file
    /// and survives SIGKILL; when empty, the ring is heap memory and
    /// only dump() persists it.
    std::string path;
    /// Target of the no-argument dump() for in-memory rings (the
    /// crash-signal / SIGUSR2 / invariant-violation triggers).
    /// File-backed rings ignore it — the mapping IS the dump.
    std::string dump_path;
  };

  /// Throws InvalidArgument when a file backing cannot be created.
  explicit FlightRecorder(Options options);
  ~FlightRecorder();
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Appends one record. Never blocks, never fails; overwrites the
  /// oldest record when the ring is full.
  void record(FlightEvent event, const MessageId& id, std::uint64_t arg = 0);

  /// Total records ever claimed (>= capacity() means the ring wrapped).
  [[nodiscard]] std::uint64_t total_recorded() const;
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] bool file_backed() const { return mapped_file_; }
  [[nodiscard]] const Options& options() const { return options_; }

  /// Persists the journal. File-backed rings flush the mapping (the
  /// data already survives without this); in-memory rings write an
  /// atomic snapshot to `path` (tmp + rename). Signal-safe: raw
  /// open/write/rename only, no allocation. Returns false on I/O error.
  bool dump(const char* path) const;
  /// dump() to Options::dump_path (false when neither backing file nor
  /// dump_path exists to persist into).
  bool dump() const { return dump(options_.dump_path.c_str()); }

  /// Serializes header + slots into a byte vector for decoding a live
  /// ring (`cbc_node --trace` at exit, tests). NOT signal-safe.
  [[nodiscard]] std::vector<std::uint8_t> snapshot_bytes() const;

 private:
  Options options_;
  std::size_t capacity_ = 0;    // power of two
  std::size_t region_size_ = 0; // header + slots, bytes
  unsigned char* base_ = nullptr;
  bool mapped_file_ = false;
};

/// Process-wide recorder used by the `flight_record` fast path below.
/// Not owned; install nullptr to detach before destroying the recorder.
[[nodiscard]] FlightRecorder* flight_recorder();
void install_flight_recorder(FlightRecorder* recorder);

/// The one call instrumented sites make. Cost with no recorder
/// installed: a relaxed pointer load and a branch.
inline void flight_record(FlightEvent event, const MessageId& id,
                          std::uint64_t arg = 0) {
  if (FlightRecorder* recorder = flight_recorder()) {
    recorder->record(event, id, arg);
  }
}

/// A decoded dump: header fields plus the surviving records in claim
/// order. `torn` counts slots skipped for stamp/ticket mismatch or an
/// out-of-range event byte (a writer died mid-record, or fuzz damage).
struct FlightDump {
  std::uint32_t node_id = 0;
  std::uint32_t role = 0;
  std::uint64_t capacity = 0;
  std::uint64_t total_recorded = 0;
  std::int64_t wall_anchor_us = 0;
  std::size_t torn = 0;
  std::vector<FlightRecord> records;
};

/// Decodes a dump image (file contents). Throws InvalidArgument on
/// structural corruption (bad magic/version, absurd capacity,
/// truncation); per-record damage is skipped and counted in `torn`.
[[nodiscard]] FlightDump decode_flight_dump(
    std::span<const std::uint8_t> bytes);

/// Declared dependencies (DepSpec ids) per delivered message — e.g. the
/// `(id, deps)` pairs a `--record-history` apply observer captures.
using DepsById = std::unordered_map<MessageId, std::vector<MessageId>>;

/// Renders a decoded dump as Chrome trace events in the schema of
/// obs/trace.h, in claim order:
///  - one instant per stage (`clock_offset` samples as `cat:"clock"`
///    instants carrying `peer`/`offset_us`, the input of --align);
///  - per delivery a `deliver` complete event whose duration is the
///    causal hold time, closing the message's `msg` flow, which its
///    `submit` record opened;
///  - one `Occurs_After` flow edge per entry of `deps[id]` whose own
///    deliver is in the ring, from that deliver to this one.
[[nodiscard]] std::vector<TraceEvent> flight_to_trace_events(
    const FlightDump& dump, const DepsById& deps = {});

}  // namespace cbc::obs
