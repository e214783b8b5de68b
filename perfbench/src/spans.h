// Span recording for the traced run, plus allocation attribution.
//
// The traced run wraps the calls into each layer (transport decorators,
// ProtocolLayer decorators, timed wrappers around submit/handle/exchange)
// in spans. A span's self time is its duration minus the time covered by
// the spans opened inside it on the same thread, so nesting the wrappers
// bottom-up attributes every nanosecond to exactly one layer.
//
// Totals are aggregated online per span kind and per tenth of each
// episode's timed rounds (the history-slope signal); a bounded prefix of
// the individual spans is kept in memory and written out at exit.
//
// Allocation attribution: the benchmark binary replaces global operator
// new (spans.cpp), which charges each allocation to the layer of the
// innermost span open on the allocating thread.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "graph/message_id.h"

namespace perfbench {

enum class Layer : std::uint8_t {
  kNone = 0,
  kNet,
  kTransport,
  kCausal,
  kCheck,
  kReplica,
  kKv,
  kCount,
};

enum class SpanKind : std::uint8_t {
  kNetSend = 0,        ///< inner transport send (sendto, or sim + chaos)
  kTransportUnbatch,   ///< batching receive handler for one datagram
  kTransportSend,      ///< BatchingTransport::send for one frame
  kCausalRecv,         ///< reliable + OSend receive path for one frame
  kCausalBroadcast,    ///< OSendMember::broadcast
  kCheckDeliver,       ///< InvariantChecker on one delivery
  kReplicaApply,       ///< delivery tap + ReplicaNode apply
  kReplicaSubmit,      ///< ReplicaNode::submit (front end)
  kKvHandle,           ///< KvService::handle for one request
  kKvDrain,            ///< KvService::on_delivery (parked-request drain)
  kKvClient,           ///< one KvSession request on the driver thread
  kCount,
};

inline constexpr std::size_t kLayerCount = static_cast<std::size_t>(Layer::kCount);
inline constexpr std::size_t kSpanKindCount =
    static_cast<std::size_t>(SpanKind::kCount);
inline constexpr std::size_t kDeciles = 10;

[[nodiscard]] const char* layer_name(Layer layer);
[[nodiscard]] const char* span_name(SpanKind kind);
[[nodiscard]] Layer layer_of(SpanKind kind);

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One kept span. `parent` indexes the kept-span vector (kNoParent at top
/// level or when the parent fell outside the kept prefix).
struct SpanRecord {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t self_ns = 0;
  std::uint32_t parent = 0;
  cbc::MessageId id;
  SpanKind kind = SpanKind::kNetSend;
};

/// Aggregates of one span kind.
struct SpanTotals {
  std::uint64_t count = 0;
  std::int64_t self_ns = 0;
  std::array<std::uint64_t, kDeciles> decile_count{};
  std::array<std::int64_t, kDeciles> decile_self_ns{};

  [[nodiscard]] double mean_self_ns() const {
    return count == 0 ? 0.0 : static_cast<double>(self_ns) /
                                  static_cast<double>(count);
  }
  /// Mean self time in the last tenth over the first tenth (0 when either
  /// tenth saw no span).
  [[nodiscard]] double growth() const;
};

/// Span sink. open()/close() nest per thread; totals and the kept prefix
/// are shared between threads under one mutex.
class SpanRecorder {
 public:
  static constexpr std::uint32_t kNoParent = UINT32_MAX;

  explicit SpanRecorder(std::size_t keep_limit);

  /// Spans are recorded only while active (the timed rounds of traced
  /// episodes); spans opened while inactive are neither totalled nor kept.
  void set_active(bool active);
  /// The tenth of the current episode's timed rounds that spans closing
  /// from now on belong to (clamped to 0..9). Callable from any thread.
  void set_tenth(std::size_t tenth);

  void open(SpanKind kind, std::int64_t at_ns);
  void close(std::int64_t at_ns, cbc::MessageId id = {});

  [[nodiscard]] SpanTotals totals(SpanKind kind) const;
  [[nodiscard]] std::vector<SpanRecord> kept() const;
  /// Writes the kept spans as tab-separated lines; false on I/O error.
  bool write_tsv(const std::string& path) const;

 private:
  std::size_t keep_limit_;
  std::atomic<bool> active_{false};
  std::atomic<std::size_t> tenth_{0};
  mutable std::mutex mutex_;
  std::array<SpanTotals, kSpanKindCount> totals_{};
  std::vector<SpanRecord> kept_;
};

/// The recorder the decorators write to; nullptr outside the traced run.
[[nodiscard]] SpanRecorder* active_recorder();
void set_active_recorder(SpanRecorder* recorder);

/// RAII span on the active recorder (no-op when none is installed).
class ScopedSpan {
 public:
  explicit ScopedSpan(SpanKind kind) : recorder_(active_recorder()) {
    if (recorder_ != nullptr) {
      recorder_->open(kind, now_ns());
    }
  }
  ~ScopedSpan() {
    if (recorder_ != nullptr) {
      recorder_->close(now_ns(), id_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void set_id(cbc::MessageId id) { id_ = id; }

 private:
  SpanRecorder* recorder_;
  cbc::MessageId id_;
};

/// Allocation counts per layer since process start (kNone collects every
/// allocation made outside a span and is not counted at all).
[[nodiscard]] std::array<std::uint64_t, kLayerCount> allocation_counts();

}  // namespace perfbench
