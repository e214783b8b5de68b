#include "spans.h"

#include <algorithm>
#include <vector>
#include <cstdio>
#include <cstdlib>
#include <new>

namespace perfbench {
namespace {

// Innermost open span's layer on this thread: what operator new charges.
thread_local Layer t_layer = Layer::kNone;

std::array<std::atomic<std::uint64_t>, kLayerCount> g_allocs{};

std::atomic<SpanRecorder*> g_recorder{nullptr};

constexpr std::array<Layer, kSpanKindCount> kLayerOf = {
    Layer::kNet,        // kNetSend
    Layer::kTransport,  // kTransportUnbatch
    Layer::kTransport,  // kTransportSend
    Layer::kCausal,     // kCausalRecv
    Layer::kCausal,     // kCausalBroadcast
    Layer::kCheck,      // kCheckDeliver
    Layer::kReplica,    // kReplicaApply
    Layer::kReplica,    // kReplicaSubmit
    Layer::kKv,         // kKvHandle
    Layer::kKv,         // kKvDrain
    Layer::kKv,         // kKvClient
};

constexpr std::array<const char*, kSpanKindCount> kSpanNames = {
    "net.send",        "transport.unbatch", "transport.send",
    "causal.recv",     "causal.broadcast",  "check.deliver",
    "replica.apply",   "replica.submit",    "kv.handle",
    "kv.drain",        "kv.client",
};

constexpr std::array<const char*, kLayerCount> kLayerNames = {
    "none", "net", "transport", "causal", "check", "replica", "kv",
};

struct Frame {
  SpanKind kind;
  std::int64_t start_ns;
  std::int64_t child_ns;  ///< covered by closed child spans
  std::uint32_t index;    ///< kept-span slot, or SpanRecorder::kNoParent
  bool recorded;          ///< opened while the recorder was active
};

// Per-thread open-span stack (spans nest within one thread's call stack).
thread_local std::vector<Frame> t_stack;

void note_allocation() {
  const Layer layer = t_layer;
  if (layer != Layer::kNone) {
    g_allocs[static_cast<std::size_t>(layer)].fetch_add(
        1, std::memory_order_relaxed);
  }
}

}  // namespace

const char* layer_name(Layer layer) {
  return kLayerNames[static_cast<std::size_t>(layer)];
}

const char* span_name(SpanKind kind) {
  return kSpanNames[static_cast<std::size_t>(kind)];
}

Layer layer_of(SpanKind kind) {
  return kLayerOf[static_cast<std::size_t>(kind)];
}

double SpanTotals::growth() const {
  if (decile_count.front() == 0 || decile_count.back() == 0 ||
      decile_self_ns.front() <= 0) {
    return 0.0;
  }
  const double first = static_cast<double>(decile_self_ns.front()) /
                       static_cast<double>(decile_count.front());
  const double last = static_cast<double>(decile_self_ns.back()) /
                      static_cast<double>(decile_count.back());
  return last / first;
}

SpanRecorder::SpanRecorder(std::size_t keep_limit) : keep_limit_(keep_limit) {
  kept_.reserve(keep_limit_);
}

void SpanRecorder::set_active(bool active) {
  active_.store(active, std::memory_order_release);
}

void SpanRecorder::set_tenth(std::size_t tenth) {
  tenth_.store(std::min(tenth, kDeciles - 1), std::memory_order_relaxed);
}

void SpanRecorder::open(SpanKind kind, std::int64_t at_ns) {
  if (t_stack.capacity() == 0) {
    t_stack.reserve(64);
  }
  std::uint32_t index = kNoParent;
  const bool active = active_.load(std::memory_order_acquire);
  if (active) {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (kept_.size() < keep_limit_) {
      index = static_cast<std::uint32_t>(kept_.size());
      SpanRecord record;
      record.start_ns = at_ns;
      record.kind = kind;
      record.parent = t_stack.empty() ? kNoParent : t_stack.back().index;
      kept_.push_back(record);
    }
  }
  t_stack.push_back(Frame{kind, at_ns, 0, index, active});
  t_layer = layer_of(kind);
}

void SpanRecorder::close(std::int64_t at_ns, cbc::MessageId id) {
  if (t_stack.empty()) {
    return;
  }
  const Frame frame = t_stack.back();
  t_stack.pop_back();
  const std::int64_t duration = at_ns - frame.start_ns;
  const std::int64_t self = duration - frame.child_ns;
  if (t_stack.empty()) {
    t_layer = Layer::kNone;
  } else {
    t_stack.back().child_ns += duration;
    t_layer = layer_of(t_stack.back().kind);
  }
  if (!frame.recorded) {
    return;
  }
  const std::size_t tenth = tenth_.load(std::memory_order_relaxed);
  const std::lock_guard<std::mutex> lock(mutex_);
  SpanTotals& totals = totals_[static_cast<std::size_t>(frame.kind)];
  totals.count += 1;
  totals.self_ns += self;
  totals.decile_count[tenth] += 1;
  totals.decile_self_ns[tenth] += self;
  if (frame.index != kNoParent) {
    SpanRecord& record = kept_[frame.index];
    record.end_ns = at_ns;
    record.self_ns = self;
    record.id = id;
  }
}

SpanTotals SpanRecorder::totals(SpanKind kind) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return totals_[static_cast<std::size_t>(kind)];
}

std::vector<SpanRecord> SpanRecorder::kept() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return kept_;
}

bool SpanRecorder::write_tsv(const std::string& path) const {
  const std::vector<SpanRecord> spans = kept();
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    return false;
  }
  std::fprintf(out,
               "index\tspan\tlayer\tstart_ns\tend_ns\tself_ns\tparent\t"
               "sender\tseq\n");
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    std::fprintf(out, "%zu\t%s\t%s\t%lld\t%lld\t%lld\t%lld\t%lld\t%llu\n", i,
                 span_name(s.kind), layer_name(layer_of(s.kind)),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<long long>(s.self_ns),
                 s.parent == kNoParent ? -1LL
                                       : static_cast<long long>(s.parent),
                 s.id.is_null() ? -1LL : static_cast<long long>(s.id.sender),
                 static_cast<unsigned long long>(s.id.seq));
  }
  return std::fclose(out) == 0;
}

SpanRecorder* active_recorder() {
  return g_recorder.load(std::memory_order_acquire);
}

void set_active_recorder(SpanRecorder* recorder) {
  g_recorder.store(recorder, std::memory_order_release);
}

std::array<std::uint64_t, kLayerCount> allocation_counts() {
  std::array<std::uint64_t, kLayerCount> out{};
  for (std::size_t i = 0; i < kLayerCount; ++i) {
    out[i] = g_allocs[i].load(std::memory_order_relaxed);
  }
  return out;
}

}  // namespace perfbench

// Counting global allocator: every form of operator new funnels through
// these two; the matching deletes are the standard library's free().
void* operator new(std::size_t size) {
  perfbench::note_allocation();
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}

void* operator new(std::size_t size, std::align_val_t align) {
  perfbench::note_allocation();
  const auto alignment = static_cast<std::size_t>(align);
  const std::size_t rounded = (size + alignment - 1) / alignment * alignment;
  if (void* p = std::aligned_alloc(alignment, rounded == 0 ? alignment : rounded)) {
    return p;
  }
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
