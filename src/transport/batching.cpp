#include "transport/batching.h"

#include "util/ensure.h"
#include "util/serde.h"

namespace cbc {

BatchingTransport::BatchingTransport(Transport& inner, Options options)
    : inner_(inner), options_(options) {
  require(options_.max_batch >= 1, "BatchingTransport: max_batch must be >= 1");
  require(options_.flush_interval_us > 0,
          "BatchingTransport: flush interval must be positive");
  if (options_.obs.prefix.empty()) {
    options_.obs.prefix = "batch";
  }
  if (options_.obs.any()) {
    // Occupancy buckets are message counts, not latencies; explicit
    // small-integer bounds keep the distribution readable.
    occupancy_hist_ = &options_.obs.metrics->histogram(
        options_.obs.prefix + ".occupancy",
        {1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64});
    collector_ = options_.obs.metrics->register_collector(
        [this](obs::CollectorSink& sink) {
          const BatchStats s = stats();
          const std::string& prefix = options_.obs.prefix;
          sink.counter(prefix + ".messages_in", s.messages_in);
          sink.counter(prefix + ".batches_out", s.batches_out);
          sink.counter(prefix + ".full_flushes", s.full_flushes);
          sink.counter(prefix + ".tick_flushes", s.tick_flushes);
          sink.counter(prefix + ".decode_errors", s.decode_errors);
        });
  }
}

void BatchingTransport::observe_flush(std::size_t occupancy) {
  if (occupancy_hist_ != nullptr) {
    occupancy_hist_->record(static_cast<double>(occupancy));
  }
}

NodeId BatchingTransport::add_endpoint(Handler handler) {
  require(static_cast<bool>(handler), "BatchingTransport: empty handler");
  return inner_.add_endpoint(
      [this, handler = std::move(handler)](NodeId from, const WireFrame& batch) {
        unpack(from, batch, handler);
      });
}

std::size_t BatchingTransport::endpoint_count() const {
  return inner_.endpoint_count();
}

void BatchingTransport::send(NodeId from, NodeId to, SharedBuffer frame) {
  require(frame != nullptr, "BatchingTransport::send: null frame");
  SharedBuffer batch;
  {
    const LockGuard guard(mutex_);
    std::vector<SharedBuffer>& queue = pending_[{from, to}];
    queue.push_back(std::move(frame));
    stats_.messages_in += 1;
    if (queue.size() >= options_.max_batch) {
      batch = pack(queue);
      queue.clear();
      stats_.batches_out += 1;
      stats_.full_flushes += 1;
    } else {
      maybe_arm_timer();
    }
  }
  if (batch) {
    observe_flush(options_.max_batch);
    inner_.send(from, to, std::move(batch));
  }
}

SharedBuffer BatchingTransport::pack(const std::vector<SharedBuffer>& frames) {
  Writer writer;
  writer.u32(static_cast<std::uint32_t>(frames.size()));
  for (const SharedBuffer& frame : frames) {
    writer.blob(frame->bytes());
  }
  return writer.take_shared();
}

void BatchingTransport::unpack(NodeId from, const WireFrame& batch,
                               const Handler& handler) {
  // A truncated or corrupt batch drops its undecodable tail (counted)
  // instead of tearing down the receive path.
  const bool intact = for_each_frame(
      batch.bytes(), [&](std::span<const std::uint8_t> inner) {
        const auto offset =
            static_cast<std::size_t>(inner.data() - batch.buffer->data());
        handler(from, WireFrame(batch.buffer, offset, inner.size()));
      });
  if (!intact) {
    const LockGuard guard(mutex_);
    stats_.decode_errors += 1;
  }
}

void BatchingTransport::flush() {
  std::vector<std::pair<LinkKey, SharedBuffer>> batches;
  std::vector<std::size_t> occupancies;
  {
    const LockGuard guard(mutex_);
    for (auto& [link, queue] : pending_) {
      if (queue.empty()) {
        continue;
      }
      occupancies.push_back(queue.size());
      batches.emplace_back(link, pack(queue));
      queue.clear();
      stats_.batches_out += 1;
      stats_.tick_flushes += 1;
    }
  }
  for (std::size_t i = 0; i < batches.size(); ++i) {
    observe_flush(occupancies[i]);
    inner_.send(batches[i].first.first, batches[i].first.second,
                std::move(batches[i].second));
  }
}

void BatchingTransport::maybe_arm_timer() {
  if (timer_armed_) {
    return;
  }
  timer_armed_ = true;
  inner_.schedule(options_.flush_interval_us, [this] { on_tick(); });
}

void BatchingTransport::on_tick() {
  {
    const LockGuard guard(mutex_);
    timer_armed_ = false;
  }
  flush();
  // Re-arm only if new frames queued between flush() draining and now —
  // keeps a quiescent system free of pending events.
  const LockGuard guard(mutex_);
  for (const auto& [link, queue] : pending_) {
    if (!queue.empty()) {
      maybe_arm_timer();
      break;
    }
  }
}

void BatchingTransport::schedule(SimTime delay_us, std::function<void()> action) {
  inner_.schedule(delay_us, std::move(action));
}

SimTime BatchingTransport::now_us() const { return inner_.now_us(); }

BatchingTransport::BatchStats BatchingTransport::stats() const {
  const LockGuard guard(mutex_);
  return stats_;
}

}  // namespace cbc
