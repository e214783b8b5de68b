#include "stack.h"

#include <utility>

#include "object/catalog.h"
#include "obs/flight_recorder.h"
#include "util/ensure.h"

namespace perfbench {
namespace {

// record_graph / keep_delivery_log / fifo_chain are read through requires-
// expressions so the benchmark keeps compiling when a later change removes
// an option (the ROADMAP plans to drop the first two from the library).
template <typename Options>
std::string record_graph_state(const Options& options) {
  if constexpr (requires { options.record_graph; }) {
    return std::to_string(options.record_graph) +
           (options.record_graph == Options{}.record_graph ? "(default)"
                                                           : "(CHANGED)");
  } else {
    return "n/a";
  }
}

template <typename Options>
std::string keep_log_state(const Options& options) {
  if constexpr (requires { options.keep_delivery_log; }) {
    return std::to_string(options.keep_delivery_log) +
           (options.keep_delivery_log == Options{}.keep_delivery_log
                ? "(default)"
                : "(CHANGED)");
  } else {
    return "n/a";
  }
}

template <typename Options>
void enable_fifo_chain(Options& options) {
  if constexpr (requires { options.fifo_chain; }) {
    options.fifo_chain = true;
  }
}

template <typename Options>
bool fifo_chain_on(const Options& options) {
  if constexpr (requires { options.fifo_chain; }) {
    return options.fifo_chain;
  } else {
    return true;  // option gone: FIFO chaining is unconditional
  }
}

}  // namespace

cbc::obs::Hooks hooks(cbc::obs::MetricsRegistry* registry, std::string prefix) {
  cbc::obs::Hooks out;
  if (registry != nullptr) {
    out.metrics = registry;
    out.prefix = std::move(prefix);
  }
  return out;
}

StackOptions production_options(const StackConfig& config) {
  StackOptions options;
  options.batching.obs = hooks(config.registry, "batch");
  options.osend.reliability.enabled = true;
  options.osend.reliability.obs = hooks(config.registry, "reliable");
  options.osend.reliability.oob_handler = config.oob_handler;
  options.osend.obs = hooks(config.registry, "osend");
  options.check.obs = hooks(config.registry, "check");
  options.check.expect_total_order = false;
  options.check.stable_spec = config.spec;
  // Departure nops race the sync chain; both binaries exempt the kind.
  options.check.digest_exempt_kinds = {"nop"};
  enable_fifo_chain(options.front_end);
  return options;
}

MemberStack::MemberStack(cbc::Transport& inner, const cbc::GroupView& view,
                         cbc::check::InvariantMonitor& monitor,
                         const StackConfig& config)
    : options_(production_options(config)) {
  const bool traced = config.registry != nullptr;
  cbc::Transport* below = &inner;
  if (traced) {
    net_boundary_ = std::make_unique<SpanTransport>(
        inner, SpanKind::kNetSend, SpanKind::kTransportUnbatch);
    below = net_boundary_.get();
  }
  batching_ = std::make_unique<cbc::BatchingTransport>(*below,
                                                       options_.batching);
  below = batching_.get();
  if (traced) {
    causal_boundary_ = std::make_unique<SpanTransport>(
        *batching_, SpanKind::kTransportSend, SpanKind::kCausalRecv);
    below = causal_boundary_.get();
  }
  std::unique_ptr<cbc::BroadcastMember> member =
      std::make_unique<cbc::OSendMember>(
          *below, view, [](const cbc::Delivery&) {}, options_.osend);
  if (traced) {
    member = std::make_unique<SpanLayer>(std::move(member),
                                         SpanKind::kCheckDeliver,
                                         SpanKind::kCausalBroadcast);
  }
  auto checker = monitor.attach(std::move(member), options_.check);
  checker_ = checker.get();
  member = std::move(checker);
  if (traced) {
    member = std::make_unique<SpanLayer>(
        std::move(member), SpanKind::kReplicaApply, std::nullopt);
  }
  if (config.tap) {
    class DeliveryTap final : public cbc::ProtocolLayer {
     public:
      DeliveryTap(std::unique_ptr<cbc::BroadcastMember> lower,
                  std::function<void(const cbc::Delivery&)> inspect)
          : ProtocolLayer(std::move(lower)), inspect_(std::move(inspect)) {}

     protected:
      void on_lower_delivery(const cbc::Delivery& delivery) override {
        inspect_(delivery);
        deliver_up(delivery);
      }

     private:
      std::function<void(const cbc::Delivery&)> inspect_;
    };
    member = std::make_unique<DeliveryTap>(std::move(member), config.tap);
  }
  const auto entry = cbc::object::Catalog::instance().find(config.object);
  cbc::require(entry.has_value(), "perfbench: unknown object " + config.object);
  replica_ = std::make_unique<Replica>(std::move(member), config.spec,
                                       options_.front_end,
                                       cbc::object::Value(entry->make()));
}

std::uint64_t MemberStack::inner_bytes() const {
  return net_boundary_ != nullptr ? net_boundary_->bytes() : 0;
}

cbc::MessageId MemberStack::submit(const cbc::object::Op& op) {
  ScopedSpan span(SpanKind::kReplicaSubmit);
  const cbc::MessageId id = replica_->submit(op);
  span.set_id(id);
  return id;
}

bool check_parity(const StackOptions& options, bool traced, std::ostream& out) {
  bool ok = true;
  const auto line = [&](const std::string& name, const std::string& value,
                        bool good) {
    out << "# stack " << name << "=" << value << (good ? "" : "  MISMATCH")
        << "\n";
    ok = ok && good;
  };
  const cbc::OSendMember::Options& osend = options.osend;
  line("reliability.enabled", std::to_string(osend.reliability.enabled),
       osend.reliability.enabled);
  line("reliability.oob_handler", osend.reliability.oob_handler ? "set" : "unset",
       static_cast<bool>(osend.reliability.oob_handler));
  const std::string graph = record_graph_state(osend);
  line("osend.record_graph", graph, graph.find("CHANGED") == std::string::npos);
  const std::string log = keep_log_state(osend);
  line("osend.keep_delivery_log", log, log.find("CHANGED") == std::string::npos);
  line("check.stable_spec", options.check.stable_spec ? "derived" : "none",
       options.check.stable_spec.has_value());
  const std::set<std::string> exempt = {"nop"};
  line("check.digest_exempt_kinds",
       options.check.digest_exempt_kinds == exempt ? "nop" : "other",
       options.check.digest_exempt_kinds == exempt);
  line("check.expect_total_order",
       std::to_string(options.check.expect_total_order),
       !options.check.expect_total_order);
  line("front_end.fifo_chain", fifo_chain_on(options.front_end) ? "1" : "0",
       fifo_chain_on(options.front_end));
  line("batching.max_batch", std::to_string(options.batching.max_batch),
       options.batching.max_batch == cbc::BatchingTransport::Options{}.max_batch);
  line("batching.flush_interval_us",
       std::to_string(options.batching.flush_interval_us),
       options.batching.flush_interval_us ==
           cbc::BatchingTransport::Options{}.flush_interval_us);
  cbc::obs::FlightRecorder* recorder = cbc::obs::flight_recorder();
  line("flight_recorder",
       recorder != nullptr
           ? "installed(capacity=" + std::to_string(recorder->capacity()) + ")"
           : "missing",
       recorder != nullptr);
  const bool hooks_on = options.batching.obs.any() ||
                        options.osend.reliability.obs.any() ||
                        options.osend.obs.any() || options.check.obs.any();
  line("obs_hooks", hooks_on ? "on" : "off", hooks_on == traced);
  return ok;
}

void install_flight_recorder(const std::string& dump_path) {
  // Process-lifetime ring, detached again before it is destroyed.
  struct Installed {
    explicit Installed(cbc::obs::FlightRecorder::Options options)
        : recorder(std::move(options)) {
      cbc::obs::install_flight_recorder(&recorder);
    }
    ~Installed() { cbc::obs::install_flight_recorder(nullptr); }
    Installed(const Installed&) = delete;
    Installed& operator=(const Installed&) = delete;
    cbc::obs::FlightRecorder recorder;
  };
  cbc::obs::FlightRecorder::Options options;
  options.dump_path = dump_path;
  static Installed installed(std::move(options));
}

}  // namespace perfbench
