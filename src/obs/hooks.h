// Observability injection point shared by every instrumented component.
//
// A component that wants metrics takes an `obs::Hooks` in its Options
// struct. The registry pointer defaults to nullptr, which is the runtime
// off-switch: an un-instrumented member pays one pointer test per site
// and nothing else. The registry is NOT owned — the caller (cbc_node, a
// test, ClusterHarness plumbing) keeps it alive for the component's
// lifetime. Per-envelope events do not go through hooks at all: they
// land in the process-wide flight ring (obs/flight_recorder.h), which is
// also what `--trace` decodes.
//
// Building with -DCBC_OBS=OFF defines CBC_OBS_OFF, which turns
// `kCompiledIn` into a compile-time false so the optimizer deletes every
// instrumented branch outright (the BENCH_m1 off-switch criterion).
#pragma once

#include <string>

namespace cbc::obs {

class MetricsRegistry;

#ifdef CBC_OBS_OFF
inline constexpr bool kCompiledIn = false;
#else
inline constexpr bool kCompiledIn = true;
#endif

/// Borrowed metrics sink, injected through component Options.
struct Hooks {
  MetricsRegistry* metrics = nullptr;
  /// Metric-name prefix for this component instance, e.g. "osend".
  /// Components append ".counter_name" to it.
  std::string prefix;

  [[nodiscard]] bool any() const {
    return kCompiledIn && metrics != nullptr;
  }
};

}  // namespace cbc::obs
