// Observability injection point shared by every instrumented component.
//
// A component that wants metrics takes an `obs::Hooks` in its Options
// struct. The registry pointer defaults to nullptr: a component a test
// or simulation builds without one pays one pointer test per site and
// nothing else. Both binaries always attach their runtime's registry.
// The registry is NOT owned — the caller keeps it alive for the
// component's lifetime. Per-envelope events do not go through hooks at
// all: they land in the process-wide flight ring (obs/flight_recorder.h),
// which is also what `--trace` decodes.
#pragma once

#include <string>

namespace cbc::obs {

class MetricsRegistry;

/// Borrowed metrics sink, injected through component Options.
struct Hooks {
  MetricsRegistry* metrics = nullptr;
  /// Metric-name prefix for this component instance, e.g. "osend".
  /// Components append ".counter_name" to it.
  std::string prefix;

  [[nodiscard]] bool any() const { return metrics != nullptr; }
};

}  // namespace cbc::obs
