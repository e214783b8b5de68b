// Unit test of the span arithmetic the traced run reports: self time is a
// span's duration minus what its children cover, parents link nested
// spans, tenths split an episode's timed rounds, and allocations are
// charged to the innermost open span. Exit code 0 when every check holds.
#include <cmath>
#include <cstdio>
#include <memory>
#include <set>
#include <string>

#include "report.h"
#include "spans.h"

namespace {

int g_failures = 0;

void check(bool condition, const char* what) {
  if (!condition) {
    std::fprintf(stderr, "FAILED: %s\n", what);
    ++g_failures;
  }
}

using perfbench::SpanKind;

void self_time_subtracts_children() {
  perfbench::SpanRecorder recorder(16);
  recorder.set_active(true);
  recorder.open(SpanKind::kCausalRecv, 0);         // A
  recorder.open(SpanKind::kCheckDeliver, 10);      // B, child of A
  recorder.close(30);                              // B: 20
  recorder.open(SpanKind::kReplicaApply, 40);      // C, child of A
  recorder.open(SpanKind::kReplicaSubmit, 41);     // D, child of C
  recorder.close(44);                              // D: 3
  recorder.close(45, cbc::MessageId{2, 7});        // C: 5 - 3
  recorder.close(100);                             // A: 100 - 20 - 5
  check(recorder.totals(SpanKind::kCausalRecv).self_ns == 75, "A self 75");
  check(recorder.totals(SpanKind::kCheckDeliver).self_ns == 20, "B self 20");
  check(recorder.totals(SpanKind::kReplicaApply).self_ns == 2, "C self 2");
  check(recorder.totals(SpanKind::kReplicaSubmit).self_ns == 3, "D self 3");
  const auto kept = recorder.kept();
  check(kept.size() == 4, "four spans kept");
  check(kept[0].parent == perfbench::SpanRecorder::kNoParent, "A top level");
  check(kept[1].parent == 0 && kept[2].parent == 0, "B and C under A");
  check(kept[3].parent == 2, "D under C");
  check(kept[2].id == (cbc::MessageId{2, 7}), "C carries its message id");
  check(kept[0].end_ns == 100 && kept[0].self_ns == 75, "A record complete");
}

void tenths_and_growth() {
  perfbench::SpanRecorder recorder(0);  // totals only, nothing kept
  recorder.open(SpanKind::kCausalRecv, 0);
  recorder.close(50);  // inactive: ignored
  recorder.set_active(true);
  recorder.set_tenth(0);
  recorder.open(SpanKind::kCausalRecv, 1000);
  recorder.close(1010);  // first tenth, self 10
  recorder.set_tenth(9);
  recorder.open(SpanKind::kCausalRecv, 1950);
  recorder.close(1980);  // last tenth, self 30
  recorder.set_tenth(12);  // clamped to the last tenth
  recorder.open(SpanKind::kCausalRecv, 5000);
  recorder.close(5030);
  const perfbench::SpanTotals totals = recorder.totals(SpanKind::kCausalRecv);
  check(totals.count == 3, "inactive span not counted");
  check(totals.decile_count[0] == 1 && totals.decile_count[9] == 2,
        "spans land in the first and last tenths");
  check(std::abs(totals.growth() - 3.0) < 1e-9, "growth is last/first = 3");
  check(recorder.kept().empty(), "keep limit 0 keeps nothing");
  check(recorder.totals(SpanKind::kNetSend).growth() == 0.0,
        "no spans: growth 0");
}

void allocations_charge_the_innermost_span() {
  perfbench::SpanRecorder recorder(4);
  const auto before = perfbench::allocation_counts();
  recorder.open(SpanKind::kNetSend, 0);
  recorder.open(SpanKind::kCheckDeliver, 1);
  auto first = std::make_unique<int>(1);
  recorder.close(2);
  auto second = std::make_unique<int>(2);
  recorder.close(3);
  auto outside = std::make_unique<int>(3);
  const auto after = perfbench::allocation_counts();
  const auto delta = [&](perfbench::Layer layer) {
    const auto i = static_cast<std::size_t>(layer);
    return after[i] - before[i];
  };
  check(delta(perfbench::Layer::kCheck) == 1, "one allocation in check");
  check(delta(perfbench::Layer::kNet) == 1, "one allocation in net");
}

void per_layer_names_are_unique() {
  const auto metrics = perfbench::per_layer_metrics(perfbench::LayerInputs{});
  std::set<std::string> names;
  for (const auto& metric : metrics) {
    check(names.insert(metric.name).second, "per-layer names unique");
    check(!metric.unit.empty(), "every metric has a unit");
  }
  check(names.count("causal.recv_ns_growth") == 1, "growth metric present");
}

}  // namespace

int main() {
  self_time_subtracts_children();
  tenths_and_growth();
  allocations_charge_the_innermost_span();
  per_layer_names_are_unique();
  if (g_failures == 0) {
    std::printf("span_test: all checks passed\n");
  }
  return g_failures == 0 ? 0 : 1;
}
