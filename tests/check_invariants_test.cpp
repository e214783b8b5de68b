// Unit tests for the invariant checker itself: each violation class is
// provoked directly by injecting synthetic deliveries through a stub
// member, and each clean pattern must stay clean (including the
// order-insensitivity of the stable-state digest). Also covers the ranked
// lock-order guard, which turns would-be deadlocks into LogicErrors.

#include <cstdint>
#include <gtest/gtest.h>
#include <memory>
#include <string>
#include <vector>

#include "check/invariant_checker.h"
#include "common/group_fixture.h"
#include "common/recorder.h"
#include "common/sim_env.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "util/digest_window.h"

namespace cbc {
namespace {

using check::InvariantChecker;
using check::InvariantMonitor;
using check::ViolationKind;

/// A BroadcastMember whose deliveries are injected by the test, so the
/// checker can be probed with exact (possibly illegal) delivery streams.
class StubMember final : public BroadcastMember {
 public:
  explicit StubMember(NodeId id) : id_(id), view_(testkit::make_view(2)) {}

  void inject(MessageId id, std::string label,
              std::vector<MessageId> deps = {}) {
    const Delivery delivery = Delivery::synthetic(
        id, std::move(label), DepSpec::after_all(std::move(deps)));
    stats_.delivered += 1;
    if (deliver_) {
      deliver_(delivery);
    }
  }

  [[nodiscard]] NodeId id() const override { return id_; }
  MessageId broadcast(std::string /*label*/,
                      std::vector<std::uint8_t> /*payload*/,
                      const DepSpec& /*deps*/) override {
    return MessageId{id_, ++next_seq_};
  }
  [[nodiscard]] const OrderingStats& stats() const override { return stats_; }
  [[nodiscard]] const GroupView& view() const override { return view_; }
  void set_deliver(DeliverFn deliver) override { deliver_ = std::move(deliver); }
  [[nodiscard]] RecursiveMutex& stack_mutex() const override {
    return mutex_;
  }

 private:
  NodeId id_;
  GroupView view_;
  DeliverFn deliver_;
  SeqNo next_seq_ = 0;
  OrderingStats stats_;
  mutable RecursiveMutex mutex_{kRankStack, "stub stack"};
};

struct CheckerRig {
  explicit CheckerRig(InvariantChecker::Options options =
                          InvariantChecker::Options{},
                      std::size_t members = 1)
      : monitor(options) {
    for (std::size_t i = 0; i < members; ++i) {
      auto stub = std::make_unique<StubMember>(static_cast<NodeId>(i));
      stubs.push_back(stub.get());
      checkers.push_back(monitor.attach(std::move(stub)));
    }
  }

  InvariantMonitor monitor;
  std::vector<StubMember*> stubs;
  std::vector<std::unique_ptr<InvariantChecker>> checkers;
};

TEST(InvariantChecker, CleanCausalStreamReportsNothing) {
  CheckerRig rig;
  const MessageId a{0, 1};
  const MessageId b{1, 1};
  rig.stubs[0]->inject(a, "a");
  rig.stubs[0]->inject(b, "b", {a});
  EXPECT_TRUE(rig.monitor.log()->empty());
  EXPECT_TRUE(rig.monitor.check_quiescent());
  EXPECT_EQ(rig.checkers[0]->delivered_sequence(),
            (std::vector<MessageId>{a, b}));
}

TEST(InvariantChecker, DependencyViolationIsReported) {
  CheckerRig rig;
  const MessageId a{0, 1};
  const MessageId b{1, 1};
  rig.stubs[0]->inject(b, "b", {a});  // a was never delivered here
  ASSERT_EQ(rig.monitor.log()->size(), 1u);
  const check::Violation& violation = rig.monitor.log()->violations()[0];
  EXPECT_EQ(violation.kind, ViolationKind::kDependencyViolation);
  EXPECT_EQ(violation.message, b);
  EXPECT_NE(violation.detail.find(a.to_string()), std::string::npos);
  EXPECT_EQ(rig.checkers[0]->violation_count(), 1u);
}

TEST(InvariantChecker, DuplicateDeliveryIsReported) {
  CheckerRig rig;
  const MessageId a{0, 1};
  rig.stubs[0]->inject(a, "a");
  rig.stubs[0]->inject(a, "a");
  ASSERT_EQ(rig.monitor.log()->size(), 1u);
  EXPECT_EQ(rig.monitor.log()->violations()[0].kind,
            ViolationKind::kDuplicateDelivery);
  // The duplicate still flows upward; the checker observes, never filters.
  EXPECT_EQ(rig.checkers[0]->delivered_sequence().size(), 1u);
}

TEST(InvariantChecker, DeliveriesPassThroughToUpperLayer) {
  CheckerRig rig;
  std::vector<std::string> labels;
  rig.checkers[0]->set_deliver([&labels](const Delivery& delivery) {
    labels.push_back(delivery.label());
  });
  rig.stubs[0]->inject({0, 1}, "a");
  rig.stubs[0]->inject({1, 1}, "b");
  EXPECT_EQ(labels, (std::vector<std::string>{"a", "b"}));
}

TEST(InvariantChecker, SenderGapIsReportedAtQuiescence) {
  CheckerRig rig;
  rig.stubs[0]->inject({0, 1}, "a");
  rig.stubs[0]->inject({0, 3}, "c");  // seq 2 is missing
  EXPECT_TRUE(rig.monitor.log()->empty());  // only detectable at quiescence
  EXPECT_FALSE(rig.monitor.check_quiescent());
  ASSERT_EQ(rig.monitor.log()->size(), 1u);
  EXPECT_EQ(rig.monitor.log()->violations()[0].kind,
            ViolationKind::kSenderGap);
}

TEST(InvariantChecker, SetDivergenceIsReportedAcrossMembers) {
  CheckerRig rig(InvariantChecker::Options{}, 2);
  const MessageId a{0, 1};
  const MessageId b{1, 1};
  rig.stubs[0]->inject(a, "a");
  rig.stubs[0]->inject(b, "b");
  rig.stubs[1]->inject(a, "a");  // member 1 never saw b
  EXPECT_FALSE(rig.monitor.check_quiescent());
  bool found = false;
  for (const check::Violation& violation :
       rig.monitor.log()->violations()) {
    if (violation.kind == ViolationKind::kSetDivergence) {
      found = true;
      EXPECT_EQ(violation.message, b);  // names a diverging id
    }
  }
  EXPECT_TRUE(found) << rig.monitor.report();
}

TEST(InvariantChecker, OrderDivergenceRequiresTotalOrderPromise) {
  const MessageId a{0, 1};
  const MessageId b{1, 1};
  {
    // Causal members may disagree on the order of concurrent messages.
    CheckerRig causal(InvariantChecker::Options{}, 2);
    causal.stubs[0]->inject(a, "a");
    causal.stubs[0]->inject(b, "b");
    causal.stubs[1]->inject(b, "b");
    causal.stubs[1]->inject(a, "a");
    EXPECT_TRUE(causal.monitor.check_quiescent()) << causal.monitor.report();
  }
  {
    InvariantChecker::Options options;
    options.expect_total_order = true;
    CheckerRig total(options, 2);
    total.stubs[0]->inject(a, "a");
    total.stubs[0]->inject(b, "b");
    total.stubs[1]->inject(b, "b");
    total.stubs[1]->inject(a, "a");
    EXPECT_FALSE(total.monitor.check_quiescent());
    ASSERT_FALSE(total.monitor.log()->empty());
    EXPECT_EQ(total.monitor.log()->violations()[0].kind,
              ViolationKind::kOrderDivergence);
  }
}

InvariantChecker::Options stable_options() {
  CommutativitySpec spec;
  spec.mark_commutative("inc");
  InvariantChecker::Options options;
  options.stable_spec = spec;
  return options;
}

TEST(InvariantChecker, StableDigestIsOrderInsensitive) {
  CheckerRig rig(stable_options(), 2);
  // The stable points checker 0 passes up, recorded above it.
  testkit::Recorder recorded(*stable_options().stable_spec);
  rig.checkers[0]->set_deliver(recorded.tap());
  const MessageId i1{0, 1};
  const MessageId i2{1, 1};
  const MessageId sync{0, 2};
  // Same commutative set, opposite delivery orders, same sync message.
  rig.stubs[0]->inject(i1, "inc(x)");
  rig.stubs[0]->inject(i2, "inc(x)");
  rig.stubs[0]->inject(sync, "read(x)", {i1, i2});
  rig.stubs[1]->inject(i2, "inc(x)");
  rig.stubs[1]->inject(i1, "inc(x)");
  rig.stubs[1]->inject(sync, "read(x)", {i1, i2});
  EXPECT_TRUE(rig.monitor.check_quiescent()) << rig.monitor.report();
  ASSERT_EQ(rig.checkers[0]->stable_digests().size(), 1u);
  EXPECT_EQ(rig.checkers[0]->stable_digests(),
            rig.checkers[1]->stable_digests());
  ASSERT_EQ(recorded.points().size(), 1u);
  EXPECT_EQ(recorded.points()[0].sync_message, sync);
  EXPECT_TRUE(recorded.points()[0].coverage_complete);
}

TEST(InvariantChecker, DigestExemptKindFloatingAcrossCyclesStaysClean) {
  // A state-inert op whose delivery is NOT ordered relative to the sync
  // chain (e.g. a departure marker racing an in-flight sync) can land in
  // cycle 1 at one member and cycle 2 at another. Folding it into the
  // digest reports divergence even though states agree at both stable
  // points; digest_exempt_kinds removes exactly that false positive.
  const MessageId i1{0, 1};
  const MessageId floater{1, 1};
  const MessageId sync1{0, 2};
  const MessageId i2{0, 3};
  const MessageId sync2{0, 4};
  const auto run = [&](InvariantChecker::Options options) {
    options.stable_spec->mark_commutative("nop");
    CheckerRig rig(options, 2);
    rig.stubs[0]->inject(i1, "inc(x)");
    rig.stubs[0]->inject(floater, "nop");  // before sync1 here...
    rig.stubs[0]->inject(sync1, "read(x)", {i1});
    rig.stubs[0]->inject(i2, "inc(x)");
    rig.stubs[0]->inject(sync2, "read(x)", {i2});
    rig.stubs[1]->inject(i1, "inc(x)");
    rig.stubs[1]->inject(sync1, "read(x)", {i1});
    rig.stubs[1]->inject(floater, "nop");  // ...after sync1 there
    rig.stubs[1]->inject(i2, "inc(x)");
    rig.stubs[1]->inject(sync2, "read(x)", {i2});
    return rig.monitor.check_quiescent();
  };
  EXPECT_FALSE(run(stable_options()));  // digest includes the floater
  InvariantChecker::Options exempting = stable_options();
  exempting.digest_exempt_kinds = {"nop"};
  EXPECT_TRUE(run(exempting));
}

TEST(InvariantChecker, StableDivergenceIsReported) {
  CheckerRig rig(stable_options(), 2);
  const MessageId i1{0, 1};
  const MessageId i2{1, 1};
  const MessageId sync{0, 2};
  // Member 1 closes the cycle having processed a DIFFERENT commutative
  // set — states at the "stable" point cannot agree.
  rig.stubs[0]->inject(i1, "inc(x)");
  rig.stubs[0]->inject(sync, "read(x)", {i1});
  rig.stubs[1]->inject(i2, "inc(x)");
  rig.stubs[1]->inject(sync, "read(x)", {i1});
  EXPECT_FALSE(rig.monitor.check_quiescent());
  bool found = false;
  for (const check::Violation& violation :
       rig.monitor.log()->violations()) {
    found = found || violation.kind == ViolationKind::kStableDivergence;
  }
  EXPECT_TRUE(found) << rig.monitor.report();
}

// ---------- retention bounded by the open cycle ----------

/// Next free seq of senders 0 and 1.
struct Seqs {
  SeqNo zero = 1;
  SeqNo one = 1;
};

/// Feeds every member of `rig` the same `cycles` stable cycles — an inc
/// from each of senders 0 and 1, then sender 0's covering sync.
void close_cycles(CheckerRig& rig, int cycles, Seqs& next) {
  for (int c = 0; c < cycles; ++c) {
    const MessageId a{0, next.zero++};
    const MessageId b{1, next.one++};
    const MessageId sync{0, next.zero++};
    for (StubMember* stub : rig.stubs) {
      stub->inject(a, "inc(x)");
      stub->inject(b, "inc(x)");
      stub->inject(sync, "read(x)", {a, b});
    }
  }
}

std::vector<ViolationKind> kinds(const InvariantMonitor& monitor) {
  std::vector<ViolationKind> out;
  for (const check::Violation& violation : monitor.log()->violations()) {
    out.push_back(violation.kind);
  }
  return out;
}

TEST(InvariantChecker, DefaultCheckerRetainsAtMostTheOpenCycle) {
  CheckerRig rig(stable_options(), 2);
  Seqs next;
  close_cycles(rig, 200, next);
  // The open cycle: two commutative deliveries, no sync yet.
  for (StubMember* stub : rig.stubs) {
    stub->inject({0, next.zero}, "inc(x)");
    stub->inject({1, next.one}, "inc(x)");
  }
  for (const auto& checker : rig.checkers) {
    EXPECT_EQ(checker->delivered_count(), 602u);
    EXPECT_EQ(checker->delivered_sequence().size(), 2u);
    EXPECT_FALSE(checker->record_complete());
    EXPECT_EQ(checker->stable_cycles(), 200u);
    EXPECT_EQ(checker->stable_digests().size(), DigestWindow::kCapacity);
    EXPECT_EQ(checker->stable_window().at(200),
              checker->stable_digests().back());
    EXPECT_EQ(checker->stable_window().at(200 - DigestWindow::kCapacity),
              std::nullopt);
  }
  EXPECT_TRUE(rig.monitor.check_quiescent()) << rig.monitor.report();
}

TEST(InvariantChecker, SetDivergenceFiresWithDefaultOptions) {
  CheckerRig rig(stable_options(), 2);
  Seqs next;
  close_cycles(rig, 3, next);
  // Equal counts, different sets.
  rig.stubs[0]->inject({0, next.zero}, "inc(x)");
  rig.stubs[1]->inject({1, next.one}, "inc(x)");
  ASSERT_FALSE(rig.checkers[0]->record_complete());
  EXPECT_FALSE(rig.monitor.check_quiescent());
  EXPECT_EQ(kinds(rig.monitor),
            std::vector<ViolationKind>{ViolationKind::kSetDivergence})
      << rig.monitor.report();
}

TEST(InvariantChecker, OrderDivergenceFiresWithDefaultOptions) {
  InvariantChecker::Options options = stable_options();
  options.expect_total_order = true;
  CheckerRig rig(options, 2);
  Seqs next;
  close_cycles(rig, 3, next);
  const MessageId a{0, next.zero};
  const MessageId b{1, next.one};
  rig.stubs[0]->inject(a, "inc(x)");
  rig.stubs[0]->inject(b, "inc(x)");
  rig.stubs[1]->inject(b, "inc(x)");
  rig.stubs[1]->inject(a, "inc(x)");
  ASSERT_FALSE(rig.checkers[0]->record_complete());
  EXPECT_FALSE(rig.monitor.check_quiescent());
  EXPECT_EQ(kinds(rig.monitor),
            std::vector<ViolationKind>{ViolationKind::kOrderDivergence})
      << rig.monitor.report();
}

TEST(InvariantChecker, StableDivergenceFiresWithDefaultOptions) {
  CheckerRig rig(stable_options(), 2);
  // Cycle 1 closes before sender 1's inc at member 1 and after it at
  // member 0: the sets agree, the states at the stable point do not.
  const MessageId inc{1, 1};
  const MessageId sync{0, 1};
  rig.stubs[0]->inject(inc, "inc(x)");
  rig.stubs[0]->inject(sync, "read(x)");
  rig.stubs[1]->inject(sync, "read(x)");
  rig.stubs[1]->inject(inc, "inc(x)");
  // Enough clean cycles that cycle 1 leaves the digest window: the chain
  // carries the divergence into every later digest.
  Seqs next{.zero = 2, .one = 2};
  close_cycles(rig, 100, next);
  ASSERT_EQ(rig.checkers[0]->stable_window().at(1), std::nullopt);
  EXPECT_FALSE(rig.monitor.check_quiescent());
  const std::vector<ViolationKind> found = kinds(rig.monitor);
  ASSERT_FALSE(found.empty());
  for (const ViolationKind kind : found) {
    EXPECT_EQ(kind, ViolationKind::kStableDivergence) << rig.monitor.report();
  }
}

TEST(InvariantChecker, SenderGapFiresWithDefaultOptions) {
  CheckerRig rig(stable_options(), 1);
  Seqs next;
  close_cycles(rig, 3, next);
  rig.stubs[0]->inject({1, next.one + 1}, "inc(x)");  // skips next.one
  ASSERT_FALSE(rig.checkers[0]->record_complete());
  EXPECT_FALSE(rig.monitor.check_quiescent());
  ASSERT_EQ(kinds(rig.monitor),
            std::vector<ViolationKind>{ViolationKind::kSenderGap});
  EXPECT_EQ(rig.monitor.log()->violations()[0].message,
            (MessageId{1, next.one}));
}

TEST(InvariantChecker, ViolationReportNamesKindMemberAndMessage) {
  CheckerRig rig;
  rig.stubs[0]->inject({1, 1}, "b", {MessageId{0, 1}});
  const std::string report = rig.monitor.report();
  EXPECT_NE(report.find("dependency"), std::string::npos) << report;
  EXPECT_NE(report.find("s1:1"), std::string::npos) << report;
}

TEST(InvariantChecker, MetricsCountersTrackTheRun) {
  if (!obs::kCompiledIn) {
    GTEST_SKIP() << "observability compiled out (-DCBC_OBS=OFF)";
  }
  // Both checkers share one registry and prefix, so the counters are the
  // group-wide aggregate across members.
  obs::MetricsRegistry registry;
  obs::FlightRecorder ring(obs::FlightRecorder::Options{});
  obs::install_flight_recorder(&ring);
  InvariantChecker::Options options = stable_options();
  options.obs = {&registry, "check"};
  CheckerRig rig(options, 2);
  const MessageId i1{0, 1};
  const MessageId i2{1, 1};
  const MessageId sync{0, 2};
  for (StubMember* stub : rig.stubs) {
    stub->inject(i1, "inc(x)");
    stub->inject(i2, "inc(x)");
    stub->inject(sync, "read(x)", {i1, i2});
  }
  // One extra commutative delivery with an unseen dependency: a violation
  // (and, being commutative, no extra stable cycle).
  rig.stubs[0]->inject({1, 7}, "inc(x)", {MessageId{0, 9}});

  const auto snap = registry.snapshot();
  EXPECT_EQ(snap.at("check.deliveries"), 7.0);
  EXPECT_EQ(snap.at("check.violations"), 1.0);
  EXPECT_EQ(snap.at("check.stable_points"), 2.0);  // one cycle per member
  // Each closed cycle also leaves a stable_point instant in the trace.
  const std::vector<obs::TraceEvent> events = obs::flight_to_trace_events(
      obs::decode_flight_dump(ring.snapshot_bytes()));
  std::size_t stable_instants = 0;
  for (const obs::TraceEvent& event : events) {
    stable_instants += event.name == "stable_point" ? 1 : 0;
  }
  EXPECT_EQ(stable_instants, 2u);
}

// ---------- ranked lock-order guard (cbc::Mutex runtime discipline) ----

TEST(LockOrder, AscendingRanksAreAllowed) {
  RecursiveMutex stack_mutex{kRankStack, "stack"};
  Mutex reliable_mutex{kRankReliable, "reliable"};
  Mutex transport_mutex{kRankTransport, "batching"};
  const LockGuard stack_guard(stack_mutex);
  const LockGuard reliable_guard(reliable_mutex);
  const LockGuard transport_guard(transport_mutex);
  SUCCEED();
}

TEST(LockOrder, DescendingRankThrowsInsteadOfDeadlocking) {
  Mutex reliable_mutex{kRankReliable, "reliable"};
  RecursiveMutex stack_mutex{kRankStack, "stack"};
  const LockGuard reliable_guard(reliable_mutex);
  try {
    const LockGuard stack_guard(stack_mutex);
    FAIL() << "expected LogicError";
  } catch (const LogicError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("lock-order"), std::string::npos);
    EXPECT_NE(what.find("stack"), std::string::npos);
    EXPECT_NE(what.find("reliable"), std::string::npos);
  }
}

TEST(LockOrder, RecursiveReentryIsExempt) {
  RecursiveMutex stack_mutex{kRankStack, "stack"};
  Mutex reliable_mutex{kRankReliable, "reliable"};
  const LockGuard outer(stack_mutex);
  const LockGuard reliable_guard(reliable_mutex);
  // Re-entering the stack mutex this thread already owns is fine even
  // while a higher rank is held — it cannot block.
  const LockGuard inner(stack_mutex);
  SUCCEED();
}

TEST(LockOrder, SameRankSiblingsAreAllowed) {
  // Two members' stacks in one thread (delivery callback of one member
  // broadcasting on another) share a rank; that is not an inversion.
  RecursiveMutex mutex_a{kRankStack, "stack A"};
  RecursiveMutex mutex_b{kRankStack, "stack B"};
  const LockGuard guard_a(mutex_a);
  const LockGuard guard_b(mutex_b);
  SUCCEED();
}

TEST(LockOrder, ReleaseRestoresCleanState) {
  Mutex transport_mutex{kRankTransport, "batching"};
  RecursiveMutex stack_mutex{kRankStack, "stack"};
  {
    const LockGuard transport_guard(transport_mutex);
  }
  // After release, acquiring a lower rank is legal again.
  const LockGuard stack_guard(stack_mutex);
  SUCCEED();
}

TEST(LockOrder, CondVarWaitPreservesRankBookkeeping) {
  // A CondVar wait releases the native mutex while blocked but keeps the
  // thread's rank entry; after the wait returns, the discipline still
  // sees the lock held and release restores a clean slate.
  Mutex mu{kRankReliable, "cv mutex"};
  CondVar cv;
  bool ready = true;
  {
    const LockGuard guard(mu);
    cv.wait(mu, [&] { return ready; });
    // Still holding mu at its rank: acquiring a LOWER rank must throw.
    RecursiveMutex stack_mutex{kRankStack, "stack"};
    EXPECT_THROW({ const LockGuard bad(stack_mutex); }, LogicError);
  }
  RecursiveMutex stack_mutex{kRankStack, "stack"};
  const LockGuard fine(stack_mutex);
  SUCCEED();
}

}  // namespace
}  // namespace cbc
