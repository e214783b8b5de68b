// Tests for the trace recorder and space-time diagram renderer.
#include <gtest/gtest.h>

#include "causal/osend.h"
#include "common/group_fixture.h"
#include "common/sim_env.h"
#include "sim/trace.h"
#include "util/ensure.h"

namespace cbc::sim {
namespace {

TEST(Trace, RecordsAndFiltersByNode) {
  Trace trace;
  trace.record(10, 0, TraceKind::kSend, "m1");
  trace.record(20, 1, TraceKind::kDeliver, "m1");
  trace.record(5, 1, TraceKind::kMark, "boot");
  EXPECT_EQ(trace.size(), 3u);
  const auto at1 = trace.at_node(1);
  ASSERT_EQ(at1.size(), 2u);
  EXPECT_EQ(at1[0].detail, "boot");  // sorted by time
  EXPECT_EQ(at1[1].detail, "m1");
}

TEST(Trace, HappensBeforeQueries) {
  Trace trace;
  trace.record(10, 0, TraceKind::kSend, "send m1");
  trace.record(25, 1, TraceKind::kDeliver, "deliver m1");
  EXPECT_TRUE(trace.happens_before(0, "send m1", 1, "deliver m1"));
  EXPECT_FALSE(trace.happens_before(1, "deliver m1", 0, "send m1"));
  EXPECT_FALSE(trace.happens_before(0, "nonexistent", 1, "deliver m1"));
}

TEST(Trace, RenderProducesColumnsAndGlyphs) {
  Trace trace;
  trace.record(100, 0, TraceKind::kSend, "m");
  trace.record(250, 1, TraceKind::kDeliver, "m");
  trace.record(300, 1, TraceKind::kMark, "stable");
  const std::string diagram = trace.render(2);
  EXPECT_NE(diagram.find("node 0"), std::string::npos);
  EXPECT_NE(diagram.find("node 1"), std::string::npos);
  EXPECT_NE(diagram.find("* m"), std::string::npos);
  EXPECT_NE(diagram.find("o m"), std::string::npos);
  EXPECT_NE(diagram.find("# stable"), std::string::npos);
  EXPECT_NE(diagram.find("100"), std::string::npos);
}

TEST(Trace, RenderValidation) {
  Trace trace;
  EXPECT_THROW((void)trace.render(0), InvalidArgument);
  EXPECT_THROW((void)trace.render(2, 3), InvalidArgument);
}

TEST(Trace, WiredToARealScenario) {
  // Record a protocol send and the group's deliveries into a trace and
  // check the diagram tells the Figure-2 story: send at one node precedes
  // delivery at the others.
  testkit::SimEnv env;
  Trace trace;
  testkit::Group<cbc::OSendMember> group(env.transport, 3);
  trace.record(env.scheduler.now(), 0, TraceKind::kSend, "osend mk");
  group[0].osend("mk", {}, cbc::DepSpec::none());
  env.run();
  for (std::size_t node = 0; node < group.size(); ++node) {
    for (const cbc::Delivery& delivery : group.log(node)) {
      trace.record(delivery.delivered_at, static_cast<NodeId>(node),
                   TraceKind::kDeliver,
                   "deliver from n" + std::to_string(delivery.sender));
    }
  }
  EXPECT_TRUE(trace.happens_before(0, "osend mk", 1, "deliver from n0"));
  EXPECT_TRUE(trace.happens_before(0, "osend mk", 2, "deliver from n0"));
  const std::string diagram = trace.render(3);
  EXPECT_NE(diagram.find("osend mk"), std::string::npos);
}

}  // namespace
}  // namespace cbc::sim
