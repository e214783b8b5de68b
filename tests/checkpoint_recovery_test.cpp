// Crash-recovery persistence edges: every way a checkpoint file can be
// unreadable (missing, truncated, version-bumped, magic-corrupted) must
// be a clean InvalidArgument — recovery code paths branch on that — and
// an InvariantChecker seeded via restore() must chain new stable cycles
// off the restored digest tail while treating floor-covered deliveries
// as already seen.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "apps/counter.h"
#include "check/invariant_checker.h"
#include "common/group_fixture.h"
#include "fault/checkpoint.h"
#include "time/vector_clock.h"
#include "util/digest_window.h"
#include "util/ensure.h"
#include "util/serde.h"

namespace cbc {
namespace {

using check::InvariantChecker;
using check::InvariantMonitor;
using fault::Checkpoint;

Checkpoint sample_checkpoint() {
  Checkpoint snapshot;
  snapshot.node = 1;
  snapshot.cycles = 2;
  snapshot.stable_digests = {0xAAAA, 0xBBBB};
  snapshot.last_sync = MessageId{0, 7};
  snapshot.frontier = VectorClock(3);
  snapshot.app_state = {9, 8, 7};
  return snapshot;
}

std::vector<char> file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

void write_bytes(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(CheckpointFile, SaveLoadRoundTrip) {
  const Checkpoint snapshot = sample_checkpoint();
  const std::string path = testing::TempDir() + "checkpoint_roundtrip.bin";
  snapshot.save(path);
  const Checkpoint loaded = Checkpoint::load(path);
  EXPECT_EQ(loaded.node, snapshot.node);
  EXPECT_EQ(loaded.cycles, snapshot.cycles);
  EXPECT_EQ(loaded.stable_digests, snapshot.stable_digests);
  EXPECT_EQ(loaded.last_sync, snapshot.last_sync);
  EXPECT_EQ(loaded.app_state, snapshot.app_state);
  std::remove(path.c_str());
}

TEST(CheckpointFile, FailedFlushKeepsThePreviousCheckpoint) {
  if (::access("/dev/full", W_OK) != 0) {
    GTEST_SKIP() << "/dev/full is not available";
  }
  const std::string path = testing::TempDir() + "checkpoint_full_disk.bin";
  const std::string tmp = path + ".tmp";
  Checkpoint previous = sample_checkpoint();
  previous.cycles = 3;
  previous.stable_digests = {0xAAAA, 0xBBBB, 0xCCCC};
  previous.save(path);
  // The next save's tmp file is a device that fails every flush (ENOSPC).
  std::remove(tmp.c_str());
  ASSERT_EQ(::symlink("/dev/full", tmp.c_str()), 0);
  EXPECT_THROW(sample_checkpoint().save(path), InvalidArgument);
  EXPECT_NE(::access(tmp.c_str(), F_OK), 0) << "tmp left behind";
  // Renaming the device over the checkpoint would make load() read
  // /dev/full's endless zeros; stop before that.
  ASSERT_TRUE(std::filesystem::is_regular_file(
      std::filesystem::symlink_status(path)))
      << "the previous checkpoint was replaced";
  const Checkpoint loaded = Checkpoint::load(path);
  EXPECT_EQ(loaded.cycles, 3u);
  EXPECT_EQ(loaded.stable_digests, previous.stable_digests);
  std::remove(tmp.c_str());
  std::remove(path.c_str());
}

TEST(CheckpointFile, MissingFileThrows) {
  EXPECT_THROW((void)Checkpoint::load("/nonexistent/dir/checkpoint.bin"),
               InvalidArgument);
}

TEST(CheckpointFile, EveryTruncationThrows) {
  const std::string path = testing::TempDir() + "checkpoint_truncated.bin";
  sample_checkpoint().save(path);
  const std::vector<char> full = file_bytes(path);
  ASSERT_GT(full.size(), 8u);
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    write_bytes(path, {full.begin(), full.begin() + cut});
    EXPECT_THROW((void)Checkpoint::load(path), InvalidArgument)
        << "prefix of " << cut << " bytes loaded";
  }
  std::remove(path.c_str());
}

TEST(CheckpointFile, VersionMismatchAndBadMagicThrow) {
  const std::string path = testing::TempDir() + "checkpoint_version.bin";
  sample_checkpoint().save(path);
  const std::vector<char> full = file_bytes(path);

  std::vector<char> bumped = full;
  bumped[4] = 42;  // version field (bytes 4..7, little-endian)
  write_bytes(path, bumped);
  EXPECT_THROW((void)Checkpoint::load(path), InvalidArgument);

  std::vector<char> corrupted = full;
  corrupted[0] = static_cast<char>(corrupted[0] ^ 0x1);  // magic
  write_bytes(path, corrupted);
  EXPECT_THROW((void)Checkpoint::load(path), InvalidArgument);

  // A valid header whose cycle count disagrees with its digest chain is
  // internally inconsistent and must be rejected too.
  Checkpoint lying = sample_checkpoint();
  lying.cycles = 5;
  lying.save(path);
  EXPECT_THROW((void)Checkpoint::load(path), InvalidArgument);
  std::remove(path.c_str());
}

// ---------- InvariantChecker::restore ----------

/// Minimal injectable member (same shape as check_invariants_test).
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
  void set_deliver(DeliverFn deliver) override {
    deliver_ = std::move(deliver);
  }
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

TEST(CheckerRestore, RestoredChainExtendsAndFloorsSatisfyDependencies) {
  InvariantChecker::Options options;
  options.stable_spec = apps::Counter::spec();
  InvariantMonitor monitor(options);
  auto stub_owner = std::make_unique<StubMember>(0);
  StubMember* stub = stub_owner.get();
  const std::unique_ptr<InvariantChecker> checker =
      monitor.attach(std::move(stub_owner));

  const std::vector<std::uint64_t> restored = {0xAAAA, 0xBBBB};
  checker->restore(restored, {{0, 2}, {1, 2}});
  EXPECT_EQ(checker->stable_digests(), restored);

  // Dependencies on floor-covered ids are satisfied by the checkpoint;
  // seqs resume above the floor with no gap violation.
  stub->inject({0, 3}, "inc", {{1, 2}});
  stub->inject({1, 3}, "inc", {{0, 3}});
  stub->inject({0, 4}, "rd", {{0, 3}, {1, 3}});
  EXPECT_EQ(checker->violation_count(), 0u) << monitor.report();
  checker->check_no_gaps();
  EXPECT_EQ(checker->violation_count(), 0u) << monitor.report();

  // The sync closed one new cycle, chained off the restored tail.
  ASSERT_EQ(checker->stable_digests().size(), 3u);
  EXPECT_EQ(checker->stable_digests()[0], restored[0]);
  EXPECT_EQ(checker->stable_digests()[1], restored[1]);
  EXPECT_NE(checker->stable_digests()[2], restored[1]);

  // A second restored-and-replayed checker lands on the identical chain —
  // recovery must be deterministic or digest agreement breaks.
  InvariantMonitor again_monitor(options);
  auto again_owner = std::make_unique<StubMember>(0);
  StubMember* again = again_owner.get();
  const std::unique_ptr<InvariantChecker> twin =
      again_monitor.attach(std::move(again_owner));
  twin->restore(restored, {{0, 2}, {1, 2}});
  again->inject({0, 3}, "inc", {{1, 2}});
  again->inject({1, 3}, "inc", {{0, 3}});
  again->inject({0, 4}, "rd", {{0, 3}, {1, 3}});
  EXPECT_EQ(twin->stable_digests(), checker->stable_digests());
}

TEST(CheckerRestore, SeqBelowFloorIsNotAGapAboveItIs) {
  InvariantChecker::Options options;
  options.stable_spec = apps::Counter::spec();
  InvariantMonitor monitor(options);
  auto stub_owner = std::make_unique<StubMember>(0);
  StubMember* stub = stub_owner.get();
  const std::unique_ptr<InvariantChecker> checker =
      monitor.attach(std::move(stub_owner));
  checker->restore({0x1}, {{1, 4}});

  // Seq 6 skips seq 5 — a real gap above the floor.
  stub->inject({1, 6}, "inc");
  checker->check_no_gaps();
  EXPECT_GT(checker->violation_count(), 0u);
}

/// Closes `cycles` stable cycles through `stub` (one inc, then a sync).
void close_cycles(StubMember& stub, int cycles) {
  for (int c = 0; c < cycles; ++c) {
    const SeqNo seq = static_cast<SeqNo>(2 * c + 1);
    stub.inject({0, seq}, "inc");
    stub.inject({0, seq + 1}, "rd", {{0, seq}});
  }
}

/// A checkpoint the way cbc_node captures one from its checker.
Checkpoint capture(const InvariantChecker& checker) {
  Checkpoint snapshot = sample_checkpoint();
  snapshot.cycles = checker.stable_cycles();
  snapshot.stable_digests = checker.stable_digests();
  return snapshot;
}

TEST(CheckpointFile, EncodedSizeIsFlatAcrossCycles) {
  InvariantChecker::Options options;
  options.stable_spec = apps::Counter::spec();
  std::vector<std::size_t> sizes;
  for (const int cycles : {100, 1000}) {
    InvariantMonitor monitor(options);
    auto stub_owner = std::make_unique<StubMember>(0);
    StubMember* stub = stub_owner.get();
    const std::unique_ptr<InvariantChecker> checker =
        monitor.attach(std::move(stub_owner));
    close_cycles(*stub, cycles);
    const Checkpoint snapshot = capture(*checker);
    EXPECT_EQ(snapshot.cycles, static_cast<std::uint64_t>(cycles));
    Writer writer;
    snapshot.encode(writer);
    sizes.push_back(writer.size());
    Reader reader(writer.bytes());
    const Checkpoint decoded = Checkpoint::decode(reader);
    EXPECT_EQ(decoded.window().at(snapshot.cycles),
              checker->stable_digests().back());
  }
  EXPECT_EQ(sizes[0], sizes[1]);
}

TEST(CheckpointFile, FirstDivergentCycleComparesTheOverlappingWindow) {
  Checkpoint newer = sample_checkpoint();
  newer.cycles = 100;
  newer.stable_digests.clear();
  for (std::uint64_t cycle = 37; cycle <= 100; ++cycle) {
    newer.stable_digests.push_back(cycle * 7);
  }
  Checkpoint older = newer;
  older.cycles = 90;
  older.stable_digests.clear();
  for (std::uint64_t cycle = 27; cycle <= 90; ++cycle) {
    older.stable_digests.push_back(cycle * 7);
  }
  EXPECT_EQ(overlap(newer.window(), older.window()), 54u);  // 37..90
  EXPECT_EQ(first_divergent_cycle(newer.window(), older.window()),
            std::nullopt);
  older.stable_digests[50 - 27] ^= 1;  // cycle 50, inside the overlap
  EXPECT_EQ(first_divergent_cycle(newer.window(), older.window()),
            std::optional<std::uint64_t>(50));
  EXPECT_EQ(first_divergent_cycle(older.window(), newer.window()),
            std::optional<std::uint64_t>(50));
  older.stable_digests[50 - 27] ^= 1;
  older.stable_digests[37 - 27] ^= 1;  // the first cycle both hold
  EXPECT_EQ(first_divergent_cycle(newer.window(), older.window()),
            std::optional<std::uint64_t>(37));
  older.stable_digests[37 - 27] ^= 1;
  older.stable_digests[0] ^= 1;  // cycle 27: only the older one holds it
  EXPECT_EQ(first_divergent_cycle(newer.window(), older.window()),
            std::nullopt);
  // More than a window apart, nothing overlaps: nothing is compared,
  // which recovery reports instead of passing silently.
  newer.cycles = 200;
  EXPECT_EQ(overlap(newer.window(), older.window()), 0u);
  EXPECT_EQ(first_divergent_cycle(newer.window(), older.window()),
            std::nullopt);
}

TEST(CheckerRestore, WindowedChainResumesAtItsCycleCount) {
  // A checkpoint of cycle 1,000 carries only the chain's newest digests;
  // the restored checker counts on from 1,000 and chains off the last.
  InvariantChecker::Options options;
  options.stable_spec = apps::Counter::spec();
  InvariantMonitor monitor(options);
  auto stub_owner = std::make_unique<StubMember>(0);
  StubMember* stub = stub_owner.get();
  const std::unique_ptr<InvariantChecker> checker =
      monitor.attach(std::move(stub_owner));
  std::vector<std::uint64_t> window;
  for (std::uint64_t d = 1; d <= DigestWindow::kCapacity; ++d) {
    window.push_back(d);
  }
  checker->restore(1000, window, {{0, 2000}, {1, 2000}});
  EXPECT_EQ(checker->stable_cycles(), 1000u);
  EXPECT_EQ(checker->stable_window().at(1000), window.back());
  stub->inject({0, 2001}, "inc");
  stub->inject({0, 2002}, "rd", {{0, 2001}});
  EXPECT_EQ(checker->violation_count(), 0u) << monitor.report();
  EXPECT_EQ(checker->stable_cycles(), 1001u);
  ASSERT_EQ(checker->stable_digests().size(), window.size());
  EXPECT_EQ(checker->stable_window().at(1000), window.back());
  EXPECT_NE(checker->stable_window().at(1001), window.back());
}

}  // namespace
}  // namespace cbc
