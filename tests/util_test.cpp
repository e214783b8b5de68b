// Unit tests for src/util: ensure, rng, serde, stats, logging.
#include <gtest/gtest.h>

#include <cmath>

#include "util/ensure.h"
#include "util/parse.h"
#include "util/prefix_seq_set.h"
#include "util/rng.h"
#include "util/serde.h"
#include "util/stats.h"

namespace cbc {
namespace {

// ---------- ensure ----------

TEST(Ensure, PassingChecksDoNotThrow) {
  EXPECT_NO_THROW(ensure(true, "ok"));
  EXPECT_NO_THROW(require(true, "ok"));
  EXPECT_NO_THROW(protocol_ensure(true, "ok"));
}

TEST(Ensure, FailingEnsureThrowsLogicError) {
  EXPECT_THROW(ensure(false, "broken"), LogicError);
}

TEST(Ensure, FailingRequireThrowsInvalidArgument) {
  EXPECT_THROW(require(false, "bad arg"), InvalidArgument);
}

TEST(Ensure, FailingProtocolEnsureThrowsProtocolViolation) {
  EXPECT_THROW(protocol_ensure(false, "protocol broken"), ProtocolViolation);
}

TEST(Ensure, MessageContainsTextAndLocation) {
  try {
    ensure(false, "xyzzy-marker");
    FAIL() << "expected throw";
  } catch (const LogicError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("xyzzy-marker"), std::string::npos);
    EXPECT_NE(what.find("util_test.cpp"), std::string::npos);
  }
}

// ---------- PrefixSeqSet ----------

TEST(Parse, ProbabilityIsAWholeTokenInZeroOne) {
  EXPECT_EQ(parse_probability("drop", "0"), 0.0);
  EXPECT_EQ(parse_probability("drop", "1"), 1.0);
  EXPECT_EQ(parse_probability("drop", "0.25"), 0.25);
  EXPECT_EQ(parse_probability("drop", ".5"), 0.5);
  EXPECT_EQ(parse_probability("drop", "5e-1"), 0.5);
  for (const char* token :
       {"", "nan", "NaN", "inf", "-0", "-0.1", "+0.5", " 0.5", "0.5 ",
        "0.5x", "1.0001", "2", "1e999", "0x1p-1", "0,5"}) {
    try {
      (void)parse_probability("drop", token);
      ADD_FAILURE() << "accepted '" << token << "'";
    } catch (const InvalidArgument& error) {
      const std::string what = error.what();
      EXPECT_NE(what.find("drop"), std::string::npos) << what;
      EXPECT_NE(what.find("'" + std::string(token) + "'"), std::string::npos)
          << what;
    }
  }
}

TEST(PrefixSeqSet, OutOfOrderSeqsFoldIntoTheFloor) {
  PrefixSeqSet seqs;
  seqs.insert(1);
  seqs.insert(3);
  seqs.insert(5);
  EXPECT_EQ(seqs.floor(), 1u);
  EXPECT_EQ(seqs.above(), (std::set<SeqNo>{3, 5}));
  EXPECT_TRUE(seqs.contains(3));
  EXPECT_FALSE(seqs.contains(2));
  seqs.insert(2);  // fills the hole: 3 folds in, 5 still sits past 4
  EXPECT_EQ(seqs.floor(), 3u);
  EXPECT_EQ(seqs.above(), (std::set<SeqNo>{5}));
  seqs.insert(2);  // already present: no change
  EXPECT_EQ(seqs.floor(), 3u);
}

TEST(PrefixSeqSet, RaisedFloorDropsCoveredSeqsAndAbsorbsTheRest) {
  PrefixSeqSet seqs;
  seqs.insert(4);
  seqs.insert(7);
  seqs.raise_floor(6);  // covers 4; 7 is now contiguous
  EXPECT_EQ(seqs.floor(), 7u);
  EXPECT_TRUE(seqs.above().empty());
  seqs.raise_floor(2);  // lower than the floor: no change
  EXPECT_EQ(seqs.floor(), 7u);
  EXPECT_TRUE(seqs.contains(1));
  EXPECT_FALSE(seqs.contains(8));
}

// ---------- rng ----------

TEST(Rng, SameSeedSameStream) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int differing = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() != b.next_u64()) {
      ++differing;
    }
  }
  EXPECT_GT(differing, 60);
}

TEST(Rng, NextBelowRespectsBound) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
  }
}

TEST(Rng, NextBelowRejectsZeroBound) {
  Rng rng(7);
  EXPECT_THROW(rng.next_below(0), InvalidArgument);
}

TEST(Rng, NextInCoversRangeInclusive) {
  Rng rng(11);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 5000; ++i) {
    const std::int64_t v = rng.next_in(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(13);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.next_double();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, NextBoolExtremes) {
  Rng rng(17);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.next_bool(0.0));
    EXPECT_TRUE(rng.next_bool(1.0));
  }
}

TEST(Rng, NextBoolRoughlyMatchesProbability) {
  Rng rng(19);
  int hits = 0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) {
    hits += rng.next_bool(0.3) ? 1 : 0;
  }
  const double rate = static_cast<double>(hits) / trials;
  EXPECT_NEAR(rate, 0.3, 0.02);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng parent(29);
  Rng child = parent.split();
  // The child stream should differ from the parent continuation.
  int differing = 0;
  for (int i = 0; i < 32; ++i) {
    if (parent.next_u64() != child.next_u64()) {
      ++differing;
    }
  }
  EXPECT_GT(differing, 28);
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(31);
  std::vector<int> values{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> shuffled = values;
  rng.shuffle(shuffled);
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, values);
}

TEST(Rng, ShuffleChangesOrderForLongVectors) {
  Rng rng(37);
  std::vector<int> values(100);
  for (int i = 0; i < 100; ++i) values[static_cast<std::size_t>(i)] = i;
  std::vector<int> shuffled = values;
  rng.shuffle(shuffled);
  EXPECT_NE(shuffled, values);
}

// ---------- serde ----------

TEST(Serde, ScalarRoundTrip) {
  Writer writer;
  writer.u8(0xAB);
  writer.u16(0xBEEF);
  writer.u32(0xDEADBEEF);
  writer.u64(0x0123456789ABCDEFULL);
  writer.i64(-42);
  writer.f64(3.14159);
  writer.boolean(true);
  writer.boolean(false);

  Reader reader(writer.bytes());
  EXPECT_EQ(reader.u8(), 0xAB);
  EXPECT_EQ(reader.u16(), 0xBEEF);
  EXPECT_EQ(reader.u32(), 0xDEADBEEFu);
  EXPECT_EQ(reader.u64(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(reader.i64(), -42);
  EXPECT_DOUBLE_EQ(reader.f64(), 3.14159);
  EXPECT_TRUE(reader.boolean());
  EXPECT_FALSE(reader.boolean());
  EXPECT_TRUE(reader.exhausted());
}

TEST(Serde, StringRoundTrip) {
  Writer writer;
  writer.str("hello");
  writer.str("");
  writer.str(std::string(1000, 'x'));
  Reader reader(writer.bytes());
  EXPECT_EQ(reader.str(), "hello");
  EXPECT_EQ(reader.str(), "");
  EXPECT_EQ(reader.str(), std::string(1000, 'x'));
  EXPECT_TRUE(reader.exhausted());
}

TEST(Serde, BlobAndVecRoundTrip) {
  Writer writer;
  const std::vector<std::uint8_t> blob{1, 2, 3, 255};
  writer.blob(blob);
  writer.u64_vec({10, 20, 30});
  writer.u64_vec({});
  Reader reader(writer.bytes());
  EXPECT_EQ(reader.blob(), blob);
  EXPECT_EQ(reader.u64_vec(), (std::vector<std::uint64_t>{10, 20, 30}));
  EXPECT_TRUE(reader.u64_vec().empty());
  EXPECT_TRUE(reader.exhausted());
}

TEST(Serde, TruncatedInputThrows) {
  Writer writer;
  writer.u64(7);
  const auto& bytes = writer.bytes();
  Reader reader(std::span<const std::uint8_t>(bytes.data(), 4));
  EXPECT_THROW(reader.u64(), SerdeError);
}

TEST(Serde, TruncatedStringThrows) {
  Writer writer;
  writer.u32(100);  // claims a 100-byte string with no body
  Reader reader(writer.bytes());
  EXPECT_THROW(reader.str(), SerdeError);
}

TEST(Serde, EmptyReaderIsExhausted) {
  Reader reader(std::span<const std::uint8_t>{});
  EXPECT_TRUE(reader.exhausted());
  EXPECT_EQ(reader.remaining(), 0u);
  EXPECT_THROW(reader.u8(), SerdeError);
}

TEST(Serde, NegativeDoublesAndSpecials) {
  Writer writer;
  writer.f64(-0.0);
  writer.f64(1e300);
  writer.f64(-1e-300);
  Reader reader(writer.bytes());
  EXPECT_EQ(reader.f64(), -0.0);
  EXPECT_DOUBLE_EQ(reader.f64(), 1e300);
  EXPECT_DOUBLE_EQ(reader.f64(), -1e-300);
}

// ---------- stats ----------

TEST(Histogram, EmptyBehaviour) {
  Histogram h;
  EXPECT_TRUE(h.empty());
  EXPECT_EQ(h.count(), 0u);
  EXPECT_THROW((void)h.mean(), InvalidArgument);
  EXPECT_EQ(h.summary(), "n=0");
}

// Regression: percentile/summary must be well-defined at n=0 — metric
// plumbing asks for percentiles of streams that have seen nothing yet,
// and a throwing accessor would turn an idle node's scrape into a crash.
TEST(Histogram, EmptyPercentileIsZeroNotAThrow) {
  Histogram h;
  EXPECT_DOUBLE_EQ(h.percentile(0), 0.0);
  EXPECT_DOUBLE_EQ(h.percentile(50), 0.0);
  EXPECT_DOUBLE_EQ(h.percentile(99), 0.0);
  EXPECT_DOUBLE_EQ(h.percentile(100), 0.0);
  // Out-of-range q still rejects, empty or not.
  EXPECT_THROW((void)h.percentile(-1), InvalidArgument);
  EXPECT_THROW((void)h.percentile(101), InvalidArgument);
  EXPECT_EQ(h.summary(), "n=0");
  // Adding then resetting returns to the well-defined empty answers.
  h.add(7.0);
  EXPECT_DOUBLE_EQ(h.percentile(50), 7.0);
  h.reset();
  EXPECT_DOUBLE_EQ(h.percentile(50), 0.0);
  EXPECT_EQ(h.summary(), "n=0");
}

TEST(Histogram, BasicMoments) {
  Histogram h;
  for (const double v : {1.0, 2.0, 3.0, 4.0, 5.0}) {
    h.add(v);
  }
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.mean(), 3.0);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 5.0);
  EXPECT_NEAR(h.stddev(), std::sqrt(2.0), 1e-9);
}

TEST(Histogram, Percentiles) {
  Histogram h;
  for (int i = 1; i <= 100; ++i) {
    h.add(static_cast<double>(i));
  }
  EXPECT_NEAR(h.percentile(0), 1.0, 1e-9);
  EXPECT_NEAR(h.percentile(100), 100.0, 1e-9);
  EXPECT_NEAR(h.percentile(50), 50.5, 1e-9);
  EXPECT_GT(h.percentile(99), 98.0);
}

TEST(Histogram, PercentileRejectsOutOfRange) {
  Histogram h;
  h.add(1.0);
  EXPECT_THROW((void)h.percentile(-1), InvalidArgument);
  EXPECT_THROW((void)h.percentile(101), InvalidArgument);
}

TEST(Histogram, MergeAndReset) {
  Histogram a;
  Histogram b;
  a.add(1.0);
  b.add(3.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), 2.0);
  a.reset();
  EXPECT_TRUE(a.empty());
}

TEST(Counters, IncrementAndQuery) {
  Counters c;
  EXPECT_EQ(c.get("missing"), 0u);
  c.inc("msgs");
  c.inc("msgs", 4);
  c.inc("drops");
  EXPECT_EQ(c.get("msgs"), 5u);
  EXPECT_EQ(c.get("drops"), 1u);
  const std::string summary = c.summary();
  EXPECT_NE(summary.find("msgs=5"), std::string::npos);
  EXPECT_NE(summary.find("drops=1"), std::string::npos);
}

}  // namespace
}  // namespace cbc
