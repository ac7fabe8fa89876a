// Unit tests for the common substrate: RNG determinism and distributions, statistics,
// binary serialization, table formatting, and the thread pool's fork-join.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/common/serialization.h"
#include "src/common/stats.h"
#include "src/common/table.h"
#include "src/common/thread_pool.h"

namespace mocc {
namespace {

TEST(RngTest, SameSeedSameStream) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, DifferentSeedsDifferentStreams) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.NextU64() == b.NextU64()) {
      ++equal;
    }
  }
  EXPECT_EQ(equal, 0);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, UniformRespectsBounds) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.Uniform(-3.0, 5.0);
    EXPECT_GE(x, -3.0);
    EXPECT_LT(x, 5.0);
  }
}

TEST(RngTest, UniformIntCoversRangeInclusive) {
  Rng rng(11);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const int64_t v = rng.UniformInt(2, 5);
    EXPECT_GE(v, 2);
    EXPECT_LE(v, 5);
    saw_lo |= (v == 2);
    saw_hi |= (v == 5);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, NormalMomentsRoughlyCorrect) {
  Rng rng(13);
  RunningStat stat;
  for (int i = 0; i < 50000; ++i) {
    stat.Add(rng.Normal(2.0, 3.0));
  }
  EXPECT_NEAR(stat.Mean(), 2.0, 0.1);
  EXPECT_NEAR(stat.StdDev(), 3.0, 0.1);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(17);
  int hits = 0;
  for (int i = 0; i < 20000; ++i) {
    hits += rng.Bernoulli(0.3) ? 1 : 0;
  }
  EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
}

TEST(RngTest, BernoulliEdgeCases) {
  Rng rng(19);
  EXPECT_FALSE(rng.Bernoulli(0.0));
  EXPECT_FALSE(rng.Bernoulli(-1.0));
  EXPECT_TRUE(rng.Bernoulli(1.0));
  EXPECT_TRUE(rng.Bernoulli(2.0));
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(21);
  Rng child = a.Fork();
  EXPECT_NE(a.NextU64(), child.NextU64());
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(23);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7};
  auto sorted = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(RunningStatTest, BasicMoments) {
  RunningStat s;
  for (double x : {1.0, 2.0, 3.0, 4.0}) {
    s.Add(x);
  }
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.Mean(), 2.5);
  EXPECT_NEAR(s.Variance(), 5.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.Min(), 1.0);
  EXPECT_DOUBLE_EQ(s.Max(), 4.0);
  EXPECT_DOUBLE_EQ(s.Sum(), 10.0);
}

TEST(RunningStatTest, EmptyIsZero) {
  RunningStat s;
  EXPECT_EQ(s.Mean(), 0.0);
  EXPECT_EQ(s.Variance(), 0.0);
  EXPECT_EQ(s.Min(), 0.0);
}

TEST(PercentileTest, InterpolatesBetweenOrderStatistics) {
  std::vector<double> v = {10, 20, 30, 40};
  EXPECT_DOUBLE_EQ(Percentile(v, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 1.0), 40.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 0.5), 25.0);
}

TEST(PercentileTest, EmptyReturnsZero) { EXPECT_EQ(Percentile({}, 0.5), 0.0); }

TEST(CdfTest, MonotoneAndComplete) {
  auto cdf = EmpiricalCdf({3.0, 1.0, 2.0});
  ASSERT_EQ(cdf.size(), 3u);
  EXPECT_DOUBLE_EQ(cdf[0].value, 1.0);
  EXPECT_DOUBLE_EQ(cdf.back().cumulative_probability, 1.0);
  for (size_t i = 1; i < cdf.size(); ++i) {
    EXPECT_LE(cdf[i - 1].value, cdf[i].value);
    EXPECT_LT(cdf[i - 1].cumulative_probability, cdf[i].cumulative_probability);
  }
}

TEST(JainTest, EqualSharesGiveOne) {
  EXPECT_DOUBLE_EQ(JainFairnessIndex({5, 5, 5}), 1.0);
}

TEST(JainTest, SingleHogGivesOneOverN) {
  EXPECT_NEAR(JainFairnessIndex({1, 0, 0, 0}), 0.25, 1e-12);
}

TEST(JainTest, DegenerateInputsGiveOne) {
  EXPECT_DOUBLE_EQ(JainFairnessIndex({}), 1.0);
  EXPECT_DOUBLE_EQ(JainFairnessIndex({0, 0}), 1.0);
}

TEST(SlopeTest, ExactLine) {
  EXPECT_NEAR(LeastSquaresSlope({0, 1, 2, 3}, {1, 3, 5, 7}), 2.0, 1e-12);
}

TEST(SlopeTest, DegenerateInputs) {
  EXPECT_EQ(LeastSquaresSlope({1}, {2}), 0.0);
  EXPECT_EQ(LeastSquaresSlope({2, 2, 2}, {1, 5, 9}), 0.0);
}

TEST(Gaussian2dTest, AxisAlignedCloud) {
  // x spread 2x wider than y: major axis along x.
  std::vector<double> x;
  std::vector<double> y;
  Rng rng(5);
  for (int i = 0; i < 20000; ++i) {
    x.push_back(rng.Normal(1.0, 2.0));
    y.push_back(rng.Normal(-1.0, 1.0));
  }
  const Gaussian2d g = FitGaussian2d(x, y);
  EXPECT_NEAR(g.mean_x, 1.0, 0.1);
  EXPECT_NEAR(g.mean_y, -1.0, 0.1);
  EXPECT_NEAR(g.ellipse_major, 2.0, 0.1);
  EXPECT_NEAR(g.ellipse_minor, 1.0, 0.1);
  EXPECT_NEAR(std::abs(std::remainder(g.ellipse_angle_rad, M_PI)), 0.0, 0.1);
}

TEST(SerializationTest, RoundTripPrimitives) {
  std::stringstream ss;
  BinaryWriter w(ss, "TESTMAGC", 3);
  w.WriteU32(42);
  w.WriteU64(1ULL << 40);
  w.WriteI64(-77);
  w.WriteDouble(3.25);
  w.WriteString("hello world");
  w.WriteDoubleVector({1.5, -2.5, 0.0});
  ASSERT_TRUE(w.ok());

  BinaryReader r(ss, "TESTMAGC", 3);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.ReadU32(), 42u);
  EXPECT_EQ(r.ReadU64(), 1ULL << 40);
  EXPECT_EQ(r.ReadI64(), -77);
  EXPECT_DOUBLE_EQ(r.ReadDouble(), 3.25);
  EXPECT_EQ(r.ReadString(), "hello world");
  EXPECT_EQ(r.ReadDoubleVector(), (std::vector<double>{1.5, -2.5, 0.0}));
  EXPECT_TRUE(r.ok());
}

TEST(SerializationTest, WrongMagicFails) {
  std::stringstream ss;
  BinaryWriter w(ss, "MAGICAAA", 1);
  w.WriteU32(1);
  BinaryReader r(ss, "MAGICBBB", 1);
  EXPECT_FALSE(r.ok());
}

TEST(SerializationTest, WrongVersionFails) {
  std::stringstream ss;
  BinaryWriter w(ss, "MAGICAAA", 1);
  BinaryReader r(ss, "MAGICAAA", 2);
  EXPECT_FALSE(r.ok());
}

TEST(SerializationTest, TruncatedStreamReportsFailure) {
  std::stringstream ss;
  BinaryWriter w(ss, "MAGICAAA", 1);
  w.WriteU32(5);
  BinaryReader r(ss, "MAGICAAA", 1);
  r.ReadU32();
  r.ReadDouble();  // past the end
  EXPECT_FALSE(r.ok());
}

TEST(SerializationTest, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/mocc_serialization_test.bin";
  ASSERT_TRUE(WriteFile(path, "contents\x00with null" + std::string(1, '\0')));
  std::string back;
  ASSERT_TRUE(ReadFile(path, &back));
  EXPECT_EQ(back.substr(0, 8), "contents");
}

TEST(SerializationTest, TruncatedHeaderFails) {
  // A file cut off inside the magic/version header must fail cleanly.
  std::stringstream ss;
  ss << "MAGI";  // half a magic
  BinaryReader r(ss, "MAGICAAA", 1);
  EXPECT_FALSE(r.ok());
}

TEST(SerializationTest, HugeDeclaredStringLengthRejected) {
  // A corrupt length prefix claiming more bytes than the stream holds must not
  // trigger a giant allocation — the reader checks the declared size against
  // the remaining bytes first.
  std::stringstream ss;
  BinaryWriter w(ss, "MAGICAAA", 1);
  w.WriteU64(1ULL << 60);  // absurd string length, no payload behind it
  BinaryReader r(ss, "MAGICAAA", 1);
  const std::string s = r.ReadString();
  EXPECT_TRUE(s.empty());
  EXPECT_FALSE(r.ok());
}

TEST(SerializationTest, HugeDeclaredVectorLengthRejected) {
  std::stringstream ss;
  BinaryWriter w(ss, "MAGICAAA", 1);
  w.WriteU64(1ULL << 58);  // would be an exabyte of doubles
  BinaryReader r(ss, "MAGICAAA", 1);
  const std::vector<double> v = r.ReadDoubleVector();
  EXPECT_TRUE(v.empty());
  EXPECT_FALSE(r.ok());
}

TEST(SerializationTest, ReadsAfterFailureStayFailed) {
  // Once a reader trips, every later read returns a zero value and ok() stays
  // false — callers can batch reads and check ok() once at the end.
  std::stringstream ss;
  BinaryWriter w(ss, "MAGICAAA", 1);
  w.WriteU32(5);
  BinaryReader r(ss, "MAGICAAA", 1);
  r.ReadU32();
  r.ReadDouble();  // past the end: trips the failure latch
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.ReadU32(), 0u);
  EXPECT_EQ(r.ReadI64(), 0);
  EXPECT_EQ(r.ReadString(), "");
  EXPECT_TRUE(r.ReadDoubleVector().empty());
  EXPECT_FALSE(r.ok());
}

TEST(SerializationTest, AtomicWriteFileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/mocc_atomic_write_test.bin";
  // Seed the destination with stale content; the atomic path must replace it.
  ASSERT_TRUE(WriteFile(path, "stale"));
  ASSERT_TRUE(AtomicWriteFile(path, "fresh contents"));
  std::string back;
  ASSERT_TRUE(ReadFile(path, &back));
  EXPECT_EQ(back, "fresh contents");
}

TEST(SerializationTest, AtomicWriteFileFailsOnBadDirectory) {
  // Destination directory does not exist: the temp-file create fails and the
  // call reports it instead of leaving partial state.
  EXPECT_FALSE(AtomicWriteFile("/nonexistent-mocc-dir/x/y.bin", "data"));
}

TEST(TableTest, AlignsAndCounts) {
  TablePrinter t({"name", "value"});
  t.AddRow({"alpha", TablePrinter::Num(1.5, 2)});
  t.AddRow({"bb"});
  EXPECT_EQ(t.row_count(), 2u);
  std::ostringstream os;
  t.Print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("1.50"), std::string::npos);
  std::ostringstream csv;
  t.PrintCsv(csv);
  EXPECT_NE(csv.str().find("name,value"), std::string::npos);
}

// No timing assertions here: only what ran and how often. A lost wake-up or a
// worker that never leaves its poll would hang the test (and trip the ctest
// timeout) rather than fail an inequality.
TEST(ThreadPoolTest, EveryIndexRunsOnceWhenTasksOutnumberWorkers) {
  ThreadPool pool(3);  // two workers + the caller
  for (int n : {2, 3, 7, 64}) {
    std::vector<std::atomic<int>> runs(static_cast<size_t>(n));
    pool.ParallelFor(n, [&](int i) { runs[static_cast<size_t>(i)].fetch_add(1); });
    for (int i = 0; i < n; ++i) {
      EXPECT_EQ(runs[static_cast<size_t>(i)].load(), 1) << "n=" << n << " index " << i;
    }
  }
}

TEST(ThreadPoolTest, BackToBackPairJobsReturnPerSlotResults) {
  ThreadPool pool(4);
  for (int job = 0; job < 2000; ++job) {
    double slots[2] = {-1.0, -1.0};
    pool.ParallelFor(2, [&](int i) {
      double acc = 0.0;
      for (int k = 0; k <= (job % 7) * 50; ++k) {
        acc += static_cast<double>(k * (i + 1));
      }
      slots[i] = acc + job;
    });
    for (int i = 0; i < 2; ++i) {
      const int last = (job % 7) * 50;
      const double expected = static_cast<double>(last) * (last + 1) / 2.0 * (i + 1) + job;
      ASSERT_EQ(slots[i], expected) << "job " << job << " slot " << i;
    }
  }
}

TEST(ThreadPoolTest, PoolsDestroyedRightAfterAJobAllComplete) {
  // The destructor must get every worker out of its poll window and joined.
  int completed = 0;
  for (int p = 0; p < 1000; ++p) {
    ThreadPool pool(3);
    std::atomic<int> ran{0};
    pool.ParallelFor(3, [&](int) { ran.fetch_add(1); });
    ASSERT_EQ(ran.load(), 3) << "pool " << p;
    ++completed;
  }
  EXPECT_EQ(completed, 1000);
}

TEST(ThreadPoolTest, NestedParallelForRunsInline) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> runs(12);
  pool.ParallelFor(3, [&](int outer) {
    pool.ParallelFor(4, [&](int inner) {
      runs[static_cast<size_t>(outer * 4 + inner)].fetch_add(1);
    });
  });
  for (size_t i = 0; i < runs.size(); ++i) {
    EXPECT_EQ(runs[i].load(), 1) << "index " << i;
  }
}

}  // namespace
}  // namespace mocc
