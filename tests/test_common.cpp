// Unit tests: common substrate — rng, interner, stats, histogram, table.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "common/interner.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"

namespace oosp {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += a.next() == b.next();
  EXPECT_LT(same, 3);
}

TEST(Rng, UniformIntInRange) {
  Rng r(5);
  for (int i = 0; i < 10'000; ++i) {
    const auto v = r.uniform_int(-3, 7);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 7);
  }
}

TEST(Rng, UniformIntDegenerateRange) {
  Rng r(5);
  EXPECT_EQ(r.uniform_int(4, 4), 4);
  EXPECT_EQ(r.uniform_int(9, 2), 9);  // inverted range collapses to lo
}

TEST(Rng, UniformIntCoversAllValues) {
  Rng r(6);
  std::vector<int> seen(5, 0);
  for (int i = 0; i < 5'000; ++i) ++seen[static_cast<std::size_t>(r.uniform_int(0, 4))];
  for (int count : seen) EXPECT_GT(count, 800);  // ~1000 each
}

TEST(Rng, Uniform01Bounds) {
  Rng r(7);
  for (int i = 0; i < 10'000; ++i) {
    const double v = r.uniform01();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, BernoulliEdgesAndMean) {
  Rng r(8);
  EXPECT_FALSE(r.bernoulli(0.0));
  EXPECT_TRUE(r.bernoulli(1.0));
  int hits = 0;
  for (int i = 0; i < 20'000; ++i) hits += r.bernoulli(0.3);
  EXPECT_NEAR(hits / 20'000.0, 0.3, 0.02);
}

TEST(Rng, NormalMoments) {
  Rng r(9);
  StatAccumulator acc;
  for (int i = 0; i < 50'000; ++i) acc.add(r.normal(10.0, 2.0));
  EXPECT_NEAR(acc.mean(), 10.0, 0.1);
  EXPECT_NEAR(acc.stddev(), 2.0, 0.1);
}

TEST(Rng, ExponentialMean) {
  Rng r(10);
  StatAccumulator acc;
  for (int i = 0; i < 50'000; ++i) acc.add(r.exponential(0.25));
  EXPECT_NEAR(acc.mean(), 4.0, 0.2);
}

TEST(Rng, ParetoLowerBoundAndTail) {
  Rng r(11);
  StatAccumulator acc;
  for (int i = 0; i < 20'000; ++i) {
    const double v = r.pareto(2.0, 3.0);
    EXPECT_GE(v, 2.0);
    acc.add(v);
  }
  // E[pareto(xm=2, a=3)] = a*xm/(a-1) = 3.
  EXPECT_NEAR(acc.mean(), 3.0, 0.15);
}

TEST(Rng, ZipfRangeAndSkew) {
  Rng r(12);
  std::vector<int> counts(11, 0);
  for (int i = 0; i < 30'000; ++i) {
    const auto v = r.zipf(10, 1.0);
    ASSERT_GE(v, 1u);
    ASSERT_LE(v, 10u);
    ++counts[v];
  }
  EXPECT_GT(counts[1], counts[2]);
  EXPECT_GT(counts[2], counts[5]);
  EXPECT_GT(counts[1], 5 * counts[10]);
}

TEST(Rng, ZipfZeroSkewIsUniformish) {
  Rng r(13);
  std::vector<int> counts(5, 0);
  for (int i = 0; i < 20'000; ++i) ++counts[r.zipf(4, 0.0) - 1];
  for (int i = 0; i < 4; ++i) EXPECT_NEAR(counts[i], 5'000, 600);
}

TEST(Rng, WeightedIndexRespectsWeights) {
  Rng r(14);
  std::vector<double> w{1.0, 0.0, 3.0};
  std::vector<int> counts(3, 0);
  for (int i = 0; i < 20'000; ++i) ++counts[r.weighted_index(w)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(counts[2] / 20'000.0, 0.75, 0.02);
}

TEST(Rng, ForkIsIndependent) {
  Rng a(15);
  Rng b = a.fork();
  int same = 0;
  for (int i = 0; i < 100; ++i) same += a.next() == b.next();
  EXPECT_LT(same, 3);
}

TEST(Interner, RoundTrip) {
  Interner in;
  const auto a = in.intern("alpha");
  const auto b = in.intern("beta");
  EXPECT_NE(a, b);
  EXPECT_EQ(in.intern("alpha"), a);
  EXPECT_EQ(in.lookup("beta"), b);
  EXPECT_EQ(in.lookup("gamma"), Interner::kInvalid);
  EXPECT_EQ(in.name(a), "alpha");
  EXPECT_EQ(in.size(), 2u);
  EXPECT_THROW(in.name(99), std::invalid_argument);
}

TEST(Interner, ManyEntriesStayStable) {
  Interner in;
  std::vector<Interner::Id> ids;
  for (int i = 0; i < 1'000; ++i) ids.push_back(in.intern("name" + std::to_string(i)));
  for (int i = 0; i < 1'000; ++i) {
    EXPECT_EQ(in.name(ids[static_cast<std::size_t>(i)]), "name" + std::to_string(i));
    EXPECT_EQ(in.lookup("name" + std::to_string(i)), ids[static_cast<std::size_t>(i)]);
  }
}

TEST(StatAccumulator, BasicMoments) {
  StatAccumulator s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
}

TEST(StatAccumulator, EmptyIsZero) {
  const StatAccumulator s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(StatAccumulator, MergeMatchesSequential) {
  StatAccumulator all, a, b;
  Rng r(16);
  for (int i = 0; i < 1'000; ++i) {
    const double v = r.normal(3.0, 1.5);
    all.add(v);
    (i % 2 ? a : b).add(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(StatAccumulator, MergeWithEmpty) {
  StatAccumulator a, empty;
  a.add(1.0);
  a.merge(empty);
  EXPECT_EQ(a.count(), 1u);
  empty.merge(a);
  EXPECT_EQ(empty.count(), 1u);
  EXPECT_DOUBLE_EQ(empty.mean(), 1.0);
}

TEST(Table, PrettyPrintAligns) {
  Table t({"name", "value"});
  t.add_row({"x", "1"});
  t.add_row({"longer", "22"});
  std::ostringstream os;
  t.print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("| name"), std::string::npos);
  EXPECT_NE(s.find("| longer"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
  EXPECT_EQ(t.cols(), 2u);
}

TEST(Table, RowWidthMismatchThrows) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(Table, CsvEscaping) {
  Table t({"a", "b"});
  t.add_row({"plain", "with,comma"});
  t.add_row({"with\"quote", "multi\nline"});
  std::ostringstream os;
  t.print_csv(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("\"with,comma\""), std::string::npos);
  EXPECT_NE(s.find("\"with\"\"quote\""), std::string::npos);
}

TEST(Table, NumericCells) {
  EXPECT_EQ(Table::cell(1.234, 2), "1.23");
  EXPECT_EQ(Table::cell(std::uint64_t{42}), "42");
  EXPECT_EQ(Table::cell(std::int64_t{-7}), "-7");
}

}  // namespace
}  // namespace oosp
