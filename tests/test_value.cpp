// Unit tests: typed attribute values (event/value.hpp).
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <sstream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "event/value.hpp"

namespace oosp {
namespace {

TEST(Value, DefaultIsIntZero) {
  const Value v;
  EXPECT_EQ(v.type(), ValueType::kInt);
  EXPECT_EQ(v.as_int(), 0);
}

TEST(Value, TypeTags) {
  EXPECT_EQ(Value(std::int64_t{7}).type(), ValueType::kInt);
  EXPECT_EQ(Value(7).type(), ValueType::kInt);
  EXPECT_EQ(Value(7.5).type(), ValueType::kDouble);
  EXPECT_EQ(Value(true).type(), ValueType::kBool);
  EXPECT_EQ(Value("x").type(), ValueType::kString);
  EXPECT_EQ(Value(std::string("x")).type(), ValueType::kString);
}

TEST(Value, TypedAccessors) {
  EXPECT_EQ(Value(42).as_int(), 42);
  EXPECT_DOUBLE_EQ(Value(2.5).as_double(), 2.5);
  EXPECT_TRUE(Value(true).as_bool());
  EXPECT_EQ(Value("abc").as_string(), "abc");
}

TEST(Value, WrongAccessorThrows) {
  EXPECT_THROW(Value(1).as_double(), std::invalid_argument);
  EXPECT_THROW(Value(1.0).as_int(), std::invalid_argument);
  EXPECT_THROW(Value("s").as_bool(), std::invalid_argument);
  EXPECT_THROW(Value(true).as_string(), std::invalid_argument);
}

TEST(Value, NumericView) {
  EXPECT_DOUBLE_EQ(Value(3).numeric(), 3.0);
  EXPECT_DOUBLE_EQ(Value(3.25).numeric(), 3.25);
  EXPECT_THROW(Value("x").numeric(), std::invalid_argument);
  EXPECT_TRUE(Value(1).is_numeric());
  EXPECT_TRUE(Value(1.0).is_numeric());
  EXPECT_FALSE(Value(true).is_numeric());
  EXPECT_FALSE(Value("s").is_numeric());
}

TEST(Value, CrossNumericCompare) {
  EXPECT_EQ(Value(1).compare(Value(1.0)), 0);
  EXPECT_LT(Value(1).compare(Value(1.5)), 0);
  EXPECT_GT(Value(2.5).compare(Value(2)), 0);
}

TEST(Value, IntCompareIsExactAboveDoublePrecision) {
  // 2^53 + 1 and 2^53 are distinct as int64 but collide as doubles.
  const std::int64_t big = (std::int64_t{1} << 53);
  EXPECT_LT(Value(big).compare(Value(big + 1)), 0);
  EXPECT_GT(Value(big + 1).compare(Value(big)), 0);
}

TEST(Value, StringCompare) {
  EXPECT_LT(Value("abc").compare(Value("abd")), 0);
  EXPECT_EQ(Value("abc").compare(Value("abc")), 0);
  EXPECT_GT(Value("b").compare(Value("a")), 0);
}

TEST(Value, BoolCompare) {
  EXPECT_LT(Value(false).compare(Value(true)), 0);
  EXPECT_EQ(Value(true).compare(Value(true)), 0);
}

TEST(Value, IncomparableThrows) {
  EXPECT_THROW(Value(1).compare(Value("1")), std::invalid_argument);
  EXPECT_THROW(Value(true).compare(Value(1)), std::invalid_argument);
  EXPECT_FALSE(Value(1).comparable_with(Value("x")));
  EXPECT_TRUE(Value(1).comparable_with(Value(1.0)));
}

TEST(Value, EqualityAcrossTypesIsFalseNotThrow) {
  EXPECT_FALSE(Value(1) == Value("1"));
  EXPECT_TRUE(Value(1) == Value(1.0));
  EXPECT_FALSE(Value(true) == Value(1));
}

TEST(Value, HashConsistentWithEqualitySameType) {
  EXPECT_EQ(Value(5).hash(), Value(5).hash());
  EXPECT_EQ(Value("k").hash(), Value(std::string("k")).hash());
  EXPECT_EQ(Value(1.5).hash(), Value(1.5).hash());
  // Different types get different tags even for "equal" numerics; the
  // partition optimizer never mixes types, so this is by design.
  EXPECT_NE(Value(1).hash(), Value(true).hash());
}

TEST(Value, Display) {
  EXPECT_EQ(Value(7).to_display(), "7");
  EXPECT_EQ(Value(true).to_display(), "true");
  EXPECT_EQ(Value(false).to_display(), "false");
  EXPECT_EQ(Value("hi").to_display(), "\"hi\"");
  std::ostringstream os;
  os << Value(3);
  EXPECT_EQ(os.str(), "3");
}

// ---------------------------------------------------- value semantics

// std::vector<Value> relocates by moving only when moves cannot throw.
static_assert(std::is_nothrow_move_constructible_v<Value>);
static_assert(std::is_nothrow_move_assignable_v<Value>);
static_assert(std::is_nothrow_swappable_v<Value>);

// Longer than std::string's inline buffer, so the string owns a heap block.
const std::string kLong = "a string longer than any small-string buffer";

// One sample per type.
std::vector<Value> samples() { return {Value(42), Value(2.5), Value(true), Value(kLong)}; }

// Same type and same payload (operator== alone equates 1 and 1.0).
void expect_same(const Value& got, const Value& want) {
  ASSERT_EQ(got.type(), want.type());
  EXPECT_EQ(got.to_display(), want.to_display());
  EXPECT_TRUE(got == want);
}

void expect_moved_from(const Value& v) {
  EXPECT_EQ(v.type(), ValueType::kInt);
  EXPECT_EQ(v.as_int(), 0);
}

TEST(ValueSemantics, CopyAndMoveConstruct) {
  for (const Value& src : samples()) {
    SCOPED_TRACE(src.to_display());
    const Value copy(src);
    expect_same(copy, src);
    Value from = src;
    const Value moved(std::move(from));
    expect_same(moved, src);
    expect_moved_from(from);
  }
}

TEST(ValueSemantics, CopyAndMoveAssignOverEveryTypePair) {
  for (const Value& src : samples()) {
    for (const Value& dst : samples()) {
      SCOPED_TRACE(src.to_display() + " into " + dst.to_display());
      Value copied = dst;
      copied = src;
      expect_same(copied, src);

      Value moved = dst;
      Value from = src;
      moved = std::move(from);
      expect_same(moved, src);
      expect_moved_from(from);
    }
  }
}

TEST(ValueSemantics, SelfAssignAndSwap) {
  for (const Value& sample : samples()) {
    SCOPED_TRACE(sample.to_display());
    Value v = sample;
    Value& alias = v;  // through a reference, so the compiler cannot see it
    v = alias;
    expect_same(v, sample);
    v = std::move(alias);
    expect_same(v, sample);
  }
  for (const Value& a : samples()) {
    for (const Value& b : samples()) {
      Value x = a, y = b;
      swap(x, y);
      expect_same(x, b);
      expect_same(y, a);
    }
  }
}

TEST(ValueSemantics, MovedFromIsIntZeroAndUsable) {
  Value src(kLong);
  Value dst(std::move(src));
  expect_moved_from(src);
  EXPECT_TRUE(src == Value(0));
  EXPECT_EQ(src.compare(Value(1)), -1);
  EXPECT_EQ(src.hash(), Value(0).hash());
  src = Value("short");
  EXPECT_EQ(src.as_string(), "short");
  src = std::move(dst);
  expect_same(src, Value(kLong));
  expect_moved_from(dst);
  dst = 7;
  EXPECT_EQ(dst.as_int(), 7);
  // Destroying moved-from values, and the vector relocation that leaves
  // them behind, is clean under the sanitizers.
  std::vector<Value> grow;
  for (int i = 0; i < 100; ++i) grow.emplace_back(kLong + std::to_string(i));
  EXPECT_EQ(grow[99].as_string(), kLong + "99");
}

TEST(ValueSemantics, StringCopyAssignKeepsTheTargetBufferWhenItFits) {
  Value slot(std::string(64, 'x'));
  const char* const buffer = slot.as_string().data();
  const Value shorter(std::string(40, 'y'));
  slot = shorter;
  EXPECT_EQ(slot.as_string(), std::string(40, 'y'));
  EXPECT_EQ(slot.as_string().data(), buffer);
  EXPECT_EQ(shorter.as_string(), std::string(40, 'y'));
}

// hash() is what shard routing takes modulo the shard count, so its
// values are part of which shard a key lands on: an int hashes as
// std::hash<std::int64_t>; any other type mixes its index (int 0,
// double 1, bool 2, string 3) times 0x9e3779b97f4a7c15 into std::hash
// of its payload.
TEST(ValueSemantics, HashKeepsThePreviousFormulaSoRoutingDoesNotMove) {
  constexpr std::size_t kGolden = 0x9e3779b97f4a7c15ull;
  for (const std::int64_t i : {std::int64_t{0}, std::int64_t{1}, std::int64_t{-1},
                               std::int64_t{1} << 40, INT64_MIN, INT64_MAX}) {
    EXPECT_EQ(Value(i).hash(), std::hash<std::int64_t>{}(i)) << i;
    EXPECT_EQ(Value(i).hash(), static_cast<std::size_t>(i)) << i;
  }
  for (const double d : {0.0, -0.0, 2.5, -1e300}) {
    EXPECT_EQ(Value(d).hash(), 1 * kGolden ^ std::hash<double>{}(d)) << d;
  }
  for (const bool b : {false, true}) {
    EXPECT_EQ(Value(b).hash(), 2 * kGolden ^ std::hash<bool>{}(b)) << b;
  }
  for (const std::string& s : {std::string(), std::string("k"), kLong}) {
    EXPECT_EQ(Value(s).hash(), 3 * kGolden ^ std::hash<std::string>{}(s)) << s;
  }
}

TEST(ValueType, Names) {
  EXPECT_EQ(to_string(ValueType::kInt), "int");
  EXPECT_EQ(to_string(ValueType::kDouble), "double");
  EXPECT_EQ(to_string(ValueType::kBool), "bool");
  EXPECT_EQ(to_string(ValueType::kString), "string");
}

}  // namespace
}  // namespace oosp
