// Typed attribute values carried by events.
//
// A Value is one of int64 | double | bool | string. The query layer
// compares values with SQL-ish semantics: int/double compare numerically
// across types; all other cross-type comparisons are a query analysis
// error caught before execution.
//
// Layout: a 16-byte tagged scalar, a one-byte ValueType tag beside an
// 8-byte payload. A string Value owns its std::string on the heap, so
// copying one allocates; every other copy is two stores. Every event
// copy (ring slot, arena, match) copies its attrs, and the in-repo
// schemas are all numeric, so the common copy never branches into the
// allocator. A string-to-string copy-assign assigns into the target's
// std::string and keeps its buffer when it fits, so reused ring and arena
// slots do not reallocate. A moved-from Value is int 0; self-assignment,
// copy or move, leaves a value as it was.
//
// compare(), operator== and hash() handle the int/int case inline and call
// out of line for every other pair of types.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <string_view>
#include <utility>

namespace oosp {

// The enumerator order is part of hash(): a non-int value mixes its
// type's index into its hash, and shard routing depends on hash values.
enum class ValueType : std::uint8_t { kInt, kDouble, kBool, kString };

std::string_view to_string(ValueType t) noexcept;

class Value {
 public:
  Value() noexcept = default;  // int 0
  // NOLINTBEGIN(google-explicit-constructor)
  Value(std::int64_t v) noexcept { u_.i = v; }
  Value(int v) noexcept : Value(std::int64_t{v}) {}
  Value(double v) noexcept : tag_(ValueType::kDouble) { u_.d = v; }
  Value(bool v) noexcept : tag_(ValueType::kBool) { u_.b = v; }
  Value(std::string v) : tag_(ValueType::kString) { u_.s = new std::string(std::move(v)); }
  Value(const char* v) : Value(std::string(v)) {}
  // NOLINTEND(google-explicit-constructor)

  Value(const Value& other) : tag_(other.tag_), u_(other.u_) {
    if (tag_ == ValueType::kString) u_.s = new std::string(*other.u_.s);
  }
  // noexcept, so std::vector<Value> relocates by moving.
  Value(Value&& other) noexcept : tag_(other.tag_), u_(other.u_) { other.reset(); }
  Value& operator=(const Value& other) {
    if (tag_ != ValueType::kString && other.tag_ != ValueType::kString) {
      tag_ = other.tag_;
      u_ = other.u_;
      return *this;
    }
    return assign_slow(other);
  }
  Value& operator=(Value&& other) noexcept {
    if (this != &other) {
      release();
      tag_ = other.tag_;
      u_ = other.u_;
      other.reset();
    }
    return *this;
  }
  ~Value() { release(); }

  friend void swap(Value& a, Value& b) noexcept {
    std::swap(a.tag_, b.tag_);
    std::swap(a.u_, b.u_);
  }

  ValueType type() const noexcept { return tag_; }

  bool is_numeric() const noexcept {
    return type() == ValueType::kInt || type() == ValueType::kDouble;
  }

  // Typed accessors; each requires the matching type.
  std::int64_t as_int() const;
  double as_double() const;
  bool as_bool() const;
  const std::string& as_string() const;

  // Numeric view: int or double widened to double. Requires is_numeric().
  double numeric() const;

  // Three-way comparison usable by predicates. Requires comparable types
  // (numeric with numeric, otherwise exactly equal types).
  int compare(const Value& other) const {
    if (tag_ == ValueType::kInt && other.tag_ == ValueType::kInt)
      return u_.i < other.u_.i ? -1 : (u_.i > other.u_.i ? 1 : 0);
    return compare_slow(other);
  }

  // True when compare() is defined for this pair of types.
  bool comparable_with(const Value& other) const noexcept;

  bool operator==(const Value& other) const noexcept {
    if (tag_ == ValueType::kInt && other.tag_ == ValueType::kInt) return u_.i == other.u_.i;
    return equals_slow(other);
  }

  // Hash consistent with operator== only across values of identical type
  // (the partition optimizer guarantees identical static types before
  // hashing; see CompiledQuery::partitionable()). A value hashes to
  // index(type) · 0x9e3779b97f4a7c15 ^ std::hash of its payload, so an
  // int (index 0) hashes as std::hash<std::int64_t> does.
  std::size_t hash() const noexcept {
    if (tag_ == ValueType::kInt) return std::hash<std::int64_t>{}(u_.i);
    return hash_slow();
  }

  std::string to_display() const;

 private:
  union Payload {
    std::int64_t i;
    double d;
    bool b;
    std::string* s;  // owned; set exactly when tag_ == kString
  };

  void release() noexcept {
    if (tag_ == ValueType::kString) delete u_.s;
  }
  // The moved-from state: int 0. Leaves any string to its new owner.
  void reset() noexcept {
    tag_ = ValueType::kInt;
    u_.i = 0;
  }
  Value& assign_slow(const Value& other);
  int compare_slow(const Value& other) const;
  bool equals_slow(const Value& other) const noexcept;
  std::size_t hash_slow() const noexcept;

  ValueType tag_ = ValueType::kInt;
  Payload u_{};  // zeroed first, so a bool's unused payload bytes are defined
};

static_assert(sizeof(Value) == 16, "Value is a one-byte tag beside an 8-byte payload");

std::ostream& operator<<(std::ostream& os, const Value& v);

struct ValueHasher {
  std::size_t operator()(const Value& v) const noexcept { return v.hash(); }
};

}  // namespace oosp
