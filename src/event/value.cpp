#include "event/value.hpp"

#include <cstdio>
#include <ostream>

#include "common/contracts.hpp"

namespace oosp {

std::string_view to_string(ValueType t) noexcept {
  switch (t) {
    case ValueType::kInt: return "int";
    case ValueType::kDouble: return "double";
    case ValueType::kBool: return "bool";
    case ValueType::kString: return "string";
  }
  return "?";
}

Value& Value::assign_slow(const Value& other) {
  if (tag_ == ValueType::kString && other.tag_ == ValueType::kString) {
    *u_.s = *other.u_.s;  // reuses this value's buffer when it fits
    return *this;
  }
  // Exactly one side is a string: copy, then swap, so a throwing
  // allocation leaves *this as it was.
  Value copy(other);
  swap(*this, copy);
  return *this;
}

std::int64_t Value::as_int() const {
  OOSP_REQUIRE(type() == ValueType::kInt, "value is not int");
  return u_.i;
}

double Value::as_double() const {
  OOSP_REQUIRE(type() == ValueType::kDouble, "value is not double");
  return u_.d;
}

bool Value::as_bool() const {
  OOSP_REQUIRE(type() == ValueType::kBool, "value is not bool");
  return u_.b;
}

const std::string& Value::as_string() const {
  OOSP_REQUIRE(type() == ValueType::kString, "value is not string");
  return *u_.s;
}

double Value::numeric() const {
  if (type() == ValueType::kInt) return static_cast<double>(u_.i);
  OOSP_REQUIRE(type() == ValueType::kDouble, "value is not numeric");
  return u_.d;
}

bool Value::comparable_with(const Value& other) const noexcept {
  if (is_numeric() && other.is_numeric()) return true;
  return type() == other.type();
}

int Value::compare_slow(const Value& other) const {
  OOSP_REQUIRE(comparable_with(other), "incomparable value types");
  if (is_numeric() && other.is_numeric()) {
    // int/int never reaches here (compare() answers it exactly, without
    // double rounding above 2^53), so at least one side is a double.
    const double a = numeric(), b = other.numeric();
    return a < b ? -1 : (a > b ? 1 : 0);
  }
  switch (type()) {
    case ValueType::kBool: {
      const bool a = u_.b, b = other.u_.b;
      return a == b ? 0 : (a ? 1 : -1);
    }
    case ValueType::kString: {
      const std::string& a = *u_.s;
      const std::string& b = *other.u_.s;
      return a < b ? -1 : (a > b ? 1 : 0);
    }
    default: OOSP_CHECK(false, "unreachable value compare"); return 0;
  }
}

bool Value::equals_slow(const Value& other) const noexcept {
  if (!comparable_with(other)) return false;
  return compare_slow(other) == 0;
}

std::size_t Value::hash_slow() const noexcept {
  const std::size_t tag = static_cast<std::size_t>(tag_) * 0x9e3779b97f4a7c15ull;
  switch (type()) {
    case ValueType::kInt: return tag ^ std::hash<std::int64_t>{}(u_.i);
    case ValueType::kDouble: return tag ^ std::hash<double>{}(u_.d);
    case ValueType::kBool: return tag ^ std::hash<bool>{}(u_.b);
    case ValueType::kString: return tag ^ std::hash<std::string>{}(*u_.s);
  }
  return tag;
}

std::string Value::to_display() const {
  switch (type()) {
    case ValueType::kInt: return std::to_string(u_.i);
    case ValueType::kDouble: {
      char buf[48];
      std::snprintf(buf, sizeof buf, "%g", u_.d);
      return buf;
    }
    case ValueType::kBool: return u_.b ? "true" : "false";
    case ValueType::kString: return '"' + *u_.s + '"';
  }
  return "?";
}

std::ostream& operator<<(std::ostream& os, const Value& v) { return os << v.to_display(); }

}  // namespace oosp
