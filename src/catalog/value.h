// Runtime SQL value: a tagged union over the supported types plus NULL.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <variant>

#include "catalog/type.h"
#include "common/status.h"

namespace pse {

/// \brief A single SQL value (possibly NULL).
///
/// Comparison follows SQL semantics for ordering within one type; NULLs sort
/// first and compare equal to each other under Compare() (useful for
/// grouping), while SqlEquals() returns false when either side is NULL.
class Value {
 public:
  /// NULL of unspecified type.
  Value() : type_(TypeId::kInt64), null_(true) {}

  static Value Null(TypeId t) {
    Value v;
    v.type_ = t;
    v.null_ = true;
    return v;
  }
  static Value Bool(bool b) { return Value(TypeId::kBoolean, b ? int64_t{1} : int64_t{0}); }
  static Value Int(int64_t i) { return Value(TypeId::kInt64, i); }
  static Value Double(double d) { return Value(TypeId::kDouble, d); }
  static Value Varchar(std::string s) { return Value(TypeId::kVarchar, std::move(s)); }

  TypeId type() const { return type_; }
  bool is_null() const { return null_; }

  bool AsBool() const { return std::get<int64_t>(data_) != 0; }
  int64_t AsInt() const { return std::get<int64_t>(data_); }
  double AsDouble() const {
    if (type_ == TypeId::kDouble) return std::get<double>(data_);
    return static_cast<double>(std::get<int64_t>(data_));
  }
  const std::string& AsString() const { return std::get<std::string>(data_); }

  /// Three-way comparison: -1, 0, +1. NULL < non-NULL; NULL == NULL.
  /// Numeric types (int/double/bool) compare numerically across types;
  /// comparing a numeric with a string is an ordering by type id (stable but
  /// arbitrary — the binder rejects such predicates).
  int Compare(const Value& other) const;

  /// SQL '=' semantics: false if either side is NULL.
  bool SqlEquals(const Value& other) const {
    if (null_ || other.null_) return false;
    return Compare(other) == 0;
  }

  /// Hash consistent with Compare()==0 (NULLs hash alike; int/double that
  /// compare equal hash alike). The per-type parts below are its only
  /// definition, so code that reads a column's encoded bytes can hash them
  /// without building a Value.
  size_t Hash() const;

  /// Hash() of a non-NULL BIGINT or BOOLEAN (a BOOLEAN as 0 or 1).
  static size_t HashInt(int64_t i);
  /// Hash() of a non-NULL DOUBLE.
  static size_t HashDouble(double d);
  /// Hash() of a non-NULL VARCHAR.
  static size_t HashString(std::string_view s);

  /// Casts to the target type. Int<->Double, anything->Varchar via ToString,
  /// Varchar->numeric via parsing. NULL casts to NULL of target type.
  Result<Value> CastTo(TypeId target) const;

  /// Display form ("NULL", "42", "3.14", "abc").
  std::string ToString() const;

  bool operator==(const Value& other) const { return Compare(other) == 0; }
  bool operator<(const Value& other) const { return Compare(other) < 0; }

 private:
  Value(TypeId t, int64_t i) : type_(t), null_(false), data_(i) {}
  Value(TypeId t, double d) : type_(t), null_(false), data_(d) {}
  Value(TypeId t, std::string s) : type_(t), null_(false), data_(std::move(s)) {}

  TypeId type_;
  bool null_;
  std::variant<int64_t, double, std::string> data_;
};

/// Equality functor for hash containers keyed by Value.
struct ValueEq {
  bool operator()(const Value& a, const Value& b) const { return a.Compare(b) == 0; }
};
struct ValueHash {
  size_t operator()(const Value& v) const { return v.Hash(); }
};

}  // namespace pse
