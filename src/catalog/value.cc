#include "catalog/value.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>

namespace pse {

namespace {
bool IsNumeric(TypeId t) {
  return t == TypeId::kInt64 || t == TypeId::kDouble || t == TypeId::kBoolean;
}
}  // namespace

int Value::Compare(const Value& other) const {
  if (null_ && other.null_) return 0;
  if (null_) return -1;
  if (other.null_) return 1;
  if (IsNumeric(type_) && IsNumeric(other.type_)) {
    if (type_ == TypeId::kDouble || other.type_ == TypeId::kDouble) {
      double a = AsDouble(), b = other.AsDouble();
      if (a < b) return -1;
      if (a > b) return 1;
      return 0;
    }
    int64_t a = AsInt(), b = other.AsInt();
    if (a < b) return -1;
    if (a > b) return 1;
    return 0;
  }
  if (type_ == TypeId::kVarchar && other.type_ == TypeId::kVarchar) {
    int c = AsString().compare(other.AsString());
    return c < 0 ? -1 : (c > 0 ? 1 : 0);
  }
  // Mixed string/numeric: stable arbitrary order by type id.
  return type_ < other.type_ ? -1 : 1;
}

size_t Value::Hash() const {
  if (null_) return 0x9E3779B9;
  switch (type_) {
    case TypeId::kBoolean:
    case TypeId::kInt64:
      return HashInt(AsInt());
    case TypeId::kDouble:
      return HashDouble(AsDouble());
    case TypeId::kVarchar:
      return HashString(AsString());
  }
  return 0;
}

size_t Value::HashInt(int64_t i) {
  // Every int64 converts to a finite integral double, and an integral
  // DOUBLE in range hashes as the int64 it converts to, so Int(2) and
  // Double(2.0) (which Compare as equal) hash alike.
  return std::hash<int64_t>()(i);
}

size_t Value::HashDouble(double d) {
  if (d == std::floor(d) && std::isfinite(d) && d >= -9.2e18 && d <= 9.2e18) {
    return std::hash<int64_t>()(static_cast<int64_t>(d));
  }
  return std::hash<double>()(d);
}

size_t Value::HashString(std::string_view s) { return std::hash<std::string_view>()(s); }

Result<Value> Value::CastTo(TypeId target) const {
  if (null_) return Value::Null(target);
  if (type_ == target) return *this;
  switch (target) {
    case TypeId::kBoolean:
      if (IsNumeric(type_)) return Value::Bool(AsDouble() != 0.0);
      break;
    case TypeId::kInt64:
      if (IsNumeric(type_)) return Value::Int(static_cast<int64_t>(AsDouble()));
      if (type_ == TypeId::kVarchar) {
        char* end = nullptr;
        long long v = std::strtoll(AsString().c_str(), &end, 10);
        if (end && *end == '\0' && !AsString().empty()) return Value::Int(v);
        return Status::InvalidArgument("cannot cast '" + AsString() + "' to BIGINT");
      }
      break;
    case TypeId::kDouble:
      if (IsNumeric(type_)) return Value::Double(AsDouble());
      if (type_ == TypeId::kVarchar) {
        char* end = nullptr;
        double v = std::strtod(AsString().c_str(), &end);
        if (end && *end == '\0' && !AsString().empty()) return Value::Double(v);
        return Status::InvalidArgument("cannot cast '" + AsString() + "' to DOUBLE");
      }
      break;
    case TypeId::kVarchar:
      return Value::Varchar(ToString());
  }
  return Status::InvalidArgument(std::string("unsupported cast to ") + TypeIdToString(target));
}

std::string Value::ToString() const {
  if (null_) return "NULL";
  switch (type_) {
    case TypeId::kBoolean:
      return AsBool() ? "true" : "false";
    case TypeId::kInt64:
      return std::to_string(AsInt());
    case TypeId::kDouble: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%g", AsDouble());
      return buf;
    }
    case TypeId::kVarchar:
      return AsString();
  }
  return "?";
}

}  // namespace pse
