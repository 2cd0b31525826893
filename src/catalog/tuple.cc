#include "catalog/tuple.h"

#include <cstring>

namespace pse {

namespace {
void PutU32(std::string* out, uint32_t v) {
  char buf[4];
  std::memcpy(buf, &v, 4);
  out->append(buf, 4);
}
void PutU64(std::string* out, uint64_t v) {
  char buf[8];
  std::memcpy(buf, &v, 8);
  out->append(buf, 8);
}

/// Reads the cursor's next column, which is non-NULL and of type `t`, and
/// appends it to `out`; with `out` null, only steps over its bytes. False
/// when the bytes run out (the cursor's Error() says where).
inline bool ReadColumn(TupleCursor* cur, TypeId t, std::vector<Value>* out) {
  switch (t) {
    case TypeId::kBoolean: {
      bool b = false;
      if (!cur->ReadBool(&b)) return false;
      if (out != nullptr) out->push_back(Value::Bool(b));
      break;
    }
    case TypeId::kInt64: {
      int64_t i = 0;
      if (!cur->ReadInt(&i)) return false;
      if (out != nullptr) out->push_back(Value::Int(i));
      break;
    }
    case TypeId::kDouble: {
      double d = 0;
      if (!cur->ReadDouble(&d)) return false;
      if (out != nullptr) out->push_back(Value::Double(d));
      break;
    }
    case TypeId::kVarchar: {
      std::string_view s;
      if (!cur->ReadVarchar(&s)) return false;
      if (out != nullptr) out->push_back(Value::Varchar(std::string(s)));
      break;
    }
  }
  return true;
}
}  // namespace

Status TupleCodec::Serialize(const TableSchema& schema, const Row& row, std::string* out) {
  const size_t n = schema.num_columns();
  if (row.size() != n) {
    return Status::InvalidArgument("row arity " + std::to_string(row.size()) +
                                   " != schema arity " + std::to_string(n));
  }
  const size_t bitmap_bytes = (n + 7) / 8;
  size_t bitmap_pos = out->size();
  out->append(bitmap_bytes, '\0');
  for (size_t i = 0; i < n; ++i) {
    const Value& v = row[i];
    if (v.is_null()) {
      (*out)[bitmap_pos + i / 8] |= static_cast<char>(1u << (i % 8));
      continue;
    }
    switch (schema.column(i).type) {
      case TypeId::kBoolean:
        out->push_back(v.AsBool() ? 1 : 0);
        break;
      case TypeId::kInt64:
        PutU64(out, static_cast<uint64_t>(v.AsInt()));
        break;
      case TypeId::kDouble: {
        double d = v.AsDouble();
        uint64_t bits;
        std::memcpy(&bits, &d, 8);
        PutU64(out, bits);
        break;
      }
      case TypeId::kVarchar: {
        const std::string& s = v.AsString();
        PutU32(out, static_cast<uint32_t>(s.size()));
        out->append(s);
        break;
      }
    }
  }
  return Status::OK();
}

Status TupleCodec::Deserialize(const TableSchema& schema, const char* data, size_t size,
                               Row* out) {
  const size_t n = schema.num_columns();
  TupleCursor cur(data, size, n);
  PSE_RETURN_NOT_OK(cur.Open());
  out->clear();
  out->reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const TypeId t = schema.column(i).type;
    if (cur.IsNull(i)) {
      out->push_back(Value::Null(t));
      continue;
    }
    if (!ReadColumn(&cur, t, out)) return cur.Error();
  }
  return Status::OK();
}

Status TupleCodec::DeserializeColumns(const TableSchema& schema, const char* data, size_t size,
                                      const std::vector<size_t>& wanted,
                                      const std::vector<std::vector<Value>*>& cols) {
  const size_t n = schema.num_columns();
  TupleCursor cur(data, size, n);
  PSE_RETURN_NOT_OK(cur.Open());
  size_t k = 0;  // next entry of `wanted` to satisfy
  for (size_t i = 0; i < n && k < wanted.size(); ++i) {
    const bool want = wanted[k] == i;
    const TypeId t = schema.column(i).type;
    if (cur.IsNull(i)) {
      if (want) cols[k]->push_back(Value::Null(t));
    } else {
      if (!ReadColumn(&cur, t, want ? cols[k] : nullptr)) return cur.Error();
    }
    if (want) ++k;
  }
  if (k != wanted.size()) {
    return Status::InvalidArgument("wanted column position out of range for schema");
  }
  return Status::OK();
}

std::string RowToString(const Row& row) {
  std::string out = "(";
  for (size_t i = 0; i < row.size(); ++i) {
    if (i > 0) out += ", ";
    out += row[i].ToString();
  }
  out += ")";
  return out;
}

size_t RowHash::operator()(const Row& r) const {
  size_t h = 0x345678;
  for (const auto& v : r) {
    h = h * 1000003 ^ v.Hash();
  }
  return h;
}

bool RowEq::operator()(const Row& a, const Row& b) const {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].Compare(b[i]) != 0) return false;
  }
  return true;
}

}  // namespace pse
