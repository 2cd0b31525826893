// Row representation and its on-page serialization.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "catalog/schema.h"
#include "catalog/value.h"
#include "common/status.h"

namespace pse {

/// A row as a vector of values (the execution-time representation).
using Row = std::vector<Value>;

/// \brief Serialization of rows to/from page bytes.
///
/// Layout: null bitmap (ceil(n/8) bytes), then per non-null column:
/// BOOLEAN 1 byte, BIGINT/DOUBLE 8 bytes little-endian, VARCHAR u32 length +
/// bytes. The layout is schema-dependent, so both directions take the schema.
class TupleCodec {
 public:
  /// Serializes `row` (which must match `schema` arity) into `out`.
  static Status Serialize(const TableSchema& schema, const Row& row, std::string* out);

  /// Deserializes bytes produced by Serialize back into a Row.
  static Status Deserialize(const TableSchema& schema, const char* data, size_t size, Row* out);

  /// Column-pruned form for the batch scan: decodes only the columns
  /// named by `wanted` (strictly ascending positions < schema arity),
  /// appending one value to the matching `cols[k]` vector each. Skipped
  /// columns cost a length hop — no Value and no string allocation — and
  /// decoding stops after the last wanted column.
  static Status DeserializeColumns(const TableSchema& schema, const char* data, size_t size,
                                   const std::vector<size_t>& wanted,
                                   const std::vector<std::vector<Value>*>& cols);
};

/// \brief Reads one serialized tuple's columns in place, first to last.
///
/// The layout's one reader: Deserialize and DeserializeColumns decode
/// through it, and ANALYZE reads column values with it without building a
/// Value. Construct it over the tuple's bytes and check Open(); then, for
/// each column in order, either IsNull() holds or the caller makes exactly
/// one read of the column's type. Every read is bounds-checked: it returns
/// false when the bytes run out, and Error() is then Deserialize's status
/// for those bytes. A VARCHAR comes back as a view into the bytes.
class TupleCursor {
 public:
  TupleCursor(const char* data, size_t size, size_t num_columns)
      : data_(data), size_(size), pos_((num_columns + 7) / 8) {}

  /// Fails when the bytes cannot hold the null bitmap.
  Status Open() const {
    if (size_ < pos_) return Status::Internal("tuple too short for null bitmap");
    return Status::OK();
  }

  /// Column `i` is NULL (it then has no bytes to read).
  bool IsNull(size_t i) const { return (data_[i / 8] >> (i % 8)) & 1; }

  bool ReadBool(bool* out) {
    if (pos_ + 1 > size_) return Fail("bool");
    *out = data_[pos_] != 0;
    pos_ += 1;
    return true;
  }
  bool ReadInt(int64_t* out) {
    if (pos_ + 8 > size_) return Fail("int");
    uint64_t v = 0;
    std::memcpy(&v, data_ + pos_, 8);
    *out = static_cast<int64_t>(v);
    pos_ += 8;
    return true;
  }
  bool ReadDouble(double* out) {
    if (pos_ + 8 > size_) return Fail("double");
    std::memcpy(out, data_ + pos_, 8);
    pos_ += 8;
    return true;
  }
  bool ReadVarchar(std::string_view* out) {
    if (pos_ + 4 > size_) return Fail("varchar len");
    uint32_t len = 0;
    std::memcpy(&len, data_ + pos_, 4);
    pos_ += 4;
    if (pos_ + len > size_) return Fail("varchar data");
    *out = std::string_view(data_ + pos_, len);
    pos_ += len;
    return true;
  }

  /// Why the last read failed.
  Status Error() const {
    return Status::Internal(std::string("tuple truncated (") + truncated_ + ")");
  }

 private:
  bool Fail(const char* what) {
    truncated_ = what;
    return false;
  }

  const char* data_;
  size_t size_;
  size_t pos_;                       ///< next unread byte
  const char* truncated_ = nullptr;  ///< what the failed read lacked bytes for
};

/// \brief Serialized tuples stored back to back.
///
/// What the batch scans copy out of heap pages while each page is pinned,
/// so that decoding can happen column by column afterwards (and only for
/// the tuples that need it). Tuple i occupies bytes [ends[i-1], ends[i]) of
/// `data`, with ends[-1] taken as 0.
struct TupleBytes {
  std::string data;
  std::vector<size_t> ends;

  size_t size() const { return ends.size(); }
  const char* tuple(size_t i) const { return data.data() + begin(i); }
  size_t tuple_size(size_t i) const { return ends[i] - begin(i); }
  void Append(const char* bytes, size_t n) {
    data.append(bytes, n);
    ends.push_back(data.size());
  }
  void Clear() {
    data.clear();
    ends.clear();
  }

 private:
  size_t begin(size_t i) const { return i == 0 ? 0 : ends[i - 1]; }
};

/// Display form "(v1, v2, ...)" for tests and examples.
std::string RowToString(const Row& row);

/// Hash/equality over whole rows (used by joins, DISTINCT, tests).
struct RowHash {
  size_t operator()(const Row& r) const;
};
struct RowEq {
  bool operator()(const Row& a, const Row& b) const;
};

}  // namespace pse
