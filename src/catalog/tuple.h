// Row representation and its on-page serialization.
#pragma once

#include <cstdint>
#include <string>
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

  /// Serialized size of a row without materializing the bytes.
  static size_t SerializedSize(const TableSchema& schema, const Row& row);
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
