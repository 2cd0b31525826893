// Columnar batch of rows plus an optional selection vector — the unit of
// work in the execution engine. Operators pass batches instead of single
// rows, so per-tuple virtual dispatch and Result<> wrapping amortize over
// ~1024 rows at a time.
//
// Layout: one std::vector<Value> per column, all of equal length
// (`num_rows()`, the *physical* row count). A selection vector, when
// installed, names the live physical row indices in ascending order;
// filters narrow it without copying any Value. `size()` is the live count.
#pragma once

#include <cstdint>
#include <vector>

#include "catalog/tuple.h"
#include "catalog/value.h"

namespace pse {

class TupleBatch {
 public:
  /// Target rows per batch; chosen so a batch of int columns stays cache
  /// resident while still amortizing per-batch overhead.
  static constexpr size_t kDefaultRows = 1024;

  TupleBatch() = default;

  /// Clears and shapes the batch: `num_cols` empty columns, each with
  /// `capacity` rows reserved. Drops any selection vector.
  void Reset(size_t num_cols, size_t capacity = kDefaultRows);

  size_t num_cols() const { return cols_.size(); }
  /// Physical rows stored (before selection).
  size_t num_rows() const { return num_rows_; }
  /// Live rows (after selection).
  size_t size() const { return use_sel_ ? sel_.size() : num_rows_; }
  bool empty() const { return size() == 0; }

  bool has_sel() const { return use_sel_; }
  const std::vector<uint32_t>& sel() const { return sel_; }
  /// Physical index of the i-th live row.
  size_t SelIndex(size_t i) const { return use_sel_ ? sel_[i] : i; }

  /// Installs a selection vector (ascending physical indices < num_rows()).
  void SetSel(std::vector<uint32_t> sel) {
    sel_ = std::move(sel);
    use_sel_ = true;
  }

  std::vector<Value>& col(size_t c) { return cols_[c]; }
  const std::vector<Value>& col(size_t c) const { return cols_[c]; }
  const Value& At(size_t c, size_t physical_row) const { return cols_[c][physical_row]; }

  /// Appends one physical row. Must not be called while a selection vector
  /// is installed (the selection would silently exclude the new row).
  void AppendRow(const Row& row);
  void AppendRow(Row&& row);

  /// Declares the physical row count after columns were written directly
  /// (bypassing AppendRow). Every column must hold exactly `n` values.
  void SetNumRows(size_t n) { num_rows_ = n; }

  /// Moves the physical row out, leaving moved-from values behind. Only
  /// valid when the caller owns the batch and will Reset() before reuse.
  void MoveRowOut(size_t physical_row, Row* out);

 private:
  std::vector<std::vector<Value>> cols_;
  size_t num_rows_ = 0;
  bool use_sel_ = false;
  std::vector<uint32_t> sel_;
};

}  // namespace pse
