#include "engine/tuple_batch.h"

#include <utility>

namespace pse {

void TupleBatch::Reset(size_t num_cols, size_t capacity) {
  cols_.resize(num_cols);
  for (auto& col : cols_) {
    col.clear();
    if (col.capacity() < capacity) col.reserve(capacity);
  }
  num_rows_ = 0;
  use_sel_ = false;
  sel_.clear();
}

void TupleBatch::AppendRow(const Row& row) {
  for (size_t c = 0; c < cols_.size(); ++c) cols_[c].push_back(row[c]);
  ++num_rows_;
}

void TupleBatch::AppendRow(Row&& row) {
  for (size_t c = 0; c < cols_.size(); ++c) cols_[c].push_back(std::move(row[c]));
  ++num_rows_;
}

void TupleBatch::MoveRowOut(size_t physical_row, Row* out) {
  out->clear();
  out->reserve(cols_.size());
  for (auto& col : cols_) out->push_back(std::move(col[physical_row]));
}

}  // namespace pse
