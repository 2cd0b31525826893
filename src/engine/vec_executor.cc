#include "engine/vec_executor.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <optional>
#include <utility>

#include "common/row_index_table.h"

namespace pse {

namespace {

/// Collects the resolved positions of every ColumnRef under `e` into `out`.
/// Returns false (collector output unusable) on an unresolved reference or a
/// node kind this walker does not know, in which case the caller must assume
/// every column is referenced.
bool CollectColumnPositions(const Expr& e, std::vector<size_t>* out) {
  if (const auto* col = dynamic_cast<const ColumnRefExpr*>(&e)) {
    if (!col->resolved()) return false;
    out->push_back(col->position());
    return true;
  }
  if (dynamic_cast<const ConstantExpr*>(&e) != nullptr) return true;
  if (const auto* cmp = dynamic_cast<const CompareExpr*>(&e)) {
    return CollectColumnPositions(*cmp->left(), out) &&
           CollectColumnPositions(*cmp->right(), out);
  }
  if (const auto* logic = dynamic_cast<const LogicExpr*>(&e)) {
    return CollectColumnPositions(*logic->left(), out) &&
           CollectColumnPositions(*logic->right(), out);
  }
  if (const auto* arith = dynamic_cast<const ArithExpr*>(&e)) {
    return CollectColumnPositions(*arith->left(), out) &&
           CollectColumnPositions(*arith->right(), out);
  }
  if (const auto* neg = dynamic_cast<const NotExpr*>(&e)) {
    return CollectColumnPositions(*neg->child(), out);
  }
  if (const auto* like = dynamic_cast<const LikeExpr*>(&e)) {
    return CollectColumnPositions(*like->child(), out);
  }
  if (const auto* isnull = dynamic_cast<const IsNullExpr*>(&e)) {
    return CollectColumnPositions(*isnull->child(), out);
  }
  if (const auto* in = dynamic_cast<const InListExpr*>(&e)) {
    return CollectColumnPositions(*in->child(), out);
  }
  return false;
}

/// \brief Filter-first decoding of scanned tuples into a projected batch.
///
/// Shared by the sequential scan, the index scan and the index nested-loop
/// join's inner side, which all read one table through the plan's scan
/// fields (`scan_column_idxs`, `scan_filter`). For one batch of tuple bytes
/// it decodes the pushed-down filter's columns of every tuple, evaluates
/// the filter, and then decodes the other projected columns of the
/// survivors only; a column neither reads is never decoded. The produced
/// batch holds the survivors packed at physical rows [0, survivors), in
/// tuple order, without a selection vector.
class ScanDecoder {
 public:
  Status Init(const PlanNode& plan, const TableSchema& schema) {
    schema_ = &schema;
    const std::vector<size_t>& proj = plan.scan_column_idxs;
    width_ = proj.size();
    filter_ = ExprVecExecutor();
    filter_cols_.clear();
    if (plan.scan_filter) {
      PSE_ASSIGN_OR_RETURN(filter_, ExprVecExecutor::Create(*plan.scan_filter));
      if (!CollectColumnPositions(*plan.scan_filter, &filter_cols_)) {
        filter_cols_.resize(schema.num_columns());
        std::iota(filter_cols_.begin(), filter_cols_.end(), size_t{0});
      }
      std::sort(filter_cols_.begin(), filter_cols_.end());
      filter_cols_.erase(std::unique(filter_cols_.begin(), filter_cols_.end()),
                         filter_cols_.end());
    }
    // Each output column is filled one of three ways: moved out of the
    // filter's decode, decoded late for survivors, or copied from an earlier
    // output column with the same source.
    late_.clear();
    gathered_.clear();
    copies_.clear();
    for (size_t j = 0; j < proj.size(); ++j) {
      const auto first = static_cast<size_t>(
          std::find(proj.begin(), proj.end(), proj[j]) - proj.begin());
      if (first != j) {
        copies_.emplace_back(j, first);
      } else if (std::binary_search(filter_cols_.begin(), filter_cols_.end(), proj[j])) {
        gathered_.emplace_back(j, proj[j]);
      } else {
        late_.emplace_back(proj[j], j);
      }
    }
    // DeserializeColumns wants ascending table positions.
    std::sort(late_.begin(), late_.end());
    late_cols_.clear();
    for (const auto& [col, j] : late_) late_cols_.push_back(col);
    return Status::OK();
  }

  /// Decodes `tuples` into `out` (columns in `scan_column_idxs` order) and
  /// returns the number of survivors. At 0, `out` is left untouched.
  Result<size_t> Decode(const TupleBytes& tuples, TupleBatch* out) {
    const size_t n = tuples.size();
    if (filter_.valid()) {
      // Table-width batch in which only the filter's columns are decoded;
      // the others stay empty and reserve nothing.
      filter_batch_.Reset(schema_->num_columns(), 0);
      col_ptrs_.clear();
      for (size_t c : filter_cols_) {
        filter_batch_.col(c).reserve(n);
        col_ptrs_.push_back(&filter_batch_.col(c));
      }
      for (size_t t = 0; t < n; ++t) {
        PSE_RETURN_NOT_OK(TupleCodec::DeserializeColumns(
            *schema_, tuples.tuple(t), tuples.tuple_size(t), filter_cols_, col_ptrs_));
      }
      filter_batch_.SetNumRows(n);
      PSE_RETURN_NOT_OK(filter_.EvalSelect(filter_batch_, &survivors_));
    } else {
      survivors_.resize(n);
      std::iota(survivors_.begin(), survivors_.end(), uint32_t{0});
    }
    const size_t live = survivors_.size();
    if (live == 0) return size_t{0};
    out->Reset(width_, live);
    if (!late_cols_.empty()) {
      col_ptrs_.clear();
      for (const auto& [col, j] : late_) col_ptrs_.push_back(&out->col(j));
      for (uint32_t t : survivors_) {
        PSE_RETURN_NOT_OK(TupleCodec::DeserializeColumns(
            *schema_, tuples.tuple(t), tuples.tuple_size(t), late_cols_, col_ptrs_));
      }
    }
    // The filter batch is rebuilt by the next Decode, so its values move.
    for (const auto& [j, col] : gathered_) {
      std::vector<Value>& src = filter_batch_.col(col);
      std::vector<Value>& dst = out->col(j);
      for (uint32_t t : survivors_) dst.push_back(std::move(src[t]));
    }
    for (const auto& [j, first] : copies_) out->col(j) = out->col(first);
    out->SetNumRows(live);
    return live;
  }

  /// Indices into the last Decode's `tuples` of its survivors, ascending.
  const std::vector<uint32_t>& survivors() const { return survivors_; }

 private:
  const TableSchema* schema_ = nullptr;
  size_t width_ = 0;
  ExprVecExecutor filter_;
  std::vector<size_t> filter_cols_;                   ///< ascending
  std::vector<std::pair<size_t, size_t>> late_;       ///< (table col, output col)
  std::vector<size_t> late_cols_;                     ///< late_'s table cols
  std::vector<std::pair<size_t, size_t>> gathered_;   ///< (output col, table col)
  std::vector<std::pair<size_t, size_t>> copies_;     ///< (output col, source output col)
  std::vector<std::vector<Value>*> col_ptrs_;
  TupleBatch filter_batch_;
  std::vector<uint32_t> survivors_;
};

class SeqScanVecExecutor : public VecExecutor {
 public:
  SeqScanVecExecutor(const PlanNode& plan, TableInfo* table)
      : plan_(plan), table_(table) {}

  Status Init() override {
    PSE_RETURN_NOT_OK(decoder_.Init(plan_, *table_->schema));
    PSE_ASSIGN_OR_RETURN(it_, table_->heap->Begin());
    return Status::OK();
  }

  Result<bool> InternalNext(TupleBatch* out) override {
    while (true) {
      tuples_.Clear();
      PSE_ASSIGN_OR_RETURN(size_t filled,
                           it_.FillTupleBytes(TupleBatch::kDefaultRows, &tuples_));
      if (filled == 0) return false;
      PSE_ASSIGN_OR_RETURN(size_t live, decoder_.Decode(tuples_, out));
      if (live > 0) return true;  // an all-filtered batch keeps scanning
    }
  }

 private:
  const PlanNode& plan_;
  TableInfo* table_;
  TableHeap::Iterator it_;
  ScanDecoder decoder_;
  TupleBytes tuples_;
};

class IndexScanVecExecutor : public VecExecutor {
 public:
  IndexScanVecExecutor(const PlanNode& plan, TableInfo* table, const BPlusTree* tree)
      : plan_(plan), table_(table), tree_(tree) {}

  Status Init() override {
    PSE_RETURN_NOT_OK(decoder_.Init(plan_, *table_->schema));
    int64_t lo = plan_.lo.value_or(INT64_MIN);
    int64_t hi = plan_.hi.value_or(INT64_MAX);
    rids_.clear();
    pos_ = 0;
    return tree_->ScanRange(lo, hi, &rids_);
  }

  Result<bool> InternalNext(TupleBatch* out) override {
    while (pos_ < rids_.size()) {
      tuples_.Clear();
      const size_t end = std::min(rids_.size(), pos_ + TupleBatch::kDefaultRows);
      for (; pos_ < end; ++pos_) {
        PSE_RETURN_NOT_OK(table_->heap->CopyTuple(rids_[pos_], &tuples_));
      }
      PSE_ASSIGN_OR_RETURN(size_t live, decoder_.Decode(tuples_, out));
      if (live > 0) return true;
    }
    return false;
  }

 private:
  const PlanNode& plan_;
  TableInfo* table_;
  const BPlusTree* tree_;
  ScanDecoder decoder_;
  std::vector<Rid> rids_;
  size_t pos_ = 0;
  TupleBytes tuples_;
};

class FilterVecExecutor : public VecExecutor {
 public:
  FilterVecExecutor(const PlanNode& plan, std::unique_ptr<VecExecutor> child)
      : plan_(plan), child_(std::move(child)) {}

  Status Init() override {
    PSE_ASSIGN_OR_RETURN(pred_, ExprVecExecutor::Create(*plan_.predicate));
    return child_->Init();
  }

  Result<bool> InternalNext(TupleBatch* out) override {
    while (true) {
      PSE_ASSIGN_OR_RETURN(bool has, child_->Next(out));
      if (!has) return false;
      // Narrow the selection vector in place: no Value moves.
      PSE_RETURN_NOT_OK(pred_.EvalSelect(*out, &sel_));
      if (sel_.empty()) continue;  // all-filtered batch: pull the next one
      out->SetSel(std::move(sel_));
      return true;
    }
  }

 private:
  const PlanNode& plan_;
  std::unique_ptr<VecExecutor> child_;
  ExprVecExecutor pred_;
  std::vector<uint32_t> sel_;
};

class ProjectVecExecutor : public VecExecutor {
 public:
  static constexpr size_t kNotPassThrough = static_cast<size_t>(-1);

  ProjectVecExecutor(const PlanNode& plan, std::unique_ptr<VecExecutor> child)
      : plan_(plan), child_(std::move(child)) {}

  Status Init() override {
    pass_pos_.assign(plan_.projections.size(), kNotPassThrough);
    evals_.clear();
    evals_.resize(plan_.projections.size());
    for (size_t j = 0; j < plan_.projections.size(); ++j) {
      const Expr& e = *plan_.projections[j];
      if (const auto* col = dynamic_cast<const ColumnRefExpr*>(&e); col != nullptr &&
                                                                    col->resolved()) {
        pass_pos_[j] = col->position();
        continue;
      }
      PSE_ASSIGN_OR_RETURN(evals_[j], ExprVecExecutor::Create(e));
    }
    return child_->Init();
  }

  Result<bool> InternalNext(TupleBatch* out) override {
    PSE_ASSIGN_OR_RETURN(bool has, child_->Next(&in_));
    if (!has) return false;
    // Keep the child's physical layout and selection vector: computed
    // expressions land at their physical positions, pass-through columns
    // move wholesale, and no value is copied for narrowing.
    const size_t phys = in_.num_rows();
    const size_t live = in_.size();
    out->Reset(plan_.projections.size(), phys);
    // Computed columns first — they read `in_` columns that the
    // pass-through moves below would hollow out.
    for (size_t j = 0; j < plan_.projections.size(); ++j) {
      if (pass_pos_[j] != kNotPassThrough) continue;
      const std::vector<Value>* vals = nullptr;
      PSE_RETURN_NOT_OK(evals_[j].Eval(in_, &vals));
      auto& dst = out->col(j);
      dst.resize(phys);
      for (size_t i = 0; i < live; ++i) {
        const size_t p = in_.SelIndex(i);
        dst[p] = (*vals)[p];
      }
    }
    for (size_t j = 0; j < plan_.projections.size(); ++j) {
      if (pass_pos_[j] == kNotPassThrough) continue;
      size_t uses = 0;
      for (size_t k : pass_pos_) {
        if (k == pass_pos_[j]) ++uses;
      }
      if (uses == 1) {
        out->col(j) = std::move(in_.col(pass_pos_[j]));
      } else {
        out->col(j) = in_.col(pass_pos_[j]);
      }
    }
    out->SetNumRows(phys);
    if (in_.has_sel()) out->SetSel(in_.sel());
    return true;
  }

 private:
  const PlanNode& plan_;
  std::unique_ptr<VecExecutor> child_;
  std::vector<size_t> pass_pos_;
  std::vector<ExprVecExecutor> evals_;
  TupleBatch in_;
};

/// Hash of the key formed by columns `cols` of physical row `row`.
uint64_t HashKey(const TupleBatch& batch, const std::vector<size_t>& cols, size_t row) {
  uint64_t h = 0;
  for (size_t c : cols) h = MixHash(h + batch.At(c, row).Hash());
  return h;
}

/// "No row" in the operators' row chains, and "no entry" from
/// RowIndexTable::Find.
constexpr uint32_t kNoRow = RowIndexTable::kNone;

/// A RowIndexTable keyed by columns of batches the operator does not keep
/// (aggregation, COUNT(DISTINCT), DISTINCT): each new key's values are copied into the
/// table's key columns, once per distinct key and never per row.
class KeyedRowTable {
 public:
  void Reset(size_t num_keys) {
    index_.Clear();
    keys_.assign(num_keys, {});
  }

  size_t size() const { return index_.size(); }

  /// The entry whose key equals columns `cols` of physical row `row`,
  /// inserted (with the next id) if there is none yet.
  uint32_t FindOrInsert(const TupleBatch& batch, const std::vector<size_t>& cols,
                        size_t row, bool* inserted) {
    const uint32_t id = index_.FindOrInsert(
        HashKey(batch, cols, row),
        [&](uint32_t e) {
          for (size_t k = 0; k < cols.size(); ++k) {
            if (batch.At(cols[k], row).Compare(keys_[k][e]) != 0) return false;
          }
          return true;
        },
        inserted);
    if (*inserted) {
      for (size_t k = 0; k < cols.size(); ++k) keys_[k].push_back(batch.At(cols[k], row));
    }
    return id;
  }

  /// Key column `k`, indexed by entry id.
  std::vector<Value>& key_col(size_t k) { return keys_[k]; }

 private:
  RowIndexTable index_;
  std::vector<std::vector<Value>> keys_;
};

/// A row of a batch an operator retained by move.
struct RowLoc {
  uint32_t batch;
  uint32_t row;  ///< physical row
};

/// Appends src[rows[k]] to `dst` for every k. `rows` is non-decreasing;
/// a row's last occurrence takes its value by move, so `src` must be a
/// column the caller rebuilds before reading it again.
void AppendRows(std::vector<Value>* src, const std::vector<uint32_t>& rows,
                std::vector<Value>* dst) {
  const size_t m = rows.size();
  for (size_t k = 0; k < m; ++k) {
    Value& v = (*src)[rows[k]];
    if (k + 1 == m || rows[k + 1] != rows[k]) {
      dst->push_back(std::move(v));
    } else {
      dst->push_back(v);
    }
  }
}

class HashJoinVecExecutor : public VecExecutor {
 public:
  HashJoinVecExecutor(const PlanNode& plan, std::unique_ptr<VecExecutor> build,
                      std::unique_ptr<VecExecutor> probe)
      : plan_(plan), build_(std::move(build)), probe_(std::move(probe)) {}

  Status Init() override {
    PSE_RETURN_NOT_OK(build_->Init());
    PSE_RETURN_NOT_OK(probe_->Init());
    build_width_ = plan_.children[0]->output_columns.size();
    probe_width_ = plan_.children[1]->output_columns.size();
    table_.Clear();
    batches_.clear();
    rows_.clear();
    next_.clear();
    head_.clear();
    tail_.clear();
    // Drain the build side completely before the probe side pulls its
    // first batch. Build batches are kept whole; the table indexes their
    // rows, chaining the rows of one key in arrival order.
    while (true) {
      TupleBatch batch;
      PSE_ASSIGN_OR_RETURN(bool has, build_->Next(&batch));
      if (!has) break;
      const auto b = static_cast<uint32_t>(batches_.size());
      batches_.push_back(std::move(batch));
      const TupleBatch& kept = batches_.back();
      const size_t n = kept.size();
      for (size_t i = 0; i < n; ++i) {
        const size_t p = kept.SelIndex(i);
        const Value& key = kept.At(plan_.left_key_pos, p);
        if (key.is_null()) continue;  // NULL never joins
        const auto r = static_cast<uint32_t>(rows_.size());
        rows_.push_back(RowLoc{b, static_cast<uint32_t>(p)});
        next_.push_back(kNoRow);
        bool inserted = false;
        const uint32_t e = table_.FindOrInsert(
            MixHash(key.Hash()), [&](uint32_t id) { return BuildKey(id).Compare(key) == 0; },
            &inserted);
        if (inserted) {
          head_.push_back(r);
          tail_.push_back(r);
        } else {
          next_[tail_[e]] = r;
          tail_[e] = r;
        }
      }
    }
    return Status::OK();
  }

  Result<bool> InternalNext(TupleBatch* out) override {
    while (true) {
      PSE_ASSIGN_OR_RETURN(bool has, probe_->Next(&probe_batch_));
      if (!has) return false;
      // Output order: probe rows in order, each followed by its build
      // matches in build order.
      probe_rows_.clear();
      build_rows_.clear();
      const size_t n = probe_batch_.size();
      for (size_t i = 0; i < n; ++i) {
        const size_t p = probe_batch_.SelIndex(i);
        const Value& key = probe_batch_.At(plan_.right_key_pos, p);
        if (key.is_null()) continue;
        const uint32_t e = table_.Find(
            MixHash(key.Hash()), [&](uint32_t id) { return BuildKey(id).Compare(key) == 0; });
        if (e == kNoRow) continue;
        for (uint32_t r = head_[e]; r != kNoRow; r = next_[r]) {
          probe_rows_.push_back(static_cast<uint32_t>(p));
          build_rows_.push_back(r);
        }
      }
      const size_t m = probe_rows_.size();
      if (m == 0) continue;
      out->Reset(build_width_ + probe_width_, m);
      for (size_t c = 0; c < build_width_; ++c) {
        std::vector<Value>& dst = out->col(c);
        for (uint32_t r : build_rows_) {
          dst.push_back(batches_[rows_[r].batch].At(c, rows_[r].row));
        }
      }
      for (size_t c = 0; c < probe_width_; ++c) {
        AppendRows(&probe_batch_.col(c), probe_rows_, &out->col(build_width_ + c));
      }
      out->SetNumRows(m);
      return true;
    }
  }

 private:
  /// The key of entry `id`: its first build row's key column.
  const Value& BuildKey(uint32_t id) const {
    const RowLoc loc = rows_[head_[id]];
    return batches_[loc.batch].At(plan_.left_key_pos, loc.row);
  }

  const PlanNode& plan_;
  std::unique_ptr<VecExecutor> build_;
  std::unique_ptr<VecExecutor> probe_;
  RowIndexTable table_;              ///< entry per distinct non-NULL build key
  std::vector<TupleBatch> batches_;  ///< the build side, as produced
  std::vector<RowLoc> rows_;         ///< build row id -> position
  std::vector<uint32_t> next_;       ///< build row id -> next row of its key
  std::vector<uint32_t> head_;       ///< entry -> its first build row
  std::vector<uint32_t> tail_;       ///< entry -> its last build row
  TupleBatch probe_batch_;
  std::vector<uint32_t> probe_rows_;  ///< per output row: physical probe row
  std::vector<uint32_t> build_rows_;  ///< per output row: build row id
  size_t build_width_ = 0;
  size_t probe_width_ = 0;
};

/// The BIGINT an index probe for join key `key` must look up, or nullopt
/// when no BIGINT equals it. Equality is Value::Compare's, as in the hash
/// join: NULL joins nothing, a BOOLEAN or integral DOUBLE equals the BIGINT
/// of the same value, and a fractional, non-finite or out-of-range DOUBLE
/// or a VARCHAR equals none.
std::optional<int64_t> IndexProbeKey(const Value& key) {
  if (key.is_null()) return std::nullopt;
  switch (key.type()) {
    case TypeId::kBoolean:
    case TypeId::kInt64:
      return key.AsInt();
    case TypeId::kDouble: {
      // [-2^63, 2^63) holds exactly the doubles that convert to int64.
      const double d = key.AsDouble();
      if (d >= -9223372036854775808.0 && d < 9223372036854775808.0 &&
          d == std::floor(d)) {
        return static_cast<int64_t>(d);
      }
      return std::nullopt;
    }
    case TypeId::kVarchar:
      break;
  }
  return std::nullopt;
}

class IndexNLJoinVecExecutor : public VecExecutor {
 public:
  IndexNLJoinVecExecutor(const PlanNode& plan, std::unique_ptr<VecExecutor> outer,
                         TableInfo* inner, const BPlusTree* tree)
      : plan_(plan), outer_(std::move(outer)), inner_(inner), tree_(tree) {}

  Status Init() override {
    outer_width_ = plan_.children[0]->output_columns.size();
    PSE_RETURN_NOT_OK(decoder_.Init(plan_, *inner_->schema));
    return outer_->Init();
  }

  Result<bool> InternalNext(TupleBatch* out) override {
    while (true) {
      PSE_ASSIGN_OR_RETURN(bool has, outer_->Next(&outer_batch_));
      if (!has) return false;
      // Copy the bytes of every outer row's index matches, in outer order
      // and index order, then filter and decode them as one batch.
      tuples_.Clear();
      owners_.clear();
      const size_t n = outer_batch_.size();
      for (size_t i = 0; i < n; ++i) {
        const size_t p = outer_batch_.SelIndex(i);
        const std::optional<int64_t> key =
            IndexProbeKey(outer_batch_.At(plan_.left_key_pos, p));
        if (!key.has_value()) continue;
        rids_.clear();
        PSE_RETURN_NOT_OK(tree_->ScanEqual(*key, &rids_));
        for (const Rid& rid : rids_) {
          PSE_RETURN_NOT_OK(inner_->heap->CopyTuple(rid, &tuples_));
          owners_.push_back(static_cast<uint32_t>(p));
        }
      }
      if (tuples_.size() == 0) continue;
      PSE_ASSIGN_OR_RETURN(size_t live, decoder_.Decode(tuples_, &inner_batch_));
      if (live == 0) continue;
      const size_t inner_width = plan_.scan_column_idxs.size();
      out->Reset(outer_width_ + inner_width, live);
      matched_.clear();
      for (uint32_t t : decoder_.survivors()) matched_.push_back(owners_[t]);
      for (size_t c = 0; c < outer_width_; ++c) {
        AppendRows(&outer_batch_.col(c), matched_, &out->col(c));
      }
      for (size_t c = 0; c < inner_width; ++c) {
        out->col(outer_width_ + c) = std::move(inner_batch_.col(c));
      }
      out->SetNumRows(live);
      return true;
    }
  }

 private:
  const PlanNode& plan_;
  std::unique_ptr<VecExecutor> outer_;
  TableInfo* inner_;
  const BPlusTree* tree_;
  ScanDecoder decoder_;
  TupleBatch outer_batch_;
  TupleBatch inner_batch_;
  TupleBytes tuples_;
  std::vector<Rid> rids_;
  std::vector<uint32_t> owners_;   ///< per copied tuple: its physical outer row
  std::vector<uint32_t> matched_;  ///< per output row: its physical outer row
  size_t outer_width_ = 0;
};

class DistinctVecExecutor : public VecExecutor {
 public:
  explicit DistinctVecExecutor(std::unique_ptr<VecExecutor> child)
      : child_(std::move(child)) {}

  Status Init() override {
    cols_.clear();
    seen_.Reset(0);
    return child_->Init();
  }

  Result<bool> InternalNext(TupleBatch* out) override {
    while (true) {
      PSE_ASSIGN_OR_RETURN(bool has, child_->Next(out));
      if (!has) return false;
      if (cols_.size() != out->num_cols()) {  // first batch: key = every column
        cols_.resize(out->num_cols());
        std::iota(cols_.begin(), cols_.end(), size_t{0});
        seen_.Reset(cols_.size());
      }
      // Keep first occurrences, in input order.
      sel_.clear();
      const size_t n = out->size();
      for (size_t i = 0; i < n; ++i) {
        const size_t p = out->SelIndex(i);
        bool inserted = false;
        seen_.FindOrInsert(*out, cols_, p, &inserted);
        if (inserted) sel_.push_back(static_cast<uint32_t>(p));
      }
      if (sel_.empty()) continue;
      out->SetSel(std::move(sel_));
      return true;
    }
  }

 private:
  std::unique_ptr<VecExecutor> child_;
  std::vector<size_t> cols_;
  KeyedRowTable seen_;
  std::vector<uint32_t> sel_;
};

/// Accumulator for one aggregate within one group. Each function updates
/// only the fields its result reads.
struct AggState {
  /// Rows (COUNT(*)), non-NULL values (COUNT, SUM, AVG) or distinct
  /// non-NULL values (COUNT(DISTINCT)).
  int64_t count = 0;
  int64_t sum_int = 0;  ///< SUM/AVG
  double sum_double = 0.0;
  bool any_double = false;
  Value extreme;  ///< MIN/MAX so far; NULL until the first value
};

/// Folds one non-NULL argument value into the accumulator of a COUNT, SUM,
/// AVG, MIN or MAX (COUNT(*) and COUNT(DISTINCT) count elsewhere).
void AggAccumulate(AggFunc func, const Value& v, AggState* st) {
  switch (func) {
    case AggFunc::kCount:
      ++st->count;
      return;
    case AggFunc::kSum:
    case AggFunc::kAvg:
      ++st->count;
      if (v.type() == TypeId::kDouble) st->any_double = true;
      if (v.type() == TypeId::kInt64) st->sum_int += v.AsInt();
      st->sum_double += v.AsDouble();
      return;
    case AggFunc::kMin:
      if (st->extreme.is_null() || v.Compare(st->extreme) < 0) st->extreme = v;
      return;
    case AggFunc::kMax:
      if (st->extreme.is_null() || v.Compare(st->extreme) > 0) st->extreme = v;
      return;
    case AggFunc::kNone:
    case AggFunc::kCountStar:
    case AggFunc::kCountDistinct:
      return;
  }
}

/// Finalizes one aggregate into its output value.
Result<Value> AggFinalize(AggFunc func, const AggState& st) {
  switch (func) {
    case AggFunc::kCountStar:
    case AggFunc::kCount:
    case AggFunc::kCountDistinct:
      return Value::Int(st.count);
    case AggFunc::kSum:
      if (st.count == 0) return Value::Null(TypeId::kDouble);
      if (st.any_double) return Value::Double(st.sum_double);
      return Value::Int(st.sum_int);
    case AggFunc::kAvg:
      return st.count > 0 ? Value::Double(st.sum_double / static_cast<double>(st.count))
                          : Value::Null(TypeId::kDouble);
    case AggFunc::kMin:
    case AggFunc::kMax:
      return st.extreme;
    case AggFunc::kNone:
      break;
  }
  return Status::Internal("kNone aggregate in plan");
}

class AggregateVecExecutor : public VecExecutor {
 public:
  AggregateVecExecutor(const PlanNode& plan, std::unique_ptr<VecExecutor> child)
      : plan_(plan), child_(std::move(child)) {}

  Status Init() override {
    PSE_RETURN_NOT_OK(child_->Init());
    const size_t num_aggs = plan_.aggs.size();
    groups_.Reset(plan_.group_by_pos.size());
    states_.clear();
    // COUNT(DISTINCT x) counts the distinct (group key, x) rows it sees.
    distinct_.assign(num_aggs, KeyedRowTable());
    distinct_cols_.assign(num_aggs, plan_.group_by_pos);
    for (size_t a = 0; a < num_aggs; ++a) {
      distinct_cols_[a].push_back(plan_.aggs[a].arg_pos);
      distinct_[a].Reset(distinct_cols_[a].size());
    }
    TupleBatch batch;
    while (true) {
      PSE_ASSIGN_OR_RETURN(bool has, child_->Next(&batch));
      if (!has) break;
      const size_t n = batch.size();
      for (size_t i = 0; i < n; ++i) {
        const size_t p = batch.SelIndex(i);
        bool fresh = false;
        const uint32_t g = groups_.FindOrInsert(batch, plan_.group_by_pos, p, &fresh);
        if (fresh) states_.resize(states_.size() + num_aggs);
        AggState* st = states_.data() + static_cast<size_t>(g) * num_aggs;
        for (size_t a = 0; a < num_aggs; ++a) {
          const PlanAggSpec& spec = plan_.aggs[a];
          if (spec.func == AggFunc::kCountStar) {
            ++st[a].count;
            continue;
          }
          const Value& v = batch.At(spec.arg_pos, p);
          if (v.is_null()) continue;
          if (spec.func == AggFunc::kCountDistinct) {
            bool new_value = false;
            distinct_[a].FindOrInsert(batch, distinct_cols_[a], p, &new_value);
            if (new_value) ++st[a].count;
            continue;
          }
          AggAccumulate(spec.func, v, &st[a]);
        }
      }
    }
    // Groups come out in first-seen order. A scalar aggregate over an empty
    // input still yields one row.
    num_groups_ = groups_.size();
    if (num_groups_ == 0 && plan_.group_by_pos.empty()) {
      states_.resize(num_aggs);
      num_groups_ = 1;
    }
    pos_ = 0;
    return Status::OK();
  }

  Result<bool> InternalNext(TupleBatch* out) override {
    if (pos_ >= num_groups_) return false;
    const size_t num_keys = plan_.group_by_pos.size();
    const size_t num_aggs = plan_.aggs.size();
    const size_t take = std::min(TupleBatch::kDefaultRows, num_groups_ - pos_);
    out->Reset(num_keys + num_aggs, take);
    for (size_t k = 0; k < num_keys; ++k) {
      std::vector<Value>& keys = groups_.key_col(k);
      std::vector<Value>& dst = out->col(k);
      for (size_t g = pos_; g < pos_ + take; ++g) dst.push_back(std::move(keys[g]));
    }
    for (size_t a = 0; a < num_aggs; ++a) {
      std::vector<Value>& dst = out->col(num_keys + a);
      for (size_t g = pos_; g < pos_ + take; ++g) {
        PSE_ASSIGN_OR_RETURN(Value v,
                             AggFinalize(plan_.aggs[a].func, states_[g * num_aggs + a]));
        dst.push_back(std::move(v));
      }
    }
    out->SetNumRows(take);
    pos_ += take;
    return true;
  }

 private:
  const PlanNode& plan_;
  std::unique_ptr<VecExecutor> child_;
  KeyedRowTable groups_;
  std::vector<AggState> states_;  ///< group g's aggregates at [g * aggs, (g + 1) * aggs)
  std::vector<KeyedRowTable> distinct_;  ///< per aggregate; used by COUNT(DISTINCT)
  std::vector<std::vector<size_t>> distinct_cols_;  ///< group key columns + argument
  size_t num_groups_ = 0;
  size_t pos_ = 0;
};

class SortVecExecutor : public VecExecutor {
 public:
  SortVecExecutor(const PlanNode& plan, std::unique_ptr<VecExecutor> child)
      : plan_(plan), child_(std::move(child)) {}

  Status Init() override {
    PSE_RETURN_NOT_OK(child_->Init());
    batches_.clear();
    order_.clear();
    while (true) {
      TupleBatch batch;
      PSE_ASSIGN_OR_RETURN(bool has, child_->Next(&batch));
      if (!has) break;
      const auto b = static_cast<uint32_t>(batches_.size());
      const size_t n = batch.size();
      for (size_t i = 0; i < n; ++i) {
        order_.push_back(RowLoc{b, static_cast<uint32_t>(batch.SelIndex(i))});
      }
      batches_.push_back(std::move(batch));
    }
    // Stable over the child's row order (heap order for a scan), so ties
    // break deterministically under Sort+Limit.
    const auto& keys = plan_.sort_keys;
    std::stable_sort(order_.begin(), order_.end(), [&](RowLoc x, RowLoc y) {
      for (const auto& k : keys) {
        const Value& vx = batches_[x.batch].At(k.pos, x.row);
        const int c = vx.Compare(batches_[y.batch].At(k.pos, y.row));
        if (c != 0) return k.desc ? c > 0 : c < 0;
      }
      return false;
    });
    pos_ = 0;
    return Status::OK();
  }

  Result<bool> InternalNext(TupleBatch* out) override {
    if (pos_ >= order_.size()) return false;
    const size_t width = batches_[0].num_cols();
    const size_t take = std::min(TupleBatch::kDefaultRows, order_.size() - pos_);
    out->Reset(width, take);
    // Each row is emitted once, so its values move out.
    for (size_t c = 0; c < width; ++c) {
      std::vector<Value>& dst = out->col(c);
      for (size_t i = pos_; i < pos_ + take; ++i) {
        dst.push_back(std::move(batches_[order_[i].batch].col(c)[order_[i].row]));
      }
    }
    out->SetNumRows(take);
    pos_ += take;
    return true;
  }

 private:
  const PlanNode& plan_;
  std::unique_ptr<VecExecutor> child_;
  std::vector<TupleBatch> batches_;  ///< the input, as produced
  std::vector<RowLoc> order_;        ///< live input rows in output order
  size_t pos_ = 0;
};

class LimitVecExecutor : public VecExecutor {
 public:
  LimitVecExecutor(const PlanNode& plan, std::unique_ptr<VecExecutor> child)
      : plan_(plan), child_(std::move(child)) {}

  Status Init() override {
    remaining_ = plan_.limit_n < 0 ? 0 : static_cast<size_t>(plan_.limit_n);
    return child_->Init();
  }

  Result<bool> InternalNext(TupleBatch* out) override {
    if (remaining_ == 0) return false;
    PSE_ASSIGN_OR_RETURN(bool has, child_->Next(out));
    if (!has) return false;
    if (out->size() > remaining_) {
      std::vector<uint32_t> sel;
      sel.reserve(remaining_);
      for (size_t i = 0; i < remaining_; ++i) {
        sel.push_back(static_cast<uint32_t>(out->SelIndex(i)));
      }
      out->SetSel(std::move(sel));
    }
    remaining_ -= out->size();
    return true;
  }

 private:
  const PlanNode& plan_;
  std::unique_ptr<VecExecutor> child_;
  size_t remaining_ = 0;
};

}  // namespace

Result<std::unique_ptr<VecExecutor>> BuildVecExecutor(const PlanNode& plan,
                                                      Database* db) {
  switch (plan.kind) {
    case PlanNode::Kind::kSeqScan: {
      PSE_ASSIGN_OR_RETURN(TableInfo * t, db->GetTable(plan.table));
      return std::unique_ptr<VecExecutor>(new SeqScanVecExecutor(plan, t));
    }
    case PlanNode::Kind::kIndexScan: {
      PSE_ASSIGN_OR_RETURN(TableInfo * t, db->GetTable(plan.table));
      const IndexInfo* idx = t->FindIndex(plan.index_column);
      if (idx == nullptr) {
        return Status::Internal("plan expects index on " + plan.table + "." + plan.index_column);
      }
      return std::unique_ptr<VecExecutor>(
          new IndexScanVecExecutor(plan, t, idx->tree.get()));
    }
    case PlanNode::Kind::kFilter: {
      PSE_ASSIGN_OR_RETURN(auto child, BuildVecExecutor(*plan.children[0], db));
      return std::unique_ptr<VecExecutor>(new FilterVecExecutor(plan, std::move(child)));
    }
    case PlanNode::Kind::kProject: {
      PSE_ASSIGN_OR_RETURN(auto child, BuildVecExecutor(*plan.children[0], db));
      return std::unique_ptr<VecExecutor>(
          new ProjectVecExecutor(plan, std::move(child)));
    }
    case PlanNode::Kind::kHashJoin: {
      PSE_ASSIGN_OR_RETURN(auto build, BuildVecExecutor(*plan.children[0], db));
      PSE_ASSIGN_OR_RETURN(auto probe, BuildVecExecutor(*plan.children[1], db));
      return std::unique_ptr<VecExecutor>(
          new HashJoinVecExecutor(plan, std::move(build), std::move(probe)));
    }
    case PlanNode::Kind::kIndexNLJoin: {
      PSE_ASSIGN_OR_RETURN(auto outer, BuildVecExecutor(*plan.children[0], db));
      PSE_ASSIGN_OR_RETURN(TableInfo * t, db->GetTable(plan.table));
      const IndexInfo* idx = t->FindIndex(plan.index_column);
      if (idx == nullptr) {
        return Status::Internal("plan expects index on " + plan.table + "." + plan.index_column);
      }
      return std::unique_ptr<VecExecutor>(
          new IndexNLJoinVecExecutor(plan, std::move(outer), t, idx->tree.get()));
    }
    case PlanNode::Kind::kDistinct: {
      PSE_ASSIGN_OR_RETURN(auto child, BuildVecExecutor(*plan.children[0], db));
      return std::unique_ptr<VecExecutor>(new DistinctVecExecutor(std::move(child)));
    }
    case PlanNode::Kind::kAggregate: {
      PSE_ASSIGN_OR_RETURN(auto child, BuildVecExecutor(*plan.children[0], db));
      return std::unique_ptr<VecExecutor>(
          new AggregateVecExecutor(plan, std::move(child)));
    }
    case PlanNode::Kind::kSort: {
      PSE_ASSIGN_OR_RETURN(auto child, BuildVecExecutor(*plan.children[0], db));
      return std::unique_ptr<VecExecutor>(new SortVecExecutor(plan, std::move(child)));
    }
    case PlanNode::Kind::kLimit: {
      PSE_ASSIGN_OR_RETURN(auto child, BuildVecExecutor(*plan.children[0], db));
      return std::unique_ptr<VecExecutor>(new LimitVecExecutor(plan, std::move(child)));
    }
  }
  return Status::Internal("unknown plan node kind");
}

}  // namespace pse
