#include "engine/vec_executor.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>
#include <utility>

namespace pse {

namespace {

/// Projects `in` onto source columns `idxs` without touching individual
/// values: whole column vectors are moved when a source column is used
/// exactly once (copied otherwise) and `in`'s selection vector, if any,
/// transfers to `out` unchanged — physical indices are column-independent,
/// so narrowing survives the projection for free. `in` is left hollow;
/// callers Reset() it before reuse.
void GatherColumns(TupleBatch* in, const std::vector<size_t>& idxs, TupleBatch* out) {
  const size_t phys = in->num_rows();
  out->Reset(idxs.size(), phys);
  for (size_t j = 0; j < idxs.size(); ++j) {
    size_t uses = 0;
    for (size_t k : idxs) {
      if (k == idxs[j]) ++uses;
    }
    if (uses == 1) {
      out->col(j) = std::move(in->col(idxs[j]));
    } else {
      out->col(j) = in->col(idxs[j]);
    }
  }
  out->SetNumRows(phys);
  if (in->has_sel()) out->SetSel(in->sel());
}

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

class SeqScanVecExecutor : public VecExecutor {
 public:
  SeqScanVecExecutor(const PlanNode& plan, TableInfo* table)
      : plan_(plan), table_(table) {}

  Status Init() override {
    if (plan_.scan_filter) {
      PSE_ASSIGN_OR_RETURN(filter_, ExprVecExecutor::Create(*plan_.scan_filter));
    }
    // Column pruning: decode only what the projection or the pushed-down
    // filter touches. Skipped columns (often wide varchars) never leave the
    // page.
    const size_t width = table_->schema->columns().size();
    needed_ = plan_.scan_column_idxs;
    if (plan_.scan_filter && !CollectColumnPositions(*plan_.scan_filter, &needed_)) {
      needed_.resize(width);
      for (size_t i = 0; i < width; ++i) needed_[i] = i;
    }
    std::sort(needed_.begin(), needed_.end());
    needed_.erase(std::unique(needed_.begin(), needed_.end()), needed_.end());
    it_ = table_->heap->Begin();
    return Status::OK();
  }

  Result<bool> InternalNext(TupleBatch* out) override {
    const size_t width = table_->schema->columns().size();
    while (true) {
      full_.Reset(width, TupleBatch::kDefaultRows);
      cols_.clear();
      for (size_t c : needed_) cols_.push_back(&full_.col(c));
      PSE_ASSIGN_OR_RETURN(
          size_t filled, it_.FillBatchColumns(TupleBatch::kDefaultRows, needed_, cols_));
      if (filled == 0) return false;
      // Pruned columns stay empty; only `needed_` positions are readable,
      // which covers the filter and the gather below.
      full_.SetNumRows(filled);
      if (filter_.valid()) {
        PSE_RETURN_NOT_OK(filter_.EvalSelect(full_, &sel_));
        if (sel_.empty()) continue;  // all-filtered batch: keep scanning
        full_.SetSel(std::move(sel_));
      }
      GatherColumns(&full_, plan_.scan_column_idxs, out);
      return true;
    }
  }

 private:
  const PlanNode& plan_;
  TableInfo* table_;
  TableHeap::Iterator it_;
  ExprVecExecutor filter_;
  std::vector<size_t> needed_;
  std::vector<std::vector<Value>*> cols_;
  TupleBatch full_;
  std::vector<uint32_t> sel_;
};

class IndexScanVecExecutor : public VecExecutor {
 public:
  IndexScanVecExecutor(const PlanNode& plan, TableInfo* table, const BPlusTree* tree)
      : plan_(plan), table_(table), tree_(tree) {}

  Status Init() override {
    if (plan_.scan_filter) {
      PSE_ASSIGN_OR_RETURN(filter_, ExprVecExecutor::Create(*plan_.scan_filter));
    }
    int64_t lo = plan_.lo.value_or(INT64_MIN);
    int64_t hi = plan_.hi.value_or(INT64_MAX);
    rids_.clear();
    pos_ = 0;
    return tree_->ScanRange(lo, hi, &rids_);
  }

  Result<bool> InternalNext(TupleBatch* out) override {
    const size_t width = table_->schema->columns().size();
    while (pos_ < rids_.size()) {
      full_.Reset(width, TupleBatch::kDefaultRows);
      Row row;
      for (size_t n = 0; pos_ < rids_.size() && n < TupleBatch::kDefaultRows;
           ++n, ++pos_) {
        PSE_RETURN_NOT_OK(table_->heap->Get(rids_[pos_], &row));
        full_.AppendRow(std::move(row));
      }
      if (filter_.valid()) {
        PSE_RETURN_NOT_OK(filter_.EvalSelect(full_, &sel_));
        if (sel_.empty()) continue;
        full_.SetSel(std::move(sel_));
      }
      GatherColumns(&full_, plan_.scan_column_idxs, out);
      return true;
    }
    return false;
  }

 private:
  const PlanNode& plan_;
  TableInfo* table_;
  const BPlusTree* tree_;
  ExprVecExecutor filter_;
  std::vector<Rid> rids_;
  size_t pos_ = 0;
  TupleBatch full_;
  std::vector<uint32_t> sel_;
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
    table_.clear();
    // Drain the build side completely before the probe side pulls its
    // first batch.
    TupleBatch batch;
    while (true) {
      PSE_ASSIGN_OR_RETURN(bool has, build_->Next(&batch));
      if (!has) break;
      const size_t n = batch.size();
      for (size_t i = 0; i < n; ++i) {
        const size_t p = batch.SelIndex(i);
        const Value& key = batch.At(plan_.left_key_pos, p);
        if (key.is_null()) continue;  // NULL never joins
        table_[key].push_back(batch.RowAt(p));
      }
    }
    return Status::OK();
  }

  Result<bool> InternalNext(TupleBatch* out) override {
    while (true) {
      PSE_ASSIGN_OR_RETURN(bool has, probe_->Next(&probe_batch_));
      if (!has) return false;
      out->Reset(build_width_ + probe_width_, probe_batch_.size());
      size_t emitted = 0;
      const size_t n = probe_batch_.size();
      for (size_t i = 0; i < n; ++i) {
        const size_t p = probe_batch_.SelIndex(i);
        const Value& key = probe_batch_.At(plan_.right_key_pos, p);
        if (key.is_null()) continue;
        auto it = table_.find(key);
        if (it == table_.end()) continue;
        for (const Row& build_row : it->second) {
          for (size_t c = 0; c < build_width_; ++c) out->col(c).push_back(build_row[c]);
          for (size_t c = 0; c < probe_width_; ++c) {
            out->col(build_width_ + c).push_back(probe_batch_.At(c, p));
          }
          ++emitted;
        }
      }
      if (emitted == 0) continue;
      out->SetNumRows(emitted);
      return true;
    }
  }

 private:
  const PlanNode& plan_;
  std::unique_ptr<VecExecutor> build_;
  std::unique_ptr<VecExecutor> probe_;
  std::unordered_map<Value, std::vector<Row>, ValueHash, ValueEq> table_;
  TupleBatch probe_batch_;
  size_t build_width_ = 0;
  size_t probe_width_ = 0;
};

class IndexNLJoinVecExecutor : public VecExecutor {
 public:
  IndexNLJoinVecExecutor(const PlanNode& plan, std::unique_ptr<VecExecutor> outer,
                         TableInfo* inner, const BPlusTree* tree)
      : plan_(plan), outer_(std::move(outer)), inner_(inner), tree_(tree) {}

  Status Init() override {
    outer_width_ = plan_.children[0]->output_columns.size();
    return outer_->Init();
  }

  Result<bool> InternalNext(TupleBatch* out) override {
    Row inner_full;
    while (true) {
      PSE_ASSIGN_OR_RETURN(bool has, outer_->Next(&outer_batch_));
      if (!has) return false;
      out->Reset(outer_width_ + plan_.scan_column_idxs.size(), outer_batch_.size());
      size_t emitted = 0;
      const size_t n = outer_batch_.size();
      for (size_t i = 0; i < n; ++i) {
        const size_t p = outer_batch_.SelIndex(i);
        const Value& key = outer_batch_.At(plan_.left_key_pos, p);
        if (key.is_null() || key.type() != TypeId::kInt64) continue;
        rids_.clear();
        PSE_RETURN_NOT_OK(tree_->ScanEqual(key.AsInt(), &rids_));
        for (const Rid& rid : rids_) {
          PSE_RETURN_NOT_OK(inner_->heap->Get(rid, &inner_full));
          bool pass = true;
          if (plan_.scan_filter) {
            PSE_ASSIGN_OR_RETURN(pass, EvalPredicate(*plan_.scan_filter, inner_full));
          }
          if (!pass) continue;
          for (size_t c = 0; c < outer_width_; ++c) {
            out->col(c).push_back(outer_batch_.At(c, p));
          }
          for (size_t c = 0; c < plan_.scan_column_idxs.size(); ++c) {
            out->col(outer_width_ + c).push_back(inner_full[plan_.scan_column_idxs[c]]);
          }
          ++emitted;
        }
      }
      if (emitted == 0) continue;
      out->SetNumRows(emitted);
      return true;
    }
  }

 private:
  const PlanNode& plan_;
  std::unique_ptr<VecExecutor> outer_;
  TableInfo* inner_;
  const BPlusTree* tree_;
  TupleBatch outer_batch_;
  std::vector<Rid> rids_;
  size_t outer_width_ = 0;
};

class DistinctVecExecutor : public VecExecutor {
 public:
  explicit DistinctVecExecutor(std::unique_ptr<VecExecutor> child)
      : child_(std::move(child)) {}

  Status Init() override {
    seen_.clear();
    return child_->Init();
  }

  Result<bool> InternalNext(TupleBatch* out) override {
    while (true) {
      PSE_ASSIGN_OR_RETURN(bool has, child_->Next(out));
      if (!has) return false;
      sel_.clear();
      const size_t n = out->size();
      for (size_t i = 0; i < n; ++i) {
        const size_t p = out->SelIndex(i);
        if (seen_.insert(out->RowAt(p)).second) sel_.push_back(static_cast<uint32_t>(p));
      }
      if (sel_.empty()) continue;
      out->SetSel(std::move(sel_));
      return true;
    }
  }

 private:
  std::unique_ptr<VecExecutor> child_;
  std::unordered_set<Row, RowHash, RowEq> seen_;
  std::vector<uint32_t> sel_;
};

/// Accumulator for one aggregate within one group.
struct AggState {
  int64_t count = 0;  ///< rows seen (non-null for arg-based functions)
  int64_t sum_int = 0;
  double sum_double = 0.0;
  bool any_double = false;
  Value min, max;  ///< NULL until first value
  bool has_value = false;
  std::unordered_set<Value, ValueHash, ValueEq> distinct;  ///< COUNT(DISTINCT)
};

/// Folds one non-COUNT(*) argument value into the accumulator (NULL args
/// must be skipped by the caller; COUNT(*) just increments `count`).
void AggAccumulate(AggFunc func, const Value& v, AggState* st) {
  ++st->count;
  st->has_value = true;
  if (func == AggFunc::kCountDistinct) {
    st->distinct.insert(v);
    return;
  }
  if (v.type() == TypeId::kDouble) st->any_double = true;
  if (func == AggFunc::kSum || func == AggFunc::kAvg) {
    if (v.type() == TypeId::kInt64) st->sum_int += v.AsInt();
    st->sum_double += v.AsDouble();
  }
  if (st->min.is_null() || v.Compare(st->min) < 0) st->min = v;
  if (st->max.is_null() || v.Compare(st->max) > 0) st->max = v;
}

/// Finalizes one aggregate into its output value.
Result<Value> AggFinalize(AggFunc func, const AggState& st) {
  switch (func) {
    case AggFunc::kCountStar:
    case AggFunc::kCount:
      return Value::Int(st.count);
    case AggFunc::kCountDistinct:
      return Value::Int(static_cast<int64_t>(st.distinct.size()));
    case AggFunc::kSum:
      if (!st.has_value) return Value::Null(TypeId::kDouble);
      if (st.any_double) return Value::Double(st.sum_double);
      return Value::Int(st.sum_int);
    case AggFunc::kAvg:
      return st.has_value ? Value::Double(st.sum_double / static_cast<double>(st.count))
                          : Value::Null(TypeId::kDouble);
    case AggFunc::kMin:
      return st.min;
    case AggFunc::kMax:
      return st.max;
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
    groups_.clear();
    order_.clear();
    bool saw_any = false;
    TupleBatch batch;
    Row key;
    while (true) {
      PSE_ASSIGN_OR_RETURN(bool has, child_->Next(&batch));
      if (!has) break;
      const size_t n = batch.size();
      if (n > 0) saw_any = true;
      for (size_t i = 0; i < n; ++i) {
        const size_t p = batch.SelIndex(i);
        key.clear();
        key.reserve(plan_.group_by_pos.size());
        for (size_t g : plan_.group_by_pos) key.push_back(batch.At(g, p));
        auto [it, fresh] = groups_.try_emplace(key, std::vector<AggState>(plan_.aggs.size()));
        if (fresh) order_.push_back(key);
        for (size_t a = 0; a < plan_.aggs.size(); ++a) {
          const PlanAggSpec& spec = plan_.aggs[a];
          AggState& st = it->second[a];
          if (spec.func == AggFunc::kCountStar) {
            ++st.count;
            continue;
          }
          const Value& v = batch.At(spec.arg_pos, p);
          if (v.is_null()) continue;
          AggAccumulate(spec.func, v, &st);
        }
      }
    }
    // Scalar aggregate over an empty input still yields one row.
    if (!saw_any && plan_.group_by_pos.empty()) {
      Row empty_key;
      groups_.try_emplace(empty_key, std::vector<AggState>(plan_.aggs.size()));
      order_.push_back(empty_key);
    }
    pos_ = 0;
    return Status::OK();
  }

  Result<bool> InternalNext(TupleBatch* out) override {
    if (pos_ >= order_.size()) return false;
    const size_t width = plan_.group_by_pos.size() + plan_.aggs.size();
    const size_t take = std::min(TupleBatch::kDefaultRows, order_.size() - pos_);
    out->Reset(width, take);
    Row row;
    for (size_t i = 0; i < take; ++i, ++pos_) {
      const Row& key = order_[pos_];
      const std::vector<AggState>& states = groups_.at(key);
      row.clear();
      row.reserve(width);
      row.insert(row.end(), key.begin(), key.end());
      for (size_t a = 0; a < plan_.aggs.size(); ++a) {
        PSE_ASSIGN_OR_RETURN(Value v, AggFinalize(plan_.aggs[a].func, states[a]));
        row.push_back(std::move(v));
      }
      out->AppendRow(std::move(row));
    }
    return true;
  }

 private:
  const PlanNode& plan_;
  std::unique_ptr<VecExecutor> child_;
  std::unordered_map<Row, std::vector<AggState>, RowHash, RowEq> groups_;
  std::vector<Row> order_;  // first-seen group order (deterministic output)
  size_t pos_ = 0;
};

class SortVecExecutor : public VecExecutor {
 public:
  SortVecExecutor(const PlanNode& plan, std::unique_ptr<VecExecutor> child)
      : plan_(plan), child_(std::move(child)) {}

  Status Init() override {
    PSE_RETURN_NOT_OK(child_->Init());
    rows_.clear();
    TupleBatch batch;
    while (true) {
      PSE_ASSIGN_OR_RETURN(bool has, child_->Next(&batch));
      if (!has) break;
      batch.EmitRows(&rows_);
    }
    // Stable over the child's batch order (heap order for a scan), so ties
    // break deterministically under Sort+Limit.
    const auto& keys = plan_.sort_keys;
    std::stable_sort(rows_.begin(), rows_.end(), [&keys](const Row& a, const Row& b) {
      for (const auto& k : keys) {
        int c = a[k.pos].Compare(b[k.pos]);
        if (c != 0) return k.desc ? c > 0 : c < 0;
      }
      return false;
    });
    pos_ = 0;
    return Status::OK();
  }

  Result<bool> InternalNext(TupleBatch* out) override {
    if (pos_ >= rows_.size()) return false;
    const size_t width = rows_[pos_].size();
    const size_t take = std::min(TupleBatch::kDefaultRows, rows_.size() - pos_);
    out->Reset(width, take);
    for (size_t i = 0; i < take; ++i, ++pos_) out->AppendRow(std::move(rows_[pos_]));
    return true;
  }

 private:
  const PlanNode& plan_;
  std::unique_ptr<VecExecutor> child_;
  std::vector<Row> rows_;
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
