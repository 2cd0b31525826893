// Scalar expression trees evaluated against rows.
//
// Column references are symbolic (a name) until a resolution pass assigns
// positions into the runtime row; the planner runs that pass once the layout
// of each operator's output is known.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "catalog/tuple.h"
#include "catalog/value.h"
#include "common/status.h"

namespace pse {

enum class CompareOp { kEq, kNe, kLt, kLe, kGt, kGe };
enum class LogicOp { kAnd, kOr };
enum class ArithOp { kAdd, kSub, kMul, kDiv };

const char* CompareOpToString(CompareOp op);

/// Resolves a (possibly qualified) column name to a position in the row.
using ColumnResolver = std::function<Result<size_t>(const std::string&)>;

/// \brief Abstract scalar expression.
///
/// Three-valued logic: predicates evaluate to Bool or NULL; NULL is treated
/// as false wherever a row is accepted/rejected.
class Expr {
 public:
  virtual ~Expr() = default;

  /// Evaluates against a row (columns must be resolved first).
  virtual Result<Value> Eval(const Row& row) const = 0;
  /// Resolves every ColumnRef beneath this node.
  virtual Status Resolve(const ColumnResolver& resolver) = 0;
  /// Deep copy.
  virtual std::unique_ptr<Expr> Clone() const = 0;
  /// Display form for EXPLAIN and errors.
  virtual std::string ToString() const = 0;
  /// Collects the names of all referenced columns.
  virtual void CollectColumns(std::vector<std::string>* out) const = 0;
  /// Invokes `fn` on every ColumnRefExpr in the tree (mutable visitor; the
  /// binder uses it to qualify/unqualify names).
  virtual void VisitColumnRefs(const std::function<void(class ColumnRefExpr*)>& fn) = 0;
};

using ExprPtr = std::unique_ptr<Expr>;

/// Reference to a column by name; holds the resolved row position.
class ColumnRefExpr : public Expr {
 public:
  explicit ColumnRefExpr(std::string name) : name_(std::move(name)) {}
  Result<Value> Eval(const Row& row) const override;
  Status Resolve(const ColumnResolver& resolver) override;
  std::unique_ptr<Expr> Clone() const override;
  std::string ToString() const override { return name_; }
  void CollectColumns(std::vector<std::string>* out) const override { out->push_back(name_); }
  void VisitColumnRefs(const std::function<void(ColumnRefExpr*)>& fn) override { fn(this); }

  const std::string& name() const { return name_; }
  /// Renames the reference (binder qualification passes). Clears resolution.
  void set_name(std::string n) {
    name_ = std::move(n);
    resolved_ = false;
  }
  size_t position() const { return pos_; }
  bool resolved() const { return resolved_; }

 private:
  std::string name_;
  size_t pos_ = 0;
  bool resolved_ = false;
};

/// Literal constant.
class ConstantExpr : public Expr {
 public:
  explicit ConstantExpr(Value v) : value_(std::move(v)) {}
  Result<Value> Eval(const Row&) const override { return value_; }
  Status Resolve(const ColumnResolver&) override { return Status::OK(); }
  std::unique_ptr<Expr> Clone() const override {
    return std::make_unique<ConstantExpr>(value_);
  }
  std::string ToString() const override;
  void CollectColumns(std::vector<std::string>*) const override {}
  void VisitColumnRefs(const std::function<void(ColumnRefExpr*)>&) override {}
  const Value& value() const { return value_; }

 private:
  Value value_;
};

/// Binary comparison with SQL NULL semantics (NULL operand -> NULL result).
class CompareExpr : public Expr {
 public:
  CompareExpr(CompareOp op, ExprPtr left, ExprPtr right)
      : op_(op), left_(std::move(left)), right_(std::move(right)) {}
  Result<Value> Eval(const Row& row) const override;
  Status Resolve(const ColumnResolver& r) override;
  std::unique_ptr<Expr> Clone() const override;
  std::string ToString() const override;
  void CollectColumns(std::vector<std::string>* out) const override;
  void VisitColumnRefs(const std::function<void(ColumnRefExpr*)>& fn) override {
    left_->VisitColumnRefs(fn);
    right_->VisitColumnRefs(fn);
  }

  CompareOp op() const { return op_; }
  const Expr* left() const { return left_.get(); }
  const Expr* right() const { return right_.get(); }

 private:
  CompareOp op_;
  ExprPtr left_, right_;
};

/// AND / OR with three-valued logic.
class LogicExpr : public Expr {
 public:
  LogicExpr(LogicOp op, ExprPtr left, ExprPtr right)
      : op_(op), left_(std::move(left)), right_(std::move(right)) {}
  Result<Value> Eval(const Row& row) const override;
  Status Resolve(const ColumnResolver& r) override;
  std::unique_ptr<Expr> Clone() const override;
  std::string ToString() const override;
  void CollectColumns(std::vector<std::string>* out) const override;
  void VisitColumnRefs(const std::function<void(ColumnRefExpr*)>& fn) override {
    left_->VisitColumnRefs(fn);
    right_->VisitColumnRefs(fn);
  }

  LogicOp op() const { return op_; }
  const Expr* left() const { return left_.get(); }
  const Expr* right() const { return right_.get(); }

 private:
  LogicOp op_;
  ExprPtr left_, right_;
};

/// NOT with three-valued logic (NOT NULL -> NULL).
class NotExpr : public Expr {
 public:
  explicit NotExpr(ExprPtr child) : child_(std::move(child)) {}
  Result<Value> Eval(const Row& row) const override;
  Status Resolve(const ColumnResolver& r) override { return child_->Resolve(r); }
  std::unique_ptr<Expr> Clone() const override {
    return std::make_unique<NotExpr>(child_->Clone());
  }
  std::string ToString() const override { return "NOT (" + child_->ToString() + ")"; }
  void CollectColumns(std::vector<std::string>* out) const override {
    child_->CollectColumns(out);
  }
  void VisitColumnRefs(const std::function<void(ColumnRefExpr*)>& fn) override {
    child_->VisitColumnRefs(fn);
  }

  const Expr* child() const { return child_.get(); }

 private:
  ExprPtr child_;
};

/// Arithmetic; INT op INT stays INT except division, which promotes to
/// DOUBLE when inexact. NULL operand -> NULL.
class ArithExpr : public Expr {
 public:
  ArithExpr(ArithOp op, ExprPtr left, ExprPtr right)
      : op_(op), left_(std::move(left)), right_(std::move(right)) {}
  Result<Value> Eval(const Row& row) const override;
  Status Resolve(const ColumnResolver& r) override;
  std::unique_ptr<Expr> Clone() const override;
  std::string ToString() const override;
  void CollectColumns(std::vector<std::string>* out) const override;
  void VisitColumnRefs(const std::function<void(ColumnRefExpr*)>& fn) override {
    left_->VisitColumnRefs(fn);
    right_->VisitColumnRefs(fn);
  }

  ArithOp op() const { return op_; }
  const Expr* left() const { return left_.get(); }
  const Expr* right() const { return right_.get(); }

 private:
  ArithOp op_;
  ExprPtr left_, right_;
};

/// value LIKE 'pattern' ('%' and '_' wildcards).
class LikeExpr : public Expr {
 public:
  LikeExpr(ExprPtr child, std::string pattern, bool negated = false)
      : child_(std::move(child)), pattern_(std::move(pattern)), negated_(negated) {}
  Result<Value> Eval(const Row& row) const override;
  Status Resolve(const ColumnResolver& r) override { return child_->Resolve(r); }
  std::unique_ptr<Expr> Clone() const override {
    return std::make_unique<LikeExpr>(child_->Clone(), pattern_, negated_);
  }
  std::string ToString() const override;
  void CollectColumns(std::vector<std::string>* out) const override {
    child_->CollectColumns(out);
  }
  void VisitColumnRefs(const std::function<void(ColumnRefExpr*)>& fn) override {
    child_->VisitColumnRefs(fn);
  }
  const std::string& pattern() const { return pattern_; }
  const Expr* child() const { return child_.get(); }
  bool negated() const { return negated_; }

 private:
  ExprPtr child_;
  std::string pattern_;
  bool negated_;
};

/// IS NULL / IS NOT NULL.
class IsNullExpr : public Expr {
 public:
  IsNullExpr(ExprPtr child, bool negated) : child_(std::move(child)), negated_(negated) {}
  Result<Value> Eval(const Row& row) const override;
  Status Resolve(const ColumnResolver& r) override { return child_->Resolve(r); }
  std::unique_ptr<Expr> Clone() const override {
    return std::make_unique<IsNullExpr>(child_->Clone(), negated_);
  }
  std::string ToString() const override {
    return child_->ToString() + (negated_ ? " IS NOT NULL" : " IS NULL");
  }
  void CollectColumns(std::vector<std::string>* out) const override {
    child_->CollectColumns(out);
  }
  void VisitColumnRefs(const std::function<void(ColumnRefExpr*)>& fn) override {
    child_->VisitColumnRefs(fn);
  }

  const Expr* child() const { return child_.get(); }
  bool negated() const { return negated_; }

 private:
  ExprPtr child_;
  bool negated_;
};

/// value IN (c1, c2, ...) over constants.
class InListExpr : public Expr {
 public:
  InListExpr(ExprPtr child, std::vector<Value> values, bool negated = false)
      : child_(std::move(child)), values_(std::move(values)), negated_(negated) {}
  Result<Value> Eval(const Row& row) const override;
  Status Resolve(const ColumnResolver& r) override { return child_->Resolve(r); }
  std::unique_ptr<Expr> Clone() const override {
    return std::make_unique<InListExpr>(child_->Clone(), values_, negated_);
  }
  std::string ToString() const override;
  void CollectColumns(std::vector<std::string>* out) const override {
    child_->CollectColumns(out);
  }
  void VisitColumnRefs(const std::function<void(ColumnRefExpr*)>& fn) override {
    child_->VisitColumnRefs(fn);
  }

  const Expr* child() const { return child_.get(); }
  const std::vector<Value>& values() const { return values_; }
  bool negated() const { return negated_; }

 private:
  ExprPtr child_;
  std::vector<Value> values_;
  bool negated_;
};

// -- convenience constructors used across the codebase and tests --
ExprPtr Col(std::string name);
ExprPtr Const(Value v);
ExprPtr Cmp(CompareOp op, ExprPtr l, ExprPtr r);
ExprPtr Eq(std::string col, Value v);
ExprPtr And(ExprPtr l, ExprPtr r);
/// AND-combines a list (returns nullptr for an empty list).
ExprPtr AndAll(std::vector<ExprPtr> exprs);

/// Evaluates a predicate expression; NULL and non-bool count as false.
Result<bool> EvalPredicate(const Expr& e, const Row& row);

}  // namespace pse
