#include "engine/expr.h"

#include <charconv>
#include <cmath>

#include "common/string_util.h"

namespace pse {

namespace {

/// `text` as a SQL string literal: single-quoted, inner quotes doubled (the
/// lexer's escape), so the literal ends exactly where the string does.
std::string QuoteSql(const std::string& text) {
  std::string out = "'";
  for (char c : text) {
    out += c;
    if (c == '\'') out += c;
  }
  return out + "'";
}

/// A constant as text. A non-NULL one names exactly one (type, value)
/// pair: strings quoted, doubles as their shortest round-trip decimal,
/// always with a '.' or an exponent so that 1000.0 never reads as the
/// BIGINT 1000. Query texts key the fleet's plan cache and the planner's
/// cost cache, so two such constants must never render alike.
std::string ConstantText(const Value& v) {
  if (v.is_null()) return v.ToString();
  if (v.type() == TypeId::kVarchar) return QuoteSql(v.AsString());
  if (v.type() != TypeId::kDouble) return v.ToString();
  char buf[32];
  const double d = v.AsDouble();
  std::string out(buf, std::to_chars(buf, buf + sizeof(buf), d).ptr);
  if (std::isfinite(d) && out.find_first_of(".e") == std::string::npos) out += ".0";
  return out;
}

}  // namespace

const char* CompareOpToString(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return "=";
    case CompareOp::kNe:
      return "<>";
    case CompareOp::kLt:
      return "<";
    case CompareOp::kLe:
      return "<=";
    case CompareOp::kGt:
      return ">";
    case CompareOp::kGe:
      return ">=";
  }
  return "?";
}

Result<Value> ColumnRefExpr::Eval(const Row& row) const {
  if (!resolved_) return Status::Internal("unresolved column '" + name_ + "'");
  if (pos_ >= row.size()) {
    return Status::Internal("column position " + std::to_string(pos_) + " out of row");
  }
  return row[pos_];
}

Status ColumnRefExpr::Resolve(const ColumnResolver& resolver) {
  PSE_ASSIGN_OR_RETURN(pos_, resolver(name_));
  resolved_ = true;
  return Status::OK();
}

std::unique_ptr<Expr> ColumnRefExpr::Clone() const {
  auto e = std::make_unique<ColumnRefExpr>(name_);
  e->pos_ = pos_;
  e->resolved_ = resolved_;
  return e;
}

std::string ConstantExpr::ToString() const { return ConstantText(value_); }

Result<Value> CompareExpr::Eval(const Row& row) const {
  PSE_ASSIGN_OR_RETURN(Value l, left_->Eval(row));
  PSE_ASSIGN_OR_RETURN(Value r, right_->Eval(row));
  if (l.is_null() || r.is_null()) return Value::Null(TypeId::kBoolean);
  int c = l.Compare(r);
  switch (op_) {
    case CompareOp::kEq:
      return Value::Bool(c == 0);
    case CompareOp::kNe:
      return Value::Bool(c != 0);
    case CompareOp::kLt:
      return Value::Bool(c < 0);
    case CompareOp::kLe:
      return Value::Bool(c <= 0);
    case CompareOp::kGt:
      return Value::Bool(c > 0);
    case CompareOp::kGe:
      return Value::Bool(c >= 0);
  }
  return Status::Internal("bad compare op");
}

Status CompareExpr::Resolve(const ColumnResolver& r) {
  PSE_RETURN_NOT_OK(left_->Resolve(r));
  return right_->Resolve(r);
}

std::unique_ptr<Expr> CompareExpr::Clone() const {
  return std::make_unique<CompareExpr>(op_, left_->Clone(), right_->Clone());
}

std::string CompareExpr::ToString() const {
  return left_->ToString() + " " + CompareOpToString(op_) + " " + right_->ToString();
}

void CompareExpr::CollectColumns(std::vector<std::string>* out) const {
  left_->CollectColumns(out);
  right_->CollectColumns(out);
}

Result<Value> LogicExpr::Eval(const Row& row) const {
  PSE_ASSIGN_OR_RETURN(Value l, left_->Eval(row));
  // Short-circuit with three-valued logic.
  bool l_null = l.is_null();
  bool l_true = !l_null && l.AsBool();
  if (op_ == LogicOp::kAnd && !l_null && !l_true) return Value::Bool(false);
  if (op_ == LogicOp::kOr && l_true) return Value::Bool(true);
  PSE_ASSIGN_OR_RETURN(Value r, right_->Eval(row));
  bool r_null = r.is_null();
  bool r_true = !r_null && r.AsBool();
  if (op_ == LogicOp::kAnd) {
    if (!r_null && !r_true) return Value::Bool(false);
    if (l_null || r_null) return Value::Null(TypeId::kBoolean);
    return Value::Bool(true);
  }
  if (r_true) return Value::Bool(true);
  if (l_null || r_null) return Value::Null(TypeId::kBoolean);
  return Value::Bool(false);
}

Status LogicExpr::Resolve(const ColumnResolver& r) {
  PSE_RETURN_NOT_OK(left_->Resolve(r));
  return right_->Resolve(r);
}

std::unique_ptr<Expr> LogicExpr::Clone() const {
  return std::make_unique<LogicExpr>(op_, left_->Clone(), right_->Clone());
}

std::string LogicExpr::ToString() const {
  return "(" + left_->ToString() + (op_ == LogicOp::kAnd ? " AND " : " OR ") +
         right_->ToString() + ")";
}

void LogicExpr::CollectColumns(std::vector<std::string>* out) const {
  left_->CollectColumns(out);
  right_->CollectColumns(out);
}

Result<Value> NotExpr::Eval(const Row& row) const {
  PSE_ASSIGN_OR_RETURN(Value v, child_->Eval(row));
  if (v.is_null()) return Value::Null(TypeId::kBoolean);
  return Value::Bool(!v.AsBool());
}

Result<Value> ArithExpr::Eval(const Row& row) const {
  PSE_ASSIGN_OR_RETURN(Value l, left_->Eval(row));
  PSE_ASSIGN_OR_RETURN(Value r, right_->Eval(row));
  if (l.is_null() || r.is_null()) return Value::Null(TypeId::kDouble);
  bool both_int = l.type() == TypeId::kInt64 && r.type() == TypeId::kInt64;
  if (both_int && op_ != ArithOp::kDiv) {
    int64_t a = l.AsInt(), b = r.AsInt();
    switch (op_) {
      case ArithOp::kAdd:
        return Value::Int(a + b);
      case ArithOp::kSub:
        return Value::Int(a - b);
      case ArithOp::kMul:
        return Value::Int(a * b);
      default:
        break;
    }
  }
  double a = l.AsDouble(), b = r.AsDouble();
  switch (op_) {
    case ArithOp::kAdd:
      return Value::Double(a + b);
    case ArithOp::kSub:
      return Value::Double(a - b);
    case ArithOp::kMul:
      return Value::Double(a * b);
    case ArithOp::kDiv:
      if (b == 0.0) return Value::Null(TypeId::kDouble);  // SQL: error; we degrade to NULL
      return Value::Double(a / b);
  }
  return Status::Internal("bad arith op");
}

Status ArithExpr::Resolve(const ColumnResolver& r) {
  PSE_RETURN_NOT_OK(left_->Resolve(r));
  return right_->Resolve(r);
}

std::unique_ptr<Expr> ArithExpr::Clone() const {
  return std::make_unique<ArithExpr>(op_, left_->Clone(), right_->Clone());
}

std::string ArithExpr::ToString() const {
  const char* op = op_ == ArithOp::kAdd   ? "+"
                   : op_ == ArithOp::kSub ? "-"
                   : op_ == ArithOp::kMul ? "*"
                                          : "/";
  return "(" + left_->ToString() + " " + op + " " + right_->ToString() + ")";
}

void ArithExpr::CollectColumns(std::vector<std::string>* out) const {
  left_->CollectColumns(out);
  right_->CollectColumns(out);
}

Result<Value> LikeExpr::Eval(const Row& row) const {
  PSE_ASSIGN_OR_RETURN(Value v, child_->Eval(row));
  if (v.is_null()) return Value::Null(TypeId::kBoolean);
  if (v.type() != TypeId::kVarchar) {
    return Status::InvalidArgument("LIKE requires a string operand");
  }
  bool m = LikeMatch(v.AsString(), pattern_);
  return Value::Bool(negated_ ? !m : m);
}

Result<Value> IsNullExpr::Eval(const Row& row) const {
  PSE_ASSIGN_OR_RETURN(Value v, child_->Eval(row));
  return Value::Bool(negated_ ? !v.is_null() : v.is_null());
}

Result<Value> InListExpr::Eval(const Row& row) const {
  PSE_ASSIGN_OR_RETURN(Value v, child_->Eval(row));
  if (v.is_null()) return Value::Null(TypeId::kBoolean);
  for (const auto& item : values_) {
    if (v.SqlEquals(item)) return Value::Bool(!negated_);
  }
  return Value::Bool(negated_);
}

std::string LikeExpr::ToString() const {
  return child_->ToString() + (negated_ ? " NOT LIKE " : " LIKE ") + QuoteSql(pattern_);
}

std::string InListExpr::ToString() const {
  std::string out = child_->ToString() + (negated_ ? " NOT IN (" : " IN (");
  for (size_t i = 0; i < values_.size(); ++i) {
    if (i > 0) out += ", ";
    out += ConstantText(values_[i]);
  }
  return out + ")";
}

ExprPtr Col(std::string name) { return std::make_unique<ColumnRefExpr>(std::move(name)); }
ExprPtr Const(Value v) { return std::make_unique<ConstantExpr>(std::move(v)); }
ExprPtr Cmp(CompareOp op, ExprPtr l, ExprPtr r) {
  return std::make_unique<CompareExpr>(op, std::move(l), std::move(r));
}
ExprPtr Eq(std::string col, Value v) {
  return Cmp(CompareOp::kEq, Col(std::move(col)), Const(std::move(v)));
}
ExprPtr And(ExprPtr l, ExprPtr r) {
  return std::make_unique<LogicExpr>(LogicOp::kAnd, std::move(l), std::move(r));
}
ExprPtr AndAll(std::vector<ExprPtr> exprs) {
  ExprPtr acc;
  for (auto& e : exprs) {
    acc = acc ? And(std::move(acc), std::move(e)) : std::move(e);
  }
  return acc;
}

Result<bool> EvalPredicate(const Expr& e, const Row& row) {
  PSE_ASSIGN_OR_RETURN(Value v, e.Eval(row));
  if (v.is_null()) return false;
  if (v.type() != TypeId::kBoolean) {
    return Status::InvalidArgument("predicate did not evaluate to boolean: " + e.ToString());
  }
  return v.AsBool();
}

}  // namespace pse
