#include "expr/expr.h"

#include <unordered_set>

#include "util/check.h"
#include "util/string_util.h"

namespace gpivot {

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

std::string ComparisonExpr::ToString() const {
  return StrCat("(", left_->ToString(), " ", CompareOpToString(op_), " ",
                right_->ToString(), ")");
}

std::string BoolOpExpr::ToString() const {
  std::vector<std::string> parts;
  parts.reserve(operands_.size());
  for (const ExprPtr& e : operands_) parts.push_back(e->ToString());
  return StrCat("(", Join(parts, op_ == BoolOpKind::kAnd ? " AND " : " OR "),
                ")");
}

std::string NotExpr::ToString() const {
  return StrCat("NOT ", operand_->ToString());
}

std::string IsNullExpr::ToString() const {
  return StrCat(operand_->ToString(), negated_ ? " IS NOT NULL" : " IS NULL");
}

std::string ArithExpr::ToString() const {
  const char* op = "?";
  switch (op_) {
    case ArithOp::kAdd:
      op = "+";
      break;
    case ArithOp::kSub:
      op = "-";
      break;
    case ArithOp::kMul:
      op = "*";
      break;
    case ArithOp::kDiv:
      op = "/";
      break;
  }
  return StrCat("(", left_->ToString(), " ", op, " ", right_->ToString(), ")");
}

std::string CaseExpr::ToString() const {
  return StrCat("CASE WHEN ", condition_->ToString(), " THEN ",
                then_->ToString(), " ELSE ", else_->ToString(), " END");
}

bool SameExpr(const ExprPtr& a, const ExprPtr& b) {
  if (a == b) return true;
  if (a == nullptr || b == nullptr || a->kind() != b->kind()) return false;
  switch (a->kind()) {
    case ExprKind::kColumnRef:
      return static_cast<const ColumnRefExpr&>(*a).name() ==
             static_cast<const ColumnRefExpr&>(*b).name();
    case ExprKind::kLiteral:
      return static_cast<const LiteralExpr&>(*a).value().Identical(
          static_cast<const LiteralExpr&>(*b).value());
    case ExprKind::kComparison: {
      const auto& x = static_cast<const ComparisonExpr&>(*a);
      const auto& y = static_cast<const ComparisonExpr&>(*b);
      return x.op() == y.op() && SameExpr(x.left(), y.left()) &&
             SameExpr(x.right(), y.right());
    }
    case ExprKind::kBoolOp: {
      const auto& x = static_cast<const BoolOpExpr&>(*a);
      const auto& y = static_cast<const BoolOpExpr&>(*b);
      if (x.op() != y.op() || x.operands().size() != y.operands().size()) {
        return false;
      }
      for (size_t i = 0; i < x.operands().size(); ++i) {
        if (!SameExpr(x.operands()[i], y.operands()[i])) return false;
      }
      return true;
    }
    case ExprKind::kNot:
      return SameExpr(static_cast<const NotExpr&>(*a).operand(),
                      static_cast<const NotExpr&>(*b).operand());
    case ExprKind::kIsNull: {
      const auto& x = static_cast<const IsNullExpr&>(*a);
      const auto& y = static_cast<const IsNullExpr&>(*b);
      return x.negated() == y.negated() && SameExpr(x.operand(), y.operand());
    }
    case ExprKind::kArith: {
      const auto& x = static_cast<const ArithExpr&>(*a);
      const auto& y = static_cast<const ArithExpr&>(*b);
      return x.op() == y.op() && SameExpr(x.left(), y.left()) &&
             SameExpr(x.right(), y.right());
    }
    case ExprKind::kCase: {
      const auto& x = static_cast<const CaseExpr&>(*a);
      const auto& y = static_cast<const CaseExpr&>(*b);
      return SameExpr(x.condition(), y.condition()) &&
             SameExpr(x.then_value(), y.then_value()) &&
             SameExpr(x.else_value(), y.else_value());
    }
  }
  return false;
}

ExprPtr Col(std::string name) {
  return std::make_shared<ColumnRefExpr>(std::move(name));
}
ExprPtr Lit(Value value) {
  return std::make_shared<LiteralExpr>(std::move(value));
}
ExprPtr Lit(int64_t value) { return Lit(Value::Int(value)); }
ExprPtr Lit(double value) { return Lit(Value::Real(value)); }
ExprPtr Lit(const char* value) { return Lit(Value::Str(value)); }
ExprPtr Cmp(CompareOp op, ExprPtr left, ExprPtr right) {
  return std::make_shared<ComparisonExpr>(op, std::move(left),
                                          std::move(right));
}
ExprPtr Eq(ExprPtr left, ExprPtr right) {
  return Cmp(CompareOp::kEq, std::move(left), std::move(right));
}
ExprPtr Ne(ExprPtr left, ExprPtr right) {
  return Cmp(CompareOp::kNe, std::move(left), std::move(right));
}
ExprPtr Lt(ExprPtr left, ExprPtr right) {
  return Cmp(CompareOp::kLt, std::move(left), std::move(right));
}
ExprPtr Le(ExprPtr left, ExprPtr right) {
  return Cmp(CompareOp::kLe, std::move(left), std::move(right));
}
ExprPtr Gt(ExprPtr left, ExprPtr right) {
  return Cmp(CompareOp::kGt, std::move(left), std::move(right));
}
ExprPtr Ge(ExprPtr left, ExprPtr right) {
  return Cmp(CompareOp::kGe, std::move(left), std::move(right));
}
ExprPtr And(std::vector<ExprPtr> operands) {
  GPIVOT_CHECK(!operands.empty()) << "And() needs operands";
  if (operands.size() == 1) return operands[0];
  return std::make_shared<BoolOpExpr>(BoolOpKind::kAnd, std::move(operands));
}
ExprPtr And(ExprPtr a, ExprPtr b) {
  return And(std::vector<ExprPtr>{std::move(a), std::move(b)});
}
ExprPtr Or(std::vector<ExprPtr> operands) {
  GPIVOT_CHECK(!operands.empty()) << "Or() needs operands";
  if (operands.size() == 1) return operands[0];
  return std::make_shared<BoolOpExpr>(BoolOpKind::kOr, std::move(operands));
}
ExprPtr Or(ExprPtr a, ExprPtr b) {
  return Or(std::vector<ExprPtr>{std::move(a), std::move(b)});
}
ExprPtr Not(ExprPtr operand) {
  return std::make_shared<NotExpr>(std::move(operand));
}
ExprPtr IsNull(ExprPtr operand) {
  return std::make_shared<IsNullExpr>(std::move(operand), /*negated=*/false);
}
ExprPtr IsNotNull(ExprPtr operand) {
  return std::make_shared<IsNullExpr>(std::move(operand), /*negated=*/true);
}
ExprPtr Add(ExprPtr a, ExprPtr b) {
  return std::make_shared<ArithExpr>(ArithOp::kAdd, std::move(a),
                                     std::move(b));
}
ExprPtr Sub(ExprPtr a, ExprPtr b) {
  return std::make_shared<ArithExpr>(ArithOp::kSub, std::move(a),
                                     std::move(b));
}
ExprPtr Mul(ExprPtr a, ExprPtr b) {
  return std::make_shared<ArithExpr>(ArithOp::kMul, std::move(a),
                                     std::move(b));
}
ExprPtr Div(ExprPtr a, ExprPtr b) {
  return std::make_shared<ArithExpr>(ArithOp::kDiv, std::move(a),
                                     std::move(b));
}
ExprPtr Case(ExprPtr condition, ExprPtr then_value, ExprPtr else_value) {
  return std::make_shared<CaseExpr>(std::move(condition),
                                    std::move(then_value),
                                    std::move(else_value));
}

Value EvalCompare(CompareOp op, const Value& left, const Value& right) {
  if (left.is_null() || right.is_null()) return Value::Null();
  bool result = false;
  switch (op) {
    case CompareOp::kEq:
      result = left == right;
      break;
    case CompareOp::kNe:
      result = left != right;
      break;
    case CompareOp::kLt:
      result = left < right;
      break;
    case CompareOp::kLe:
      result = left < right || left == right;
      break;
    case CompareOp::kGt:
      result = right < left;
      break;
    case CompareOp::kGe:
      result = right < left || left == right;
      break;
  }
  return Value::Int(result ? 1 : 0);
}

CompareOp MirrorCompareOp(CompareOp op) {
  switch (op) {
    case CompareOp::kLt:
      return CompareOp::kGt;
    case CompareOp::kLe:
      return CompareOp::kGe;
    case CompareOp::kGt:
      return CompareOp::kLt;
    case CompareOp::kGe:
      return CompareOp::kLe;
    case CompareOp::kEq:
    case CompareOp::kNe:
      return op;
  }
  return op;
}

namespace {

Value EvalArith(ArithOp op, const Value& left, const Value& right) {
  if (left.is_null() || right.is_null()) return Value::Null();
  if (left.is_int() && right.is_int() && op != ArithOp::kDiv) {
    int64_t a = left.AsInt(), b = right.AsInt();
    switch (op) {
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
  double a = left.AsNumeric(), b = right.AsNumeric();
  switch (op) {
    case ArithOp::kAdd:
      return Value::Real(a + b);
    case ArithOp::kSub:
      return Value::Real(a - b);
    case ArithOp::kMul:
      return Value::Real(a * b);
    case ArithOp::kDiv:
      if (b == 0) return Value::Null();
      return Value::Real(a / b);
  }
  return Value::Null();
}

}  // namespace

bool ValueIsTrue(const Value& value) {
  if (value.is_null()) return false;
  if (value.is_int()) return value.AsInt() != 0;
  if (value.is_double()) return value.AsDouble() != 0;
  return false;
}

Result<CompiledExpr> CompileExpr(const ExprPtr& expr, const Schema& schema) {
  GPIVOT_CHECK(expr != nullptr) << "CompileExpr on null expression";
  switch (expr->kind()) {
    case ExprKind::kColumnRef: {
      const auto* ref = static_cast<const ColumnRefExpr*>(expr.get());
      GPIVOT_ASSIGN_OR_RETURN(size_t index, schema.ColumnIndex(ref->name()));
      return CompiledExpr([index](const Row& row) { return row[index]; });
    }
    case ExprKind::kLiteral: {
      Value v = static_cast<const LiteralExpr*>(expr.get())->value();
      return CompiledExpr([v](const Row&) { return v; });
    }
    case ExprKind::kComparison: {
      const auto* cmp = static_cast<const ComparisonExpr*>(expr.get());
      GPIVOT_ASSIGN_OR_RETURN(CompiledExpr left,
                              CompileExpr(cmp->left(), schema));
      GPIVOT_ASSIGN_OR_RETURN(CompiledExpr right,
                              CompileExpr(cmp->right(), schema));
      CompareOp op = cmp->op();
      return CompiledExpr([op, left, right](const Row& row) {
        return EvalCompare(op, left(row), right(row));
      });
    }
    case ExprKind::kBoolOp: {
      const auto* bop = static_cast<const BoolOpExpr*>(expr.get());
      std::vector<CompiledExpr> operands;
      operands.reserve(bop->operands().size());
      for (const ExprPtr& e : bop->operands()) {
        GPIVOT_ASSIGN_OR_RETURN(CompiledExpr c, CompileExpr(e, schema));
        operands.push_back(std::move(c));
      }
      if (bop->op() == BoolOpKind::kAnd) {
        return CompiledExpr([operands](const Row& row) {
          bool saw_null = false;
          for (const CompiledExpr& e : operands) {
            Value v = e(row);
            if (v.is_null()) {
              saw_null = true;
            } else if (!ValueIsTrue(v)) {
              return Value::Int(0);
            }
          }
          return saw_null ? Value::Null() : Value::Int(1);
        });
      }
      return CompiledExpr([operands](const Row& row) {
        bool saw_null = false;
        for (const CompiledExpr& e : operands) {
          Value v = e(row);
          if (v.is_null()) {
            saw_null = true;
          } else if (ValueIsTrue(v)) {
            return Value::Int(1);
          }
        }
        return saw_null ? Value::Null() : Value::Int(0);
      });
    }
    case ExprKind::kNot: {
      const auto* n = static_cast<const NotExpr*>(expr.get());
      GPIVOT_ASSIGN_OR_RETURN(CompiledExpr operand,
                              CompileExpr(n->operand(), schema));
      return CompiledExpr([operand](const Row& row) {
        Value v = operand(row);
        if (v.is_null()) return Value::Null();
        return Value::Int(ValueIsTrue(v) ? 0 : 1);
      });
    }
    case ExprKind::kIsNull: {
      const auto* n = static_cast<const IsNullExpr*>(expr.get());
      GPIVOT_ASSIGN_OR_RETURN(CompiledExpr operand,
                              CompileExpr(n->operand(), schema));
      bool negated = n->negated();
      return CompiledExpr([operand, negated](const Row& row) {
        bool is_null = operand(row).is_null();
        return Value::Int((is_null != negated) ? 1 : 0);
      });
    }
    case ExprKind::kArith: {
      const auto* a = static_cast<const ArithExpr*>(expr.get());
      GPIVOT_ASSIGN_OR_RETURN(CompiledExpr left,
                              CompileExpr(a->left(), schema));
      GPIVOT_ASSIGN_OR_RETURN(CompiledExpr right,
                              CompileExpr(a->right(), schema));
      ArithOp op = a->op();
      return CompiledExpr([op, left, right](const Row& row) {
        return EvalArith(op, left(row), right(row));
      });
    }
    case ExprKind::kCase: {
      const auto* c = static_cast<const CaseExpr*>(expr.get());
      GPIVOT_ASSIGN_OR_RETURN(CompiledExpr cond,
                              CompileExpr(c->condition(), schema));
      GPIVOT_ASSIGN_OR_RETURN(CompiledExpr then_value,
                              CompileExpr(c->then_value(), schema));
      GPIVOT_ASSIGN_OR_RETURN(CompiledExpr else_value,
                              CompileExpr(c->else_value(), schema));
      return CompiledExpr([cond, then_value, else_value](const Row& row) {
        return ValueIsTrue(cond(row)) ? then_value(row) : else_value(row);
      });
    }
  }
  return Status::Internal("unknown expression kind");
}

std::vector<std::string> ReferencedColumns(const ExprPtr& expr) {
  std::vector<std::string> all;
  expr->CollectColumns(&all);
  std::vector<std::string> distinct;
  std::unordered_set<std::string> seen;
  for (std::string& name : all) {
    if (seen.insert(name).second) distinct.push_back(std::move(name));
  }
  return distinct;
}

bool ExprOnlyReferences(const ExprPtr& expr,
                        const std::vector<std::string>& allowed) {
  std::unordered_set<std::string> allowed_set(allowed.begin(), allowed.end());
  for (const std::string& name : ReferencedColumns(expr)) {
    if (allowed_set.count(name) == 0) return false;
  }
  return true;
}

}  // namespace gpivot
