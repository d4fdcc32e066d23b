#ifndef GPIVOT_EXPR_EXPR_H_
#define GPIVOT_EXPR_EXPR_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "relation/row.h"
#include "relation/schema.h"
#include "relation/value.h"
#include "util/result.h"

namespace gpivot {

class Expr;
using ExprPtr = std::shared_ptr<const Expr>;

enum class ExprKind {
  kColumnRef,
  kLiteral,
  kComparison,
  kBoolOp,   // AND / OR
  kNot,
  kIsNull,   // IS NULL / IS NOT NULL
  kArith,    // + - * /
  kCase,     // CASE WHEN cond THEN a ELSE b END
};

enum class CompareOp { kEq, kNe, kLt, kLe, kGt, kGe };
enum class BoolOpKind { kAnd, kOr };
enum class ArithOp { kAdd, kSub, kMul, kDiv };

const char* CompareOpToString(CompareOp op);

// Immutable scalar expression tree over named columns. Expressions are
// unbound (they reference columns by name); `CompileExpr` resolves names
// against a schema and returns a fast evaluator closure.
class Expr {
 public:
  virtual ~Expr() = default;
  ExprKind kind() const { return kind_; }

  virtual std::string ToString() const = 0;

  // Appends every referenced column name (with duplicates) to `out`.
  virtual void CollectColumns(std::vector<std::string>* out) const = 0;

  // Conservatively true when the predicate cannot evaluate to TRUE if any
  // referenced column is NULL (the paper's "null-intolerant" condition,
  // required by the SELECT-over-GPIVOT combined rules, §6.3.2).
  virtual bool IsNullIntolerant() const = 0;

 protected:
  explicit Expr(ExprKind kind) : kind_(kind) {}

 private:
  ExprKind kind_;
};

class ColumnRefExpr final : public Expr {
 public:
  explicit ColumnRefExpr(std::string name)
      : Expr(ExprKind::kColumnRef), name_(std::move(name)) {}
  const std::string& name() const { return name_; }
  std::string ToString() const override { return name_; }
  void CollectColumns(std::vector<std::string>* out) const override {
    out->push_back(name_);
  }
  bool IsNullIntolerant() const override { return true; }

 private:
  std::string name_;
};

class LiteralExpr final : public Expr {
 public:
  explicit LiteralExpr(Value value)
      : Expr(ExprKind::kLiteral), value_(std::move(value)) {}
  const Value& value() const { return value_; }
  std::string ToString() const override { return value_.ToString(); }
  void CollectColumns(std::vector<std::string>*) const override {}
  bool IsNullIntolerant() const override { return true; }

 private:
  Value value_;
};

class ComparisonExpr final : public Expr {
 public:
  ComparisonExpr(CompareOp op, ExprPtr left, ExprPtr right)
      : Expr(ExprKind::kComparison),
        op_(op),
        left_(std::move(left)),
        right_(std::move(right)) {}
  CompareOp op() const { return op_; }
  const ExprPtr& left() const { return left_; }
  const ExprPtr& right() const { return right_; }
  std::string ToString() const override;
  void CollectColumns(std::vector<std::string>* out) const override {
    left_->CollectColumns(out);
    right_->CollectColumns(out);
  }
  bool IsNullIntolerant() const override { return true; }

 private:
  CompareOp op_;
  ExprPtr left_;
  ExprPtr right_;
};

class BoolOpExpr final : public Expr {
 public:
  BoolOpExpr(BoolOpKind op, std::vector<ExprPtr> operands)
      : Expr(ExprKind::kBoolOp), op_(op), operands_(std::move(operands)) {}
  BoolOpKind op() const { return op_; }
  const std::vector<ExprPtr>& operands() const { return operands_; }
  std::string ToString() const override;
  void CollectColumns(std::vector<std::string>* out) const override {
    for (const ExprPtr& e : operands_) e->CollectColumns(out);
  }
  // AND: any NULL operand makes the result not-TRUE. OR: TRUE only when some
  // operand is TRUE, but a NULL column could still be irrelevant to another
  // operand, so OR over disjoint columns is tolerant. We keep the paper's
  // convention: a disjunction of null-intolerant conjuncts over the *same*
  // pivot columns stays intolerant; checking column overlap here would be
  // over-engineering, so OR is conservatively reported tolerant.
  bool IsNullIntolerant() const override {
    if (op_ == BoolOpKind::kOr) return false;
    for (const ExprPtr& e : operands_) {
      if (!e->IsNullIntolerant()) return false;
    }
    return true;
  }

 private:
  BoolOpKind op_;
  std::vector<ExprPtr> operands_;
};

class NotExpr final : public Expr {
 public:
  explicit NotExpr(ExprPtr operand)
      : Expr(ExprKind::kNot), operand_(std::move(operand)) {}
  const ExprPtr& operand() const { return operand_; }
  std::string ToString() const override;
  void CollectColumns(std::vector<std::string>* out) const override {
    operand_->CollectColumns(out);
  }
  bool IsNullIntolerant() const override {
    // NOT(NULL) = NULL, which is not TRUE, so NOT of an intolerant child
    // whose NULL-input result is NULL stays intolerant. NOT(FALSE)=TRUE
    // makes NOT of IS NULL style children tolerant; be conservative.
    return operand_->kind() == ExprKind::kComparison;
  }

 private:
  ExprPtr operand_;
};

class IsNullExpr final : public Expr {
 public:
  IsNullExpr(ExprPtr operand, bool negated)
      : Expr(ExprKind::kIsNull),
        operand_(std::move(operand)),
        negated_(negated) {}
  const ExprPtr& operand() const { return operand_; }
  bool negated() const { return negated_; }
  std::string ToString() const override;
  void CollectColumns(std::vector<std::string>* out) const override {
    operand_->CollectColumns(out);
  }
  bool IsNullIntolerant() const override { return negated_; }

 private:
  ExprPtr operand_;
  bool negated_;
};

class ArithExpr final : public Expr {
 public:
  ArithExpr(ArithOp op, ExprPtr left, ExprPtr right)
      : Expr(ExprKind::kArith),
        op_(op),
        left_(std::move(left)),
        right_(std::move(right)) {}
  ArithOp op() const { return op_; }
  const ExprPtr& left() const { return left_; }
  const ExprPtr& right() const { return right_; }
  std::string ToString() const override;
  void CollectColumns(std::vector<std::string>* out) const override {
    left_->CollectColumns(out);
    right_->CollectColumns(out);
  }
  bool IsNullIntolerant() const override { return true; }

 private:
  ArithOp op_;
  ExprPtr left_;
  ExprPtr right_;
};

class CaseExpr final : public Expr {
 public:
  CaseExpr(ExprPtr condition, ExprPtr then_value, ExprPtr else_value)
      : Expr(ExprKind::kCase),
        condition_(std::move(condition)),
        then_(std::move(then_value)),
        else_(std::move(else_value)) {}
  const ExprPtr& condition() const { return condition_; }
  const ExprPtr& then_value() const { return then_; }
  const ExprPtr& else_value() const { return else_; }
  std::string ToString() const override;
  void CollectColumns(std::vector<std::string>* out) const override {
    condition_->CollectColumns(out);
    then_->CollectColumns(out);
    else_->CollectColumns(out);
  }
  bool IsNullIntolerant() const override { return false; }

 private:
  ExprPtr condition_;
  ExprPtr then_;
  ExprPtr else_;
};

// ---- Construction helpers ----------------------------------------------

ExprPtr Col(std::string name);
ExprPtr Lit(Value value);
ExprPtr Lit(int64_t value);
ExprPtr Lit(double value);
ExprPtr Lit(const char* value);
ExprPtr Cmp(CompareOp op, ExprPtr left, ExprPtr right);
ExprPtr Eq(ExprPtr left, ExprPtr right);
ExprPtr Ne(ExprPtr left, ExprPtr right);
ExprPtr Lt(ExprPtr left, ExprPtr right);
ExprPtr Le(ExprPtr left, ExprPtr right);
ExprPtr Gt(ExprPtr left, ExprPtr right);
ExprPtr Ge(ExprPtr left, ExprPtr right);
ExprPtr And(std::vector<ExprPtr> operands);
ExprPtr And(ExprPtr a, ExprPtr b);
ExprPtr Or(std::vector<ExprPtr> operands);
ExprPtr Or(ExprPtr a, ExprPtr b);
ExprPtr Not(ExprPtr operand);
ExprPtr IsNull(ExprPtr operand);
ExprPtr IsNotNull(ExprPtr operand);
ExprPtr Add(ExprPtr a, ExprPtr b);
ExprPtr Sub(ExprPtr a, ExprPtr b);
ExprPtr Mul(ExprPtr a, ExprPtr b);
ExprPtr Div(ExprPtr a, ExprPtr b);
ExprPtr Case(ExprPtr condition, ExprPtr then_value, ExprPtr else_value);

// ---- Evaluation ----------------------------------------------------------

// A compiled evaluator: column references already resolved to positions.
using CompiledExpr = std::function<Value(const Row&)>;

// Resolves column names in `expr` against `schema`; fails on unknown names.
Result<CompiledExpr> CompileExpr(const ExprPtr& expr, const Schema& schema);

// SQL truthiness: NULL and FALSE(0) are not true.
bool ValueIsTrue(const Value& value);

// Three-valued `left op right`, as a compiled ComparisonExpr evaluates it:
// NULL when either operand is NULL, else Int 1 / Int 0.
Value EvalCompare(CompareOp op, const Value& left, const Value& right);

// Flips a comparison for the literal-op-column orientation
// (5 < x  ==  x > 5).
CompareOp MirrorCompareOp(CompareOp op);

// Distinct referenced column names, in first-appearance order.
std::vector<std::string> ReferencedColumns(const ExprPtr& expr);

// Structural equality of two expression trees: same node kinds, operators,
// column names and literals (Value::Identical). Two null pointers are equal.
bool SameExpr(const ExprPtr& a, const ExprPtr& b);

// True when every referenced column is in `allowed`.
bool ExprOnlyReferences(const ExprPtr& expr,
                        const std::vector<std::string>& allowed);

}  // namespace gpivot

#endif  // GPIVOT_EXPR_EXPR_H_
