#include "exec/vector_ops.h"

#include <cstring>
#include <functional>
#include <string_view>
#include <utility>

#include "util/check.h"
#include "util/hash_util.h"
#include "util/string_util.h"

namespace gpivot::exec {

// ---- ColumnCache ---------------------------------------------------------

std::shared_ptr<const ColumnVector> ColumnCache::Get(size_t col) const {
  GPIVOT_CHECK(col < columns_.size())
      << "ColumnCache index " << col << " out of range";
  std::lock_guard<std::mutex> lock(mu_);
  if (columns_[col] == nullptr) {
    columns_[col] = ColumnVector::Build(table_.rows(), col);
  }
  return columns_[col];
}

// ---- KeyColumns ----------------------------------------------------------

Result<KeyColumns> KeyColumns::Make(const Table& table,
                                    const std::vector<size_t>& indices) {
  if (table.num_rows() > UINT32_MAX) {
    return Status::InvalidArgument(
        StrCat("key columns: ", table.num_rows(),
               " rows exceed the 32-bit row ids of the hash operators"));
  }
  KeyColumns keys;
  keys.num_rows_ = table.num_rows();
  keys.cols_.reserve(indices.size());
  for (size_t i : indices) {
    keys.cols_.push_back(ColumnVector::Build(table.rows(), i));
  }
  return keys;
}

bool KeyColumns::HasNull(size_t r) const {
  for (const auto& col : cols_) {
    if (col->IsNull(r)) return true;
  }
  return false;
}

size_t KeyColumns::Hash(size_t r) const {
  size_t seed = 0x8f2d;
  for (const auto& col : cols_) seed = HashCombine(seed, col->CellHash(r));
  return seed;
}

bool KeyColumns::RowsEqual(size_t r, const KeyColumns& other,
                           size_t s) const {
  GPIVOT_CHECK(cols_.size() == other.cols_.size())
      << "KeyColumns::RowsEqual arity mismatch";
  for (size_t c = 0; c < cols_.size(); ++c) {
    if (!ColumnVector::CellsEqual(*cols_[c], r, *other.cols_[c], s)) {
      return false;
    }
  }
  return true;
}

bool KeyColumns::RowEqualsValues(size_t r, const Row& values) const {
  GPIVOT_CHECK(cols_.size() == values.size())
      << "KeyColumns::RowEqualsValues arity mismatch";
  for (size_t c = 0; c < cols_.size(); ++c) {
    if (!cols_[c]->CellEqualsValue(r, values[c])) return false;
  }
  return true;
}

void KeyColumns::BatchHash(size_t begin, size_t end, size_t* hashes) const {
  const size_t n = end - begin;
  for (size_t i = 0; i < n; ++i) hashes[i] = 0x8f2d;
  for (const auto& col : cols_) {
    const ColumnVector& c = *col;
    switch (c.kind()) {
      case ColumnKind::kInt64:
      case ColumnKind::kDouble:
      case ColumnKind::kString:
      case ColumnKind::kAllNull:
      case ColumnKind::kMixed:
        // One tight loop per column; CellHash dispatches on the column's
        // kind once per cell but with the kind branch perfectly predicted
        // (it is loop-invariant).
        for (size_t i = 0; i < n; ++i) {
          hashes[i] = HashCombine(hashes[i], c.CellHash(begin + i));
        }
        break;
    }
  }
}

void KeyColumns::BatchHasNull(size_t begin, size_t end,
                              uint8_t* has_null) const {
  // An empty range may come with a null `has_null` (the data() of an empty
  // vector), which memset must never see.
  if (begin == end) return;
  const size_t n = end - begin;
  std::memset(has_null, 0, n);
  for (const auto& col : cols_) {
    const ColumnVector& c = *col;
    if (c.kind() == ColumnKind::kAllNull) {
      std::memset(has_null, 1, n);
      return;
    }
    if (!c.has_nulls()) continue;
    for (size_t i = 0; i < n; ++i) {
      has_null[i] |= static_cast<uint8_t>(c.IsNull(begin + i));
    }
  }
}

// ---- VectorPredicate -----------------------------------------------------

namespace {

// Is-TRUE of a comparison between a typed column cell and a literal of the
// same rank. Rank-mixed comparisons (numeric vs string) and NULLs never
// reach these kernels: Compile rejects the former, the null mask handles
// the latter.
template <typename T>
bool CompareCell(CompareOp op, T cell, T lit) {
  switch (op) {
    case CompareOp::kEq:
      return cell == lit;
    case CompareOp::kNe:
      return cell != lit;
    case CompareOp::kLt:
      return cell < lit;
    case CompareOp::kLe:
      return cell <= lit;
    case CompareOp::kGt:
      return cell > lit;
    case CompareOp::kGe:
      return cell >= lit;
  }
  return false;
}

}  // namespace

struct VectorPredicate::Node {
  enum class Kind { kCmpIntInt, kCmpNumeric, kCmpString, kIsNull, kAnd, kOr,
                    kNever };
  Kind kind = Kind::kNever;
  CompareOp op = CompareOp::kEq;
  std::shared_ptr<const ColumnVector> col;
  int64_t int_lit = 0;
  double double_lit = 0;
  std::string string_lit;
  bool negated = false;  // kIsNull: IS NOT NULL
  std::vector<std::shared_ptr<const Node>> children;

  void Eval(size_t begin, size_t end, uint8_t* out) const {
    const size_t n = end - begin;
    switch (kind) {
      case Kind::kNever:
        std::memset(out, 0, n);
        return;
      case Kind::kCmpIntInt:
        for (size_t i = 0; i < n; ++i) {
          size_t r = begin + i;
          out[i] = !col->IsNull(r) &&
                   CompareCell<int64_t>(op, col->Int64At(r), int_lit);
        }
        return;
      case Kind::kCmpNumeric:
        if (col->kind() == ColumnKind::kInt64) {
          for (size_t i = 0; i < n; ++i) {
            size_t r = begin + i;
            out[i] = !col->IsNull(r) &&
                     CompareCell<double>(
                         op, static_cast<double>(col->Int64At(r)), double_lit);
          }
        } else {
          for (size_t i = 0; i < n; ++i) {
            size_t r = begin + i;
            out[i] = !col->IsNull(r) &&
                     CompareCell<double>(op, col->DoubleAt(r), double_lit);
          }
        }
        return;
      case Kind::kCmpString:
        for (size_t i = 0; i < n; ++i) {
          size_t r = begin + i;
          out[i] = !col->IsNull(r) &&
                   CompareCell<std::string_view>(op, col->StringAt(r),
                                                 string_lit);
        }
        return;
      case Kind::kIsNull:
        for (size_t i = 0; i < n; ++i) {
          out[i] = col->IsNull(begin + i) != negated;
        }
        return;
      case Kind::kAnd:
      case Kind::kOr: {
        children[0]->Eval(begin, end, out);
        std::vector<uint8_t> scratch(n);
        for (size_t c = 1; c < children.size(); ++c) {
          children[c]->Eval(begin, end, scratch.data());
          if (kind == Kind::kAnd) {
            for (size_t i = 0; i < n; ++i) out[i] &= scratch[i];
          } else {
            for (size_t i = 0; i < n; ++i) out[i] |= scratch[i];
          }
        }
        return;
      }
    }
  }
};

namespace {

std::shared_ptr<const ColumnVector> ResolveColumn(const Expr* expr,
                                                  const ColumnCache& columns) {
  if (expr->kind() != ExprKind::kColumnRef) return nullptr;
  const auto* ref = static_cast<const ColumnRefExpr*>(expr);
  auto index = columns.table().schema().ColumnIndex(ref->name());
  if (!index.ok()) return nullptr;
  std::shared_ptr<const ColumnVector> col = columns.Get(*index);
  if (col->kind() == ColumnKind::kMixed) return nullptr;
  return col;
}

}  // namespace

std::optional<VectorPredicate> VectorPredicate::Compile(
    const ExprPtr& expr, const ColumnCache& columns) {
  std::function<std::shared_ptr<const Node>(const ExprPtr&)> build =
      [&](const ExprPtr& e) -> std::shared_ptr<const Node> {
    switch (e->kind()) {
      case ExprKind::kComparison: {
        const auto* cmp = static_cast<const ComparisonExpr*>(e.get());
        const Expr* col_side = cmp->left().get();
        const Expr* lit_side = cmp->right().get();
        CompareOp op = cmp->op();
        if (col_side->kind() == ExprKind::kLiteral &&
            lit_side->kind() == ExprKind::kColumnRef) {
          std::swap(col_side, lit_side);
          op = MirrorCompareOp(op);
        }
        if (col_side->kind() != ExprKind::kColumnRef ||
            lit_side->kind() != ExprKind::kLiteral) {
          return nullptr;
        }
        std::shared_ptr<const ColumnVector> col =
            ResolveColumn(col_side, columns);
        if (col == nullptr) return nullptr;
        const Value& lit =
            static_cast<const LiteralExpr*>(lit_side)->value();
        auto node = std::make_shared<Node>();
        node->op = op;
        node->col = col;
        if (lit.is_null() || col->kind() == ColumnKind::kAllNull) {
          // A NULL operand makes the comparison NULL on every row: never
          // TRUE, exactly like the compiled EvalCompare.
          node->kind = Node::Kind::kNever;
          return node;
        }
        bool col_string = col->kind() == ColumnKind::kString;
        if (col_string != lit.is_string()) {
          // Rank-mixed comparison: Value ordering ranks numerics below
          // strings, a case the typed kernels do not model.
          return nullptr;
        }
        if (col_string) {
          node->kind = Node::Kind::kCmpString;
          node->string_lit = lit.AsString();
        } else if (col->kind() == ColumnKind::kInt64 && lit.is_int()) {
          node->kind = Node::Kind::kCmpIntInt;
          node->int_lit = lit.AsInt();
        } else {
          node->kind = Node::Kind::kCmpNumeric;
          node->double_lit = lit.AsNumeric();
        }
        return node;
      }
      case ExprKind::kIsNull: {
        const auto* isn = static_cast<const IsNullExpr*>(e.get());
        std::shared_ptr<const ColumnVector> col =
            ResolveColumn(isn->operand().get(), columns);
        if (col == nullptr) return nullptr;
        auto node = std::make_shared<Node>();
        node->kind = Node::Kind::kIsNull;
        node->col = std::move(col);
        node->negated = isn->negated();
        return node;
      }
      case ExprKind::kBoolOp: {
        const auto* bop = static_cast<const BoolOpExpr*>(e.get());
        auto node = std::make_shared<Node>();
        node->kind = bop->op() == BoolOpKind::kAnd ? Node::Kind::kAnd
                                                   : Node::Kind::kOr;
        node->children.reserve(bop->operands().size());
        for (const ExprPtr& child : bop->operands()) {
          std::shared_ptr<const Node> built = build(child);
          if (built == nullptr) return nullptr;
          node->children.push_back(std::move(built));
        }
        return node;
      }
      default:
        return nullptr;
    }
  };
  std::shared_ptr<const Node> root = build(expr);
  if (root == nullptr) return std::nullopt;
  VectorPredicate predicate;
  predicate.root_ = std::move(root);
  return predicate;
}

void VectorPredicate::EvalChunk(size_t begin, size_t end, uint8_t* out) const {
  root_->Eval(begin, end, out);
}

}  // namespace gpivot::exec
