#ifndef GPIVOT_ALGEBRA_PLAN_H_
#define GPIVOT_ALGEBRA_PLAN_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/pivot_spec.h"
#include "exec/join.h"
#include "expr/aggregate.h"
#include "expr/expr.h"
#include "relation/keyed_table.h"
#include "relation/schema.h"
#include "relation/table.h"
#include "util/result.h"

namespace gpivot {

// Named base tables a plan evaluates against. The IVM layer mutates these
// between refreshes; plans reference tables by name so re-evaluating a plan
// always sees current contents.
//
// Each table is a KeyedTable store, copy-on-write behind shared_ptr:
// copying a Catalog is cheap (the full-recompute baseline advances such a
// copy to stage its post state), and a mutation clones a table only when
// another snapshot still shares it. A keyed table's key index is built by the IVM layer
// (GetKeyedTable + EnsureIndex): when a view that scans the table is
// defined or restored, or else when a delta first advances it.
class Catalog {
 public:
  Status AddTable(std::string name, Table table);
  Result<const Table*> GetTable(const std::string& name) const;
  // Shared handle to a table (no copy); used by evaluation fast paths.
  Result<std::shared_ptr<const Table>> GetSharedTable(
      const std::string& name) const;
  // The table's store, for in-place advance through its key index.
  Result<KeyedTable*> GetKeyedTable(const std::string& name);
  Result<const KeyedTable*> GetKeyedTable(const std::string& name) const;
  bool HasTable(const std::string& name) const {
    return tables_.count(name) > 0;
  }
  std::vector<std::string> TableNames() const;

 private:
  std::unordered_map<std::string, KeyedTable> tables_;
};

enum class PlanKind {
  kScan,
  kSelect,
  kProject,
  kMap,
  kJoin,
  kGroupBy,
  kGPivot,
  kGUnpivot,
};

const char* PlanKindToString(PlanKind kind);

class PlanNode;
using PlanPtr = std::shared_ptr<const PlanNode>;

// Immutable logical algebra node. Rewrite rules build new trees and share
// unchanged subtrees.
class PlanNode {
 public:
  virtual ~PlanNode() = default;
  PlanKind kind() const { return kind_; }

  virtual std::vector<PlanPtr> children() const = 0;

  // Output schema, derived structurally (scans capture their schema).
  virtual Result<Schema> OutputSchema() const = 0;

  // Inferred output key column names; empty when no key is known. This is
  // the "key preservation" analysis that gates GPIVOT pullup (Fig. 8).
  virtual Result<std::vector<std::string>> OutputKey() const = 0;

  // One-line description of this node (children excluded).
  virtual std::string Label() const = 0;

 protected:
  explicit PlanNode(PlanKind kind) : kind_(kind) {}

 private:
  PlanKind kind_;
};

class ScanNode final : public PlanNode {
 public:
  ScanNode(std::string table_name, Schema schema,
           std::vector<std::string> key)
      : PlanNode(PlanKind::kScan),
        table_name_(std::move(table_name)),
        schema_(std::move(schema)),
        key_(std::move(key)) {}

  const std::string& table_name() const { return table_name_; }
  std::vector<PlanPtr> children() const override { return {}; }
  Result<Schema> OutputSchema() const override { return schema_; }
  Result<std::vector<std::string>> OutputKey() const override { return key_; }
  std::string Label() const override;

 private:
  std::string table_name_;
  Schema schema_;
  std::vector<std::string> key_;
};

class SelectNode final : public PlanNode {
 public:
  SelectNode(PlanPtr child, ExprPtr predicate)
      : PlanNode(PlanKind::kSelect),
        child_(std::move(child)),
        predicate_(std::move(predicate)) {}

  const PlanPtr& child() const { return child_; }
  const ExprPtr& predicate() const { return predicate_; }
  std::vector<PlanPtr> children() const override { return {child_}; }
  Result<Schema> OutputSchema() const override {
    return child_->OutputSchema();
  }
  Result<std::vector<std::string>> OutputKey() const override {
    return child_->OutputKey();
  }
  std::string Label() const override;

 private:
  PlanPtr child_;
  ExprPtr predicate_;
};

// Positive (keep listed columns) or negative (drop listed columns) project.
class ProjectNode final : public PlanNode {
 public:
  enum class Mode { kKeep, kDrop };

  ProjectNode(PlanPtr child, Mode mode, std::vector<std::string> columns)
      : PlanNode(PlanKind::kProject),
        child_(std::move(child)),
        mode_(mode),
        columns_(std::move(columns)) {}

  const PlanPtr& child() const { return child_; }
  Mode mode() const { return mode_; }
  const std::vector<std::string>& columns() const { return columns_; }
  // The columns that remain in the output, in order.
  Result<std::vector<std::string>> KeptColumns() const;
  std::vector<PlanPtr> children() const override { return {child_}; }
  Result<Schema> OutputSchema() const override;
  Result<std::vector<std::string>> OutputKey() const override;
  std::string Label() const override;

 private:
  PlanPtr child_;
  Mode mode_;
  std::vector<std::string> columns_;
};

// Computed projection: each output column is an expression over the child's
// columns. Used by the case-expression rewrites (Eq. 11, 13, 14), where a
// pushdown turns cells to ⊥ conditionally.
class MapNode final : public PlanNode {
 public:
  using Output = std::pair<std::string, ExprPtr>;

  MapNode(PlanPtr child, std::vector<Output> outputs)
      : PlanNode(PlanKind::kMap),
        child_(std::move(child)),
        outputs_(std::move(outputs)) {}

  const PlanPtr& child() const { return child_; }
  const std::vector<Output>& outputs() const { return outputs_; }
  std::vector<PlanPtr> children() const override { return {child_}; }
  Result<Schema> OutputSchema() const override;
  // The child key survives when every key column passes through unchanged
  // (a plain same-named column reference).
  Result<std::vector<std::string>> OutputKey() const override;
  std::string Label() const override;

 private:
  PlanPtr child_;
  std::vector<Output> outputs_;
};

// Inner equi-join with optional residual; natural-join column handling as
// in exec::HashJoin (right join-key columns are dropped from the output).
class JoinNode final : public PlanNode {
 public:
  JoinNode(PlanPtr left, PlanPtr right, std::vector<std::string> left_keys,
           std::vector<std::string> right_keys, ExprPtr residual = nullptr)
      : PlanNode(PlanKind::kJoin),
        left_(std::move(left)),
        right_(std::move(right)),
        left_keys_(std::move(left_keys)),
        right_keys_(std::move(right_keys)),
        residual_(std::move(residual)) {}

  const PlanPtr& left() const { return left_; }
  const PlanPtr& right() const { return right_; }
  const std::vector<std::string>& left_keys() const { return left_keys_; }
  const std::vector<std::string>& right_keys() const { return right_keys_; }
  const ExprPtr& residual() const { return residual_; }
  std::vector<PlanPtr> children() const override { return {left_, right_}; }
  Result<Schema> OutputSchema() const override;
  Result<std::vector<std::string>> OutputKey() const override;
  std::string Label() const override;

 private:
  PlanPtr left_;
  PlanPtr right_;
  std::vector<std::string> left_keys_;
  std::vector<std::string> right_keys_;
  ExprPtr residual_;
};

class GroupByNode final : public PlanNode {
 public:
  GroupByNode(PlanPtr child, std::vector<std::string> group_columns,
              std::vector<AggSpec> aggregates)
      : PlanNode(PlanKind::kGroupBy),
        child_(std::move(child)),
        group_columns_(std::move(group_columns)),
        aggregates_(std::move(aggregates)) {}

  const PlanPtr& child() const { return child_; }
  const std::vector<std::string>& group_columns() const {
    return group_columns_;
  }
  const std::vector<AggSpec>& aggregates() const { return aggregates_; }
  std::vector<PlanPtr> children() const override { return {child_}; }
  Result<Schema> OutputSchema() const override;
  Result<std::vector<std::string>> OutputKey() const override {
    return group_columns_;
  }
  std::string Label() const override;

 private:
  PlanPtr child_;
  std::vector<std::string> group_columns_;
  std::vector<AggSpec> aggregates_;
};

class GPivotNode final : public PlanNode {
 public:
  GPivotNode(PlanPtr child, PivotSpec spec)
      : PlanNode(PlanKind::kGPivot),
        child_(std::move(child)),
        spec_(std::move(spec)) {}

  const PlanPtr& child() const { return child_; }
  const PivotSpec& spec() const { return spec_; }
  std::vector<PlanPtr> children() const override { return {child_}; }
  Result<Schema> OutputSchema() const override;
  Result<std::vector<std::string>> OutputKey() const override;
  std::string Label() const override { return spec_.ToString(); }

 private:
  PlanPtr child_;
  PivotSpec spec_;
};

class GUnpivotNode final : public PlanNode {
 public:
  GUnpivotNode(PlanPtr child, UnpivotSpec spec)
      : PlanNode(PlanKind::kGUnpivot),
        child_(std::move(child)),
        spec_(std::move(spec)) {}

  const PlanPtr& child() const { return child_; }
  const UnpivotSpec& spec() const { return spec_; }
  std::vector<PlanPtr> children() const override { return {child_}; }
  Result<Schema> OutputSchema() const override;
  Result<std::vector<std::string>> OutputKey() const override;
  std::string Label() const override { return spec_.ToString(); }

 private:
  PlanPtr child_;
  UnpivotSpec spec_;
};

// ---- Builders -------------------------------------------------------------

// Captures the named table's schema and declared key from `catalog`.
Result<PlanPtr> MakeScan(const Catalog& catalog, const std::string& name);
PlanPtr MakeSelect(PlanPtr child, ExprPtr predicate);
PlanPtr MakeProject(PlanPtr child, std::vector<std::string> keep);
PlanPtr MakeDrop(PlanPtr child, std::vector<std::string> drop);
PlanPtr MakeMap(PlanPtr child, std::vector<MapNode::Output> outputs);
PlanPtr MakeJoin(PlanPtr left, PlanPtr right, std::vector<std::string> keys);
PlanPtr MakeJoin(PlanPtr left, PlanPtr right, std::vector<std::string> left_keys,
                 std::vector<std::string> right_keys, ExprPtr residual = nullptr);
PlanPtr MakeGroupBy(PlanPtr child, std::vector<std::string> group_columns,
                    std::vector<AggSpec> aggregates);
PlanPtr MakeGPivot(PlanPtr child, PivotSpec spec);
PlanPtr MakeGUnpivot(PlanPtr child, UnpivotSpec spec);

// Multi-line indented tree rendering.
std::string PlanToString(const PlanPtr& plan);

// Stable per-plan node numbering for cost attribution (obs::CostCollector):
// ids are assigned pre-order (root = 0, then children left to right), so a
// plan's ids are a pure function of its shape and survive any number of
// Stage calls. Rewrite rules share unchanged subtrees between plans — a
// node reachable more than once keeps the id of its first visit, matching
// the propagator's memoized evaluation (a shared subtree is one unit of
// work, not two).
struct PlanNodeIds {
  // id -> node, in pre-order; also keeps the nodes alive so raw-pointer
  // lookups stay valid for the lifetime of the id map.
  std::vector<PlanPtr> nodes;
  std::unordered_map<const PlanNode*, int> index;

  // The node's id, or -1 when it is not part of the numbered plan.
  int IdOf(const PlanNode* node) const {
    auto it = index.find(node);
    return it == index.end() ? -1 : it->second;
  }
  size_t size() const { return nodes.size(); }
};

PlanNodeIds AssignNodeIds(const PlanPtr& plan);

// The id `ctx` attributes `node`'s work to: its number in ctx.plan_ids, or
// -1 when ctx collects no cost or the node is outside the numbered plan.
int CostNodeOf(const ExecContext& ctx, const PlanNode* node);

// Evaluates `plan` against current catalog contents (full computation).
// Output is byte-identical for every ctx. A null plan is an InvalidArgument
// error.
Result<Table> Evaluate(const PlanPtr& plan, const Catalog& catalog,
                       const ExecContext& ctx = {});

}  // namespace gpivot

#endif  // GPIVOT_ALGEBRA_PLAN_H_
