#include "ivm/intern.h"

#include <unordered_map>

#include "rewrite/rewriter.h"

namespace gpivot::ivm {

namespace {

// The node's own parameters (children excluded) are equal.
bool SameParameters(const PlanNode& a, const PlanNode& b) {
  if (a.kind() != b.kind()) return false;
  switch (a.kind()) {
    case PlanKind::kScan: {
      const auto& x = static_cast<const ScanNode&>(a);
      const auto& y = static_cast<const ScanNode&>(b);
      // Scans capture their schema and key at build time; both must agree.
      Result<Schema> xs = x.OutputSchema(), ys = y.OutputSchema();
      Result<std::vector<std::string>> xk = x.OutputKey(), yk = y.OutputKey();
      return x.table_name() == y.table_name() && xs.ok() && ys.ok() &&
             *xs == *ys && xk.ok() && yk.ok() && *xk == *yk;
    }
    case PlanKind::kSelect:
      return SameExpr(static_cast<const SelectNode&>(a).predicate(),
                      static_cast<const SelectNode&>(b).predicate());
    case PlanKind::kProject: {
      const auto& x = static_cast<const ProjectNode&>(a);
      const auto& y = static_cast<const ProjectNode&>(b);
      return x.mode() == y.mode() && x.columns() == y.columns();
    }
    case PlanKind::kMap: {
      const auto& x = static_cast<const MapNode&>(a).outputs();
      const auto& y = static_cast<const MapNode&>(b).outputs();
      if (x.size() != y.size()) return false;
      for (size_t i = 0; i < x.size(); ++i) {
        if (x[i].first != y[i].first || !SameExpr(x[i].second, y[i].second)) {
          return false;
        }
      }
      return true;
    }
    case PlanKind::kJoin: {
      const auto& x = static_cast<const JoinNode&>(a);
      const auto& y = static_cast<const JoinNode&>(b);
      return x.left_keys() == y.left_keys() &&
             x.right_keys() == y.right_keys() &&
             SameExpr(x.residual(), y.residual());
    }
    case PlanKind::kGroupBy: {
      const auto& x = static_cast<const GroupByNode&>(a);
      const auto& y = static_cast<const GroupByNode&>(b);
      return x.group_columns() == y.group_columns() &&
             x.aggregates() == y.aggregates();
    }
    case PlanKind::kGPivot:
      return static_cast<const GPivotNode&>(a).spec() ==
             static_cast<const GPivotNode&>(b).spec();
    case PlanKind::kGUnpivot:
      return static_cast<const GUnpivotNode&>(a).spec() ==
             static_cast<const GUnpivotNode&>(b).spec();
  }
  return false;
}

// Children are already canonical, so they compare by pointer.
bool SameNode(const PlanNode& a, const PlanNode& b) {
  return SameParameters(a, b) && a.children() == b.children();
}

Result<PlanPtr> InternNode(
    const PlanPtr& plan, std::vector<PlanPtr>* nodes,
    std::unordered_map<const PlanNode*, PlanPtr>* done) {
  auto it = done->find(plan.get());
  if (it != done->end()) return it->second;
  std::vector<PlanPtr> children = plan->children();
  bool changed = false;
  for (PlanPtr& child : children) {
    GPIVOT_ASSIGN_OR_RETURN(PlanPtr canonical, InternNode(child, nodes, done));
    if (canonical != child) {
      child = std::move(canonical);
      changed = true;
    }
  }
  PlanPtr node = plan;
  if (changed) {
    GPIVOT_ASSIGN_OR_RETURN(node, rewrite::RebuildWithChildren(plan, children));
  }
  PlanPtr canonical;
  for (const PlanPtr& seen : *nodes) {
    if (seen == node || SameNode(*seen, *node)) {
      canonical = seen;
      break;
    }
  }
  if (canonical == nullptr) {
    nodes->push_back(node);
    canonical = node;
  }
  done->emplace(plan.get(), canonical);
  return canonical;
}

}  // namespace

Result<PlanPtr> PlanInterner::Intern(const PlanPtr& plan) {
  if (plan == nullptr) return Status::InvalidArgument("Intern on a null plan");
  // Per call: a subtree the plan itself shares is interned once.
  std::unordered_map<const PlanNode*, PlanPtr> done;
  return InternNode(plan, &nodes_, &done);
}

}  // namespace gpivot::ivm
