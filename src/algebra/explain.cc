#include "algebra/explain.h"

#include <sstream>

#include "obs/json_util.h"
#include "util/string_util.h"

namespace gpivot {

namespace {

void AppendNodes(const PlanPtr& plan, const PlanNodeIds& ids,
                 const std::map<int, obs::NodeStats>& stats, int depth,
                 std::vector<bool>* emitted, CostReport* report) {
  CostReportNode node;
  node.id = ids.IdOf(plan.get());
  node.kind = plan->kind();
  node.label = plan->Label();
  node.depth = depth;
  if (plan->kind() == PlanKind::kScan) {
    node.table = static_cast<const ScanNode*>(plan.get())->table_name();
  }
  if (node.id >= 0) {
    auto it = stats.find(node.id);
    if (it != stats.end()) node.stats = it->second;
    if ((*emitted)[static_cast<size_t>(node.id)]) {
      node.shared_ref = true;
      report->nodes.push_back(std::move(node));
      return;  // render shared subtrees once, like the memoized evaluator
    }
    (*emitted)[static_cast<size_t>(node.id)] = true;
  }
  report->nodes.push_back(std::move(node));
  for (const PlanPtr& child : plan->children()) {
    AppendNodes(child, ids, stats, depth + 1, emitted, report);
  }
}

std::string StatsToText(const CostReportNode& node) {
  const obs::NodeStats& s = node.stats;
  std::string out = StrCat("invocations=", s.invocations,
                           " rows_in=", s.rows_in, " rows_out=", s.rows_out);
  if (s.build_rows != 0 || s.probe_rows != 0) {
    out += StrCat(" build_rows=", s.build_rows, " probe_rows=", s.probe_rows);
  }
  // Scans always show their base access counts: zero is the claim.
  if (node.kind == PlanKind::kScan || s.base_accesses != 0 ||
      s.base_rows_read != 0) {
    out += StrCat(" base_accesses=", s.base_accesses,
                  " base_rows_read=", s.base_rows_read);
  }
  if (s.delta_insert_rows != 0 || s.delta_delete_rows != 0) {
    out += StrCat(" delta_insert_rows=", s.delta_insert_rows,
                  " delta_delete_rows=", s.delta_delete_rows);
  }
  return out;
}

std::string StatsToJson(const obs::NodeStats& s) {
  return StrCat("{\"invocations\": ", s.invocations,
                ", \"rows_in\": ", s.rows_in, ", \"rows_out\": ", s.rows_out,
                ", \"build_rows\": ", s.build_rows,
                ", \"probe_rows\": ", s.probe_rows,
                ", \"base_accesses\": ", s.base_accesses,
                ", \"base_rows_read\": ", s.base_rows_read,
                ", \"delta_insert_rows\": ", s.delta_insert_rows,
                ", \"delta_delete_rows\": ", s.delta_delete_rows, "}");
}

std::string NodeToJson(const CostReportNode& node) {
  std::string out =
      StrCat("{\"id\": ", node.id, ", \"kind\": \"",
             PlanKindToString(node.kind),
             "\", \"label\": ", obs::JsonQuote(node.label));
  if (!node.table.empty()) {
    out += StrCat(", \"table\": ", obs::JsonQuote(node.table));
  }
  out += StrCat(", \"depth\": ", node.depth, ", \"shared_ref\": ",
                node.shared_ref ? "true" : "false");
  if (!node.charged_to.empty()) {
    out += StrCat(", \"charged_to\": ", obs::JsonQuote(node.charged_to));
  }
  out += StrCat(", \"stats\": ", StatsToJson(node.stats), "}");
  return out;
}

std::string ReportToJson(const CostReport& report, int indent, bool pretty) {
  const std::string pad(pretty ? static_cast<size_t>(indent) : 0, ' ');
  const char* nl = pretty ? "\n" : "";
  const char* sp = pretty ? "  " : "";
  std::ostringstream out;
  out << "{" << nl;
  out << pad << sp << "\"strategy\": " << obs::JsonQuote(report.strategy)
      << "," << nl;
  out << pad << sp << "\"plan\": [";
  for (size_t i = 0; i < report.nodes.size(); ++i) {
    out << (i == 0 ? "" : ",") << nl << pad << sp << sp
        << NodeToJson(report.nodes[i]);
  }
  if (!report.nodes.empty()) out << nl << pad << sp;
  out << "]" << nl << pad << "}";
  return out.str();
}

}  // namespace

std::string CostReport::ToText() const {
  std::string out;
  if (!strategy.empty()) {
    out += StrCat("strategy: ", strategy, "\n");
  }
  for (const CostReportNode& node : nodes) {
    out.append(static_cast<size_t>(node.depth) * 2, ' ');
    out += StrCat("#", node.id, " ", node.label);
    if (node.shared_ref) {
      out += "  (shared, see first occurrence)\n";
      continue;
    }
    if (!node.charged_to.empty()) {
      out += StrCat("  (shared delta, charged to ", node.charged_to, ")");
    }
    out += StrCat("  [", StatsToText(node), "]\n");
  }
  return out;
}

std::string CostReport::ToJson(int indent) const {
  return ReportToJson(*this, indent, /*pretty=*/true);
}

std::string CostReport::ToJsonLine() const {
  return ReportToJson(*this, 0, /*pretty=*/false);
}

const CostReportNode* CostReport::FindScan(const std::string& table) const {
  for (const CostReportNode& node : nodes) {
    if (node.kind == PlanKind::kScan && !node.shared_ref &&
        node.table == table) {
      return &node;
    }
  }
  return nullptr;
}

CostReport BuildCostReport(const PlanPtr& plan, const PlanNodeIds& ids,
                           const std::map<int, obs::NodeStats>& stats) {
  CostReport report;
  if (plan == nullptr) return report;
  std::vector<bool> emitted(ids.size(), false);
  AppendNodes(plan, ids, stats, 0, &emitted, &report);
  return report;
}

CostReport FillCostReport(CostReport skeleton,
                          const std::map<int, obs::NodeStats>& stats) {
  for (CostReportNode& node : skeleton.nodes) {
    auto it = stats.find(node.id);
    if (it != stats.end()) node.stats = it->second;
  }
  return skeleton;
}

}  // namespace gpivot
