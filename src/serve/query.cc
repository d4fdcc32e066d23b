#include "serve/query.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "exec/basic_ops.h"
#include "obs/trace.h"
#include "util/string_util.h"

namespace gpivot::serve {

Result<std::shared_ptr<const Snapshot>> QueryService::AcquireChecked(
    const std::string& view, ReaderHandle* handle) const {
  if (handle == nullptr) {
    return Status::InvalidArgument(
        "serve: queries need a registered ReaderHandle");
  }
  std::shared_ptr<const Snapshot> snapshot = store_->Acquire(view, handle);
  if (snapshot == nullptr) {
    return Status::NotFound(StrCat("serve: no snapshot for view '", view,
                                   "'"));
  }
  return snapshot;
}

Result<std::optional<Row>> QueryService::PointLookup(
    const std::string& view, const Row& key, ReaderHandle* handle) const {
  obs::ScopedSpan query(ctx_, /*span=*/{}, "serve.query",
                        "serve.query.lookup.ms");
  query.Count("lookup", 1);
  GPIVOT_ASSIGN_OR_RETURN(std::shared_ptr<const Snapshot> snapshot,
                          AcquireChecked(view, handle));
  std::optional<size_t> position = snapshot->index().LookupKey(snapshot->table(), key);
  if (!position.has_value()) return std::optional<Row>();
  return std::optional<Row>(snapshot->table().rows()[*position]);
}

Result<Table> QueryService::Scan(const std::string& view,
                                 const ExprPtr& predicate,
                                 ReaderHandle* handle) const {
  obs::ScopedSpan query(ctx_, /*span=*/{}, "serve.query",
                        "serve.query.scan.ms");
  query.Count("scan", 1);
  GPIVOT_ASSIGN_OR_RETURN(std::shared_ptr<const Snapshot> snapshot,
                          AcquireChecked(view, handle));
  return exec::Select(snapshot->columns(), predicate, ctx_);
}

Result<Table> QueryService::TopK(const std::string& view,
                                 const std::string& measure, size_t k,
                                 ReaderHandle* handle) const {
  obs::ScopedSpan query(ctx_, /*span=*/{}, "serve.query",
                        "serve.query.topk.ms");
  query.Count("topk", 1);
  GPIVOT_ASSIGN_OR_RETURN(std::shared_ptr<const Snapshot> snapshot,
                          AcquireChecked(view, handle));
  const Table& table = snapshot->table();
  GPIVOT_ASSIGN_OR_RETURN(size_t column,
                          table.schema().ColumnIndex(measure));

  std::vector<std::pair<double, size_t>> keyed;
  keyed.reserve(table.num_rows());
  for (size_t i = 0; i < table.num_rows(); ++i) {
    const Value& value = table.rows()[i][column];
    if (value.is_null()) continue;
    keyed.emplace_back(value.AsNumeric(), i);
  }
  size_t take = std::min(k, keyed.size());
  std::partial_sort(keyed.begin(), keyed.begin() + take, keyed.end(),
                    [](const auto& a, const auto& b) {
                      if (a.first != b.first) return a.first > b.first;
                      return a.second < b.second;
                    });
  Table out(table.schema());
  for (size_t i = 0; i < take; ++i) {
    out.AddRow(table.rows()[keyed[i].second]);
  }
  return out;
}

}  // namespace gpivot::serve
