#ifndef GPIVOT_SERVE_QUERY_H_
#define GPIVOT_SERVE_QUERY_H_

#include <memory>
#include <optional>
#include <string>

#include "expr/expr.h"
#include "relation/row.h"
#include "relation/table.h"
#include "serve/snapshot.h"
#include "util/exec_context.h"
#include "util/result.h"

namespace gpivot::serve {

// Read-only query surface over a SnapshotStore. Every query acquires one
// snapshot up front and runs entirely against it, so a query observes
// exactly one committed epoch even while the maintenance thread installs
// new versions mid-query.
//
// The ExecContext given at construction is used for every query: its
// metrics registry receives the serve.query.* counters and latency
// histograms. Scan filters through exec::Select, whose vectorized
// predicate kernels read the snapshot's column views, so repeated scans of
// one version build each column once. Point the context at a per-reader
// local registry when counters must stay deterministic — query counts per
// reader are workload-determined, but which global shard they land in is
// not.
//
// Every query takes the caller's registered ReaderHandle
// (SnapshotStore::RegisterReader); a null handle is an InvalidArgument
// error.
class QueryService {
 public:
  explicit QueryService(const SnapshotStore* store,
                        const ExecContext& ctx = {})
      : store_(store), ctx_(ctx) {}

  // Key lookup through the snapshot's KeyIndex. `key` is the projected key
  // row (view key columns, in key order). nullopt when the key is absent;
  // NotFound status when the view itself is unknown.
  Result<std::optional<Row>> PointLookup(const std::string& view,
                                         const Row& key,
                                         ReaderHandle* handle) const;

  // σ over the snapshot table (exec::Select). A null predicate is an
  // InvalidArgument error.
  Result<Table> Scan(const std::string& view, const ExprPtr& predicate,
                     ReaderHandle* handle) const;

  // The k rows with the largest numeric value in `measure`, descending;
  // NULL measures are skipped; ties break toward the earlier row so the
  // result is deterministic.
  Result<Table> TopK(const std::string& view, const std::string& measure,
                     size_t k, ReaderHandle* handle) const;

 private:
  Result<std::shared_ptr<const Snapshot>> AcquireChecked(
      const std::string& view, ReaderHandle* handle) const;

  const SnapshotStore* store_;
  ExecContext ctx_;
};

}  // namespace gpivot::serve

#endif  // GPIVOT_SERVE_QUERY_H_
