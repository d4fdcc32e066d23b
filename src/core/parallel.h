#ifndef GPIVOT_CORE_PARALLEL_H_
#define GPIVOT_CORE_PARALLEL_H_

#include <cstddef>
#include <vector>

#include "core/pivot_spec.h"
#include "relation/table.h"
#include "util/result.h"
#include "util/thread_pool.h"

namespace gpivot {

// §4.3's parallel-processing split of GPIVOT, analogous to local/global
// aggregation: compute GPIVOT sub-results per partition, then combine them
// with the insert-case propagation rules (§6.1). A key whose rows are
// scattered across partitions yields one partial row per partition; the
// merge joins them group-wise (the function f of the Fig. 22/23 proofs:
// present groups overwrite ⊥ ones — by the key property at most one
// partition carries any given (K, combo)).

// Splits `input` into `num_partitions` row-wise partitions (round-robin, so
// keys deliberately straddle partitions — the hard case). Zero partitions is
// an InvalidArgument error.
Result<std::vector<Table>> PartitionRows(const Table& input,
                                         size_t num_partitions);

// Merges per-partition GPIVOT outputs into the global result. Every partial
// must have the schema GPivot(spec) produces. Fails with
// ConstraintViolation if two partials both carry a non-⊥ group for the same
// key (which would mean the pivot key property was violated).
Result<Table> MergePivotedPartials(const std::vector<Table>& partials,
                                   const PivotSpec& spec,
                                   const Schema& output_schema);

// GPIVOT via the split: partition → pivot locally → merge globally.
// Equivalent to GPivot(input, spec) for every ctx: the per-partition pivots
// run on up to ctx.num_threads pool workers (sequentially by default), and
// the merge consumes the partials in partition order, so the result is
// byte-identical regardless of thread count. Zero partitions is an
// InvalidArgument error.
Result<Table> GPivotParallel(const Table& input, const PivotSpec& spec,
                             size_t num_partitions,
                             const ExecContext& ctx = {});

}  // namespace gpivot

#endif  // GPIVOT_CORE_PARALLEL_H_
