#ifndef GPIVOT_PERFBENCH_WORKLOADS_H_
#define GPIVOT_PERFBENCH_WORKLOADS_H_

#include "harness.h"

namespace gpivot::perfbench {

// Each workload sets up the fixed system, drives its traffic for
// options.seconds, checks correctness, and fills `report` with the
// end-to-end metrics (untraced) or the per-layer metrics (traced). A
// non-OK status aborts the run without a result line.
Status RunRefreshPaper(const Options& options, Report* report);
Status RunChurnIngest(const Options& options, Report* report);
Status RunServeMixed(const Options& options, Report* report);

}  // namespace gpivot::perfbench

#endif  // GPIVOT_PERFBENCH_WORKLOADS_H_
