#ifndef GPIVOT_TOOLS_BENCH_COMPARE_H_
#define GPIVOT_TOOLS_BENCH_COMPARE_H_

#include <string>
#include <vector>

namespace gpivot::tools {

// Exit codes shared by the library and the bench_diff CLI.
inline constexpr int kDiffOk = 0;       // comparable, within tolerance
inline constexpr int kDiffFailed = 1;   // regression or shape mismatch
inline constexpr int kDiffUnusable = 2; // I/O or parse failure

struct BenchDiffOptions {
  // Allowed candidate/baseline wall-time ratio per (strategy, fraction)
  // point. Wall times are inherently noisy; the CI gate uses a generous
  // ratio so only order-of-magnitude regressions (a strategy silently
  // degrading to recompute-like cost) trip it.
  double time_tolerance = 1.5;
  // Skip the wall-time gate entirely and compare only deterministic facts
  // (row counts, counters, cost reports).
  bool shape_only = false;
  // Directory mode: every BENCH_*.json in the baseline must exist in the
  // candidate (missing file = failure). Extra candidate files are noted.
  bool require_all = true;
  // Counters whose values depend on scheduling rather than on the work
  // (matched by prefix) are excluded from the exact-equality check.
  // serve.acquire.* counts reader-side fast-path traffic and serve.retire.*
  // counts versions released at install time — both depend on how reader
  // hazards interleave with the maintenance thread, not on the workload.
  std::vector<std::string> ignore_counter_prefixes = {"serve.acquire.",
                                                       "serve.retire."};
};

// Human-readable findings of one comparison run.
struct BenchDiffReport {
  std::vector<std::string> errors;  // cause a nonzero exit
  std::vector<std::string> notes;   // informational only
  std::string ToString() const;
};

// Compares two BENCH_<figure>.json documents. The figure identity
// (figure/scale_factor/seed) must match; per-(strategy, delta_fraction)
// rows must agree exactly on view_rows/delta_rows, on metrics counters
// (minus ignored prefixes) and cost reports when both sides carry them,
// and on wall time within `time_tolerance`. Returns a kDiff* exit code.
int DiffBenchFiles(const std::string& baseline_path,
                   const std::string& candidate_path,
                   const BenchDiffOptions& options, BenchDiffReport* report);

// Compares every BENCH_*.json in `baseline_dir` against its same-named
// counterpart in `candidate_dir`. Returns the worst per-file exit code.
int DiffBenchDirs(const std::string& baseline_dir,
                  const std::string& candidate_dir,
                  const BenchDiffOptions& options, BenchDiffReport* report);

}  // namespace gpivot::tools

#endif  // GPIVOT_TOOLS_BENCH_COMPARE_H_
