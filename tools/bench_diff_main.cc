// bench_diff: the CI bench-regression gate.
//
//   bench_diff [options] <baseline> <candidate>
//
// Each operand is a BENCH_<figure>.json file or a directory of them; a bare
// name that exists under bench/results/ (e.g. "smoke-baseline") is
// resolved there for convenience. Exit code 0 = within tolerance, 1 =
// regression or shape mismatch, 2 = unusable input.
//
// Options:
//   --time-tolerance=<ratio>  allowed candidate/baseline wall-time ratio
//                             (default 1.5)
//   --shape-only              never gate on wall time, compare only
//                             deterministic facts
//   --allow-missing           directory mode: tolerate baseline figures
//                             absent from the candidate

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "tools/bench_compare.h"

namespace {

void Usage() {
  std::fprintf(
      stderr,
      "usage: bench_diff [--time-tolerance=<ratio>] [--shape-only]\n"
      "                  [--allow-missing] <baseline> <candidate>\n"
      "  operands: BENCH_*.json files or directories of them; bare names\n"
      "  are also resolved under bench/results/\n");
}

// A bare operand like "smoke-baseline" means bench/results/smoke-baseline
// when that exists and the operand itself does not.
std::string Resolve(const std::string& operand) {
  namespace fs = std::filesystem;
  if (fs::exists(operand)) return operand;
  fs::path fallback = fs::path("bench/results") / operand;
  if (fs::exists(fallback)) return fallback.string();
  return operand;
}

}  // namespace

int main(int argc, char** argv) {
  gpivot::tools::BenchDiffOptions options;
  std::string baseline, candidate;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--time-tolerance=", 0) == 0) {
      char* end = nullptr;
      options.time_tolerance =
          std::strtod(arg.c_str() + arg.find('=') + 1, &end);
      if (end == nullptr || *end != '\0' || options.time_tolerance <= 0.0) {
        std::fprintf(stderr, "bench_diff: bad ratio in '%s'\n", arg.c_str());
        return gpivot::tools::kDiffUnusable;
      }
    } else if (arg == "--shape-only") {
      options.shape_only = true;
    } else if (arg == "--allow-missing") {
      options.require_all = false;
    } else if (arg == "--help" || arg == "-h") {
      Usage();
      return gpivot::tools::kDiffOk;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "bench_diff: unknown option '%s'\n", arg.c_str());
      Usage();
      return gpivot::tools::kDiffUnusable;
    } else if (baseline.empty()) {
      baseline = arg;
    } else if (candidate.empty()) {
      candidate = arg;
    } else {
      Usage();
      return gpivot::tools::kDiffUnusable;
    }
  }
  if (baseline.empty() || candidate.empty()) {
    Usage();
    return gpivot::tools::kDiffUnusable;
  }
  baseline = Resolve(baseline);
  candidate = Resolve(candidate);

  gpivot::tools::BenchDiffReport report;
  int rc;
  if (std::filesystem::is_directory(baseline)) {
    rc = gpivot::tools::DiffBenchDirs(baseline, candidate, options, &report);
  } else {
    rc = gpivot::tools::DiffBenchFiles(baseline, candidate, options, &report);
  }
  std::string rendered = report.ToString();
  if (!rendered.empty()) std::fputs(rendered.c_str(), stderr);
  std::printf("bench_diff: %s vs %s -> %s\n", baseline.c_str(),
              candidate.c_str(),
              rc == gpivot::tools::kDiffOk ? "OK"
              : rc == gpivot::tools::kDiffFailed ? "REGRESSION"
                                                 : "UNUSABLE");
  return rc;
}
