// The repository benchmark program. Usage:
//
//   gpivot_perfbench --workload <refresh_paper|churn_ingest|serve_mixed>
//                    --seed <n> --seconds <s> --trace <0|1> --out <dir>
//                    [--quick] [--corrupt-check <views|reads|recovery>]
//
// Prints a host/config JSON line, workload notes (lines starting with '#'),
// and as its last line the result object. Exits 0 when every operation and
// check passed, 1 when one failed (the result line says which counts), and
// 2 on bad arguments or a refused environment (no result line).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "harness.h"
#include "workloads.h"

namespace {

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: gpivot_perfbench --workload "
               "<refresh_paper|churn_ingest|serve_mixed> --seed <n> "
               "--seconds <s> --trace <0|1> --out <dir> [--quick] "
               "[--corrupt-check <views|reads|recovery>]\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace gpivot::perfbench;
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--workload") {
      options.workload = value();
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value().c_str(), nullptr);
    } else if (arg == "--trace") {
      options.trace = value() == "1";
    } else if (arg == "--out") {
      options.out_dir = value();
    } else if (arg == "--quick") {
      options.quick = true;
    } else if (arg == "--corrupt-check") {
      options.corrupt = value();
      if (options.corrupt != "views" && options.corrupt != "reads" &&
          options.corrupt != "recovery") {
        Usage(("unknown gate " + options.corrupt).c_str());
      }
    } else {
      Usage(("unknown argument " + arg).c_str());
    }
  }
  if (options.out_dir.empty()) Usage("--out is required");
  if (!(options.seconds > 0)) Usage("--seconds must be positive");
  RefuseBehaviourEnv();
  std::filesystem::create_directories(options.out_dir);

  std::printf("%s\n", HostLine(options, options.out_dir).c_str());
  std::fflush(stdout);
  Report report;
  gpivot::Status st;
  if (options.workload == "refresh_paper") {
    st = RunRefreshPaper(options, &report);
  } else if (options.workload == "churn_ingest") {
    st = RunChurnIngest(options, &report);
  } else if (options.workload == "serve_mixed") {
    st = RunServeMixed(options, &report);
  } else {
    Usage(("unknown workload " + options.workload).c_str());
  }
  if (!st.ok()) {
    std::fprintf(stderr, "perfbench: run aborted: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("%s\n", report.ResultLine().c_str());
  return report.failed() == 0 ? 0 : 1;
}
