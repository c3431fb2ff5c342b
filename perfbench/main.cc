// perfbench entry point:
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--data-dir <dir>]
// Prints human-readable lines, then one JSON result object as the last
// line of stdout. Exit code 0 when every answer matched its reference, 1
// when any did not (the result is still printed), 2 on a usage or set-up
// error (no result printed).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workloads.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--data-dir <dir>]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Config config;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      config.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value, &end, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value, &end);
      if (!(config.seconds > 0.0)) return Usage("--seconds must be > 0");
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return Usage("--trace takes 0 or 1");
      }
      config.trace = value[0] == '1';
    } else if (flag == "--data-dir") {
      config.data_dir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && *end != '\0') {
      return Usage(("bad number for " + flag).c_str());
    }
  }
  if (!have_workload) return Usage("--workload is required");

  fuzzydb::Result<perfbench::RunResult> run = perfbench::RunWorkload(config);
  if (!run.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", run.status().ToString().c_str());
    return 2;
  }
  fuzzydb::Result<perfbench::RunResult> result =
      perfbench::SelectMetrics(*run, config.trace);
  if (!result.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", result.status().ToString().c_str());
    return 2;
  }
  for (const perfbench::Metric& m : result->metrics) {
    std::printf("%s = %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  if (!result->correct) {
    std::printf("REFERENCE MISMATCH: some answers differ from the serial "
                "reference\n");
  }
  std::printf("%s\n", perfbench::ResultJson(*result).c_str());
  std::fflush(stdout);
  return result->correct ? 0 : 1;
}
