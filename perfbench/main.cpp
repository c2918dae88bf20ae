// pdw_perfbench — the repository's fixed-work benchmark binary.
//
//   pdw_perfbench --workload cold-schedule|pdwd-online
//                 --seed N --seconds S --trace 0|1
//
// Prints one JSON result line last on stdout (README.md lists every
// metric); diagnostics go to stderr. Exit code 0 only when a result was
// printed.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "perfbench.h"
#include "util/logging.h"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: pdw_perfbench --workload cold-schedule|pdwd-online "
               "--seed N --seconds S --trace 0|1\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") args.workload = value;
    else if (flag == "--seed")
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (flag == "--seconds") args.seconds = std::atof(value.c_str());
    else if (flag == "--trace") args.trace = value == "1";
    else return usage();
  }
  if (argc % 2 == 0 || args.workload.empty() || args.seconds <= 0.0)
    return usage();

  // Per-solve Info lines would add I/O to the timed phase.
  pdw::util::setLogLevel(pdw::util::LogLevel::Warn);

  perfbench::Report report(args.trace);
  int rc = 0;
  if (args.workload == "cold-schedule") {
    rc = perfbench::runCold(args, report);
  } else if (args.workload == "pdwd-online") {
    rc = perfbench::runOnline(args, report);
  } else {
    return usage();
  }
  if (rc != 0) return rc;
  return report.print() ? 0 : 1;
}
