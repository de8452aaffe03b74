// perfbench — the repository benchmark binary (see ../METHOD.md).
//
//   perfbench --workload serve_scan|serve_light|train_lgn --seed N
//             --seconds S --trace 0|1 [--tiny] [--spans PATH]
//             [--corrupt-reference]
//
// Prints human-readable notes, then one JSON result line last. Exits 0
// only when every output check passed.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common.h"
#include "trace.h"
#include "workloads.h"

namespace {

bool ParseArgs(int argc, char** argv, perfbench::Args& args, std::string& spans) {
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    const auto value = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    if (key == "--tiny") {
      args.tiny = true;
    } else if (key == "--corrupt-reference") {
      args.corrupt_reference = true;
    } else if (key == "--workload" || key == "--seed" || key == "--seconds" ||
               key == "--trace" || key == "--spans") {
      const char* v = value();
      if (v == nullptr) return false;
      if (key == "--workload") args.workload = v;
      if (key == "--seed") args.seed = std::strtoull(v, nullptr, 10);
      if (key == "--seconds") args.seconds = std::strtod(v, nullptr);
      if (key == "--trace") args.trace = std::string(v) == "1";
      if (key == "--spans") spans = v;
    } else {
      return false;
    }
  }
  return (args.workload == "serve_scan" || args.workload == "serve_light" ||
          args.workload == "train_lgn") &&
         args.seconds > 0;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  std::string spans_path;
  if (!ParseArgs(argc, argv, args, spans_path)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload serve_scan|serve_light|train_lgn "
                 "--seed N --seconds S --trace 0|1 [--tiny] [--spans PATH] "
                 "[--corrupt-reference]\n");
    return 2;
  }
  perfbench::Tracer tracer;
  perfbench::Report report;
  const perfbench::HostCpu cpu0 = perfbench::ReadHostCpu();
  try {
    if (args.workload == "train_lgn") {
      perfbench::RunTrain(args, tracer, report);
    } else {
      perfbench::RunServe(args, tracer, report);
    }
  } catch (const std::exception& e) {
    report.Fail(std::string("exception: ") + e.what());
  }
  // Share of the machine's CPU time the hypervisor gave to other guests
  // during the run: the environment the numbers were measured in.
  const perfbench::HostCpu cpu1 = perfbench::ReadHostCpu();
  const double steal =
      cpu1.total > cpu0.total
          ? static_cast<double>(cpu1.steal - cpu0.steal) / (cpu1.total - cpu0.total)
          : 0.0;
  report.Note("host: %.1f%% of CPU time stolen by the hypervisor during the run", 100 * steal);
  if (args.trace) report.Metric("host.steal_share", steal, "ratio");
  if (args.trace && !spans_path.empty()) {
    if (tracer.WriteJsonLines(spans_path)) {
      report.Note("wrote %zu spans to %s", tracer.size(), spans_path.c_str());
    } else {
      report.Fail("cannot write spans to " + spans_path);
    }
  }
  std::printf("%s\n", report.ResultLine().c_str());
  std::fflush(stdout);
  return report.correct() ? 0 : 1;
}
