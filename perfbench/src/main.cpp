// perfbench_runner: runs one benchmark workload and writes its result as
// JSON. Invoked by perfbench/run.py, which builds it, adds provenance and
// prints the result line:
//
//   perfbench_runner --workload NAME --seed N --seconds S --trace 0|1
//                    --workdir DIR --serve-bin PATH --report FILE
//
// Exit code 0 when the workload ran to the end (its output checks are in
// the report's "correct", a measurement that is not valid is explained in
// its "invalid"); 2 on bad arguments or an unexpected error.

#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <string>

#include "common.h"

using namespace perfbench;

int main(int argc, char** argv) {
  Options options;
  std::string report_path;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") options.workload = value;
    else if (key == "--seed") options.seed = std::stoull(value);
    else if (key == "--seconds") options.seconds = std::stod(value);
    else if (key == "--trace") options.trace = value == "1";
    else if (key == "--workdir") options.workdir = value;
    else if (key == "--serve-bin") options.serve_bin = value;
    else if (key == "--report") report_path = value;
    else {
      std::fprintf(stderr, "perfbench_runner: unknown flag %s\n", key.c_str());
      return 2;
    }
  }
  if (options.workload.empty() || options.workdir.empty() || report_path.empty()) {
    std::fprintf(stderr, "perfbench_runner: --workload, --workdir and --report are required\n");
    return 2;
  }
  std::filesystem::create_directories(options.workdir);

  Tracer tracer(options.trace);
  RunResult result;
  try {
    if (options.workload == "nl_library") result = run_nl_library(options, tracer);
    else if (options.workload == "serve_cold") result = run_serve(options, tracer);
    else if (options.workload == "library_ingest") result = run_library_ingest(options, tracer);
    else {
      std::fprintf(stderr, "perfbench_runner: unknown workload '%s'\n", options.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_runner: %s failed: %s\n", options.workload.c_str(), e.what());
    return 2;
  }
  tracer.write(options.workdir + "/spans.json");

  cp::util::Json report;
  report["correct"] = result.correct;
  report["attempted"] = result.attempted;
  report["failed"] = result.failed;
  cp::util::Json metrics = cp::util::Json(cp::util::JsonObject{});
  for (const auto& [name, value] : result.metrics) metrics[name] = value;
  report["metrics"] = metrics;
  cp::util::JsonArray failures;
  for (const std::string& f : result.check_failures) failures.emplace_back(f);
  report["check_failures"] = cp::util::Json(std::move(failures));
  report["invalid"] = result.invalid;
  report["details"] = result.details;
  std::ofstream(report_path) << report.dump(2) << "\n";
  return 0;
}
