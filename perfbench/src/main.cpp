// formad benchmark: three workloads over the paper's Sec. 7 kernels, driven
// only through the library's public entry points.
//
//   perfbench --workload serve_cold|serve_warm|adjoint_run
//             --seed N --seconds S --trace 0|1 --work-dir DIR
//             --golden-dir DIR [--record-golden]
//
// The last line of stdout is one JSON object: correct, attempted, failed
// and the metrics (the six end-to-end metrics untraced, the per-layer
// metrics traced). See perfbench/README.md for what each workload
// measures and why.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <stdexcept>
#include <string>
#include <thread>

#include "common.h"
#include "trace.h"

namespace {

perfbench::Args parseArgs(int argc, char** argv) {
  perfbench::Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::runtime_error("missing value for " + k);
      return argv[++i];
    };
    if (k == "--workload") a.workload = value();
    else if (k == "--seed") a.seed = std::stoull(value());
    else if (k == "--seconds") a.seconds = std::stoi(value());
    else if (k == "--trace") a.trace = value() == "1";
    else if (k == "--work-dir") a.workDir = value();
    else if (k == "--golden-dir") a.goldenDir = value();
    else if (k == "--record-golden") a.recordGolden = true;
    else throw std::runtime_error("unknown argument " + k);
  }
  if (a.seconds < 1) throw std::runtime_error("--seconds must be >= 1");
  if (a.goldenDir.empty()) throw std::runtime_error("--golden-dir is required");
  return a;
}

std::string loadAverage() {
  double avg[3] = {0, 0, 0};
  if (getloadavg(avg, 3) != 3) return "unavailable";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.2f %.2f %.2f", avg[0], avg[1], avg[2]);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const perfbench::Args args = parseArgs(argc, argv);
    std::filesystem::create_directories(args.workDir);
    std::cout << "workload " << args.workload << " seed " << args.seed
              << " seconds " << args.seconds << " trace " << args.trace
              << "\nnproc " << std::thread::hardware_concurrency()
              << " loadavg " << loadAverage() << "\n";

    perfbench::Tracer tracer(args.trace);
    perfbench::Outcome out;
    if (args.workload == "serve_cold")
      perfbench::runServe(args, false, tracer, out);
    else if (args.workload == "serve_warm")
      perfbench::runServe(args, true, tracer, out);
    else if (args.workload == "adjoint_run")
      perfbench::runAdjoint(args, tracer, out);
    else
      throw std::runtime_error("unknown workload '" + args.workload + "'");

    if (args.trace) {
      const std::string path =
          args.workDir + "/trace_" + args.workload + ".json";
      tracer.writeChromeTrace(path);
      std::cout << "chrome trace: " << path << "\n";
    }
    std::cout << "loadavg after " << loadAverage() << "\n"
              << perfbench::resultLine(out) << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
