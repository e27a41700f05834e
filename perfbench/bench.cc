// pb_bench — runs one workload of the benchmark and prints one JSON object
// (see Result in common.h): with TRACE 0 the end-to-end metrics, with
// TRACE 1 the per-layer metrics, plus ops attempted/failed, correctness
// failures, sample counts and provenance. run.py builds it, generates
// INPUTS from the seed and turns the object into the benchmark's result.
//
//   pb_bench WORKLOAD INPUTS WORK_DIR SECONDS TRACE THREADS TAU_MS
//   pb_bench shared-child ...        (a shared_procs child, see shared.cc)

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "perfbench/workloads.h"

namespace {

// A file next to this binary in the build tree.
std::string BuildPath(const std::string& name) {
  return (std::filesystem::canonical("/proc/self/exe").parent_path() / name).string();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc >= 2 && std::string(argv[1]) == "shared-child") {
    return SharedChildMain(argc - 2, argv + 2);
  }
  if (argc != 8) {
    std::fprintf(stderr, "usage: pb_bench WORKLOAD INPUTS WORK_DIR SECONDS TRACE THREADS TAU_MS\n");
    return 2;
  }
  Ctx c;
  const std::string workload = argv[1];
  c.inputs_file = argv[2];
  c.work = argv[3];
  c.seconds = std::atof(argv[4]);
  c.trace = std::string(argv[5]) == "1";
  c.threads = std::max(1, std::atoi(argv[6]));
  c.tau_ms = std::atoi(argv[7]);
  c.self = BuildPath("pb_bench");
  c.victim = BuildPath("pb_victim");
  c.preload = BuildPath("dimmunix/libdimmunix_preload.so");
  if (!ReadInputs(c.inputs_file.c_str(), &c.in) || c.in.bugs.empty()) {
    std::fprintf(stderr, "pb_bench: bad inputs %s\n", c.inputs_file.c_str());
    return 2;
  }
  Result r;
  if (workload == "preload_steady") {
    RunPreloadSteady(c, r);
  } else if (workload == "avoid_contended") {
    RunAvoidContended(c, r);
  } else if (workload == "shared_procs") {
    RunSharedProcs(c, r);
  } else if (workload == "restart_immunize") {
    RunRestartImmunize(c, r);
  } else {
    std::fprintf(stderr, "pb_bench: unknown workload %s\n", workload.c_str());
    return 2;
  }
  std::printf("%s\n", r.Json().c_str());
  return 0;
}
