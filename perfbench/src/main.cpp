// perfbench: one workload of the rectpart benchmark per process.
//
//   perfbench --workload=drift-dense|sparse-batch|serve-mixed --seed=N
//             --seconds=S --trace=0|1 --scratch=DIR [--served=PATH]
//
// Prints informational lines starting with "# ", then one JSON result line.
// Exits 1 when an output check failed, 2 on a usage or build error.  run.py
// builds the program and drives this binary; see README.md.
#include <sys/prctl.h>

#include <csignal>
#include <cstdio>
#include <cstring>
#include <exception>
#include <string>
#include <thread>

#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE ""
#endif
#ifndef PERFBENCH_SANITIZE
#define PERFBENCH_SANITIZE ""
#endif

namespace {

bool sanitized_build() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return true;
#else
  return std::strlen(PERFBENCH_SANITIZE) > 0;
#endif
}

// Numbers from a debug or sanitizer build measure a different program.
bool print_provenance_and_check_build() {
  std::printf(
      "# provenance: build_type=%s sanitize=%s simd=%d obs=%d tiled_gamma=%d "
      "avx2=%d ndebug=%d nproc=%u\n",
      PERFBENCH_BUILD_TYPE, sanitized_build() ? "yes" : "no",
      RECTPART_SIMD_ENABLED, RECTPART_OBS_ENABLED, RECTPART_TILED_GAMMA_ENABLED,
#ifdef __AVX2__
      1,
#else
      0,
#endif
#ifdef NDEBUG
      1,
#else
      0,
#endif
      std::thread::hardware_concurrency());
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0 || sanitized_build()) {
    std::fprintf(stderr,
                 "perfbench: refusing to report metrics from a %s%s build; "
                 "configure with -DCMAKE_BUILD_TYPE=Release and no sanitizer\n",
                 PERFBENCH_BUILD_TYPE, sanitized_build() ? " sanitizer" : "");
    return false;
  }
  return true;
}

bool flag(const char* arg, const char* name, std::string* out) {
  const std::size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) != 0 || arg[n] != '=') return false;
  *out = arg + n + 1;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  // Die with the parent (run.py), so no benchmark process outlives it.
  prctl(PR_SET_PDEATHSIG, SIGTERM);

  Options opt;
  try {
    for (int i = 1; i < argc; ++i) {
      std::string v;
      if (flag(argv[i], "--workload", &v)) {
        opt.workload = v;
      } else if (flag(argv[i], "--seed", &v)) {
        opt.seed = std::stoull(v);
      } else if (flag(argv[i], "--seconds", &v)) {
        opt.seconds = std::stod(v);
      } else if (flag(argv[i], "--trace", &v)) {
        opt.trace = std::stoi(v) != 0;
      } else if (flag(argv[i], "--served", &v)) {
        opt.served = v;
      } else if (flag(argv[i], "--scratch", &v)) {
        opt.scratch = v;
      } else {
        std::fprintf(stderr, "perfbench: unknown argument %s\n", argv[i]);
        return 2;
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: bad argument value: %s\n", e.what());
    return 2;
  }
  if (opt.scratch.empty() || opt.seconds <= 0) {
    std::fprintf(stderr, "perfbench: --scratch=DIR and --seconds>0 are required\n");
    return 2;
  }
  if (!print_provenance_and_check_build()) return 2;

  Result r;
  try {
    if (opt.workload == "drift-dense") {
      r = run_drift_dense(opt);
    } else if (opt.workload == "sparse-batch") {
      r = run_sparse_batch(opt);
    } else if (opt.workload == "serve-mixed") {
      r = run_serve_mixed(opt);
    } else {
      std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                   opt.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  print_result(r);
  return r.failed == 0 && r.attempted > 0 ? 0 : 1;
}
