// perfbench: the repository benchmark program. One process runs one
// workload (solve, dist, serve or train) for a fixed window, checks every
// output, and prints
//   PERFBENCH_INFO {environment block and fingerprints}
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Untraced runs report the end-to-end metrics; --trace 1 runs report the
// per-layer metrics of the layers the workload exercises and write a
// Chrome trace. Normally started through
// perfbench/run.py, which builds this binary and pins the environment.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <stdexcept>
#include <string>

#include "ad/dtype.hpp"
#include "ad/kernels.hpp"
#include "bench.hpp"

extern char** environ;

namespace {

using perfbench::Options;
using perfbench::Report;

struct Workload {
  const char* name;
  void (*run)(const Options&, Report&);
};

// The OpenMP team and compute precision of each workload are set by
// perfbench/run.py through the environment; this program checks that
// they took effect and records them.
const Workload kWorkloads[] = {
    {"solve", perfbench::run_solve},
    {"dist", perfbench::run_dist},
    {"serve", perfbench::run_serve},
    {"train", perfbench::run_train},
};

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "solve|dist|serve|train --seed N --seconds S --trace 0|1 "
               "[--zoo DIR] [--trace-out FILE] [--corrupt 1]\n",
               msg);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + key).c_str());
    const std::string val = argv[++i];
    if (key == "--workload") o.workload = val;
    else if (key == "--seed") o.seed = std::stoull(val);
    else if (key == "--seconds") o.seconds = std::stod(val);
    else if (key == "--trace") o.trace = val == "1";
    else if (key == "--zoo") o.zoo_dir = val;
    else if (key == "--trace-out") o.trace_out = val;
    else if (key == "--corrupt") o.corrupt = val == "1";
    else usage(("unknown argument " + key).c_str());
  }
  if (o.seconds <= 0) usage("--seconds must be positive");
  return o;
}

// The pinned environment: a stray MF_* variable or an unpinned OpenMP
// team would silently change the program under test.
void check_environment() {
  for (char** e = environ; *e; ++e) {
    const std::string kv = *e;
    if (kv.rfind("MF_", 0) == 0 && kv.rfind("MF_PRECISION=", 0) != 0) {
      throw std::runtime_error("inherited " + kv.substr(0, kv.find('=')) +
                               " (start through perfbench/run.py)");
    }
  }
  const char* omp = std::getenv("OMP_NUM_THREADS");
  if (!omp || !std::getenv("MF_PRECISION")) {
    throw std::runtime_error(
        "OMP_NUM_THREADS and MF_PRECISION must be set (start through "
        "perfbench/run.py)");
  }
  if (mf::ad::kernels::max_threads() != std::atoi(omp)) {
    throw std::runtime_error(
        "OpenMP team is " + std::to_string(mf::ad::kernels::max_threads()) +
        " threads, OMP_NUM_THREADS is " + omp);
  }
}

std::string dtype_name() {
  return mf::ad::compute_dtype() == mf::ad::DType::kF32 ? "f32" : "f64";
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string hex(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  const Workload* w = nullptr;
  for (const auto& cand : kWorkloads) {
    if (opt.workload == cand.name) w = &cand;
  }
  if (!w) usage(("unknown workload '" + opt.workload + "'").c_str());

  Report r;
  try {
    check_environment();
    r.config.add(std::string(w->name));
    r.config.add(std::int64_t{mf::ad::kernels::max_threads()});
    r.config.add(dtype_name());
    r.config.add(opt.seconds);
    w->run(opt, r);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", w->name, e.what());
    return 1;
  }
  for (const auto& msg : r.failures) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", msg.c_str());
  }
  for (const auto& [name, vu] : r.metrics) {
    if (!std::isfinite(vu.first)) {
      std::fprintf(stderr, "perfbench: metric %s is not finite\n", name.c_str());
      return 1;
    }
  }

  std::string info = "{\"workload\": " + json_string(w->name) +
                     ", \"seed\": " + std::to_string(opt.seed) +
                     ", \"trace\": " + (opt.trace ? "1" : "0") +
                     ", \"config_hash\": " + json_string(hex(r.config.value())) +
                     ", \"input_hash\": " + json_string(hex(r.inputs.value())) +
                     ", \"cpu_model\": " + json_string(cpu_model()) +
                     ", \"nproc\": " + std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
                     ", \"omp_threads\": " +
                     std::to_string(mf::ad::kernels::max_threads()) +
                     ", \"compute_dtype\": " + json_string(dtype_name()) +
                     ", \"build_type\": " + json_string(PERFBENCH_BUILD_TYPE) +
                     ", \"compiler\": " + json_string(__VERSION__);
  for (const auto& [k, v] : r.info) info += ", " + json_string(k) + ": " + json_string(v);
  info += "}";
  std::printf("PERFBENCH_INFO %s\n", info.c_str());

  std::string out = "{\"correct\": ";
  out += r.failed == 0 && r.attempted > 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted) +
         ", \"failed\": " + std::to_string(r.failed) + ", \"metrics\": {";
  bool first = true;
  char num[64];
  for (const auto& [name, vu] : r.metrics) {
    std::snprintf(num, sizeof num, "%.17g", vu.first);
    out += (first ? "" : ", ") + json_string(name) + ": {\"value\": " + num +
           ", \"unit\": " + json_string(vu.second) + "}";
    first = false;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  return 0;
}
