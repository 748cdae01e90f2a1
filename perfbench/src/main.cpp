// perfbench: the GVEX benchmark binary. perfbench/run.py builds it and runs
//   perfbench --workload mol|large --seed <n> --seconds <s> --trace <0|1>
//             [--commit <id>] [--work-dir <dir>]
// Every workload runs the whole system in three phases: explain (the
// analyst's pipeline over the workload's dataset), read (clients reading
// views over TCP) and mixed (reads beside admits, then a reopen). The
// workloads differ in the explained dataset.
// The last line of standard output is the JSON result; the line before it
// records the run (seed, nproc, build type, commit) and extra facts such as
// sample counts. nproc, the cap on load threads and connections, is the
// number of CPUs this process may run on.

#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>

#include "common.h"
#include "workloads.h"

namespace {

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

// CPUs in this process's affinity mask (what `nproc` prints), at least 1.
int AllowedCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

int Usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload mol|large "
               "--seed N --seconds S --trace 0|1 [--commit ID] "
               "[--work-dir DIR]\n",
               msg);
  return 2;
}

// Runs the three phases, each for its share of --seconds, and merges their
// results: counts add up, metrics keep their phase's order, info names get
// the phase as a prefix, and setup_s is the sum of the phases' set-up times.
perfbench::Result RunWorkload(const perfbench::Args& args, bool large) {
  struct Phase {
    std::string name;
    double share;
    std::function<perfbench::Result(const perfbench::Args&)> run;
  };
  const Phase phases[] = {
      {"explain", 0.40,
       [large](const perfbench::Args& a) {
         return perfbench::RunExplain(a, large);
       }},
      {"read", 0.30, perfbench::RunServeRead},
      {"mixed", 0.30, perfbench::RunServeMixed}};
  perfbench::Result out;
  double setup = 0, traced_setup = 0;
  for (const Phase& phase : phases) {
    perfbench::Args a = args;
    a.workload = args.workload + "-" + phase.name;  // names its span file
    a.seconds = args.seconds * phase.share;
    const perfbench::Result r = phase.run(a);
    out.attempted += r.attempted;
    out.failed += r.failed;
    setup += r.setup_s;
    traced_setup += r.traced_setup_s;
    if (r.failed != 0 && r.metrics.empty()) return out;  // phase aborted
    out.metrics.insert(out.metrics.end(), r.metrics.begin(), r.metrics.end());
    for (const auto& [key, value] : r.info) {
      out.Info(phase.name + "." + key, value);
    }
  }
  if (!args.trace) {
    out.metrics.insert(out.metrics.begin(), {"setup_s", setup, "s"});
  } else {
    out.Add("obs.trace_overhead.setup_s", traced_setup / setup, "ratio");
    out.Info("setup_s", setup);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  std::string commit = "unknown";
  args.nproc = AllowedCpus();
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    if (key == "--workload") {
      args.workload = val;
    } else if (key == "--seed") {
      args.seed = std::strtoull(val, nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(val, nullptr);
    } else if (key == "--trace") {
      args.trace = std::strcmp(val, "1") == 0;
    } else if (key == "--commit") {
      commit = val;
    } else if (key == "--work-dir") {
      args.work_dir = val;
    } else {
      return Usage(("unknown argument " + key).c_str());
    }
  }
  if (argc % 2 == 0) return Usage("arguments come in --key value pairs");
  if (!(args.seconds > 0) || args.seconds > 120) {
    return Usage("--seconds must be in (0, 120]");
  }
  if (!perfbench::MakeDirs(args.work_dir, false)) {
    return Usage(("cannot create " + args.work_dir).c_str());
  }

  if (args.workload != "mol" && args.workload != "large") {
    return Usage(("unknown workload '" + args.workload + "'").c_str());
  }
  perfbench::Result result = RunWorkload(args, args.workload == "large");
  if (result.attempted == 0) result.Fail("no operation was attempted");

  std::string info = "{\"run\": {\"workload\": " + JsonString(args.workload) +
                     ", \"seed\": " + std::to_string(args.seed) +
                     ", \"seconds\": " + JsonNumber(args.seconds) +
                     ", \"trace\": " + (args.trace ? "1" : "0") +
                     ", \"nproc\": " + std::to_string(args.nproc) +
                     ", \"build_type\": " + JsonString(PERFBENCH_BUILD_TYPE) +
                     ", \"commit\": " + JsonString(commit) + "}, \"info\": {";
  for (size_t i = 0; i < result.info.size(); ++i) {
    info += (i ? ", " : "") + JsonString(result.info[i].first) + ": " +
            JsonNumber(result.info[i].second);
  }
  std::printf("%s}}\n", info.c_str());

  std::string line = std::string("{\"correct\": ") +
                     (result.failed == 0 ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(result.attempted) +
                     ", \"failed\": " + std::to_string(result.failed) +
                     ", \"metrics\": {";
  for (size_t i = 0; i < result.metrics.size(); ++i) {
    const perfbench::Metric& m = result.metrics[i];
    line += (i ? ", " : "") + JsonString(m.name) +
            ": {\"value\": " + JsonNumber(m.value) +
            ", \"unit\": " + JsonString(m.unit) + "}";
  }
  std::printf("%s}}\n", line.c_str());
  std::fflush(stdout);
  return 0;
}
