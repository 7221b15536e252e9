// e2e_layers: one workload of the end-to-end benchmark per invocation.
//
//   e2e_layers --workload=NAME --seed=N --seconds=S [--trace] --out=PATH
//
// Writes every metric it measured, the attempted/failed counts and the
// failed checks to PATH as JSON. Under --trace it also writes
// BENCH_e2e_<workload>.trace.json (Chrome trace format) next to PATH and
// prints the spans' self-time table. Exits non-zero if any check failed.
// bench/e2e/run.py builds this binary and is the command to run.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "common.h"
#include "recorder.h"
#include "workloads.h"

namespace {

using e2e::Options;
using e2e::RunResult;

struct Workload {
  const char* name;
  void (*run)(const Options&, e2e::Recorder&, RunResult&);
};

constexpr Workload kWorkloads[] = {
    {"replay_2x8", e2e::RunReplay},   {"faulted_2x8", e2e::RunFaulted},
    {"scale_1024", e2e::RunScale},    {"prepare_384", e2e::RunPrepare},
    {"serve_live", e2e::RunServe},
};

const char* Flag(const char* arg, const char* name) {
  const std::size_t n = std::strlen(name);
  return std::strncmp(arg, name, n) == 0 && arg[n] == '=' ? arg + n + 1
                                                          : nullptr;
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "e2e_layers: %s\nusage: e2e_layers --workload=NAME --seed=N "
               "--seconds=S [--trace] --out=PATH\nworkloads:",
               why);
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

bool WriteResult(const Options& opts, const RunResult& r) {
  std::FILE* f = std::fopen(opts.out.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"workload\": %s, \"seed\": %llu, \"seconds\": %.17g, ",
               JsonString(opts.workload).c_str(),
               static_cast<unsigned long long>(opts.seed), opts.seconds);
  std::fprintf(f, "\"trace\": %s, \"attempted\": %llu, \"failed\": %llu,\n",
               opts.trace ? "true" : "false",
               static_cast<unsigned long long>(r.attempted),
               static_cast<unsigned long long>(r.failed));
  std::fprintf(f, " \"failures\": [");
  for (std::size_t i = 0; i < r.failures.size(); ++i) {
    std::fprintf(f, "%s%s", i == 0 ? "" : ", ",
                 JsonString(r.failures[i]).c_str());
  }
  std::fprintf(f, "],\n \"metrics\": {");
  bool first = true;
  for (const auto& [name, m] : r.metrics) {
    std::fprintf(f, "%s\n  %s: {\"value\": ", first ? "" : ",",
                 JsonString(name).c_str());
    if (std::isfinite(m.value)) {
      std::fprintf(f, "%.17g", m.value);
    } else {
      std::fprintf(f, "null");
    }
    std::fprintf(f, ", \"unit\": %s}", JsonString(m.unit).c_str());
    first = false;
  }
  std::fprintf(f, "\n }}\n");
  return std::fclose(f) == 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (const char* v = Flag(arg, "--workload")) {
      opts.workload = v;
    } else if (const char* v2 = Flag(arg, "--seed")) {
      char* end = nullptr;
      opts.seed = std::strtoull(v2, &end, 10);
      if (end == v2 || *end != '\0') return Usage("bad --seed");
      have_seed = true;
    } else if (const char* v3 = Flag(arg, "--seconds")) {
      char* end = nullptr;
      opts.seconds = std::strtod(v3, &end);
      if (end == v3 || *end != '\0' || !(opts.seconds > 0) ||
          opts.seconds > 600) {
        return Usage("bad --seconds");
      }
    } else if (std::strcmp(arg, "--trace") == 0) {
      opts.trace = true;
    } else if (const char* v4 = Flag(arg, "--out")) {
      opts.out = v4;
    } else {
      return Usage((std::string("unknown argument ") + arg).c_str());
    }
  }
  if (!have_seed || opts.out.empty()) return Usage("missing --seed or --out");
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (opts.workload == w.name) workload = &w;
  }
  if (workload == nullptr) return Usage("unknown --workload");

  e2e::SetAllocCounting(opts.trace);
  e2e::Recorder rec(opts.trace);
  RunResult result;
  try {
    workload->run(opts, rec, result);
  } catch (const std::exception& e) {
    result.Check(false, std::string("uncaught exception: ") + e.what());
  }
  e2e::SetAllocCounting(false);
  result.Set("peak_rss_mb", e2e::PeakRssMb(), "MB");
  for (const auto& [name, m] : result.metrics) {
    result.Check(std::isfinite(m.value), "metric " + name + " is not finite");
  }

  if (opts.trace) {
    std::printf("self time by span (%s, traced run):\n",
                opts.workload.c_str());
    rec.PrintSelfTimes(stdout);
    const std::size_t slash = opts.out.find_last_of('/');
    const std::string dir =
        slash == std::string::npos ? "" : opts.out.substr(0, slash + 1);
    const std::string trace_path =
        dir + "BENCH_e2e_" + opts.workload + ".trace.json";
    result.Check(rec.WriteChromeTrace(trace_path),
                 "cannot write " + trace_path);
  }
  if (!WriteResult(opts, result)) {
    std::fprintf(stderr, "e2e_layers: cannot write %s\n", opts.out.c_str());
    return 1;
  }
  return result.failed == 0 ? 0 : 1;
}
