// coane_perfbench: the repository benchmark binary.
//
//   coane_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                   --out <dir> [--git-sha <sha>] [--source-digest <hex>]
//
// Generates the workload's inputs from the seed, runs it, checks outputs,
// and prints a run report line followed by the result line (the last line
// of stdout). With --trace 1 the result carries the per-layer metrics and
// the run also writes <out>/trace-<workload>-<seed>.json (Chrome
// trace-event format) and <out>/layers-<workload>-<seed>.txt.

#include <unistd.h>

#include <cpuid.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>

#include "harness.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_LIBRARY_FLAGS
#define PERFBENCH_LIBRARY_FLAGS "unknown"
#endif

namespace perfbench {
namespace {

namespace fs = std::filesystem;

int Usage(const char* why) {
  std::fprintf(stderr,
               "usage error: %s\n"
               "usage: coane_perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> --out <dir>\n",
               why);
  return 2;
}

std::string CpuBrand() {
  unsigned regs[12] = {};
  unsigned max_ext = __get_cpuid_max(0x80000000u, nullptr);
  if (max_ext < 0x80000004u) return "unknown";
  for (unsigned i = 0; i < 3; ++i) {
    __get_cpuid(0x80000002u + i, &regs[i * 4], &regs[i * 4 + 1],
                &regs[i * 4 + 2], &regs[i * 4 + 3]);
  }
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string s = brand;
  s.erase(0, s.find_first_not_of(' '));
  return s;
}

std::string CpuFlags() {
  std::string flags;
  auto add = [&flags](const char* name, bool has) {
    if (has) flags += std::string(flags.empty() ? "" : " ") + name;
  };
  __builtin_cpu_init();
  add("sse4.2", __builtin_cpu_supports("sse4.2"));
  add("avx", __builtin_cpu_supports("avx"));
  add("avx2", __builtin_cpu_supports("avx2"));
  add("fma", __builtin_cpu_supports("fma"));
  add("avx512f", __builtin_cpu_supports("avx512f"));
  add("avx512bw", __builtin_cpu_supports("avx512bw"));
  add("avx512vl", __builtin_cpu_supports("avx512vl"));
  return flags;
}

// Run metadata: host, build, budget and seed.
std::string Metadata(const RunOptions& opt, const std::string& git_sha,
                     const std::string& digest) {
  double load[3] = {-1, -1, -1};
  (void)getloadavg(load, 3);
  std::string out = "{";
  auto field = [&out](const std::string& key, const std::string& json) {
    if (out.size() > 1) out += ", ";
    out += JsonString(key) + ": " + json;
  };
  field("workload", JsonString(opt.workload));
  field("seed", std::to_string(opt.seed));
  field("seconds", JsonNumber(opt.seconds));
  field("trace", opt.trace ? "true" : "false");
  field("git_sha", JsonString(git_sha));
  field("source_digest", JsonString(digest));
  field("cpu_model", JsonString(CpuBrand()));
  field("cpu_flags", JsonString(CpuFlags()));
  field("nproc", std::to_string(sysconf(_SC_NPROCESSORS_ONLN)));
  field("l2_bytes", std::to_string(sysconf(_SC_LEVEL2_CACHE_SIZE)));
  field("l3_bytes", std::to_string(sysconf(_SC_LEVEL3_CACHE_SIZE)));
  field("build_type", JsonString(PERFBENCH_BUILD_TYPE));
  field("library_flags", JsonString(PERFBENCH_LIBRARY_FLAGS));
  field("thread_budget",
        JsonString("4 busy threads: train-flickr and serve-knn train at 4, "
                   "then 1 client thread + 2 frontend workers; stream-churn "
                   "trains at 2 beside 1 reader thread and 2 workers"));
  field("connections",
        JsonString("2 persistent loopback connections per load phase "
                   "(stream-churn reads on 1 while the other polls INFO)"));
  field("loadavg_1m", JsonNumber(load[0]));
  return out + "}";
}

std::string Report(const RunState& run, const std::string& metadata,
                   double wall) {
  std::string out = "{\"report\": " + metadata + ", \"wall_s\": " +
                    JsonNumber(wall) + ", \"ops\": {";
  bool first = true;
  for (const auto& [op, c] : run.ledger.Snapshot()) {
    out += std::string(first ? "" : ", ") + JsonString(op) +
           ": {\"attempted\": " + std::to_string(c.attempted) +
           ", \"succeeded\": " + std::to_string(c.succeeded) +
           ", \"failed\": " + std::to_string(c.failed) + "}";
    first = false;
  }
  out += "}, \"failures\": [";
  first = true;
  for (const std::string& r : run.ledger.Reasons()) {
    out += std::string(first ? "" : ", ") + JsonString(r);
    first = false;
  }
  out += "], \"notes\": {";
  first = true;
  for (const auto& [k, v] : run.notes) {
    out += std::string(first ? "" : ", ") + JsonString(k) + ": " +
           JsonString(v);
    first = false;
  }
  out += "}, \"end_to_end\": {";
  first = true;
  for (const auto& [k, m] : run.e2e) {
    out += std::string(first ? "" : ", ") + JsonString(k) + ": " +
           JsonNumber(m.value);
    first = false;
  }
  return out + "}}";
}

bool WriteFile(const std::string& path, const std::string& body) {
  std::ofstream f(path);
  f << body;
  return static_cast<bool>(f);
}

int Main(int argc, char** argv) {
  RunOptions opt;
  std::string out_dir, git_sha = "unknown", digest = "unknown";
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      opt.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0' || value.empty()) return Usage("bad --seed");
      have_seed = true;
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(opt.seconds > 0)) return Usage("bad --seconds");
      have_seconds = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage("bad --trace");
      opt.trace = value == "1";
      have_trace = true;
    } else if (flag == "--out") {
      out_dir = value;
    } else if (flag == "--git-sha") {
      git_sha = value;
    } else if (flag == "--source-digest") {
      digest = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace ||
      out_dir.empty()) {
    return Usage("--workload, --seed, --seconds, --trace and --out are "
                 "required");
  }
  bool known = false;
  for (const std::string& w : WorkloadNames()) known |= w == opt.workload;
  if (!known) return Usage(("unknown workload " + opt.workload).c_str());

  const std::string tag =
      opt.workload + "-" + std::to_string(opt.seed);
  opt.work_dir = out_dir + "/work-" + tag + "-" + std::to_string(getpid());
  std::error_code ec;
  fs::remove_all(opt.work_dir, ec);
  fs::create_directories(opt.work_dir);
  const std::string metadata = Metadata(opt, git_sha, digest);
  if (opt.trace) Tracer::Global().Enable(tag);

  RunState run(opt);
  const double start = NowSeconds();
  std::string error;
  const bool finished = RunWorkload(&run, &error);
  const double wall = NowSeconds() - start;
  fs::remove_all(opt.work_dir, ec);
  if (!finished) {
    std::fprintf(stderr, "coane_perfbench: %s failed: %s\n",
                 opt.workload.c_str(), error.c_str());
    for (const std::string& r : run.ledger.Reasons()) {
      std::fprintf(stderr, "  %s\n", r.c_str());
    }
    return 1;
  }

  const std::string report = Report(run, metadata, wall);
  const std::string suffix = "-trace" + std::string(opt.trace ? "1" : "0");
  WriteFile(out_dir + "/report-" + tag + suffix + ".json", report + "\n");
  if (opt.trace) {
    const Tracer& tracer = Tracer::Global();
    WriteFile(out_dir + "/trace-" + tag + ".json", tracer.ChromeTraceJson());
    std::string table = tracer.SelfTimeTable();
    table += "per-layer metrics\n";
    for (const auto& [name, m] : run.layer) {
      char line[160];
      std::snprintf(line, sizeof(line), "%-36s %18.6f %s\n", name.c_str(),
                    m.value, m.unit.c_str());
      table += line;
    }
    WriteFile(out_dir + "/layers-" + tag + ".txt", table);
  }

  RunResult result;
  result.attempted = run.ledger.TotalAttempted();
  result.failed = run.ledger.TotalFailed();
  result.correct = result.failed == 0;
  result.metrics = opt.trace ? run.layer : run.e2e;
  std::printf("%s\n%s\n", report.c_str(), RenderResult(result).c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
