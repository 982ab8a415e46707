// pef_perfbench — the repo benchmark's measuring program.
//
//   pef_perfbench --workload W --seed N --seconds S --trace 0|1
//                 --bin-dir DIR --work-dir DIR --trace-dir DIR
//                 [--git-commit C] [--source-hash H] [--tiny]
//                 [--corrupt-output]
//
// Runs one workload for about S seconds, checks its outputs, prints a
// human-readable report, and ends with one JSON line:
//   {"correct":..., "attempted":..., "failed":..., "metrics":{...}}
// Exit 0 when every output check passed, 1 when any failed, 2 on usage
// errors.  perfbench/run.py builds the program and calls this.
#include <sched.h>
#include <unistd.h>

#include <cpuid.h>

#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <thread>

#include "bench.hpp"
#include "common/json.hpp"

namespace perfbench {
namespace {

std::string cpu_model() {
  unsigned int regs[12] = {};
  unsigned int max_leaf = __get_cpuid_max(0x80000000u, nullptr);
  if (max_leaf < 0x80000004u) return "unknown";
  for (unsigned int i = 0; i < 3; ++i) {
    __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                &regs[4 * i + 2], &regs[4 * i + 3]);
  }
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string model(brand);
  const auto first = model.find_first_not_of(' ');
  return first == std::string::npos ? "unknown" : model.substr(first);
}

unsigned int l2_kib() {
  unsigned int a = 0, b = 0, c = 0, d = 0;
  if (__get_cpuid_max(0x80000000u, nullptr) < 0x80000006u) return 0;
  __get_cpuid(0x80000006u, &a, &b, &c, &d);
  return c >> 16;
}

/// The tier BatchEngine dispatches: the widest the CPU supports, clamped by
/// PEF_BATCH_ISA exactly as engine/batch_engine.cpp clamps it.
std::string batch_isa() {
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__)
  int best = 0;
  if (__builtin_cpu_supports("avx2")) best = 1;
  if (__builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512bw") &&
      __builtin_cpu_supports("avx512dq") && __builtin_cpu_supports("avx512vl")) {
    best = 2;
  }
  if (const char* env = std::getenv("PEF_BATCH_ISA")) {
    int cap = best;
    if (std::strcmp(env, "portable") == 0) cap = 0;
    if (std::strcmp(env, "avx2") == 0) cap = 1;
    if (std::strcmp(env, "avx512") == 0) cap = 2;
    if (cap < best) best = cap;
  }
  static const char* const kNames[] = {"portable", "avx2", "avx512"};
  return kNames[best];
#else
  return "portable";
#endif
}

std::string fingerprint_json(const std::string& git_commit,
                             const std::string& source_hash) {
  cpu_set_t set;
  CPU_ZERO(&set);
  const int usable =
      sched_getaffinity(0, sizeof set, &set) == 0 ? CPU_COUNT(&set) : 0;
  pef::JsonWriter json;
  json.begin_object();
  json.field("nproc", static_cast<std::uint64_t>(usable));
  json.field("hardware_threads",
             static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  json.field("cpu_model", cpu_model());
  json.field("l2_kib", static_cast<std::uint64_t>(l2_kib()));
  json.field("batch_isa", batch_isa());
  json.field("compiler", PEF_PERFBENCH_COMPILER);
  json.field("build_type", PEF_PERFBENCH_BUILD_TYPE);
  json.field("git_commit", git_commit);
  json.field("source_hash", source_hash);
  json.end_object();
  return json.str();
}

int usage(const char* message) {
  std::cerr << "pef_perfbench: " << message << "\n";
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunConfig config;
  std::string trace_dir;
  std::string git_commit = "unknown";
  std::string source_hash = "unknown";
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      return i + 1 < argc ? std::string(argv[++i]) : std::string();
    };
    if (flag == "--workload") {
      config.workload = value();
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value().c_str(), nullptr);
    } else if (flag == "--trace") {
      const std::string v = value();
      if (v != "0" && v != "1") return usage("--trace takes 0 or 1");
      config.trace = v == "1";
      have_trace = true;
    } else if (flag == "--bin-dir") {
      config.bin_dir = value();
    } else if (flag == "--work-dir") {
      config.work_dir = value();
    } else if (flag == "--trace-dir") {
      trace_dir = value();
    } else if (flag == "--git-commit") {
      git_commit = value();
    } else if (flag == "--source-hash") {
      source_hash = value();
    } else if (flag == "--tiny") {
      config.tiny = true;
    } else if (flag == "--corrupt-output") {
      config.corrupt = true;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (config.workload.empty() || config.bin_dir.empty() ||
      config.work_dir.empty() || trace_dir.empty() || !have_trace ||
      config.seconds <= 0) {
    return usage("need --workload, --seconds > 0, --trace, --bin-dir, "
                 "--work-dir and --trace-dir");
  }

  RunOutcome (*runner)(const RunConfig&) = nullptr;
  if (config.workload == "sweep-stochastic" ||
      config.workload == "sweep-crowded") {
    runner = run_sweep_workload;
  } else if (config.workload == "serve-mix") {
    runner = run_serve_workload;
  } else if (config.workload == "orchestrate-local") {
    runner = run_orchestrate_workload;
  } else {
    return usage(("unknown workload " + config.workload).c_str());
  }

  const std::string tag =
      config.workload + "-seed" + std::to_string(config.seed);
  config.work_dir += "/" + tag + "-" + std::to_string(::getpid());
  remove_tree(config.work_dir);
  if (!make_dirs(config.work_dir) || !make_dirs(trace_dir)) {
    return usage("cannot create the work or trace directory");
  }

  config.spans_path = trace_dir + "/spans-" + tag + ".jsonl";
  RunOutcome outcome = runner(config);
  remove_tree(config.work_dir);

  std::cout << "fingerprint: " << fingerprint_json(git_commit, source_hash)
            << "\n";
  for (const std::string& note : outcome.notes) std::cout << note << "\n";
  for (const std::string& failure : outcome.failures) {
    std::cout << "CHECK FAILED: " << failure << "\n";
  }
  const double failed_ratio =
      outcome.attempted > 0 ? static_cast<double>(outcome.failed) /
                                  static_cast<double>(outcome.attempted)
                            : 1.0;
  std::cout << "failed_ratio: " << failed_ratio << " (" << outcome.failed
            << " of " << outcome.attempted << " attempted)\n";
  const bool correct = outcome.failed == 0 && outcome.attempted > 0;
  pef::JsonWriter result;
  result.begin_object();
  result.field("correct", correct);
  result.field("attempted", outcome.attempted);
  result.field("failed", outcome.failed);
  result.raw_field("metrics", outcome.metrics.to_json());
  result.end_object();
  std::cout << result.str() << std::endl;
  return correct ? 0 : 1;
}
