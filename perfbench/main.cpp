// perfbench: the repository benchmark. One process runs one workload with
// one closed-loop client and prints the run record, every metric by name
// with its unit, and as its last line one JSON object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// carrying the end-to-end metrics (--trace 0) or the per-layer metrics of a
// traced run (--trace 1). See README.md for the workloads and metrics.
//
//   perfbench --workload <tpch_csv|horse_fds|tpch_service|defect_repro>
//             [--seed N] [--seconds S] [--trace 0|1] [--work-dir DIR]
//             [--trace-out FILE]
#include <sys/resource.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <map>
#include <string>
#include <thread>

#include "harness.hpp"

namespace {

using perfbench::Config;

using WorkloadFn = void (*)(const Config&, perfbench::Report*,
                            perfbench::Outcome*);

const std::map<std::string, WorkloadFn>& Workloads() {
  static const std::map<std::string, WorkloadFn> kWorkloads = {
      {"tpch_csv", perfbench::RunTpchCsv},
      {"horse_fds", perfbench::RunHorseFds},
      {"tpch_service", perfbench::RunTpchService},
      {"defect_repro", perfbench::RunDefectRepro},
  };
  return kWorkloads;
}

// Address-space ceiling (RLIMIT_AS), well above every workload's measured
// peak (VmPeak up to 640 MiB, most of it reserved thread arenas; resident
// peaks under 50 MiB): a memory blow-up becomes a counted std::bad_alloc,
// not an OOM kill on a shared host.
constexpr long kAddressSpaceLimitMb = 1536;

int Usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <tpch_csv|horse_fds|"
               "tpch_service|defect_repro> [--seed N] [--seconds S] "
               "[--trace 0|1] [--work-dir DIR] [--trace-out FILE]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) return Usage("unexpected argument " + key);
    flags[key.substr(2)] = argv[i + 1];
  }
  if (argc % 2 == 0) return Usage("every flag takes a value");
  auto flag = [&](const std::string& name, const std::string& fallback) {
    auto it = flags.find(name);
    return it == flags.end() ? fallback : it->second;
  };

  Config config;
  config.workload = flag("workload", "");
  auto workload = Workloads().find(config.workload);
  if (workload == Workloads().end()) {
    return Usage("unknown workload '" + config.workload + "'");
  }
  config.seed = std::strtoull(flag("seed", "1").c_str(), nullptr, 10);
  config.seconds = std::atof(flag("seconds", "20").c_str());
  config.trace = flag("trace", "0") == "1";
  config.work_dir = flag("work-dir", ".bench_build/perfbench-work/" +
                                         config.workload + "-" +
                                         std::to_string(::getpid()));
  config.trace_path =
      flag("trace-out", ".bench_build/perfbench-trace-" + config.workload +
                            "-seed" + std::to_string(config.seed) + ".json");
  struct rlimit limit {};
  limit.rlim_cur = limit.rlim_max = static_cast<rlim_t>(kAddressSpaceLimitMb)
                                    << 20;
  if (::setrlimit(RLIMIT_AS, &limit) != 0) {
    std::cerr << "perfbench: cannot set the address-space ceiling\n";
    return 1;
  }
  std::error_code ec;
  std::filesystem::create_directories(config.work_dir, ec);
  if (ec) {
    std::cerr << "perfbench: cannot create " << config.work_dir << "\n";
    return 1;
  }

  perfbench::Report report;
  report.Record("workload", config.workload);
  report.Record("seed", std::to_string(config.seed));
  report.Record("seconds", perfbench::FormatNumber(config.seconds));
  report.Record("trace", config.trace ? "1" : "0");
  report.Record("nproc", std::to_string(std::thread::hardware_concurrency()));
  report.Record("build_type", PERFBENCH_BUILD_TYPE);
  report.Record("as_limit_mb", std::to_string(kAddressSpaceLimitMb));
  if (config.trace) report.Record("trace_out", config.trace_path);

  perfbench::Outcome outcome;
  workload->second(config, &report, &outcome);
  report.Record("peak_address_space_mb",
                perfbench::FormatNumber(perfbench::PeakAddressSpaceMb()));
  std::filesystem::remove_all(config.work_dir, ec);
  report.PrintResult(config, outcome);
  return 0;
}
