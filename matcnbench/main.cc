// matcnbench: one benchmark for MatCNGen. See README.md.
//
//   matcnbench --workload W --seed N --seconds S --trace 0|1 [--smoke]
//
// The last line of stdout is the result object: correctness, operations
// attempted and failed, and the end-to-end metrics (--trace 0) or the
// per-layer metrics (--trace 1). Lines before it starting with '#' are
// the environment stamp and check summaries.

#include <cstdlib>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "workloads.h"

namespace {

using MetricList = std::vector<std::pair<std::string, std::string>>;

// Name and unit of every metric; BENCHMARK.json lists the same (the smoke
// mode of run.py checks the two agree).
const MetricList kEndToEnd = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
    {"query_qps", "queries/s"},
    {"query_p50_ms", "ms"},
    {"query_p95_ms", "ms"},
};

const MetricList kPerLayer = {
    {"simd.decode_mb_s", "MB/s"},
    {"simd.decode_scalar_mb_s", "MB/s"},
    {"simd.intersect_melems_s", "Melem/s"},
    {"simd.intersect_scalar_melems_s", "Melem/s"},
    {"tsfind.ms", "ms"},
    {"tsfind.tuples", "count"},
    {"tsfind.live_ms", "ms"},
    {"qmgen.ms", "ms"},
    {"qmgen.matches", "count"},
    {"matchcn.ms", "ms"},
    {"matchcn.ms_per_match", "ms"},
    {"matchcn.cns", "count"},
    {"sql.ms", "ms"},
    {"sql.bytes", "bytes"},
    {"openloop.p50_ms", "ms"},
    {"openloop.p99_ms", "ms"},
    {"service.cache_hit_rate", "ratio"},
    {"service.hit_p50_ms", "ms"},
    {"service.miss_p50_ms", "ms"},
    {"service.admission_wait_ms", "ms"},
    {"service.invalidations_per_insert", "ratio"},
    {"net.client_minus_server_ms", "ms"},
    {"net.wire_flush_ms", "ms"},
    {"liveindex.insert_ms", "ms"},
    {"liveindex.compactions", "count"},
    {"liveindex.delta_bytes", "bytes"},
    {"liveindex.snapshot_pin_ms", "ms"},
    {"insert.p50_ms", "ms"},
    {"insert.p99_ms", "ms"},
    {"insert.qps", "inserts/s"},
    {"shard.scatter_ms", "ms"},
    {"shard.merge_ms", "ms"},
    {"shard.scatter_errors", "count"},
    {"setup.dataset_s", "s"},
    {"setup.index_s", "s"},
    {"setup.serve_start_s", "s"},
    {"trace.overhead_ms", "ms"},
};

int Usage(const std::string& problem) {
  std::cerr << "matcnbench: " << problem
            << "\nusage: matcnbench --workload "
               "paper_sets|serve_zipf|serve_write|shard_large --seed N "
               "--seconds S --trace 0|1 [--smoke]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  matcnbench::Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke" || flag == "--measure-only") {
      (flag == "--smoke" ? args.smoke : args.measure_only) = true;
      continue;
    }
    if (i + 1 >= argc) return Usage("missing value for " + flag);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (!(args.seconds > 0)) return Usage("--seconds must be positive");
    } else if (flag == "--cpu") {
      args.cpu = static_cast<int>(std::strtol(value.c_str(), &end, 10));
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage("--trace takes 0 or 1");
      args.trace = value == "1";
    } else {
      return Usage("unknown flag " + flag);
    }
    if (end != nullptr && *end != '\0') return Usage("bad number " + value);
  }
  if (!have_workload) return Usage("--workload is required");

  // An untraced served run, and each of its measuring processes, runs on
  // one CPU: a query handed between client, event-loop and worker threads
  // then switches threads on that CPU instead of waking an idle virtual
  // CPU, whose wake-up time on a shared host varies by up to twice with
  // the host's load. The measuring processes go to the CPUs in turn.
  // paper_sets runs one thread and hands nothing over, so it is left
  // where the scheduler puts it.
  args.cpus = matcnbench::AllowedCpus();
  if (!args.trace && args.workload != "paper_sets") {
    matcnbench::PinToCpu(args.cpu);
  }
  if (args.measure_only) {
    if (args.workload == "paper_sets") {
      matcnbench::RunPaperSetsMeasureOnly(args);
    } else {
      matcnbench::RunServedMeasureOnly(args);
    }
    return 0;
  }
  matcnbench::PrintEnvironment(args);
  matcnbench::Report report;
  if (args.workload == "paper_sets") {
    matcnbench::RunPaperSets(args, &report);
  } else if (!matcnbench::RunServed(args, &report)) {
    return Usage("unknown workload " + args.workload);
  }
  const MetricList& wanted = args.trace ? kPerLayer : kEndToEnd;
  if (!args.trace) {
    for (const auto& [name, unit] : wanted) {
      if (!report.Has(name)) report.Fail("end-to-end metric not measured: " + name);
    }
  }
  if (report.attempted == 0) report.Fail("no operation attempted");
  std::cout << report.ToJson(wanted) << std::endl;
  return 0;
}
