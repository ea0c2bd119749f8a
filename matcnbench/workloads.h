#ifndef MATCNBENCH_WORKLOADS_H_
#define MATCNBENCH_WORKLOADS_H_

#include "bench_common.h"

namespace matcnbench {

/// paper_sets: the Table 3-4 query sets through the library.
void RunPaperSets(const Args& args, Report* report);

/// paper_sets' timed passes alone, for a measuring child process: prints
/// the per-query fastest times instead of a result object.
void RunPaperSetsMeasureOnly(const Args& args);

/// serve_zipf, serve_write and shard_large: load over net::Client
/// against an in-process server. Returns false for an unknown name.
bool RunServed(const Args& args, Report* report);

/// A served workload's timed passes alone, for a measuring child process:
/// prints each op's fastest time instead of a result object.
void RunServedMeasureOnly(const Args& args);

}  // namespace matcnbench

#endif  // MATCNBENCH_WORKLOADS_H_
