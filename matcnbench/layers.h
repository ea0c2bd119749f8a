#ifndef MATCNBENCH_LAYERS_H_
#define MATCNBENCH_LAYERS_H_

// The traced run's layer replay: a workload's own distinct queries are
// pushed through each layer's public function in turn, with a span
// around every call, and the per-layer metrics are computed from those
// spans. Nothing inside the library is instrumented for this.

#include <vector>

#include "bench_common.h"
#include "core/keyword_query.h"
#include "graph/schema_graph.h"
#include "indexing/term_index.h"
#include "storage/schema.h"

namespace matcnbench {

struct ReplayInput {
  const matcn::TermIndex* index = nullptr;
  const matcn::SchemaGraph* schema_graph = nullptr;
  const matcn::DatabaseSchema* schema = nullptr;
  std::vector<matcn::KeywordQuery> queries;
  int t_max = 10;
};

/// Replays `input.queries` once through TSFind (static and live
/// snapshot), QMGen, MatchCN, CN->SQL and the shard merge, recording
/// spans into `spans`, and collects the queries' posting lists into the
/// kernel corpus. A replayed stage that disagrees with its neighbour
/// (live vs static tuple-sets) fails the report.
class LayerReplay {
 public:
  void Run(const ReplayInput& input, Report* report);
  /// Times the SIMD kernels (active level and the scalar entry points)
  /// over the posting lists collected by Run, and writes every replay
  /// metric (simd.*, tsfind.*, qmgen.*, matchcn.*, sql.*, shard.merge_ms,
  /// liveindex.snapshot_pin_ms when `snapshot_pin_from_replay`).
  void Finish(Report* report, bool snapshot_pin_from_replay);

 private:
  SpanLog spans_;
  size_t queries_ = 0;
  // Kernel corpus: varbyte-delta blocks (bytes, count) and sorted id
  // pairs, drawn from the replayed queries' own postings.
  std::vector<std::pair<std::vector<uint8_t>, size_t>> blocks_;
  std::vector<std::pair<std::vector<uint64_t>, std::vector<uint64_t>>> pairs_;
};

}  // namespace matcnbench

#endif  // MATCNBENCH_LAYERS_H_
