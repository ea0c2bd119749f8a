// paper_sets: the paper's own measurement. The 218 CW/SPARK/INEX queries
// of Tables 3-4 run sequentially through MatCnGen::Generate on the
// memory index at T_max 5 (the Figure 10 bench's default), and every CN
// is rendered to SQL. No service, cache or wire is involved.

#include <cmath>
#include <limits>
#include <memory>
#include <set>
#include <sstream>

#include "baseline/cngen.h"
#include "bench/bench_util.h"
#include "core/cn_to_sql.h"
#include "core/matcngen.h"
#include "core/qmgen.h"
#include "core/tsfind.h"
#include "layers.h"
#include "workload/zipf.h"
#include "workloads.h"

namespace matcnbench {

using namespace matcn;

namespace {

constexpr int kTMax = 5;
// Tree budget for the CNGen subset check. CNGen cannot stop early: the
// queries it finishes at all finish within a few dozen trees, and the
// rest exhaust any budget (at T_max 10, 2000 trees cost ~24 s per run and
// finished the same 92 of 218 as 200 trees), so they are skipped and the
// number it finished is reported.
constexpr size_t kCnGenBudget = 200;

struct PaperQuery {
  const bench::BenchDataset* dataset;
  const WorkloadQuery* query;
  size_t cns = 0;      // expected output, from the checks
  size_t matches = 0;
};

std::string Name(const PaperQuery& pq) {
  return pq.dataset->name + "/" + pq.query->id + " '" +
         pq.query->query.ToString() + "'";
}

/// The per-query correctness checks, outside any timed region.
void CheckQuery(const MatCnGen& gen, PaperQuery* pq, size_t* cngen_finished,
                Report* report) {
  const bench::BenchDataset& ds = *pq->dataset;
  const KeywordQuery& q = pq->query->query;
  const std::string name = Name(*pq);

  const std::vector<TupleSet> mem = TupleSetFinder::FindMem(ds.index, q);
  if (mem != TupleSetFinder::FindScan(ds.db, q)) {
    report->Fail("FindMem differs from FindScan on " + name);
  }
  const std::vector<QueryMatch> fast = GenerateMatches(q, mem);
  if (fast != GenerateMatchesNaive(q, mem)) {
    report->Fail("GenerateMatches differs from GenerateMatchesNaive on " +
                 name);
  }

  const GenerationResult result = gen.Generate(q, ds.index);
  pq->cns = result.cns.size();
  pq->matches = result.matches.size();
  if (result.matches != fast) {
    report->Fail("Generate's matches differ from GenerateMatches on " + name);
  }
  const std::set<QueryMatch> match_set(result.matches.begin(),
                                       result.matches.end());
  std::set<QueryMatch> used;
  std::set<std::string> canon;
  for (const CandidateNetwork& cn : result.cns) {
    if (!cn.IsSound(ds.schema_graph)) report->Fail("unsound CN on " + name);
    if (cn.size() > static_cast<size_t>(kTMax)) {
      report->Fail("CN larger than T_max on " + name);
    }
    for (int leaf : cn.Leaves()) {
      if (cn.node(leaf).is_free()) report->Fail("free leaf in CN on " + name);
    }
    QueryMatch nodes;
    for (const CnNode& node : cn.nodes()) {
      if (!node.is_free()) nodes.push_back(node.tuple_set_index);
    }
    std::sort(nodes.begin(), nodes.end());
    if (!match_set.contains(nodes)) {
      report->Fail("CN non-free nodes are not a match on " + name);
    } else if (!used.insert(nodes).second) {
      report->Fail("match with more than one CN on " + name);
    }
    canon.insert(cn.CanonicalForm());
  }

  const TupleSetGraph graph(&ds.schema_graph, &result.tuple_sets);
  CnGenOptions base_options;
  base_options.t_max = kTMax;
  base_options.max_partial_trees = kCnGenBudget;
  const CnGenResult base = CnGen(q, graph, base_options);
  if (base.failed) return;
  ++*cngen_finished;
  std::set<std::string> base_canon;
  for (const CandidateNetwork& cn : base.cns) {
    base_canon.insert(cn.CanonicalForm());
  }
  for (const std::string& form : canon) {
    if (!base_canon.contains(form)) {
      report->Fail("CN missing from CNGen's set on " + name);
    }
  }
}

/// The datasets with their query sets and one generator per dataset.
struct PaperSet {
  std::vector<std::unique_ptr<bench::BenchDataset>> datasets;
  std::vector<std::unique_ptr<MatCnGen>> gens;  // parallel to datasets
  std::vector<PaperQuery> queries;
  std::vector<size_t> gen_of;  // parallel to queries

  explicit PaperSet(std::vector<std::unique_ptr<bench::BenchDataset>> ds)
      : datasets(std::move(ds)) {
    for (size_t d = 0; d < datasets.size(); ++d) {
      MatCnGenOptions options;
      options.t_max = kTMax;
      gens.push_back(
          std::make_unique<MatCnGen>(&datasets[d]->schema_graph, options));
      for (const auto& set : datasets[d]->query_sets) {
        for (const WorkloadQuery& wq : set) {
          queries.push_back({datasets[d].get(), &wq});
          gen_of.push_back(d);
        }
      }
    }
  }
};

PaperSet BuildPaperSet() {
  // The fixed base seed: these are the paper's query sets; --seed only
  // orders their execution.
  return PaperSet(bench::BuildBenchDatasets(true, bench::kDefaultBenchSeed));
}

/// What a series of timed passes produced.
struct Passes {
  std::vector<double> fastest;  // per query, ms
  std::vector<double> traced, untraced;  // every op's ms, by trace flag
  size_t passes = 0;
  uint64_t ops = 0;
  bool consistent = true;  // every pass returned the first pass's counts
  std::vector<size_t> cns, matches;  // per query, from the first pass
};

/// Whole passes over the queries, each pass in its own order drawn from
/// `seed`, until `seconds` have passed (at least `min_passes`). One op =
/// Generate + SQL for every CN. With `trace`, every other op carries an
/// obs::Trace.
Passes MeasurePasses(const PaperSet& set, uint64_t seed, double seconds,
                     size_t min_passes, bool trace) {
  const size_t n = set.queries.size();
  Passes out;
  out.fastest.assign(n, std::numeric_limits<double>::infinity());
  out.cns.assign(n, 0);
  out.matches.assign(n, 0);
  workload::Rng64 rng(seed);
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  const int64_t start = NowNanos();
  while (out.passes < min_passes ||
         static_cast<double>(NowNanos() - start) / 1e9 < seconds) {
    for (size_t i = n; i > 1; --i) std::swap(order[i - 1], order[rng.NextBounded(i)]);
    for (size_t index : order) {
      const PaperQuery& pq = set.queries[index];
      const MatCnGen& plain = *set.gens[set.gen_of[index]];
      const bool traced = trace && out.ops % 2 == 0;
      std::unique_ptr<MatCnGen> traced_gen;
      if (traced) {
        MatCnGenOptions options = plain.options();
        options.trace = std::make_shared<obs::Trace>();
        traced_gen =
            std::make_unique<MatCnGen>(&pq.dataset->schema_graph, options);
      }
      const MatCnGen& gen = traced ? *traced_gen : plain;
      const int64_t t0 = NowNanos();
      const GenerationResult result =
          gen.Generate(pq.query->query, pq.dataset->index);
      size_t sql_bytes = 0;
      for (const CandidateNetwork& cn : result.cns) {
        sql_bytes += CandidateNetworkToSql(cn, pq.dataset->db.schema(),
                                           pq.query->query)
                         .size();
      }
      const double ms = static_cast<double>(NowNanos() - t0) / 1e6;
      ++out.ops;
      out.fastest[index] = std::min(out.fastest[index], ms);
      (traced ? out.traced : out.untraced).push_back(ms);
      if (out.passes == 0) {
        out.cns[index] = result.cns.size();
        out.matches[index] = result.matches.size();
      } else if (result.cns.size() != out.cns[index] ||
                 result.matches.size() != out.matches[index] ||
                 sql_bytes == 0) {
        out.consistent = false;
      }
    }
    ++out.passes;
  }
  return out;
}

/// Runs MeasurePasses in a fresh process of this binary and reads back
/// its per-query results.
bool MeasureInChild(const Args& args, int index, uint64_t seed, double seconds,
                    Passes* out, std::string* error) {
  std::string text;
  if (!RunMeasuringChild(args, index, seed, seconds, &text, error)) return false;
  std::istringstream in(text);
  std::string tag;
  size_t n = 0;
  int consistent = 0;
  if (!(in >> tag >> n >> out->passes >> out->ops >> consistent) ||
      tag != "MEASURED") {
    *error = "measuring process printed no result";
    return false;
  }
  out->consistent = consistent != 0;
  out->fastest.resize(n);
  out->cns.resize(n);
  out->matches.resize(n);
  for (size_t q = 0; q < n; ++q) {
    if (!(in >> out->fastest[q] >> out->cns[q] >> out->matches[q])) {
      *error = "measuring process printed a short result";
      return false;
    }
  }
  return true;
}

void ReportLatencies(const std::vector<double>& per_query, Report* report) {
  double total_ms = 0;
  for (double ms : per_query) total_ms += ms;
  report->Set("query_qps", static_cast<double>(per_query.size()) / total_ms * 1e3,
              "queries/s");
  report->Set("query_p50_ms", Quantile(per_query, 0.5), "ms");
  report->Set("query_p95_ms", Quantile(per_query, 0.95), "ms");
}

}  // namespace

void RunPaperSetsMeasureOnly(const Args& args) {
  const PaperSet set = BuildPaperSet();
  const Passes p = MeasurePasses(set, args.seed, args.seconds, 2, false);
  std::cout.precision(17);
  std::cout << "MEASURED " << p.fastest.size() << " " << p.passes << " "
            << p.ops << " " << (p.consistent ? 1 : 0) << "\n";
  for (size_t q = 0; q < p.fastest.size(); ++q) {
    std::cout << p.fastest[q] << " " << p.cns[q] << " " << p.matches[q] << "\n";
  }
}

void RunPaperSets(const Args& args, Report* report) {
  std::unique_ptr<PaperSet> set;
  const double setup_s = MedianSetupSeconds([&] {
    set.reset();
    set = std::make_unique<PaperSet>(BuildPaperSet());
  });
  report->Set("setup_s", setup_s, "s");
  std::vector<PaperQuery>& queries = set->queries;

  size_t cngen_finished = 0;
  for (size_t q = 0; q < queries.size(); ++q) {
    CheckQuery(*set->gens[set->gen_of[q]], &queries[q], &cngen_finished, report);
  }
  report->Note("paper_sets checks: " + std::to_string(queries.size()) +
               " queries; CNGen finished " + std::to_string(cngen_finished) +
               " within " + std::to_string(kCnGenBudget) +
               " trees, MatCNGen's CNs covered on all of them");

  auto check_counts = [&](const Passes& p) {
    if (!p.consistent) report->Fail("a timed pass changed a query's output");
    for (size_t q = 0; q < queries.size() && q < p.cns.size(); ++q) {
      if (p.cns[q] != queries[q].cns || p.matches[q] != queries[q].matches) {
        report->Fail("timed Generate output differs from the checked one on " +
                     Name(queries[q]));
      }
    }
  };

  if (!args.trace) {
    // The computation is deterministic, so interference can only add time
    // to it. On the shared host this was tuned on, one process could run
    // the same pass up to 1.7x slower than the next for its whole life,
    // with no CPU steal visible, so the passes are split over
    // kMeasuringProcesses fresh processes of this binary on the CPUs in
    // turn, and each query's latency is its fastest time over all of them.
    std::vector<double> fastest(queries.size(),
                                std::numeric_limits<double>::infinity());
    size_t passes = 0;
    for (int r = 0; r < kMeasuringProcesses; ++r) {
      Passes p;
      std::string error;
      if (!MeasureInChild(args, r, args.seed * kMeasuringProcesses + r,
                          args.seconds / kMeasuringProcesses, &p, &error)) {
        report->Fail("paper_sets measurement: " + error);
        return;
      }
      if (p.fastest.size() != queries.size()) {
        report->Fail("measuring process saw another query set");
        return;
      }
      check_counts(p);
      report->attempted += p.ops;
      passes += p.passes;
      for (size_t q = 0; q < queries.size(); ++q) {
        fastest[q] = std::min(fastest[q], p.fastest[q]);
      }
    }
    ReportLatencies(fastest, report);
    report->Set("peak_rss_mb", PeakRssWithChildrenMib(), "MiB");
    report->Note("paper_sets: " + std::to_string(report->attempted) +
                 " ops in " + std::to_string(passes) + " passes over " +
                 std::to_string(kMeasuringProcesses) +
                 " processes; figures are each query's fastest time");
    return;
  }

  // Traced run: passes in this process, every other op traced.
  const Passes p = MeasurePasses(*set, args.seed, args.seconds, 3, true);
  check_counts(p);
  report->attempted += p.ops;
  ReportLatencies(p.fastest, report);
  report->Set("trace.overhead_ms",
              Quantile(p.traced, 0.5) - Quantile(p.untraced, 0.5), "ms");
  LayerReplay replay;
  for (const auto& ds : set->datasets) {
    ReplayInput input;
    input.index = &ds->index;
    input.schema_graph = &ds->schema_graph;
    input.schema = &ds->db.schema();
    input.t_max = kTMax;
    for (const auto& qs : ds->query_sets) {
      for (const WorkloadQuery& wq : qs) input.queries.push_back(wq.query);
    }
    if (!input.queries.empty()) replay.Run(input, report);
  }
  replay.Finish(report, /*snapshot_pin_from_replay=*/true);
  // Set-up split: the index share is re-measured by rebuilding each
  // dataset's TermIndex once; the rest of set-up is dataset and query-set
  // generation. There is no server on this workload.
  double index_s = 0;
  for (const auto& ds : set->datasets) {
    const int64_t t0 = NowNanos();
    const TermIndex rebuilt = TermIndex::Build(ds->db);
    index_s += static_cast<double>(NowNanos() - t0) / 1e9;
    if (rebuilt.num_terms() != ds->index.num_terms()) {
      report->Fail("TermIndex rebuild differs on " + ds->name);
    }
  }
  report->Set("setup.index_s", index_s, "s");
  report->Set("setup.dataset_s", std::max(0.0, setup_s - index_s), "s");
  report->Set("setup.serve_start_s", 0, "s");
}

}  // namespace matcnbench
