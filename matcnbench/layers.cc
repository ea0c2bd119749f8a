#include "layers.h"

#include <set>

#include "core/candidate_network.h"
#include "core/cn_to_sql.h"
#include "core/qmgen.h"
#include "core/single_cn.h"
#include "core/tsfind.h"
#include "core/tuple_set_graph.h"
#include "indexing/postings.h"
#include "liveindex/concurrent_term_index.h"
#include "shard/merge.h"
#include "shard/shard_map.h"
#include "simd/kernels.h"

namespace matcnbench {

using namespace matcn;

namespace {

std::vector<uint64_t> Packed(const std::vector<TupleId>& ids) {
  std::vector<uint64_t> out;
  out.reserve(ids.size());
  for (const TupleId& id : ids) out.push_back(id.packed());
  return out;
}

/// Median over five repetitions of "run `pass` until at least 10 ms have
/// gone by" of units-per-second, where one pass processes `units`.
double RatePerSecond(double units, const std::function<void()>& pass) {
  if (units <= 0) return 0;
  std::vector<double> rates;
  for (int rep = 0; rep < 5; ++rep) {
    const int64_t start = NowMicros();
    int64_t elapsed = 0;
    double done = 0;
    do {
      pass();
      done += units;
      elapsed = NowMicros() - start;
    } while (elapsed < 10'000);
    rates.push_back(done / (static_cast<double>(elapsed) / 1e6));
  }
  return Median(rates);
}

}  // namespace

void LayerReplay::Run(const ReplayInput& in, Report* report) {
  const liveindex::ConcurrentTermIndex live(*in.index);
  shard::ShardMapOptions map_options;
  map_options.num_shards = 2;
  const shard::ShardMap map = shard::ShardMap::Build(*in.schema, map_options);
  PostingScratch posting_scratch;
  SingleCnScratch cn_scratch;
  SingleCnOptions cn_options;
  cn_options.t_max = in.t_max;
  std::set<std::string> seen_terms;

  for (const KeywordQuery& q : in.queries) {
    ++queries_;
    const uint32_t root = spans_.Begin("query");

    uint32_t id = spans_.Begin("tsfind", root);
    const std::vector<TupleSet> ts = TupleSetFinder::FindMem(*in.index, q);
    size_t tuples = 0;
    for (const TupleSet& t : ts) tuples += t.tuples.size();
    spans_.End(id, static_cast<double>(tuples));

    id = spans_.Begin("tsfind_live", root);
    std::vector<TupleSet> live_ts;
    {
      const uint32_t pin = spans_.Begin("snapshot_pin", id);
      const liveindex::IndexSnapshot snapshot = live.Snapshot();
      spans_.End(pin);
      std::vector<TermsetTuples> lists(q.size());
      for (size_t k = 0; k < q.size(); ++k) {
        lists[k].termset = Termset{1} << k;
        snapshot.TuplesForInto(q.keyword(k), &posting_scratch,
                               &lists[k].tuples);
      }
      live_ts = TupleSetFinder::BuildTupleSets(std::move(lists));
    }
    spans_.End(id);
    if (live_ts != ts) {
      report->Fail("live-snapshot tuple-sets differ from FindMem for '" +
                   q.ToString() + "'");
    }

    id = spans_.Begin("qmgen", root);
    const std::vector<QueryMatch> matches = GenerateMatches(q, ts);
    spans_.End(id, static_cast<double>(matches.size()));

    id = spans_.Begin("matchcn", root);
    std::vector<CandidateNetwork> cns;
    {
      const TupleSetGraph graph(in.schema_graph, &ts);
      MatchGraph match_graph(&graph);
      std::vector<int> nodes;
      for (const QueryMatch& match : matches) {
        nodes.clear();
        for (int ts_index : match) nodes.push_back(graph.NonFreeNode(ts_index));
        match_graph.Reset(nodes);
        CandidateNetwork cn;
        if (SingleCnInto(match_graph, cn_options, &cn_scratch, &cn)) {
          cns.push_back(std::move(cn));
        }
      }
    }
    spans_.End(id, static_cast<double>(cns.size()));

    id = spans_.Begin("sql", root);
    size_t sql_bytes = 0;
    for (const CandidateNetwork& cn : cns) {
      sql_bytes += CandidateNetworkToSql(cn, *in.schema, q).size();
    }
    spans_.End(id, static_cast<double>(sql_bytes));

    std::vector<std::vector<TupleSet>> streams(map.num_shards());
    for (const TupleSet& t : ts) streams[map.OwnerOf(t.relation)].push_back(t);
    id = spans_.Begin("merge", root);
    const std::vector<TupleSet> merged =
        shard::MergeShardTupleSets(std::move(streams));
    spans_.End(id);
    if (merged != ts) {
      report->Fail("shard merge changed the tuple-sets of '" + q.ToString() +
                   "'");
    }
    spans_.End(root);

    // Kernel corpus: each distinct keyword's per-attribute postings in
    // the index's varbyte-delta form, and the first two keywords' tuple
    // lists as an intersection pair.
    for (const std::string& keyword : q.keywords()) {
      if (!seen_terms.insert(keyword).second) continue;
      const std::vector<AttributeOccurrence>* occurrences =
          in.index->Lookup(keyword);
      if (occurrences == nullptr) continue;
      for (const AttributeOccurrence& occurrence : *occurrences) {
        const std::vector<TupleId> ids = occurrence.tuples.Decode();
        std::vector<uint8_t> bytes;
        uint64_t prev = 0;
        for (const TupleId& t : ids) {
          VarbyteEncode(t.packed() - prev, &bytes);
          prev = t.packed();
        }
        blocks_.emplace_back(std::move(bytes), ids.size());
      }
    }
    if (q.size() >= 2) {
      pairs_.emplace_back(Packed(in.index->TuplesFor(q.keyword(0))),
                          Packed(in.index->TuplesFor(q.keyword(1))));
    }
  }
}

void LayerReplay::Finish(Report* report, bool snapshot_pin_from_replay) {
  // Posting kernels: the dispatched level against the scalar entry
  // points, on the same blocks. Both must decode/intersect identically.
  size_t max_count = 0;
  double block_bytes = 0;
  for (const auto& [bytes, count] : blocks_) {
    max_count = std::max(max_count, count);
    block_bytes += static_cast<double>(bytes.size());
  }
  std::vector<uint64_t> out_a(max_count + 1), out_b(max_count + 1);
  for (const auto& [bytes, count] : blocks_) {
    simd::DecodeDeltaBlock(bytes.data(), bytes.size(), count, out_a.data());
    simd::DecodeDeltaBlockScalar(bytes.data(), bytes.size(), count,
                                 out_b.data());
    if (!std::equal(out_a.begin(), out_a.begin() + count, out_b.begin())) {
      report->Fail("DecodeDeltaBlock disagrees with its scalar form");
      break;
    }
  }
  uint64_t sink = 0;
  auto decode_pass = [&](auto kernel) {
    return [&, kernel] {
      for (const auto& [bytes, count] : blocks_) {
        sink += kernel(bytes.data(), bytes.size(), count, out_a.data());
      }
    };
  };
  report->Set("simd.decode_mb_s",
              RatePerSecond(block_bytes, decode_pass(simd::DecodeDeltaBlock)) /
                  1e6,
              "MB/s");
  report->Set("simd.decode_scalar_mb_s",
              RatePerSecond(block_bytes,
                            decode_pass(simd::DecodeDeltaBlockScalar)) /
                  1e6,
              "MB/s");

  double pair_elems = 0;
  size_t max_pair = 0;
  for (const auto& [a, b] : pairs_) {
    pair_elems += static_cast<double>(a.size() + b.size());
    max_pair = std::max(max_pair, std::min(a.size(), b.size()));
  }
  std::vector<uint64_t> inter(max_pair + 1), inter_b(max_pair + 1);
  for (const auto& [a, b] : pairs_) {
    const size_t na = simd::IntersectSortedU64(a.data(), a.size(), b.data(),
                                               b.size(), inter.data());
    const size_t nb = simd::IntersectSortedU64Scalar(
        a.data(), a.size(), b.data(), b.size(), inter_b.data());
    if (na != nb || !std::equal(inter.begin(), inter.begin() + na,
                                inter_b.begin())) {
      report->Fail("IntersectSortedU64 disagrees with its scalar form");
      break;
    }
  }
  auto intersect_pass = [&](auto kernel) {
    return [&, kernel] {
      for (const auto& [a, b] : pairs_) {
        sink += kernel(a.data(), a.size(), b.data(), b.size(), inter.data());
      }
    };
  };
  report->Set("simd.intersect_melems_s",
              RatePerSecond(pair_elems,
                            intersect_pass(simd::IntersectSortedU64)) /
                  1e6,
              "Melem/s");
  report->Set("simd.intersect_scalar_melems_s",
              RatePerSecond(pair_elems,
                            intersect_pass(simd::IntersectSortedU64Scalar)) /
                  1e6,
              "Melem/s");

  const double n = queries_ > 0 ? static_cast<double>(queries_) : 1;
  const double matches = spans_.TotalValue("qmgen");
  report->Set("tsfind.ms", spans_.MeanMs("tsfind"), "ms");
  report->Set("tsfind.tuples", spans_.TotalValue("tsfind") / n, "count");
  report->Set("tsfind.live_ms", spans_.MeanMs("tsfind_live"), "ms");
  report->Set("qmgen.ms", spans_.MeanMs("qmgen"), "ms");
  report->Set("qmgen.matches", matches / n, "count");
  report->Set("matchcn.ms", spans_.MeanMs("matchcn"), "ms");
  report->Set("matchcn.ms_per_match",
              matches > 0 ? spans_.TotalMs("matchcn") / matches : 0, "ms");
  report->Set("matchcn.cns", spans_.TotalValue("matchcn") / n, "count");
  report->Set("sql.ms", spans_.MeanMs("sql"), "ms");
  report->Set("sql.bytes", spans_.TotalValue("sql") / n, "bytes");
  report->Set("shard.merge_ms", spans_.MeanMs("merge"), "ms");
  if (snapshot_pin_from_replay) {
    report->Set("liveindex.snapshot_pin_ms", spans_.MeanMs("snapshot_pin"),
                "ms");
  }
  report->Note("layer replay: " + std::to_string(queries_) + " queries, " +
               std::to_string(blocks_.size()) + " posting blocks, " +
               std::to_string(pairs_.size()) +
               " intersection pairs (kernel checksum " + std::to_string(sink) +
               ")");
}

}  // namespace matcnbench
