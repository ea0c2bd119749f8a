// The served workloads. Each runs an in-process server stack (the live
// index behind net::Server, or a 2-shard coordinator) and drives it over
// net::Client. Untraced runs give the end-to-end figures from whole
// passes of one op stream on one connection (RunPasses); traced runs
// drive the server from as many connections as hardware threads, with an
// open-loop and a closed-loop phase, for the per-layer figures.
// Operation streams come from workload::WorkloadEngine; open-loop
// schedules from workload::ArrivalOffsetsUs.
//
//   serve_zipf   read-only Zipf(0.99) keyword queries asking for SQL
//   serve_write  the same mix with half the operations INSERTs
//   shard_large  2 high-df keywords against a 2-shard coordinator over
//                IMDb at scale 20

#include <algorithm>
#include <atomic>
#include <barrier>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "core/cn_to_sql.h"
#include "core/matcngen.h"
#include "datasets/generators.h"
#include "graph/schema_graph.h"
#include "indexing/term_index.h"
#include "layers.h"
#include "liveindex/concurrent_term_index.h"
#include "liveindex/index_writer.h"
#include "net/client.h"
#include "net/server.h"
#include "service/query_service.h"
#include "shard/coordinator.h"
#include "shard/local_cluster.h"
#include "shard/shard_map.h"
#include "workload/arrival.h"
#include "workload/recorder.h"
#include "workload/workload_engine.h"
#include "workload/zipf.h"
#include "workloads.h"

namespace matcnbench {

using namespace matcn;

namespace {

constexpr uint64_t kDatasetSeed = 42;  // bench::MakeNamedDataset("imdb")
constexpr int kTMax = 10;              // the server's default T_max
constexpr uint64_t kPassStreamSeed = 7;  // draws the untraced runs' ops

struct ServeConfig {
  double scale = 0.1;     // IMDb scale factor
  uint32_t shards = 0;    // 0 = unsharded live-index server
  workload::WorkloadSpec spec;
  double open_share = 0;  // share of --seconds in the open-loop phase
  double open_qps = 0;    // its offered rate (Poisson arrivals)
  size_t prewarm_ops = 0;           // closed-loop ops before the open phase
  size_t closed_warmup_per_conn = 0;  // excluded ops opening the closed phase
  size_t closed_pool = 0;  // pre-generated closed-loop ops (reused in
                           // order if a run issues more)
  size_t check_sample = 0;  // distinct queries checked; 0 = every one
  size_t replay_queries = 0;
  size_t pass_ops = 0;  // ops in the untraced runs' pass stream
};

bool ConfigFor(const std::string& workload, bool smoke, ServeConfig* c) {
  c->spec.zipf_theta = 0.99;
  c->spec.min_keywords = 1;
  c->spec.max_keywords = 3;
  if (workload == "serve_zipf" || workload == "serve_write") {
    c->spec.read_fraction = workload == "serve_zipf" ? 1.0 : 0.5;
    c->open_share = 0.3;
    c->open_qps = workload == "serve_zipf" ? 1200 : 800;
    c->prewarm_ops = smoke ? 200 : 4000;
    c->closed_warmup_per_conn = smoke ? 10 : 100;
    c->closed_pool = 200'000;
    c->check_sample = workload == "serve_zipf" ? 0 : 40;
    c->replay_queries = 300;
    c->pass_ops = smoke ? 300 : (workload == "serve_zipf" ? 3000 : 1500);
    return true;
  }
  if (workload == "shard_large") {
    c->scale = smoke ? 2 : 20;
    c->shards = 2;
    // Uniform draws of 2-3 keywords among the 64 highest-df value terms:
    // ~43k distinct queries, so few repeat and the cache is mostly
    // bypassed while posting lists are long.
    c->spec.zipf_theta = 0;
    c->spec.scramble = false;
    c->spec.min_keywords = 2;
    c->spec.max_keywords = 2;
    c->spec.value_fraction = 1.0;
    c->spec.schema_fraction = 0;
    c->spec.max_catalog_terms = 64;
    c->spec.read_fraction = 1.0;
    c->closed_warmup_per_conn = smoke ? 2 : 20;
    c->closed_pool = 50'000;
    c->check_sample = smoke ? 8 : 40;
    c->replay_queries = smoke ? 16 : 100;
    c->pass_ops = smoke ? 60 : 600;
    return true;
  }
  return false;
}

struct SetupTimes {
  double dataset_s = 0;
  double index_s = 0;
  double serve_start_s = 0;
};

/// One served deployment. Members are declared so that destruction runs
/// server -> service -> router -> coordinator -> cluster -> writer ->
/// indexes -> database: every borrower goes before what it borrows.
struct Deployment {
  std::unique_ptr<Database> db;
  std::unique_ptr<SchemaGraph> graph;
  std::unique_ptr<TermIndex> offline_index;
  std::unique_ptr<liveindex::ConcurrentTermIndex> live;
  std::unique_ptr<liveindex::IndexWriter> writer;
  std::unique_ptr<shard::ShardMap> map;
  std::unique_ptr<shard::LocalShardCluster> cluster;
  std::unique_ptr<shard::Coordinator> coordinator;
  std::unique_ptr<shard::ShardInsertRouter> router;
  std::unique_ptr<QueryService> service;
  std::unique_ptr<net::Server> server;

  uint16_t port() const { return server->port(); }
};

double SecondsSince(int64_t start_us) {
  return static_cast<double>(NowMicros() - start_us) / 1e6;
}

/// Starts (or, after the old ones are torn down, restarts) the query
/// front of `d`: a QueryService with an empty result cache over the live
/// index or the shard coordinator, and the net::Server in front of it.
bool StartFront(Deployment* d, std::string* error) {
  d->server.reset();
  d->service.reset();
  QueryServiceOptions service_options;
  service_options.num_threads = HardwareThreads();
  liveindex::InsertSink* sink = nullptr;
  if (d->coordinator == nullptr) {
    d->service = std::make_unique<QueryService>(d->graph.get(), d->live.get(),
                                                service_options);
    d->service->ConnectWriter(d->writer.get());
    sink = d->writer.get();
  } else {
    d->service = std::make_unique<QueryService>(
        d->graph.get(), d->coordinator.get(), service_options);
    d->router->set_invalidation_hook(
        [svc = d->service.get()](const std::vector<std::string>& terms) {
          svc->InvalidateTerms(terms);
        });
    sink = d->router.get();
  }
  d->server = std::make_unique<net::Server>(d->service.get(), &d->db->schema(),
                                            sink, net::ServerOptions{});
  if (Status s = d->server->Start(); !s.ok()) {
    *error = "server start: " + s.ToString();
    return false;
  }
  return true;
}

std::unique_ptr<Deployment> StartDeployment(const ServeConfig& config,
                                            SetupTimes* times,
                                            std::string* error) {
  auto d = std::make_unique<Deployment>();
  int64_t t = NowMicros();
  d->db = std::make_unique<Database>(MakeImdb(kDatasetSeed, config.scale));
  d->graph = std::make_unique<SchemaGraph>(SchemaGraph::Build(d->db->schema()));
  times->dataset_s = SecondsSince(t);

  t = NowMicros();
  d->offline_index = std::make_unique<TermIndex>(TermIndex::Build(*d->db));
  if (config.shards == 0) {
    d->live = std::make_unique<liveindex::ConcurrentTermIndex>(
        *d->offline_index);
  }
  times->index_s = SecondsSince(t);

  t = NowMicros();
  if (config.shards == 0) {
    d->writer = std::make_unique<liveindex::IndexWriter>(d->db.get(),
                                                         d->live.get());
  } else {
    shard::ShardMapOptions map_options;
    map_options.num_shards = config.shards;
    d->map = std::make_unique<shard::ShardMap>(
        shard::ShardMap::Build(d->db->schema(), map_options));
    shard::LocalShardClusterOptions cluster_options;
    cluster_options.service.num_threads =
        std::max(1u, HardwareThreads() / config.shards);
    const double scale = config.scale;
    d->cluster = std::make_unique<shard::LocalShardCluster>(
        [scale] { return MakeImdb(kDatasetSeed, scale); }, d->map.get(),
        cluster_options);
    if (Status s = d->cluster->Start(); !s.ok()) {
      *error = "shard cluster start: " + s.ToString();
      return nullptr;
    }
    d->coordinator = std::make_unique<shard::Coordinator>(
        d->map.get(), d->cluster->Endpoints());
    if (Status s = d->coordinator->Connect(); !s.ok()) {
      *error = "coordinator connect: " + s.ToString();
      return nullptr;
    }
    d->router = std::make_unique<shard::ShardInsertRouter>(
        d->map.get(), &d->db->schema(), d->coordinator.get());
  }
  if (!StartFront(d.get(), error)) return nullptr;
  times->serve_start_s = SecondsSince(t);
  return d;
}

// ---------------------------------------------------------------------------
// Answers and their fingerprints.

std::string QueryKey(const std::vector<std::string>& keywords) {
  std::string key;
  for (const std::string& k : keywords) key += k + "\x1f";
  return key;
}

uint64_t AnswerHash(uint32_t cns_total,
                    const std::vector<std::pair<std::string, std::string>>& cns) {
  uint64_t h = Fnv1a(std::to_string(cns_total) + "#" +
                     std::to_string(cns.size()));
  for (const auto& [text, sql] : cns) {
    h = Fnv1a(text, h);
    h = Fnv1a("\x1f", h);
    h = Fnv1a(sql, h);
    h = Fnv1a("\x1e", h);
  }
  return h;
}

uint64_t WireAnswerHash(const net::Client::QueryResult& r) {
  std::vector<std::pair<std::string, std::string>> cns;
  cns.reserve(r.cns.size());
  for (const net::CnRecord& record : r.cns) {
    cns.emplace_back(record.text, record.sql);
  }
  return AnswerHash(r.cns_total, cns);
}

/// The answer the wire should carry for `keywords`, computed by the
/// library alone: the service's normalization, then MatCnGen::Generate
/// over `index` and rendering of each CN's text and SQL.
uint64_t ExpectedAnswerHash(const QueryService& service, const MatCnGen& gen,
                            const TermIndex& index,
                            const DatabaseSchema& schema,
                            const std::vector<std::string>& keywords) {
  Result<KeywordQuery> parsed = KeywordQuery::FromKeywords(keywords);
  if (!parsed.ok()) return 0;
  const KeywordQuery q = service.Normalize(*parsed);
  const GenerationResult result = gen.Generate(q, index);
  std::vector<std::pair<std::string, std::string>> cns;
  for (const CandidateNetwork& cn : result.cns) {
    cns.emplace_back(cn.ToString(schema, q), CandidateNetworkToSql(cn, schema, q));
  }
  return AnswerHash(static_cast<uint32_t>(result.cns.size()), cns);
}

// ---------------------------------------------------------------------------
// The load generator.

struct Sample {
  double ms = 0;         // from the intended start
  double send_ms = 0;    // from the send
  double server_ms = 0;  // the trailer's server_latency_us
  bool insert = false;
  bool hit = false;
  bool traced = false;
};

struct Answer {
  size_t first_op = 0;  // stream position of the first occurrence
  uint64_t hash = 0;
};

struct WorkerResult {
  std::vector<Sample> samples;
  std::unordered_map<std::string, Answer> answers;
  std::map<std::string, std::pair<double, uint64_t>> span_us;  // total, n
  std::vector<std::pair<uint32_t, uint64_t>> inserted;        // relation,row
  uint64_t attempted = 0;  // every op issued, warm-up included
  uint64_t failed = 0;
  int64_t last_end_ns = 0;  // last recorded completion
  std::string first_error;
};

struct PhasePlan {
  const std::vector<workload::Op>* ops = nullptr;
  const std::vector<int64_t>* offsets = nullptr;  // null = closed loop
  size_t warmup_per_conn = 0;  // closed loop: excluded ops first
  double closed_s = 0;  // closed loop: measured seconds (0 = none)
  bool trace = false;          // ask for a TRACE frame on every other op
  bool capture = false;        // fingerprint each distinct query's answer
};

struct PhaseResult {
  std::vector<WorkerResult> workers;
  double wall_s = 0;     // measured window, start to last completion
  workload::LoadSnapshot recorder;

  std::vector<Sample> Samples() const {
    std::vector<Sample> all;
    for (const WorkerResult& w : workers) {
      all.insert(all.end(), w.samples.begin(), w.samples.end());
    }
    return all;
  }

  /// Latencies (ms) of the queries, or of the inserts, of the phase.
  std::vector<double> Latencies(bool inserts) const {
    std::vector<double> ms;
    for (const Sample& s : Samples()) {
      if (s.insert == inserts) ms.push_back(s.ms);
    }
    return ms;
  }

  /// Completed queries, or inserts, per second of the measured window.
  double Rate(bool inserts) const {
    return static_cast<double>(Latencies(inserts).size()) / wall_s;
  }
};

std::vector<net::WireValue> WireValues(const workload::Op& op) {
  std::vector<net::WireValue> values;
  for (const workload::OpValue& v : op.values) {
    net::WireValue wv;
    wv.tag = v.is_int ? 0 : 1;
    wv.int_value = v.int_value;
    wv.text_value = v.text;
    values.push_back(std::move(wv));
  }
  return values;
}

/// Runs one phase over `connections` clients. Open loop: op j goes to
/// connection j % n at its scheduled instant, and latency counts from
/// that instant. Closed loop: each connection first issues its warm-up
/// ops (not recorded), all connections then start together, and each
/// issues its next op as soon as the previous one returned until the
/// phase ends; latency counts from the send.
bool RunPhase(uint16_t port, unsigned connections, const PhasePlan& plan,
              PhaseResult* out, std::string* error) {
  const std::vector<workload::Op>& ops = *plan.ops;
  std::vector<net::Client> clients;
  for (unsigned w = 0; w < connections; ++w) {
    Result<net::Client> client = net::Client::Connect("127.0.0.1", port);
    if (!client.ok()) {
      *error = "connect: " + client.status().ToString();
      return false;
    }
    clients.push_back(std::move(client).value());
  }
  out->workers.assign(connections, WorkerResult{});
  workload::LoadRecorder recorder;
  std::atomic<int64_t> t0{0};  // phase start, steady-clock ns
  std::atomic<bool> stop{false};
  std::barrier start(static_cast<std::ptrdiff_t>(connections),
                     [&t0, &plan]() noexcept {
                       // Open loop: a short runway so every connection is
                       // waiting when the first op is due.
                       t0.store(NowNanos() +
                                (plan.offsets != nullptr ? 5'000'000 : 0));
                     });

  auto worker = [&](unsigned w) {
    WorkerResult& res = out->workers[w];
    net::Client& client = clients[w];
    const bool open = plan.offsets != nullptr;
    net::Client::QueryParams params;
    params.include_sql = true;

    auto issue = [&](size_t j, int64_t intended, bool record, bool traced) {
      const workload::Op& op = ops[j % ops.size()];
      ++res.attempted;
      const int64_t send = NowNanos();
      Sample s;
      bool ok = false;
      std::string failure;
      if (op.kind == workload::Op::Kind::kQuery) {
        params.trace = traced;
        Result<net::Client::QueryResult> r = client.Query(op.keywords, params);
        const int64_t end = NowNanos();
        ok = r.ok() && !r->degraded;
        if (record) {
          recorder.RecordQuery(ok ? workload::OpOutcome::kOk
                                  : workload::OpOutcome::kError,
                               intended / 1000, end / 1000,
                               r.ok() && r->cache_hit,
                               r.ok() && r->degraded);
        }
        if (!r.ok()) {
          failure = r.status().ToString();
        } else if (r->degraded) {
          failure = "degraded: " + r->degraded_reason;
        } else {
          s.ms = static_cast<double>(end - intended) / 1e6;
          s.send_ms = static_cast<double>(end - send) / 1e6;
          s.server_ms = static_cast<double>(r->server_latency_us) / 1000.0;
          s.hit = r->cache_hit;
          s.traced = params.trace;
          if (s.traced && r->trace.has_value()) {
            for (const net::WireSpan& span : r->trace->spans) {
              auto& [total, n] = res.span_us[span.name];
              total += static_cast<double>(span.duration_us);
              ++n;
            }
          }
          if (plan.capture && record) {
            const std::string key = QueryKey(op.keywords);
            if (!res.answers.contains(key)) {
              res.answers.emplace(key, Answer{j, WireAnswerHash(*r)});
            }
          }
        }
      } else {
        Result<net::InsertResult> r = client.Insert(op.relation, WireValues(op));
        const int64_t end = NowNanos();
        ok = r.ok();
        if (record) recorder.RecordInsert(ok, intended / 1000, end / 1000);
        if (!ok) {
          failure = r.status().ToString();
        } else {
          s.insert = true;
          s.ms = static_cast<double>(end - intended) / 1e6;
          s.send_ms = static_cast<double>(end - send) / 1e6;
          res.inserted.emplace_back(r->relation, r->row);
        }
      }
      if (ok && record) {
        res.samples.push_back(s);
        res.last_end_ns = NowNanos();
      } else if (!ok) {
        ++res.failed;
        if (res.first_error.empty()) {
          res.first_error = "op " + std::to_string(j) + " (" +
                            workload::SerializeOp(op) + "): " + failure;
        }
      }
      if (!client.connected()) {
        Result<net::Client> again = net::Client::Connect("127.0.0.1", port);
        if (again.ok()) client = std::move(again).value();
      }
    };

    size_t k = 0;
    if (!open) {
      for (; k < plan.warmup_per_conn; ++k) {
        issue(w + k * connections, NowNanos(), /*record=*/false, false);
      }
    }
    start.arrive_and_wait();
    const int64_t begin = t0.load();
    if (open) {
      for (size_t j = w; j < ops.size(); j += connections, ++k) {
        const int64_t intended = begin + (*plan.offsets)[j] * 1000;
        const int64_t now = NowNanos();
        if (now < intended) {
          std::this_thread::sleep_for(std::chrono::nanoseconds(intended - now));
        }
        issue(j, intended, /*record=*/true, plan.trace && k % 2 == 0);
      }
    } else {
      for (; plan.closed_s > 0 && !stop.load(std::memory_order_relaxed); ++k) {
        issue(w + k * connections, NowNanos(), /*record=*/true,
              plan.trace && k % 2 == 0);
      }
    }
  };

  std::vector<std::thread> threads;
  for (unsigned w = 0; w < connections; ++w) threads.emplace_back(worker, w);
  if (plan.offsets == nullptr && plan.closed_s > 0) {
    while (t0.load() == 0) std::this_thread::sleep_for(std::chrono::milliseconds(1));
    std::this_thread::sleep_for(std::chrono::nanoseconds(
        t0.load() + static_cast<int64_t>(plan.closed_s * 1e9) - NowNanos()));
    stop.store(true);
  }
  for (std::thread& t : threads) t.join();
  int64_t last_end = t0.load();
  for (const WorkerResult& w : out->workers) {
    last_end = std::max(last_end, w.last_end_ns);
  }
  out->wall_s = std::max(1e-6, static_cast<double>(last_end - t0.load()) / 1e9);
  out->recorder = recorder.Snapshot();
  return true;
}

void Tally(const PhaseResult& phase, Report* report) {
  for (const WorkerResult& w : phase.workers) {
    report->attempted += w.attempted;
    report->failed += w.failed;
    if (!w.first_error.empty()) std::cerr << "op failed: " << w.first_error << "\n";
  }
}

/// Distinct captured queries in stream order of first occurrence, with
/// their first answer. Fails the report when two connections received
/// different answers for the same query (read-only workloads only).
std::vector<std::pair<std::string, Answer>> DistinctAnswers(
    const std::vector<const PhaseResult*>& phases, bool read_only,
    Report* report) {
  std::unordered_map<std::string, Answer> merged;
  for (const PhaseResult* phase : phases) {
    for (const WorkerResult& w : phase->workers) {
      for (const auto& [key, answer] : w.answers) {
        auto [it, inserted] = merged.emplace(key, answer);
        if (inserted) continue;
        if (read_only && it->second.hash != answer.hash) {
          report->Fail("two connections got different answers for query '" +
                       key + "'");
        }
      }
    }
  }
  std::vector<std::pair<std::string, Answer>> out(merged.begin(), merged.end());
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return a.second.first_op != b.second.first_op
               ? a.second.first_op < b.second.first_op
               : a.first < b.first;
  });
  return out;
}

std::vector<std::string> SplitKey(const std::string& key) {
  std::vector<std::string> keywords;
  size_t start = 0;
  for (size_t i = 0; i < key.size(); ++i) {
    if (key[i] == '\x1f') {
      keywords.push_back(key.substr(start, i - start));
      start = i + 1;
    }
  }
  return keywords;
}

/// Compares each (query, wire answer) with the library's own answer over
/// an independently built TermIndex, on all hardware threads.
void CheckAnswers(const std::vector<std::pair<std::string, Answer>>& answers,
                  const QueryService& service, const SchemaGraph& graph,
                  const TermIndex& index, const DatabaseSchema& schema,
                  Report* report) {
  MatCnGenOptions options;
  options.t_max = kTMax;
  const MatCnGen gen(&graph, options);
  std::mutex mu;
  std::atomic<size_t> next{0};
  auto work = [&] {
    for (size_t i = next++; i < answers.size(); i = next++) {
      const uint64_t expected = ExpectedAnswerHash(
          service, gen, index, schema, SplitKey(answers[i].first));
      if (expected != answers[i].second.hash) {
        const std::lock_guard<std::mutex> lock(mu);
        std::string q = answers[i].first;
        std::replace(q.begin(), q.end(), '\x1f', ' ');
        report->Fail("wire answer differs from MatCnGen::Generate for query '" +
                     q + "'");
      }
    }
  };
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < HardwareThreads(); ++t) threads.emplace_back(work);
  for (std::thread& t : threads) t.join();
}

std::vector<workload::Op> MakeOps(const Deployment& d,
                                  const workload::WorkloadSpec& spec,
                                  uint64_t seed, size_t count,
                                  std::string* error) {
  workload::WorkloadSpec s = spec;
  s.seed = seed;
  Result<workload::WorkloadEngine> engine =
      workload::WorkloadEngine::Build(d.db->schema(), *d.offline_index, s);
  if (!engine.ok()) {
    *error = "workload engine: " + engine.status().ToString();
    return {};
  }
  return engine->Generate(count);
}

double MeanSpanMs(const std::vector<const PhaseResult*>& phases,
                  const std::string& name) {
  double total = 0;
  uint64_t n = 0;
  for (const PhaseResult* phase : phases) {
    for (const WorkerResult& w : phase->workers) {
      auto it = w.span_us.find(name);
      if (it == w.span_us.end()) continue;
      total += it->second.first;
      n += it->second.second;
    }
  }
  return n == 0 ? 0 : total / static_cast<double>(n) / 1000.0;
}

size_t TotalTuples(const Database& db) {
  size_t n = 0;
  for (RelationId r = 0; r < db.num_relations(); ++r) {
    n += db.relation(r).num_tuples();
  }
  return n;
}

/// liveindex.insert_ms: the workload's own INSERT ops replayed through a
/// fresh IndexWriter over a fresh copy of the dataset, one span each.
double ReplayInserts(const ServeConfig& config,
                     const std::vector<workload::Op>& ops, Report* report) {
  Database db = MakeImdb(kDatasetSeed, config.scale);
  const TermIndex seed_index = TermIndex::Build(db);
  liveindex::ConcurrentTermIndex live(seed_index);
  SpanLog spans;
  {
    liveindex::IndexWriter writer(&db, &live);
    for (const workload::Op& op : ops) {
      if (op.kind != workload::Op::Kind::kInsert) continue;
      const std::optional<RelationId> relation =
          db.schema().RelationIdByName(op.relation);
      if (!relation.has_value()) continue;
      Tuple tuple;
      for (const workload::OpValue& v : op.values) {
        if (v.is_int) {
          tuple.emplace_back(v.int_value);
        } else {
          tuple.emplace_back(v.text);
        }
      }
      const uint32_t id = spans.Begin("insert");
      const auto outcome = writer.Insert(*relation, std::move(tuple));
      spans.End(id);
      if (!outcome.ok()) report->Fail("IndexWriter replay insert failed");
    }
    writer.Flush();
  }
  return spans.MeanMs("insert");
}


/// Read-only workloads: the first `sample` distinct queries' wire answers
/// (every one when 0) against MatCnGen::Generate over a TermIndex built
/// independently from the deployment's data.
void CheckReadAnswers(const std::vector<std::pair<std::string, Answer>>& distinct,
                      const Deployment& d, size_t sample_size, Report* report) {
  std::vector<std::pair<std::string, Answer>> sample = distinct;
  if (sample_size > 0 && sample.size() > sample_size) sample.resize(sample_size);
  const TermIndex independent = TermIndex::Build(*d.db);
  CheckAnswers(sample, *d.service, *d.graph, independent, d.db->schema(),
               report);
  report->Note("checked " + std::to_string(sample.size()) + " of " +
               std::to_string(distinct.size()) +
               " distinct queries against MatCnGen::Generate");
}

/// Workloads with inserts: every acknowledged insert got a distinct
/// TupleId present in the database, the tuple count grew by exactly the
/// acknowledged inserts, and the first `probes` distinct read queries,
/// asked again over the wire, equal Generate over TermIndex::Build of the
/// final database.
void CheckWrites(const Deployment& d, size_t initial_tuples,
                 std::vector<std::pair<uint32_t, uint64_t>> ids,
                 std::vector<std::pair<std::string, Answer>> distinct,
                 size_t probes, Report* report) {
  d.writer->Flush();
  const Database& db = *d.db;
  const size_t acked = ids.size();
  std::sort(ids.begin(), ids.end());
  if (std::adjacent_find(ids.begin(), ids.end()) != ids.end()) {
    report->Fail("two acknowledged inserts got the same TupleId");
  }
  for (const auto& [relation, row] : ids) {
    if (relation >= db.num_relations() ||
        row >= db.relation(relation).num_tuples()) {
      report->Fail("acknowledged insert's TupleId is not in the database");
      break;
    }
  }
  if (TotalTuples(db) != initial_tuples + acked) {
    report->Fail("final tuple count " + std::to_string(TotalTuples(db)) +
                 " != initial " + std::to_string(initial_tuples) + " + " +
                 std::to_string(acked) + " acknowledged inserts");
  }
  if (distinct.size() > probes) distinct.resize(probes);
  Result<net::Client> client = net::Client::Connect("127.0.0.1", d.port());
  std::vector<std::pair<std::string, Answer>> asked;
  for (const auto& [key, answer] : distinct) {
    net::Client::QueryParams params;
    params.include_sql = true;
    Result<net::Client::QueryResult> r =
        client.ok() ? client->Query(SplitKey(key), params)
                    : Result<net::Client::QueryResult>(client.status());
    if (!r.ok()) {
      report->Fail("probe query failed: " + r.status().ToString());
      continue;
    }
    asked.push_back({key, Answer{answer.first_op, WireAnswerHash(*r)}});
  }
  const TermIndex final_index = TermIndex::Build(db);
  CheckAnswers(asked, *d.service, *d.graph, final_index, db.schema(), report);
  report->Note("write checks: " + std::to_string(acked) +
               " acknowledged inserts, " + std::to_string(TotalTuples(db)) +
               " tuples, " + std::to_string(asked.size()) + " probes");
}

/// What the untraced passes produced: per op of the pass stream, its
/// fastest time over all passes, from the send to the answer.
struct PassFigures {
  std::vector<double> ms;          // infinity: failed in every pass
  std::vector<uint32_t> cns_total;  // per query op, from the first pass
  std::vector<char> insert, hit;    // per op; hit as in the first pass
  size_t passes = 0;
};

/// The untraced measurement. The same op stream is replayed, whole, on
/// one connection, each pass against a fresh front (a new deployment, or
/// on the sharded workload a new service and server over the running
/// cluster) so that every pass starts from an empty result cache and the
/// initial data; ops are issued one after another, so every pass does the
/// same work in the same order. Interference from other tenants of the
/// host can only add time to an op, so each op's figure is its fastest
/// over the passes. Passes run until `seconds` have gone by (at least
/// `min_passes`). With `check`, the first pass's answers are checked;
/// every later pass must return the same number of CNs for every query.
void RunPasses(const ServeConfig& config, const std::vector<workload::Op>& ops,
               double seconds, size_t min_passes, bool check,
               std::unique_ptr<Deployment>* deployment, PassFigures* out,
               Report* report) {
  const bool writes = config.spec.read_fraction < 1.0;
  const size_t n = ops.size();
  const double inf = std::numeric_limits<double>::infinity();
  out->ms.assign(n, inf);
  out->insert.assign(n, 0);
  out->hit.assign(n, 0);
  out->cns_total.assign(n, 0);
  std::string error;
  net::Client::QueryParams params;
  params.include_sql = true;
  const int64_t start = NowNanos();
  while (out->passes < min_passes ||
         static_cast<double>(NowNanos() - start) / 1e9 < seconds) {
    if (out->passes > 0) {
      if (config.shards == 0) {
        deployment->reset();
        SetupTimes ignored;
        *deployment = StartDeployment(config, &ignored, &error);
      } else if (!StartFront(deployment->get(), &error)) {
        deployment->reset();
      }
      if (*deployment == nullptr) {
        report->Fail("pass set-up failed: " + error);
        return;
      }
    }
    Deployment& d = **deployment;
    const size_t initial_tuples = TotalTuples(*d.db);
    Result<net::Client> connected = net::Client::Connect("127.0.0.1", d.port());
    if (!connected.ok()) {
      report->Fail("connect: " + connected.status().ToString());
      return;
    }
    net::Client client = std::move(connected).value();
    const bool first = out->passes == 0;
    std::unordered_map<std::string, Answer> answers;
    std::vector<std::pair<uint32_t, uint64_t>> ids;
    std::string first_error;
    for (size_t j = 0; j < n; ++j) {
      const workload::Op& op = ops[j];
      ++report->attempted;
      std::string failure;
      const int64_t t0 = NowNanos();
      if (op.kind == workload::Op::Kind::kQuery) {
        Result<net::Client::QueryResult> r = client.Query(op.keywords, params);
        const int64_t t1 = NowNanos();
        if (!r.ok()) {
          failure = r.status().ToString();
        } else if (r->degraded) {
          failure = "degraded: " + r->degraded_reason;
        } else {
          out->ms[j] = std::min(out->ms[j], static_cast<double>(t1 - t0) / 1e6);
          if (first) {
            out->hit[j] = r->cache_hit ? 1 : 0;
            out->cns_total[j] = r->cns_total;
            answers.emplace(QueryKey(op.keywords), Answer{j, WireAnswerHash(*r)});
          } else if (r->cns_total != out->cns_total[j]) {
            report->Fail("pass " + std::to_string(out->passes) +
                         " answered op " + std::to_string(j) +
                         " with another CN count than the first pass");
          }
        }
      } else {
        Result<net::InsertResult> r = client.Insert(op.relation, WireValues(op));
        const int64_t t1 = NowNanos();
        if (!r.ok()) {
          failure = r.status().ToString();
        } else {
          out->insert[j] = 1;
          out->ms[j] = std::min(out->ms[j], static_cast<double>(t1 - t0) / 1e6);
          ids.emplace_back(r->relation, r->row);
        }
      }
      if (!failure.empty()) {
        ++report->failed;
        if (first_error.empty()) {
          first_error = "op " + std::to_string(j) + " (" +
                        workload::SerializeOp(op) + "): " + failure;
        }
        if (!client.connected()) {
          Result<net::Client> again = net::Client::Connect("127.0.0.1", d.port());
          if (again.ok()) client = std::move(again).value();
        }
      }
    }
    if (!first_error.empty()) std::cerr << "op failed: " << first_error << "\n";
    if (first && check) {
      std::vector<std::pair<std::string, Answer>> distinct(answers.begin(),
                                                           answers.end());
      std::sort(distinct.begin(), distinct.end(), [](const auto& a, const auto& b) {
        return a.second.first_op < b.second.first_op;
      });
      if (!writes) {
        CheckReadAnswers(distinct, d, config.check_sample, report);
      } else {
        CheckWrites(d, initial_tuples, std::move(ids), std::move(distinct),
                    config.check_sample, report);
      }
    }
    ++out->passes;
  }
}

/// The untraced runs' op stream. Its ops are drawn once from the
/// workload's distribution with a fixed seed, as the dataset is, and
/// `seed` shuffles their order: every run then asks the same distinct
/// queries (a read-only stream misses exactly once per distinct query,
/// whatever the order), so runs with different seeds differ in order, not
/// in the sample behind each figure.
std::vector<workload::Op> PassOps(const Deployment& d, const ServeConfig& config,
                                  uint64_t seed, std::string* error) {
  std::vector<workload::Op> ops =
      MakeOps(d, config.spec, kPassStreamSeed, config.pass_ops, error);
  workload::Rng64 rng(workload::FnvHash64(seed * 8 + 5));
  for (size_t i = ops.size(); i > 1; --i) {
    std::swap(ops[i - 1], ops[rng.NextBounded(i)]);
  }
  return ops;
}

/// Reads what RunServedMeasureOnly printed into `figures`.
bool ParseMeasured(const std::string& text, size_t n, PassFigures* figures,
                   uint64_t* attempted, uint64_t* failed, bool* correct,
                   std::string* error) {
  std::istringstream in(text);
  std::string tag;
  size_t count = 0;
  int ok = 0;
  if (!(in >> tag >> count >> figures->passes >> *attempted >> *failed >> ok) ||
      tag != "MEASURED" || count != n) {
    *error = "measuring process printed no result";
    return false;
  }
  *correct = ok != 0;
  figures->ms.resize(n);
  figures->cns_total.resize(n);
  for (size_t j = 0; j < n; ++j) {
    if (!(in >> figures->ms[j] >> figures->cns_total[j])) {
      *error = "measuring process printed a short result";
      return false;
    }
    if (figures->ms[j] < 0) figures->ms[j] = std::numeric_limits<double>::infinity();
  }
  return true;
}
}  // namespace

void RunServedMeasureOnly(const Args& args) {
  ServeConfig config;
  if (!ConfigFor(args.workload, args.smoke, &config)) return;
  Report report;
  std::string error;
  SetupTimes ignored;
  std::unique_ptr<Deployment> d = StartDeployment(config, &ignored, &error);
  std::vector<workload::Op> ops;
  PassFigures figures;
  if (d != nullptr) ops = PassOps(*d, config, args.seed, &error);
  if (d == nullptr || !error.empty()) {
    report.Fail("measuring process set-up: " + error);
  } else {
    RunPasses(config, ops, args.seconds, 1, /*check=*/false, &d, &figures,
              &report);
  }
  std::cout.precision(17);
  std::cout << "MEASURED " << figures.ms.size() << " " << figures.passes << " "
            << report.attempted << " " << report.failed << " "
            << (report.correct() ? 1 : 0) << "\n";
  for (size_t j = 0; j < figures.ms.size(); ++j) {
    const double ms = std::isfinite(figures.ms[j]) ? figures.ms[j] : -1;
    std::cout << ms << " " << figures.cns_total[j] << "\n";
  }
}

bool RunServed(const Args& args, Report* report) {
  ServeConfig config;
  if (!ConfigFor(args.workload, args.smoke, &config)) return false;
  const bool writes = config.spec.read_fraction < 1.0;
  const unsigned connections = HardwareThreads();

  // Set-up, repeated; the last deployment is the one measured.
  std::unique_ptr<Deployment> d;
  std::vector<SetupTimes> times;
  std::string error;
  const double setup_s = MedianSetupSeconds([&] {
    d.reset();
    SetupTimes t;
    d = StartDeployment(config, &t, &error);
    times.push_back(t);
  });
  if (d == nullptr) {
    report->Fail("set-up failed: " + error);
    return true;
  }
  report->Set("setup_s", setup_s, "s");
  auto median_of = [&](double SetupTimes::*field) {
    std::vector<double> v;
    for (const SetupTimes& t : times) v.push_back(t.*field);
    return Median(v);
  };
  const size_t initial_tuples = TotalTuples(*d->db);
  const ServiceStatsSnapshot stats_before = d->service->Stats();

  // Op streams: one per phase, each from its own seed. The engine seeds
  // SplitMix64 with seed * golden-ratio, so seeds s and s+1 give the same
  // stream shifted by one draw; hashing spreads the phases' seeds apart.
  auto phase_seed = [&args](uint64_t phase) {
    return workload::FnvHash64(args.seed * 8 + phase);
  };
  const double seconds = args.seconds;
  if (!args.trace) {
    // End-to-end figures: whole passes of one op stream over one
    // connection (RunPasses, PassOps). This process makes one pass and
    // checks its answers; kMeasuringProcesses fresh processes, each on
    // one CPU and the CPUs in turn, then make passes for the rest of the
    // run, one after another, and every op's latency is its fastest over
    // their passes, from the send to the answer. query_qps is the rate
    // one connection sustains at those latencies.
    const int64_t start = NowNanos();
    const std::vector<workload::Op> ops = PassOps(*d, config, args.seed, &error);
    if (!error.empty()) {
      report->Fail(error);
      return true;
    }
    PassFigures figures;
    RunPasses(config, ops, 0, 1, /*check=*/true, &d, &figures, report);
    figures.ms.assign(ops.size(), std::numeric_limits<double>::infinity());
    figures.passes = 0;
    const double left =
        std::max(0.0, seconds - static_cast<double>(NowNanos() - start) / 1e9);
    for (int r = 0; r < kMeasuringProcesses; ++r) {
      PassFigures child;
      uint64_t attempted = 0, failed = 0;
      bool correct = true;
      std::string text;
      if (!RunMeasuringChild(args, r, args.seed, left / kMeasuringProcesses,
                             &text, &error) ||
          !ParseMeasured(text, ops.size(), &child, &attempted, &failed, &correct,
                         &error)) {
        report->Fail("served measurement: " + error);
        return true;
      }
      if (!correct) report->Fail("a measuring process failed a check");
      report->attempted += attempted;
      report->failed += failed;
      figures.passes += child.passes;
      for (size_t j = 0; j < ops.size(); ++j) {
        figures.ms[j] = std::min(figures.ms[j], child.ms[j]);
        if (!figures.insert[j] && child.cns_total[j] != figures.cns_total[j]) {
          report->Fail("a measuring process got another CN count for op " +
                       std::to_string(j) + " than the checked pass");
        }
      }
    }
    std::vector<double> wall, insert_wall, hit_wall, miss_wall;
    size_t hits = 0;
    for (size_t j = 0; j < ops.size(); ++j) {
      if (!std::isfinite(figures.ms[j])) continue;  // failed every pass
      if (figures.insert[j]) {
        insert_wall.push_back(figures.ms[j]);
        continue;
      }
      wall.push_back(figures.ms[j]);
      hits += figures.hit[j] ? 1 : 0;
      (figures.hit[j] ? hit_wall : miss_wall).push_back(figures.ms[j]);
    }
    double wall_total = 0;
    for (double ms : wall) wall_total += ms;
    report->Set("query_qps",
                wall_total > 0 ? static_cast<double>(wall.size()) * 1e3 / wall_total : 0,
                "queries/s");
    report->Set("query_p50_ms", Quantile(wall, 0.5), "ms");
    report->Set("query_p95_ms", Quantile(wall, 0.95), "ms");
    report->Set("peak_rss_mb", PeakRssWithChildrenMib(), "MiB");
    std::ostringstream note;
    note << args.workload << ": " << figures.passes << " passes of "
         << ops.size() << " ops (" << wall.size() << " queries, "
         << insert_wall.size() << " inserts) on one connection in "
         << kMeasuringProcesses << " measuring processes; hit share "
         << (wall.empty() ? 0 : static_cast<double>(hits) / wall.size())
         << "; fastest per op: query mean " << Mean(wall) << " ms, hit p50 "
         << Quantile(hit_wall, 0.5) << " ms, miss p50 "
         << Quantile(miss_wall, 0.5) << " ms; insert p50 "
         << Quantile(insert_wall, 0.5) << " ms, p99 "
         << Quantile(insert_wall, 0.99) << " ms";
    report->Note(note.str());
    return true;
  }
  const size_t open_count =
      static_cast<size_t>(config.open_qps * seconds * config.open_share);
  std::vector<workload::Op> prewarm_ops, open_ops, closed_ops;
  if (config.prewarm_ops > 0) {
    prewarm_ops = MakeOps(*d, config.spec, phase_seed(1), config.prewarm_ops, &error);
  }
  if (open_count > 0) {
    open_ops = MakeOps(*d, config.spec, phase_seed(2), open_count, &error);
  }
  closed_ops = MakeOps(*d, config.spec, phase_seed(3), config.closed_pool, &error);
  if (!error.empty()) {
    report->Fail(error);
    return true;
  }

  PhaseResult prewarm, open, closed;
  bool ran = true;
  if (!prewarm_ops.empty()) {
    PhasePlan plan;
    plan.ops = &prewarm_ops;
    plan.warmup_per_conn = prewarm_ops.size() / connections;
    ran = RunPhase(d->port(), connections, plan, &prewarm, &error);
  }
  if (ran && !open_ops.empty()) {
    const std::vector<int64_t> offsets = workload::ArrivalOffsetsUs(
        workload::ArrivalKind::kOpenPoisson, config.open_qps, open_ops.size(),
        phase_seed(4));
    PhasePlan plan;
    plan.ops = &open_ops;
    plan.offsets = &offsets;
    plan.trace = args.trace;
    plan.capture = true;
    ran = RunPhase(d->port(), connections, plan, &open, &error);
  }
  if (ran) {
    PhasePlan plan;
    plan.ops = &closed_ops;
    plan.warmup_per_conn = config.closed_warmup_per_conn;
    plan.closed_s = std::max(1.0, seconds * (1 - config.open_share));
    plan.trace = args.trace;
    plan.capture = true;
    ran = RunPhase(d->port(), connections, plan, &closed, &error);
  }
  if (!ran) {
    report->Fail("load phase: " + error);
    return true;
  }
  Tally(prewarm, report);
  Tally(open, report);
  Tally(closed, report);
  const ServiceStatsSnapshot stats_after = d->service->Stats();

  // Per-layer figures of the concurrent phases: the open loop's latency
  // from each op's scheduled instant, the closed loop's split by cache
  // hit and by trace flag, and the wire's share of each query.
  std::vector<double> open_ms, hit_ms, miss_ms, traced_ms, untraced_ms,
      wire_ms;
  for (const Sample& s : open.Samples()) {
    if (!s.insert) open_ms.push_back(s.ms);
  }
  uint64_t closed_queries = 0, closed_inserts = 0, hits = 0, answered = 0;
  for (const Sample& s : closed.Samples()) {
    (s.insert ? closed_inserts : closed_queries)++;
    if (s.insert) continue;
    (s.hit ? hit_ms : miss_ms).push_back(s.ms);
    (s.traced ? traced_ms : untraced_ms).push_back(s.ms);
  }
  for (const PhaseResult* phase : {&open, &closed}) {
    for (const Sample& s : phase->Samples()) {
      if (s.insert) continue;
      ++answered;
      hits += s.hit ? 1 : 0;
      wire_ms.push_back(s.send_ms - s.server_ms);
    }
  }
  std::ostringstream note;
  note << args.workload << ": open " << open_ops.size() << " ops at "
       << config.open_qps << " ops/s (" << open_ms.size()
       << " queries), closed " << closed_queries
       << " queries + " << closed_inserts << " inserts in " << closed.wall_s
       << " s; hit share " << (answered ? double(hits) / answered : 0)
       << "; recorder ok=" << open.recorder.ok + closed.recorder.ok
       << " hits=" << open.recorder.cache_hits + closed.recorder.cache_hits
       << " inserts=" << open.recorder.inserts_ok + closed.recorder.inserts_ok;
  report->Note(note.str());

  // Correctness.
  const std::vector<const PhaseResult*> measured = {&open, &closed};
  const std::vector<std::pair<std::string, Answer>> all_distinct =
      DistinctAnswers(measured, !writes, report);
  if (!writes) {
    CheckReadAnswers(all_distinct, *d, config.check_sample, report);
  } else {
    std::vector<std::pair<uint32_t, uint64_t>> ids;
    for (const PhaseResult* phase : {&prewarm, &open, &closed}) {
      for (const WorkerResult& w : phase->workers) {
        ids.insert(ids.end(), w.inserted.begin(), w.inserted.end());
      }
    }
    CheckWrites(*d, initial_tuples, std::move(ids), all_distinct,
                config.check_sample, report);
  }
  const Database& db = *d->db;


  // Per-layer metrics: service, net, liveindex and shard figures from the
  // served run (client samples, TRACE spans, QueryService::Stats), the
  // rest from replaying the workload's own distinct queries.
  report->Set("trace.overhead_ms",
              Quantile(traced_ms, 0.5) - Quantile(untraced_ms, 0.5), "ms");
  if (!open_ms.empty()) {
    report->Set("openloop.p50_ms", Quantile(open_ms, 0.5), "ms");
    report->Set("openloop.p99_ms", Quantile(open_ms, 0.99), "ms");
  }
  report->Set("service.cache_hit_rate",
              answered ? static_cast<double>(hits) / answered : 0, "ratio");
  report->Set("service.hit_p50_ms", Quantile(hit_ms, 0.5), "ms");
  report->Set("service.miss_p50_ms", Quantile(miss_ms, 0.5), "ms");
  report->Set("service.admission_wait_ms", MeanSpanMs({&open}, "admission_wait"),
              "ms");
  const uint64_t acked_inserts = open.recorder.inserts_ok + closed.recorder.inserts_ok;
  report->Set("service.invalidations_per_insert",
              acked_inserts ? static_cast<double>(stats_after.cache_invalidations -
                                                  stats_before.cache_invalidations) /
                                  static_cast<double>(acked_inserts)
                            : 0,
              "ratio");
  report->Set("net.client_minus_server_ms", Mean(wire_ms), "ms");
  report->Set("net.wire_flush_ms", MeanSpanMs(measured, "wire_flush"), "ms");
  report->Set("liveindex.compactions",
              static_cast<double>(stats_after.index_compactions -
                                  stats_before.index_compactions),
              "count");
  report->Set("liveindex.delta_bytes",
              static_cast<double>(stats_after.index_delta_bytes), "bytes");
  if (config.shards == 0) {
    report->Set("liveindex.snapshot_pin_ms", MeanSpanMs(measured, "snapshot_pin"),
                "ms");
  }
  report->Set("shard.scatter_ms", MeanSpanMs(measured, "scatter"), "ms");
  report->Set("shard.scatter_errors",
              static_cast<double>(stats_after.shard_scatter_errors), "count");
  if (writes) {
    report->Set("insert.p50_ms", Quantile(closed.Latencies(true), 0.5), "ms");
    report->Set("insert.p99_ms", Quantile(closed.Latencies(true), 0.99), "ms");
    report->Set("insert.qps", closed.Rate(true), "inserts/s");
    std::vector<workload::Op> replay_ops = open_ops;
    replay_ops.insert(replay_ops.end(), closed_ops.begin(),
                      closed_ops.begin() + std::min<size_t>(closed_ops.size(), 4000));
    report->Set("liveindex.insert_ms", ReplayInserts(config, replay_ops, report),
                "ms");
  }
  report->Set("setup.dataset_s", median_of(&SetupTimes::dataset_s), "s");
  report->Set("setup.index_s", median_of(&SetupTimes::index_s), "s");
  report->Set("setup.serve_start_s", median_of(&SetupTimes::serve_start_s), "s");

  // The replay reads the deployment's initial TermIndex: the live index
  // and database may have grown by the run's inserts.
  ReplayInput input;
  input.index = d->offline_index.get();
  input.schema_graph = d->graph.get();
  input.schema = &db.schema();
  input.t_max = kTMax;
  for (const auto& [key, answer] : all_distinct) {
    if (input.queries.size() >= config.replay_queries) break;
    Result<KeywordQuery> q = KeywordQuery::FromKeywords(SplitKey(key));
    if (q.ok()) input.queries.push_back(d->service->Normalize(*q));
  }
  LayerReplay replay;
  replay.Run(input, report);
  replay.Finish(report, /*snapshot_pin_from_replay=*/config.shards > 0);
  return true;
}

}  // namespace matcnbench
