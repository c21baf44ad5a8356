// bench_svr: the repository's end-to-end benchmark (README.md beside this
// file lists the workloads, the metrics and their bounds).
//
// One process hosts an SvrServer over a ShardedSvrEngine configured like
// svr_server (2 shards, 4 workers, 2 query threads, Chunk method, v2
// postings) and drives it over loopback through at most four blocking
// SvrClient connections, one thread each. Every connection is a closed
// loop: it sends its next request only after the previous reply, which is
// what every caller of the blocking client does.
//
// Correctness: every reply must be an OK, ranked answer; after the timed
// window 200 queries are compared over the wire with core::BruteForceOracle
// at a pinned snapshot; the engine is then stopped, reopened from its WAL
// directory, and the same 200 queries must return the same answers.
//
// traced=0 reports the end-to-end metrics. traced=1 runs the window twice,
// first with telemetry off and then on, and splits the traced run into
// per-layer metrics using only the engine's public counters, registry
// histograms and calls the benchmark times itself.
//
//   bench_svr workload=search_cached seed=2005 seconds=15 traced=0
//             dir=<scratch directory> out=<result.json>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "common/stopwatch.h"
#include "common/zipf.h"
#include "core/oracle.h"
#include "core/sharded_engine.h"
#include "durability/wal_file.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"
#include "text/tokenizer.h"
#include "workload/concurrent_driver.h"
#include "workload/crash_driver.h"

namespace {

using namespace svr;
using relational::Value;
using server::MessageType;
using server::Request;
using server::Response;

/// `key=value` command-line arguments; a bare `key` reads as `key=1`.
class Flags {
 public:
  Flags(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const size_t eq = arg.find('=');
      values_[arg.substr(0, eq)] =
          eq == std::string::npos ? "1" : arg.substr(eq + 1);
    }
  }

  std::string GetString(const std::string& key, const std::string& def) const {
    const auto it = values_.find(key);
    return it == values_.end() ? def : it->second;
  }
  double GetDouble(const std::string& key, double def) const {
    const auto it = values_.find(key);
    return it == values_.end() ? def : std::atof(it->second.c_str());
  }
  bool GetBool(const std::string& key, bool def) const {
    const auto it = values_.find(key);
    return it == values_.end() ? def : it->second != "0";
  }

 private:
  std::map<std::string, std::string> values_;
};

/// A set-up step that fails ends the run: no result is better than a
/// wrong one.
void Check(const Status& st, const char* what) {
  if (!st.ok()) {
    std::fprintf(stderr, "FATAL %s: %s\n", what, st.ToString().c_str());
    std::exit(1);
  }
}

template <typename T>
T CheckResult(Result<T> r, const char* what) {
  Check(r.status(), what);
  return std::move(r).value();
}

constexpr uint32_t kShards = 2;
constexpr uint32_t kQueryThreads = 2;
constexpr uint32_t kWorkers = 4;
/// Set-ups per timed run; setup_s is their median.
constexpr uint32_t kSetups = 3;
/// Modelled device flush: every WAL sync sleeps this long (group commit
/// shares one sync among every statement queued behind it).
constexpr uint64_t kFlushPadUs = 400;
constexpr uint32_t kValidationQueries = 200;
/// Statements of the workload's write mix logged after the final
/// checkpoint, which the restart replays.
constexpr uint32_t kRecoverySuffix = 2000;
/// Fewest round trips a latency percentile is taken over, so that p99 has
/// at least ten samples beyond it.
constexpr size_t kMinPercentileSamples = 1000;
constexpr uint32_t kCodecPayloads = 1000;
constexpr int kSamplePeriodMs = 100;
/// DML mix of the churn connections; the rest are score updates.
constexpr double kInsertPct = 10.0;
constexpr double kContentPct = 5.0;
constexpr double kDeletePct = 2.0;

// --- workloads -----------------------------------------------------------

/// One traffic mix against the svr_server configuration. Search
/// connections run back to back. On the search workloads the single DML
/// connection is a probe that pauses `dml_think_us` between statements: it
/// keeps the write path measured, because every metric is reported for
/// every workload and may not be zero, at a rate too low to shape the
/// workload.
struct Workload {
  std::string name;
  uint32_t docs;  // initial corpus
  uint32_t terms_per_doc;
  uint32_t vocab;
  uint64_t list_pool_pages;  // per shard
  bool background_merge;     // merge policy + background scheduler
  uint32_t search_conns;
  uint32_t dml_conns;
  uint32_t dml_think_us;
  bool ingest;  // DML connections only insert documents
  uint32_t k;
  bool mixed_semantics;  // half conjunctive, half disjunctive queries
  bool spill;            // setup requires pool <= 1/8 of the long lists
};

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> kWorkloads = {
      {"search_cached", 20000, 60, 20000, 4096, false, 2, 1, 2000, false, 10,
       false, false},
      {"search_spill", 20000, 60, 20000, 16, false, 1, 1, 2000, false, 100,
       true, true},
      {"churn_mixed", 20000, 60, 20000, 4096, true, 2, 2, 0, false, 10, false,
       false},
      {"ingest_docs", 5000, 60, 20000, 4096, true, 1, 3, 0, true, 10, false,
       false},
  };
  return kWorkloads;
}

/// Searches: two terms drawn from the 5% most frequent ones.
class SearchStream {
 public:
  SearchStream(const Workload& w, uint64_t seed)
      : w_(w), rng_(seed), pool_(std::max<uint32_t>(10, w.vocab / 20)) {}

  Request Next() {
    Request r;
    r.type = MessageType::kSearch;
    r.k = w_.k;
    r.conjunctive = !w_.mixed_semantics || rng_.OneIn(2);
    r.keywords = "t" + std::to_string(rng_.Uniform(pool_)) + " t" +
                 std::to_string(rng_.Uniform(pool_));
    return r;
  }

 private:
  const Workload& w_;
  Random rng_;
  uint32_t pool_;
};

/// DML of one connection. The connection owns the initial documents whose
/// id is congruent to it and every document it inserts, so no two
/// connections touch one document and the bookkeeping needs no locks.
class DmlStream {
 public:
  DmlStream(const Workload& w, uint32_t conn, uint32_t conns, uint64_t seed)
      : w_(w), rng_(seed), terms_(w.vocab, 1.0), next_id_(w.docs + conn),
        stride_(conns) {
    for (int64_t d = conn; d < w.docs; d += conns) {
      owned_.push_back(d);
      alive_.push_back(true);
    }
  }

  /// The next operation: one statement, or two for a document insert (the
  /// docs row and its scores row).
  std::vector<Request> Next() {
    const double roll = w_.ingest ? 0.0 : rng_.NextDouble() * 100.0;
    if (roll >= kInsertPct) {
      const int64_t slot = PickAlive();
      if (slot >= 0) {
        const int64_t id = owned_[slot];
        if (roll < kInsertPct + kDeletePct) {
          alive_[slot] = false;
          ++deleted_;
          Request r = Statement(MessageType::kDelete, "docs", {});
          r.pk = id;
          return {r};
        }
        if (roll < kInsertPct + kDeletePct + kContentPct) {
          return {Statement(MessageType::kUpdate, "docs",
                            {Value::Int(id), Value::String(DocText())})};
        }
        return {Statement(MessageType::kUpdate, "scores",
                          {Value::Int(id), Value::Double(Score())})};
      }
    }
    const int64_t id = next_id_;
    next_id_ += stride_;
    owned_.push_back(id);
    alive_.push_back(true);
    ++inserted_;
    return {Statement(MessageType::kInsert, "docs",
                      {Value::Int(id), Value::String(DocText())}),
            Statement(MessageType::kInsert, "scores",
                      {Value::Int(id), Value::Double(Score())})};
  }

  uint64_t inserted() const { return inserted_; }
  uint64_t deleted() const { return deleted_; }

 private:
  static Request Statement(MessageType type, const char* table,
                           relational::Row row) {
    Request r;
    r.type = type;
    r.table = table;
    r.row = std::move(row);
    return r;
  }

  int64_t PickAlive() {
    for (int tries = 0; tries < 64 && !owned_.empty(); ++tries) {
      const size_t i = rng_.Uniform(owned_.size());
      if (alive_[i]) return static_cast<int64_t>(i);
    }
    return -1;
  }

  std::string DocText() {
    std::string text;
    for (uint32_t i = 0; i < w_.terms_per_doc; ++i) {
      if (!text.empty()) text.push_back(' ');
      text += "t" + std::to_string(terms_.Sample(&rng_));
    }
    return text;
  }

  /// Skewed over (0, 100000], as the repository's churn driver draws
  /// score updates.
  double Score() {
    return 100000.0 / std::pow(1.0 + rng_.Uniform(1000), 0.75);
  }

  const Workload& w_;
  Random rng_;
  ZipfDistribution terms_;
  std::vector<int64_t> owned_;
  std::vector<bool> alive_;
  int64_t next_id_;
  int64_t stride_;
  uint64_t inserted_ = 0;
  uint64_t deleted_ = 0;
};

// --- engine and server ----------------------------------------------------

/// Modelled flush time of every WAL sync: 0 while the corpus loads and
/// while the recovery suffix is written (neither is the path this
/// benchmark times), kFlushPadUs otherwise.
std::atomic<uint64_t> g_flush_pad_us{0};

/// WAL file whose appends reach the OS page cache through write(2) and
/// whose Sync sleeps the modelled flush time instead of calling fsync, so
/// the filesystem the benchmark happens to run on does not set the cost.
class ModelledFlushWalFile : public durability::WalFile {
 public:
  explicit ModelledFlushWalFile(std::unique_ptr<durability::WalFile> base)
      : base_(std::move(base)) {}
  Status Append(const Slice& data) override { return base_->Append(data); }
  Status Sync() override {
    const uint64_t pad = g_flush_pad_us.load(std::memory_order_relaxed);
    if (pad > 0) std::this_thread::sleep_for(std::chrono::microseconds(pad));
    return Status::OK();
  }
  Status Close() override { return base_->Close(); }
  const std::string& path() const override { return base_->path(); }

 private:
  std::unique_ptr<durability::WalFile> base_;
};

Status OpenModelledWal(const std::string& path,
                       std::unique_ptr<durability::WalFile>* out) {
  std::unique_ptr<durability::WalFile> posix;
  SVR_RETURN_NOT_OK(durability::OpenPosixWalFile(path, &posix));
  *out = std::make_unique<ModelledFlushWalFile>(std::move(posix));
  return Status::OK();
}

core::ShardedSvrEngineOptions EngineOptions(const Workload& w,
                                            const std::string& dir,
                                            bool traced) {
  core::ShardedSvrEngineOptions o;
  o.num_shards = kShards;
  o.num_query_threads = kQueryThreads;
  o.split_pool_budgets = false;
  o.shard.list_pool_pages = w.list_pool_pages;
  o.shard.table_pool_pages = 4096;  // svr_server's 8192, split over 2 shards
  o.shard.merge_policy.enabled = w.background_merge;
  o.shard.merge_policy.short_ratio = 0.15;
  o.shard.merge_policy.min_short_postings = 16;
  o.shard.merge_policy.check_interval = 150;
  o.shard.background_merge = w.background_merge;
  o.shard.telemetry.enabled = traced;
  o.durability.enabled = true;
  o.durability.dir = dir;
  o.durability.sync_mode = durability::SyncMode::kGroupCommit;
  o.durability.file_factory = OpenModelledWal;
  return o;
}

struct Instance {
  std::unique_ptr<core::ShardedSvrEngine> engine;
  std::unique_ptr<server::SvrServer> server;
  double setup_s = 0;
  uint64_t long_bytes = 0;
  uint64_t pool_bytes = 0;
};

/// Engine open, corpus load, CreateTextIndex and server start: what
/// setup_s times.
Instance SetUp(const Workload& w, const std::string& dir, bool traced,
               uint64_t seed) {
  Check(workload::WipeDirectory(dir), "wipe");
  Instance in;
  Stopwatch sw;
  g_flush_pad_us = 0;
  workload::ConcurrentChurnConfig corpus;
  corpus.initial_docs = w.docs;
  corpus.vocab = w.vocab;
  corpus.terms_per_doc = w.terms_per_doc;
  corpus.seed = seed;
  in.engine = CheckResult(workload::SetupShardedChurnEngine(
                              EngineOptions(w, dir, traced), corpus),
                          "load corpus");
  Check(in.engine->Start(), "engine start");
  g_flush_pad_us = kFlushPadUs;
  server::ServerOptions so;
  so.num_workers = kWorkers;
  in.server = CheckResult(server::SvrServer::Start(in.engine.get(), so),
                          "server start");
  in.setup_s = sw.ElapsedMillis() / 1000.0;
  for (uint32_t s = 0; s < in.engine->num_shards(); ++s) {
    core::SvrEngine* shard = in.engine->shard(s);
    in.long_bytes += shard->text_index()->LongListBytes();
    in.pool_bytes += shard->list_pool()->capacity_pages() *
                     shard->list_pool()->page_size();
  }
  return in;
}

void TearDown(Instance* in, const std::string& dir) {
  if (in->server) in->server->Stop();
  if (in->engine) in->engine->Stop();
  in->server.reset();
  in->engine.reset();
  Check(workload::WipeDirectory(dir), "wipe");
  std::error_code ec;
  std::filesystem::remove(dir, ec);
}

// --- measurement state ------------------------------------------------------

const char* const kHistograms[] = {
    "server.request_us",        "sharded.query_total_us",
    "sharded.scatter_shard_us", "sharded.gather_us",
    "sharded.join_us",          "query.index_us",
    "dml.apply_us",             "dml.publish_us",
    "merge.prepare_us",         "merge.install_us",
    "wal.fsync_us",             "wal.batch_statements",
};

storage::BufferPoolStats& operator+=(storage::BufferPoolStats& a,
                                     const storage::BufferPoolStats& b) {
  a.fetches += b.fetches;
  a.hits += b.hits;
  a.misses += b.misses;
  a.evictions += b.evictions;
  a.writebacks += b.writebacks;
  return a;
}

uint64_t WalBytes(const std::string& dir) {
  uint64_t bytes = 0;
  std::error_code ec;
  for (const auto& e : std::filesystem::directory_iterator(dir, ec)) {
    const std::string name = e.path().filename().string();
    if (name.rfind("wal-", 0) == 0) bytes += e.file_size(ec);
  }
  return bytes;
}

/// Engine counters at one instant; registry histograms only when traced.
struct Mark {
  std::map<std::string, telemetry::HistogramSnapshot> hist;
  core::EngineStats stats;
  storage::BufferPoolStats list_pool, table_pool;
  uint64_t wal_bytes = 0;
};

Mark TakeMark(core::ShardedSvrEngine* engine, const std::string& dir) {
  Mark m;
  if (telemetry::MetricsRegistry* reg = engine->metrics_registry()) {
    for (const char* name : kHistograms) {
      m.hist[name] = reg->GetHistogram(name)->Snapshot();
    }
  }
  m.stats = engine->GetStats().total;
  for (uint32_t s = 0; s < engine->num_shards(); ++s) {
    m.list_pool += engine->shard(s)->list_pool()->stats();
    m.table_pool += engine->shard(s)->table_pool()->stats();
  }
  m.wal_bytes = WalBytes(dir);
  return m;
}

/// Bucket-wise end - start (the windowing admission.cc does).
telemetry::HistogramSnapshot Delta(const Mark& start, const Mark& end,
                                   const std::string& name) {
  telemetry::HistogramSnapshot d;
  const auto e = end.hist.find(name);
  if (e == end.hist.end() || e->second.buckets.empty()) return d;
  const auto s = start.hist.find(name);
  d.buckets = e->second.buckets;
  d.sum = e->second.sum;
  if (s != start.hist.end() && !s->second.buckets.empty()) {
    for (size_t i = 0; i < d.buckets.size(); ++i) {
      d.buckets[i] -= s->second.buckets[i];
    }
    d.sum -= s->second.sum;
  }
  for (uint64_t c : d.buckets) d.count += c;
  return d;
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  const size_t idx = std::min(
      v.size() - 1,
      static_cast<size_t>(std::ceil(p / 100.0 * v.size())) - (p > 0 ? 1 : 0));
  std::nth_element(v.begin(), v.begin() + idx, v.end());
  return v[idx];
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 50.0); }

double Sum(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return s;
}

// --- clients ----------------------------------------------------------------

enum Phase : int { kWarmup = 0, kTimed = 1, kStop = 2 };

/// One timed-window operation: when it was sent, in seconds since the
/// window opened, and its round trip.
struct Sample {
  double at_s;
  double us;
};

struct ConnResult {
  std::vector<Sample> search, dml;
  uint64_t results = 0;  // rows returned by timed-window searches
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

/// A reply must be OK and, for a search, hold at most k rows ranked by
/// score.
Status CheckReply(MessageType type, uint32_t k, const Result<Response>& r) {
  if (!r.ok()) return r.status();
  SVR_RETURN_NOT_OK(r.value().ToStatus());
  if (type != MessageType::kSearch) return Status::OK();
  const auto& rows = r.value().rows;
  if (rows.size() > k) return Status::Corruption("more than k rows");
  for (size_t i = 1; i < rows.size(); ++i) {
    if (rows[i].score > rows[i - 1].score) {
      return Status::Corruption("rows out of score order");
    }
  }
  return Status::OK();
}

void Fail(ConnResult* out, const Status& st) {
  if (out->failed++ == 0) {
    std::fprintf(stderr, "# operation failed: %s\n", st.ToString().c_str());
  }
}

using Clock = std::chrono::steady_clock;

/// The shared clock of one run: `opened` is written before `phase` turns
/// kTimed (release) and read only after a client sees kTimed (acquire).
struct Window {
  std::atomic<int> phase{kWarmup};
  Clock::time_point opened;
};

/// One connection's closed loop: operations from `next` until the phase
/// turns to kStop. Every generated operation is sent in full, so the DML
/// streams' bookkeeping matches what the server acknowledged. A transport
/// error ends the loop (the connection is then unusable).
template <typename NextOp>
void ClientLoop(uint16_t port, const Window& window, uint32_t think_us,
                NextOp next, ConnResult* out) {
  auto client = server::SvrClient::Connect("127.0.0.1", port);
  if (!client.ok()) {
    ++out->attempted;
    Fail(out, client.status());
    return;
  }
  while (window.phase.load(std::memory_order_acquire) != kStop) {
    for (Request& req : next()) {
      const bool timed =
          window.phase.load(std::memory_order_acquire) == kTimed;
      const MessageType type = req.type;
      const uint32_t k = req.k;
      const Clock::time_point t0 = Clock::now();
      Result<Response> r = client.value()->Call(std::move(req));
      const double us =
          std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
      ++out->attempted;
      const Status st = CheckReply(type, k, r);
      if (!st.ok()) {
        Fail(out, st);
        if (!r.ok()) return;
        continue;
      }
      if (!timed) continue;
      const Sample sample{
          std::chrono::duration<double>(t0 - window.opened).count(), us};
      if (type == MessageType::kSearch) {
        out->search.push_back(sample);
        out->results += r.value().rows.size();
      } else {
        out->dml.push_back(sample);
      }
    }
    if (think_us > 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(think_us));
    }
  }
}

Status Apply(core::ShardedSvrEngine* engine, const Request& r) {
  switch (r.type) {
    case MessageType::kInsert:
      return engine->Insert(r.table, r.row);
    case MessageType::kUpdate:
      return engine->Update(r.table, r.row);
    case MessageType::kDelete:
      return engine->Delete(r.table, r.pk);
    default:
      return Status::InvalidArgument("not a statement");
  }
}

// --- oracle ---------------------------------------------------------------

/// Exact global top-k at `view`, computed without the index: the
/// brute-force oracle on every shard, then one sort on (score desc, global
/// id asc) — the reference never passes through the engine's gather.
Result<std::vector<index::SearchResult>> OracleTopK(
    core::ShardedSvrEngine* engine, const core::ShardedReadView& view,
    const Request& q) {
  const std::vector<std::string> tokens = text::Tokenizer::Tokenize(q.keywords);
  std::vector<std::vector<index::SearchResult>> per_shard(engine->num_shards());
  for (uint32_t s = 0; s < engine->num_shards(); ++s) {
    if (!view.shards[s].indexed()) continue;
    core::SvrEngine* shard = engine->shard(s);
    index::Query query;
    query.conjunctive = q.conjunctive;
    bool impossible = false;
    for (const std::string& tok : tokens) {
      const TermId t = shard->vocabulary()->Lookup(tok);
      if (t == text::Vocabulary::kUnknownTerm) {
        impossible = q.conjunctive;
        if (impossible) break;
        continue;
      }
      if (std::find(query.terms.begin(), query.terms.end(), t) ==
          query.terms.end()) {
        query.terms.push_back(t);
      }
    }
    if (impossible || query.terms.empty()) continue;
    const index::IndexSnapshot& snap = view.shards[s].state->index;
    SVR_RETURN_NOT_OK(core::BruteForceOracle::TopKAt(
        snap.corpus,
        relational::ScoreTable::View(shard->score_table(), snap.score), query,
        q.k, /*with_term_scores=*/false, &per_shard[s]));
  }
  std::vector<index::SearchResult> all;
  for (const auto& list : engine->TranslateToGlobal(per_shard)) {
    all.insert(all.end(), list.begin(), list.end());
  }
  std::sort(all.begin(), all.end(),
            [](const index::SearchResult& a, const index::SearchResult& b) {
              return a.score != b.score ? a.score > b.score : a.doc < b.doc;
            });
  if (all.size() > q.k) all.resize(q.k);
  return all;
}

std::vector<index::SearchResult> AsResults(
    const std::vector<core::ScoredRow>& rows) {
  std::vector<index::SearchResult> out;
  for (const auto& r : rows) {
    out.push_back({static_cast<DocId>(r.pk), r.score});
  }
  return out;
}

// --- one run ----------------------------------------------------------------

struct RunResult {
  std::vector<double> setup_s;
  double window_s = 0;
  std::vector<Sample> search, dml;
  uint64_t results = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  double recover_s = 0;
  uint64_t records_replayed = 0;
  uint64_t long_bytes = 0, short_bytes = 0, live_docs = 0;
  double checkpoint_us = 0;
  // Traced runs only.
  Mark start, end;
  uint64_t merge_queue_max = 0, reclaim_pending_max = 0;
  double codec_us = 0;
};

/// Times encode + frame + parse + decode of a request and its response on
/// `kCodecPayloads` payloads of the workload's own mix; the search
/// responses carry the rows the engine returns for them.
double TimeCodec(const Workload& w, core::ShardedSvrEngine* engine,
                 uint64_t seed, double search_share) {
  SearchStream searches(w, seed ^ 0xC0DEC5ull);
  DmlStream dml(w, 0, 1, seed ^ 0xC0DECDull);
  Random pick(seed ^ 0xC0DEull);
  std::vector<Request> reqs;
  std::vector<Response> resps;
  while (reqs.size() < kCodecPayloads) {
    std::vector<Request> batch;
    if (pick.NextDouble() < search_share) {
      batch.push_back(searches.Next());
    } else {
      batch = dml.Next();
    }
    for (Request& req : batch) {
      Response resp;
      resp.request_type = req.type;
      if (req.type == MessageType::kSearch) {
        auto rows = engine->Search(req.keywords, req.k, req.conjunctive);
        if (rows.ok()) resp.rows = std::move(rows).value();
      }
      reqs.push_back(std::move(req));
      resps.push_back(std::move(resp));
    }
  }
  Stopwatch sw;
  size_t sink = 0;
  for (size_t i = 0; i < reqs.size(); ++i) {
    std::string payload, frame;
    size_t frame_bytes = 0;
    Slice body;
    Status err;
    server::EncodeRequest(reqs[i], &payload);
    server::AppendMessage(&frame, payload);
    server::ParseFrame(Slice(frame), &frame_bytes, &body, &err);
    Request req;
    sink += server::DecodeRequest(body, &req).ok() ? req.keywords.size() : 0;
    payload.clear();
    frame.clear();
    server::EncodeResponse(resps[i], &payload);
    server::AppendMessage(&frame, payload);
    server::ParseFrame(Slice(frame), &frame_bytes, &body, &err);
    Response resp;
    sink += server::DecodeResponse(body, &resp).ok() ? resp.rows.size() : 0;
  }
  const double us = sw.ElapsedMicros() / static_cast<double>(reqs.size());
  if (sink == 0) std::fprintf(stderr, "# codec sample decoded nothing\n");
  return us;
}

RunResult Run(const Workload& w, bool traced, uint32_t setups,
              double seconds, double warmup_s, uint64_t seed,
              const std::string& dir) {
  RunResult res;
  Instance in;
  for (uint32_t i = 0; i < setups; ++i) {
    if (i > 0) TearDown(&in, dir);
    in = SetUp(w, dir, traced, seed);
    res.setup_s.push_back(in.setup_s);
  }
  std::printf("# %s: list pool %llu bytes, long lists %llu bytes\n",
              w.name.c_str(), static_cast<unsigned long long>(in.pool_bytes),
              static_cast<unsigned long long>(in.long_bytes));
  if (w.spill && in.pool_bytes * 8 > in.long_bytes) {
    Check(Status::InvalidArgument(
              "the list pool holds more than 1/8 of the long lists"),
          "setup");
  }
  core::ShardedSvrEngine* engine = in.engine.get();
  const uint16_t port = in.server->port();

  // --- timed window -----------------------------------------------------
  Window window;
  std::vector<ConnResult> per_conn(w.search_conns + w.dml_conns);
  std::vector<DmlStream> streams;
  streams.reserve(w.dml_conns);
  for (uint32_t c = 0; c < w.dml_conns; ++c) {
    streams.emplace_back(w, c, w.dml_conns, seed ^ (0xD00D5ull * (c + 1)));
  }
  std::vector<std::thread> threads;
  for (uint32_t c = 0; c < w.search_conns; ++c) {
    threads.emplace_back([&, c] {
      SearchStream s(w, seed ^ (0x5EA7C4ull * (c + 1)));
      ClientLoop(port, window, 0,
                 [&s] { return std::vector<Request>{s.Next()}; },
                 &per_conn[c]);
    });
  }
  for (uint32_t c = 0; c < w.dml_conns; ++c) {
    threads.emplace_back([&, c] {
      DmlStream* s = &streams[c];
      ClientLoop(port, window, w.dml_think_us, [s] { return s->Next(); },
                 &per_conn[w.search_conns + c]);
    });
  }
  std::this_thread::sleep_for(std::chrono::duration<double>(warmup_s));
  res.start = TakeMark(engine, dir);
  window.opened = Clock::now();
  window.phase.store(kTimed, std::memory_order_release);
  const Clock::time_point deadline =
      window.opened + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(seconds));
  while (Clock::now() < deadline) {
    if (traced) {
      const core::EngineStats s = engine->GetStats().total;
      res.merge_queue_max = std::max(res.merge_queue_max, s.merge_queue_depth);
      res.reclaim_pending_max =
          std::max(res.reclaim_pending_max, s.reclaim_pending);
    }
    std::this_thread::sleep_until(std::min(
        deadline, Clock::now() + std::chrono::milliseconds(kSamplePeriodMs)));
  }
  window.phase.store(kStop, std::memory_order_release);
  res.window_s =
      std::chrono::duration<double>(Clock::now() - window.opened).count();
  res.end = TakeMark(engine, dir);
  for (auto& t : threads) t.join();
  for (const ConnResult& c : per_conn) {
    res.search.insert(res.search.end(), c.search.begin(), c.search.end());
    res.dml.insert(res.dml.end(), c.dml.begin(), c.dml.end());
    res.results += c.results;
    res.attempted += c.attempted;
    res.failed += c.failed;
  }

  // --- checkpoint what the workload left, then a fixed log suffix -------
  for (int i = 0; i < 50 && engine->GetStats().total.merge_queue_depth > 0;
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  Stopwatch ck;
  Check(engine->CheckpointNow(), "checkpoint");
  res.checkpoint_us = ck.ElapsedMicros();
  g_flush_pad_us = 0;
  for (uint32_t i = 0; i < kRecoverySuffix && !streams.empty();) {
    for (const Request& stmt : streams[i % streams.size()].Next()) {
      ++res.attempted;
      ++i;
      const Status st = Apply(engine, stmt);
      if (!st.ok()) {
        ++res.failed;
        std::fprintf(stderr, "# statement failed: %s\n", st.ToString().c_str());
      }
    }
  }
  res.live_docs = w.docs;
  for (const DmlStream& s : streams) {
    res.live_docs += s.inserted() - s.deleted();
  }

  // --- answers over the wire against the oracle --------------------------
  std::vector<Request> checks;
  std::vector<std::vector<index::SearchResult>> answers;
  {
    auto client = CheckResult(server::SvrClient::Connect("127.0.0.1", port),
                              "validation connect");
    SearchStream s(w, seed ^ 0x7A11DA7Eull);
    for (uint32_t i = 0; i < kValidationQueries; ++i) {
      checks.push_back(s.Next());
      const Request& q = checks.back();
      ++res.attempted;
      const core::ShardedReadView view = engine->PinReadViewAll();
      auto want = OracleTopK(engine, view, q);
      auto got = client->Call(q);
      const Status st = CheckReply(q.type, q.k, got);
      answers.push_back(st.ok() ? AsResults(got.value().rows)
                                : std::vector<index::SearchResult>{});
      if (!st.ok() || !want.ok() || answers.back() != want.value()) {
        ++res.failed;
        std::fprintf(stderr, "# oracle mismatch: '%s' k=%u %s\n",
                     q.keywords.c_str(), q.k, q.conjunctive ? "and" : "or");
      }
    }
  }
  if (traced) {
    const double searches = static_cast<double>(res.search.size());
    const double ops = searches + static_cast<double>(res.dml.size());
    res.codec_us = TimeCodec(w, engine, seed, searches / std::max(1.0, ops));
  }

  // --- restart: reopen from the checkpoint + WAL suffix ------------------
  in.server->Stop();
  engine->Stop();
  for (uint32_t s = 0; s < engine->num_shards(); ++s) {
    res.long_bytes += engine->shard(s)->text_index()->LongListBytes();
    res.short_bytes += engine->shard(s)->text_index()->ShortListBytes();
  }
  in.server.reset();
  in.engine.reset();
  Stopwatch recover;
  in.engine = CheckResult(
      core::ShardedSvrEngine::Open(EngineOptions(w, dir, traced)),
      "reopen from the WAL");
  res.recover_s = recover.ElapsedMillis() / 1000.0;
  res.records_replayed = in.engine->recovery_stats().wal_records_replayed;
  for (size_t i = 0; i < checks.size(); ++i) {
    ++res.attempted;
    auto rows = in.engine->Search(checks[i].keywords, checks[i].k,
                                  checks[i].conjunctive);
    if (!rows.ok() || AsResults(rows.value()) != answers[i]) {
      ++res.failed;
      std::fprintf(stderr, "# answer changed across restart: '%s'\n",
                   checks[i].keywords.c_str());
    }
  }
  TearDown(&in, dir);
  return res;
}

// --- metrics ----------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
  uint64_t n;  // samples behind the value
};

std::vector<double> Latencies(const std::vector<Sample>& samples) {
  std::vector<double> us;
  us.reserve(samples.size());
  for (const Sample& s : samples) us.push_back(s.us);
  return us;
}

/// The round trips of each of `n` equal slices of the window. End-to-end
/// numbers are medians over slices, so a few seconds of interference from
/// outside the process move a few slices rather than the result.
std::vector<std::vector<double>> Slices(const std::vector<Sample>& samples,
                                        double window_s, size_t n) {
  n = std::max<size_t>(1, n);
  const double len = window_s / static_cast<double>(n);
  std::vector<std::vector<double>> slices(n);
  for (const Sample& s : samples) {
    slices[std::min(n - 1, static_cast<size_t>(std::max(0.0, s.at_s) / len))]
        .push_back(s.us);
  }
  return slices;
}

/// Median over one-second slices of the completion rate.
double SliceRate(const std::vector<Sample>& samples, double window_s) {
  const auto slices = Slices(samples, window_s, std::lround(window_s));
  std::vector<double> rates;
  for (const auto& slice : slices) {
    rates.push_back(slice.size() * slices.size() / window_s);
  }
  return Median(rates);
}

/// Median over slices of the p-th percentile; slices are one second long
/// or long enough to hold kMinPercentileSamples round trips.
double SlicePercentile(const std::vector<Sample>& samples, double window_s,
                       double p) {
  const size_t n = std::min<size_t>(std::lround(window_s),
                                    samples.size() / kMinPercentileSamples);
  std::vector<double> values;
  for (auto& slice : Slices(samples, window_s, n)) {
    if (!slice.empty()) values.push_back(Percentile(std::move(slice), p));
  }
  return Median(values);
}

std::vector<Metric> EndToEnd(const RunResult& r) {
  const double window = r.window_s;
  const uint64_t ns = r.search.size(), nd = r.dml.size();
  return {
      {"setup_s", Median(r.setup_s), "s", r.setup_s.size()},
      {"search_qps", SliceRate(r.search, window), "1/s", ns},
      {"search_p50_us", SlicePercentile(r.search, window, 50), "us", ns},
      {"search_p99_us", SlicePercentile(r.search, window, 99), "us", ns},
      {"dml_ops_s", SliceRate(r.dml, window), "1/s", nd},
      {"dml_p50_us", SlicePercentile(r.dml, window, 50), "us", nd},
      {"dml_p99_us", SlicePercentile(r.dml, window, 99), "us", nd},
      {"index_bytes_per_doc",
       static_cast<double>(r.long_bytes + r.short_bytes) /
           std::max<uint64_t>(1, r.live_docs),
       "bytes", r.live_docs},
      {"failed_ratio",
       static_cast<double>(r.failed) / std::max<uint64_t>(1, r.attempted),
       "ratio", r.attempted},
  };
}

/// Per-layer split of a traced run. `base` is the untraced run of the same
/// workload, for the tracing overhead. Appends a nesting violation to
/// `problems`.
std::vector<Metric> Layers(const RunResult& r, const RunResult& base,
                           std::vector<std::string>* problems) {
  auto win = [&](const char* name) { return Delta(r.start, r.end, name); };
  auto mean = [](const telemetry::HistogramSnapshot& h) { return h.Mean(); };
  auto p99 = [](const telemetry::HistogramSnapshot& h) {
    return static_cast<double>(h.ValueAtPercentile(99));
  };
  const auto service = win("server.request_us");
  const auto search = win("sharded.query_total_us");
  const auto leg = win("sharded.scatter_shard_us");
  const auto gather = win("sharded.gather_us");
  const auto join = win("sharded.join_us");
  const auto topk = win("query.index_us");
  const auto apply = win("dml.apply_us");
  const auto publish = win("dml.publish_us");
  const auto prepare = win("merge.prepare_us");
  const auto install = win("merge.install_us");
  const auto fsync = win("wal.fsync_us");
  const auto batch = win("wal.batch_statements");

  const core::EngineStats& s0 = r.start.stats;
  const core::EngineStats& s1 = r.end.stats;
  const double searches = std::max<double>(1, r.search.size());
  const double statements = std::max<double>(1, r.dml.size());
  std::vector<double> all_us = Latencies(r.search);
  for (const Sample& x : r.dml) all_us.push_back(x.us);
  const double ops = std::max<double>(1, all_us.size());
  const double rtt = Sum(all_us) / ops;
  const double core_sum = static_cast<double>(search.sum + apply.sum +
                                              publish.sum);
  const double window_us = r.window_s * 1e6;
  const auto d = [&](uint64_t index::IndexStats::*f) {
    return static_cast<double>(s1.index.*f - s0.index.*f);
  };
  const storage::BufferPoolStats& l0 = r.start.list_pool;
  const storage::BufferPoolStats& l1 = r.end.list_pool;
  const storage::BufferPoolStats& t0 = r.start.table_pool;
  const storage::BufferPoolStats& t1 = r.end.table_pool;
  const auto rate = [](uint64_t hits, uint64_t fetches) {
    return fetches == 0 ? 1.0 : static_cast<double>(hits) / fetches;
  };
  const double ops_s = all_us.size() / r.window_s;
  const double base_ops_s =
      (base.search.size() + base.dml.size()) / base.window_s;

  // Spans nest: top-k <= leg <= search <= service <= rtt, and the search
  // and DML stages together fit inside the service time.
  if (mean(topk) > mean(leg)) problems->push_back("index top-k > shard leg");
  if (mean(leg) > mean(search)) problems->push_back("shard leg > search");
  if (core_sum > static_cast<double>(service.sum)) {
    problems->push_back("search + DML stages > server service time");
  }
  if (mean(service) > rtt) problems->push_back("service > round trip");

  const uint64_t n_srv = service.count, n_q = search.count;
  return {
      {"server.rtt_us", rtt, "us", all_us.size()},
      {"server.search_p99_us", SlicePercentile(r.search, r.window_s, 99), "us",
       r.search.size()},
      {"server.dml_p99_us", SlicePercentile(r.dml, r.window_s, 99), "us",
       r.dml.size()},
      {"server.service_us", mean(service), "us", n_srv},
      {"server.wire_self_us", rtt - mean(service), "us", n_srv},
      {"server.exec_self_us",
       mean(service) - core_sum / std::max<uint64_t>(1, n_srv), "us", n_srv},
      {"server.codec_us", r.codec_us, "us", kCodecPayloads},
      {"core.search_us", mean(search), "us", n_q},
      {"core.search_p99_us", p99(search), "us", n_q},
      {"core.shard_leg_us", mean(leg), "us", leg.count},
      {"core.shard_leg_p99_us", p99(leg), "us", leg.count},
      {"core.gather_join_us", mean(gather) + mean(join), "us", n_q},
      {"core.search_self_us",
       mean(search) - mean(leg) - mean(gather) - mean(join), "us", n_q},
      {"core.dml_apply_us", mean(apply), "us", apply.count},
      {"core.dml_publish_us", mean(publish), "us", publish.count},
      {"index.topk_us", mean(topk), "us", topk.count},
      {"index.topk_p99_us", p99(topk), "us", topk.count},
      {"index.leg_self_us", mean(leg) - mean(topk), "us", topk.count},
      {"index.postings_per_query",
       d(&index::IndexStats::postings_scanned) / searches, "count", n_q},
      {"index.blocks_per_query",
       d(&index::IndexStats::blocks_decoded) / searches, "count", n_q},
      {"index.seeks_per_query", d(&index::IndexStats::cursor_seeks) / searches,
       "count", n_q},
      {"index.candidates_per_query",
       d(&index::IndexStats::candidates_considered) / searches, "count", n_q},
      {"index.useful_ratio",
       r.results / std::max(1.0, d(&index::IndexStats::candidates_considered)),
       "ratio", n_q},
      {"index.short_bytes", static_cast<double>(r.short_bytes), "bytes", 1},
      {"index.long_bytes", static_cast<double>(r.long_bytes), "bytes", 1},
      {"index.term_merges", d(&index::IndexStats::term_merges), "count", 1},
      {"index.fine_installs", d(&index::IndexStats::merge_installs_fine),
       "count", 1},
      {"index.install_aborts", d(&index::IndexStats::merge_install_aborts),
       "count", 1},
      {"storage.list_hit_rate",
       rate(l1.hits - l0.hits, l1.fetches - l0.fetches), "ratio",
       l1.fetches - l0.fetches},
      {"storage.list_misses_per_query", (l1.misses - l0.misses) / searches,
       "count", n_q},
      {"storage.list_evictions",
       static_cast<double>(l1.evictions - l0.evictions), "count", 1},
      {"storage.table_hit_rate",
       rate(t1.hits - t0.hits, t1.fetches - t0.fetches), "ratio",
       t1.fetches - t0.fetches},
      {"relational.score_updates_per_dml",
       d(&index::IndexStats::score_updates) / statements, "count",
       r.dml.size()},
      {"concurrency.merge_jobs",
       static_cast<double>(s1.merge_jobs_completed - s0.merge_jobs_completed),
       "count", 1},
      {"concurrency.merge_prepare_share", prepare.sum / window_us, "ratio",
       prepare.count},
      {"concurrency.merge_install_share", install.sum / window_us, "ratio",
       install.count},
      {"concurrency.merge_queue_max", static_cast<double>(r.merge_queue_max),
       "count", 1},
      {"concurrency.reclaim_pending_max",
       static_cast<double>(r.reclaim_pending_max), "count", 1},
      {"concurrency.merge_jobs_aborted",
       static_cast<double>(s1.merge_jobs_aborted - s0.merge_jobs_aborted),
       "count", 1},
      {"durability.fsync_us", mean(fsync), "us", fsync.count},
      {"durability.batch_size", mean(batch), "count", batch.count},
      {"durability.fsyncs_per_dml", fsync.count / statements, "count",
       fsync.count},
      {"durability.wal_bytes_per_dml",
       (r.end.wal_bytes - r.start.wal_bytes) / statements, "bytes",
       r.dml.size()},
      {"durability.checkpoint_us", r.checkpoint_us, "us", 1},
      {"durability.recover_s", r.recover_s, "s", 1},
      {"durability.records_replayed", static_cast<double>(r.records_replayed),
       "count", 1},
      {"trace.overhead_ratio", ops_s / std::max(1e-9, base_ops_s), "ratio", 2},
  };
}

// --- output -----------------------------------------------------------------

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out + "\"";
}

/// Where and how the numbers were produced: CPUs, optimisation flags,
/// compiler, UTC date and the commit the caller names.
std::string ContextJson(const std::string& commit) {
  char date[32];
  const std::time_t now = std::time(nullptr);
  std::strftime(date, sizeof date, "%Y-%m-%dT%H:%M:%SZ", std::gmtime(&now));
#ifdef __OPTIMIZE__
  const bool optimized = true;
#else
  const bool optimized = false;
#endif
#ifdef NDEBUG
  const bool ndebug = true;
#else
  const bool ndebug = false;
#endif
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "{\"cpus\": %u, \"optimized\": %s, \"ndebug\": %s, "
                "\"compiler\": %s, \"date\": \"%s\", \"commit\": %s}",
                std::thread::hardware_concurrency(),
                optimized ? "true" : "false", ndebug ? "true" : "false",
                JsonString(__VERSION__).c_str(), date,
                JsonString(commit).c_str());
  return buf;
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "%s\n    %s: {\"value\": %.17g, \"unit\": %s, \"n\": %llu}",
                  i == 0 ? "" : ",", JsonString(metrics[i].name).c_str(),
                  metrics[i].value, JsonString(metrics[i].unit).c_str(),
                  static_cast<unsigned long long>(metrics[i].n));
    out += buf;
  }
  return out + "\n  }";
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  const std::string name = flags.GetString("workload", "");
  const auto& all = Workloads();
  const auto it =
      std::find_if(all.begin(), all.end(),
                   [&](const Workload& w) { return w.name == name; });
  if (it == all.end()) {
    std::fprintf(stderr,
                 "usage: bench_svr workload=search_cached|search_spill|"
                 "churn_mixed|ingest_docs [seed=2005] [seconds=15] "
                 "[traced=0] [smoke=0] [dir=bench_svr_dir] "
                 "[out=bench_svr.json] [commit=unknown]\n");
    return 2;
  }
  Workload w = *it;
  const bool smoke = flags.GetBool("smoke", false);
  if (smoke) {
    w.docs /= 10;
    w.list_pool_pages = std::max<uint64_t>(2, w.list_pool_pages / 10);
  }
  const uint64_t seed = std::strtoull(
      flags.GetString("seed", "2005").c_str(), nullptr, 10);
  const double seconds = flags.GetDouble("seconds", 15);
  const bool traced = flags.GetBool("traced", false);
  const double warmup_s = smoke ? 0.2 : 1.0;
  const std::string dir = flags.GetString("dir", "bench_svr_dir");
  const std::string out_path = flags.GetString("out", "bench_svr.json");

  std::vector<Metric> metrics;
  std::vector<std::string> problems;
  uint64_t attempted = 0, failed = 0;
  if (!traced) {
    const RunResult r = Run(w, false, kSetups, seconds, warmup_s, seed, dir);
    metrics = EndToEnd(r);
    attempted = r.attempted;
    failed = r.failed;
  } else {
    const RunResult base = Run(w, false, 1, seconds / 2, warmup_s, seed, dir);
    const RunResult r = Run(w, true, 1, seconds / 2, warmup_s, seed, dir);
    metrics = Layers(r, base, &problems);
    attempted = base.attempted + r.attempted;
    failed = base.failed + r.failed;
  }
  for (const std::string& p : problems) {
    std::fprintf(stderr, "# span nesting violated: %s\n", p.c_str());
  }
  for (const Metric& m : metrics) {
    std::printf("%s %s %.6g %s n=%llu\n", w.name.c_str(), m.name.c_str(),
                m.value, m.unit.c_str(),
                static_cast<unsigned long long>(m.n));
  }
  const bool correct = failed == 0 && problems.empty();
  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "FATAL cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f,
               "{\n  \"context\": %s,\n  \"workload\": %s,\n  \"seed\": %llu,"
               "\n  \"seconds\": %g,\n  \"smoke\": %s,\n  \"traced\": %s,"
               "\n  \"correct\": %s,\n  \"attempted\": %llu,"
               "\n  \"failed\": %llu,\n  \"%s\": %s\n}\n",
               ContextJson(flags.GetString("commit", "unknown")).c_str(),
               JsonString(w.name).c_str(),
               static_cast<unsigned long long>(seed), seconds,
               smoke ? "true" : "false", traced ? "true" : "false",
               correct ? "true" : "false",
               static_cast<unsigned long long>(attempted),
               static_cast<unsigned long long>(failed),
               traced ? "layers" : "metrics", MetricsJson(metrics).c_str());
  std::fclose(f);
  return correct ? 0 : 1;
}
