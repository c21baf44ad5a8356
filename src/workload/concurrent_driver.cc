#include "workload/concurrent_driver.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <mutex>
#include <string>
#include <thread>

#include "common/random.h"
#include "common/stopwatch.h"
#include "common/zipf.h"
#include "core/oracle.h"
#include "index/text_index.h"
#include "workload/score_generator.h"

namespace svr::workload {

namespace {

std::string MakeToken(size_t rank) { return "t" + std::to_string(rank); }

std::string MakeDocText(const ZipfDistribution& terms, uint32_t n,
                        Random* rng) {
  std::string text;
  for (uint32_t i = 0; i < n; ++i) {
    if (!text.empty()) text.push_back(' ');
    text += MakeToken(terms.Sample(rng));
  }
  return text;
}

double DrawScore(const ConcurrentChurnConfig& config, Random* rng) {
  return config.max_score /
         std::pow(1.0 + rng->Uniform(1000), config.score_zipf);
}

/// Collects one thread's error without clobbering an earlier one.
class ErrorSink {
 public:
  void Offer(const Status& st) {
    if (st.ok()) return;
    std::lock_guard<std::mutex> lock(mu_);
    if (first_.ok()) first_ = st;
  }
  Status first() const {
    std::lock_guard<std::mutex> lock(mu_);
    return first_;
  }

 private:
  mutable std::mutex mu_;
  Status first_;
};

}  // namespace

LatencySummary SummarizeLatencies(const telemetry::HistogramSnapshot& us) {
  LatencySummary s;
  s.count = us.count;
  if (us.empty()) return s;
  s.mean_ms = us.Mean() / 1000.0;
  s.p50_ms = static_cast<double>(us.ValueAtPercentile(50.0)) / 1000.0;
  s.p95_ms = static_cast<double>(us.ValueAtPercentile(95.0)) / 1000.0;
  s.p99_ms = static_cast<double>(us.ValueAtPercentile(99.0)) / 1000.0;
  s.max_ms = static_cast<double>(us.max) / 1000.0;
  return s;
}

namespace {

/// The churn schema + synthetic load + index declaration, shared by the
/// shard-level and sharded setups (both expose the identical
/// CreateTable/Insert/CreateTextIndex surface).
template <typename Engine>
Status SetupChurnTables(Engine* engine,
                        const ConcurrentChurnConfig& config) {
  using relational::Schema;
  using relational::Value;
  using relational::ValueType;

  SVR_RETURN_NOT_OK(engine->CreateTable(
      "docs",
      Schema({{"id", ValueType::kInt64}, {"text", ValueType::kString}}, 0)));
  SVR_RETURN_NOT_OK(engine->CreateTable(
      "scores",
      Schema({{"id", ValueType::kInt64}, {"val", ValueType::kDouble}}, 0)));

  Random rng(config.seed);
  ZipfDistribution terms(config.vocab, config.term_zipf);
  const std::vector<double> scores = GenerateScores(
      config.initial_docs, config.max_score, config.score_zipf, config.seed);
  for (uint32_t d = 0; d < config.initial_docs; ++d) {
    SVR_RETURN_NOT_OK(engine->Insert(
        "docs", {Value::Int(d),
                 Value::String(
                     MakeDocText(terms, config.terms_per_doc, &rng))}));
    SVR_RETURN_NOT_OK(engine->Insert(
        "scores", {Value::Int(d), Value::Double(scores[d])}));
  }

  return engine->CreateTextIndex(
      "docs", "text", {{"S1", "scores", "id", "val",
                        relational::AggregateKind::kValue}},
      relational::AggFunction::WeightedSum({1.0}));
}

}  // namespace

Result<std::unique_ptr<core::SvrEngine>> SetupChurnEngine(
    const core::SvrEngineOptions& options,
    const ConcurrentChurnConfig& config) {
  SVR_ASSIGN_OR_RETURN(auto engine, core::SvrEngine::Open(options));
  SVR_RETURN_NOT_OK(SetupChurnTables(engine.get(), config));
  return engine;
}

// --- churn driver ------------------------------------------------------

Result<std::unique_ptr<core::ShardedSvrEngine>> SetupShardedChurnEngine(
    const core::ShardedSvrEngineOptions& options,
    const ConcurrentChurnConfig& config) {
  SVR_ASSIGN_OR_RETURN(auto engine,
                       core::ShardedSvrEngine::Open(options));
  SVR_RETURN_NOT_OK(SetupChurnTables(engine.get(), config));
  return engine;
}

Status ValidateShardedQuery(core::ShardedSvrEngine* engine,
                            const core::ShardedReadView& view,
                            const std::vector<std::string>& tokens,
                            uint32_t top_k, bool with_ts, bool* mismatch) {
  *mismatch = false;
  const uint32_t shards = engine->num_shards();
  std::vector<std::vector<index::SearchResult>> got(shards), want(shards);
  for (uint32_t s = 0; s < shards; ++s) {
    core::SvrEngine* shard = engine->shard(s);
    if (!view.shards[s].indexed()) continue;
    index::Query q;
    q.conjunctive = true;
    bool impossible = false;
    for (const std::string& tok : tokens) {
      const TermId t = shard->vocabulary()->Lookup(tok);
      if (t == text::Vocabulary::kUnknownTerm) {
        impossible = true;  // no doc of this shard holds every term
        break;
      }
      if (std::find(q.terms.begin(), q.terms.end(), t) == q.terms.end()) {
        q.terms.push_back(t);
      }
    }
    if (impossible || q.terms.empty()) continue;
    const index::IndexSnapshot& snap = view.shards[s].state->index;
    SVR_RETURN_NOT_OK(
        shard->text_index()->TopKAt(snap, q, top_k, &got[s]));
    SVR_RETURN_NOT_OK(core::BruteForceOracle::TopKAt(
        snap.corpus,
        relational::ScoreTable::View(snap.score), q,
        top_k, with_ts, &want[s]));
    if (got[s] != want[s]) *mismatch = true;
  }
  // Cross-shard check of the gather itself: the engine's merge of the
  // index results must equal an *independent* merge of the oracle
  // results — a plain sort on the canonical (score desc, global id asc)
  // order. A defect in the gather (wrong translation, wrong heap bound)
  // cannot hide here, because the reference side never goes through it.
  // Both sides are translated to global ids in ONE TranslateToGlobal
  // call (a single map acquisition), so a concurrent fresh-key publish
  // cannot land between the two translations and skew one of them.
  std::vector<std::vector<index::SearchResult>> both = got;
  both.insert(both.end(), want.begin(), want.end());
  std::vector<uint32_t> shard_of(both.size());
  for (uint32_t i = 0; i < both.size(); ++i) shard_of[i] = i % shards;
  both = engine->TranslateToGlobal(both, shard_of);
  const std::vector<std::vector<index::SearchResult>> got_global(
      both.begin(), both.begin() + shards);
  std::vector<index::SearchResult> reference;
  for (uint32_t s = 0; s < shards; ++s) {
    const auto& list = both[shards + s];
    reference.insert(reference.end(), list.begin(), list.end());
  }
  std::sort(reference.begin(), reference.end(),
            [](const index::SearchResult& a, const index::SearchResult& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.doc < b.doc;
            });
  if (reference.size() > top_k) reference.resize(top_k);
  if (core::ShardedSvrEngine::MergeTopK(got_global, top_k) != reference) {
    *mismatch = true;
  }
  return Status::OK();
}

Result<ShardedChurnResult> RunShardedChurn(
    core::ShardedSvrEngine* engine, const ConcurrentChurnConfig& config_in,
    uint32_t writer_threads, uint32_t run_ms) {
  using relational::Value;

  const bool with_ts =
      engine->shard(0)->text_index()->name().find("TermScore") !=
      std::string::npos;
  ConcurrentChurnConfig config = config_in;
  if (with_ts) {
    // Same carve-out as the single-threaded merge tests: a content
    // update that keeps a term but changes the document's length leaves
    // the long/fancy lists' build-time term scores stale by design, so
    // oracle-validated term-score runs redirect content churn into
    // score churn.
    config.content_pct = 0.0;
  }
  if (writer_threads == 0) writer_threads = 1;

  std::atomic<bool> writers_done{false};
  std::atomic<int64_t> next_gid{config.initial_docs};
  std::atomic<uint64_t> validated{0};
  std::atomic<uint64_t> mismatches{0};
  ErrorSink errors;

  ShardedChurnResult out;
  Stopwatch wall;

  // --- query threads --------------------------------------------------
  const uint32_t frequent_pool =
      std::max<uint32_t>(10, config.vocab / 20);
  // Per-thread latency histograms (microseconds), merged after the join.
  std::vector<telemetry::LocalHistogram> query_us(config.query_threads);
  std::vector<std::thread> searchers;
  searchers.reserve(config.query_threads);
  for (uint32_t qt = 0; qt < config.query_threads; ++qt) {
    searchers.emplace_back([&, qt] {
      Random rng(config.seed ^ (0xC0FFEEull * (qt + 1)));
      uint64_t n = 0;
      while (!writers_done.load(std::memory_order_acquire)) {
        std::string keywords;
        for (uint32_t i = 0; i < config.query_terms; ++i) {
          if (!keywords.empty()) keywords.push_back(' ');
          keywords += MakeToken(rng.Uniform(frequent_pool));
        }
        Stopwatch sw;
        auto r = engine->Search(keywords, config.top_k);
        query_us[qt].Record(static_cast<uint64_t>(sw.ElapsedMicros()));
        if (!r.ok()) {
          errors.Offer(r.status());
          return;
        }
        ++n;

        if (config.validate_every != 0 &&
            n % config.validate_every == 0) {
          std::vector<std::string> tokens;
          for (uint32_t i = 0; i < config.query_terms; ++i) {
            tokens.push_back(MakeToken(rng.Uniform(frequent_pool)));
          }
          Status st = engine->ReadSnapshotAll([&](const core::
                                                     ShardedReadView& view)
                                                  -> Status {
            bool mismatch = false;
            SVR_RETURN_NOT_OK(ValidateShardedQuery(
                engine, view, tokens, config.top_k, with_ts, &mismatch));
            validated.fetch_add(1, std::memory_order_relaxed);
            if (mismatch) {
              mismatches.fetch_add(1, std::memory_order_relaxed);
              std::string diag = "sharded oracle mismatch: tokens=[";
              for (const auto& t : tokens) diag += t + ",";
              diag += "]\n";
              std::fputs(diag.c_str(), stderr);
            }
            return Status::OK();
          });
          if (!st.ok()) {
            errors.Offer(st);
            return;
          }
        }
      }
    });
  }

  // --- writer threads -------------------------------------------------
  std::vector<telemetry::LocalHistogram> write_us(writer_threads);
  std::vector<std::thread> writers;
  writers.reserve(writer_threads);
  Stopwatch writer_wall;
  const uint32_t ops_per_writer =
      run_ms > 0 ? 0 : std::max<uint32_t>(1, config.writer_ops /
                                                 writer_threads);
  for (uint32_t w = 0; w < writer_threads; ++w) {
    writers.emplace_back([&, w] {
      Random rng(config.seed ^ (0xD00D5ull * (w + 1)));
      ZipfDistribution terms(config.vocab, config.term_zipf);
      // Each writer owns a slice of the documents (initial ids congruent
      // to it mod writer_threads, plus everything it inserts), so alive
      // bookkeeping needs no cross-thread coordination.
      std::vector<int64_t> mine;
      std::vector<bool> alive;
      for (int64_t d = w; d < static_cast<int64_t>(config.initial_docs);
           d += writer_threads) {
        mine.push_back(d);
        alive.push_back(true);
      }
      size_t live_count = mine.size();

      auto pick_alive = [&]() -> int64_t {
        if (live_count == 0) return -1;
        for (int tries = 0; tries < 64; ++tries) {
          const size_t i = rng.Uniform(mine.size());
          if (alive[i]) return static_cast<int64_t>(i);
        }
        return -1;
      };

      Stopwatch elapsed;
      for (uint32_t op = 0;; ++op) {
        if (run_ms > 0) {
          // Throughput mode: run out the wall budget, but always finish
          // a handful of ops — on an oversubscribed box the budget can
          // elapse before a writer is ever scheduled onto its shard's
          // writer mutex, and a zero-op series would make the reported
          // rate meaningless.
          // The measured wall time grows accordingly, so the ops/sec
          // figure stays honest.
          if (elapsed.ElapsedMillis() >= run_ms && op >= 8) break;
        } else if (op >= ops_per_writer) {
          break;
        }
        const double roll = rng.NextDouble() * 100.0;
        Status st;
        Stopwatch sw;
        if (roll < config.insert_pct) {
          const int64_t id = next_gid.fetch_add(1);
          st = engine->Insert(
              "docs",
              {Value::Int(id),
               Value::String(MakeDocText(terms, config.terms_per_doc,
                                         &rng))});
          if (st.ok()) {
            st = engine->Insert(
                "scores",
                {Value::Int(id), Value::Double(DrawScore(config, &rng))});
          }
          mine.push_back(id);
          alive.push_back(true);
          ++live_count;
        } else if (roll < config.insert_pct + config.delete_pct) {
          const int64_t i = pick_alive();
          if (i < 0) continue;
          st = engine->Delete("docs", mine[i]);
          alive[i] = false;
          --live_count;
        } else if (roll < config.insert_pct + config.delete_pct +
                              config.content_pct) {
          const int64_t i = pick_alive();
          if (i < 0) continue;
          st = engine->Update(
              "docs",
              {Value::Int(mine[i]),
               Value::String(MakeDocText(terms, config.terms_per_doc,
                                         &rng))});
        } else {
          const int64_t i = pick_alive();
          if (i < 0) continue;
          st = engine->Update(
              "scores",
              {Value::Int(mine[i]), Value::Double(DrawScore(config,
                                                            &rng))});
        }
        write_us[w].Record(static_cast<uint64_t>(sw.ElapsedMicros()));
        if (!st.ok()) {
          errors.Offer(st);
          break;
        }
      }
    });
  }
  for (auto& t : writers) t.join();
  out.writer_wall_ms = writer_wall.ElapsedMillis();

  writers_done.store(true, std::memory_order_release);
  for (auto& t : searchers) t.join();
  out.wall_ms = wall.ElapsedMillis();

  telemetry::HistogramSnapshot all_writes;
  for (const auto& h : write_us) all_writes.Merge(h.Snapshot());
  out.writer_ops_done = all_writes.count;
  out.write = SummarizeLatencies(all_writes);
  telemetry::HistogramSnapshot all_queries;
  for (const auto& h : query_us) all_queries.Merge(h.Snapshot());
  out.queries_run = all_queries.count;
  out.query = SummarizeLatencies(all_queries);
  out.validated_queries = validated.load();
  out.mismatches = mismatches.load();
  out.writer_ops_per_sec =
      out.writer_wall_ms > 0.0
          ? 1000.0 * static_cast<double>(out.writer_ops_done) /
                out.writer_wall_ms
          : 0.0;
  out.stats = engine->GetStats();

  SVR_RETURN_NOT_OK(errors.first());
  if (config.validate_every != 0 && out.mismatches != 0) {
    return Status::Internal("sharded top-k mismatched the oracle " +
                            std::to_string(out.mismatches) + " time(s)");
  }
  return out;
}

}  // namespace svr::workload
