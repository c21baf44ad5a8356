#ifndef SVR_WORKLOAD_CONCURRENT_DRIVER_H_
#define SVR_WORKLOAD_CONCURRENT_DRIVER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "core/sharded_engine.h"
#include "core/svr_engine.h"
#include "telemetry/histogram.h"

namespace svr::workload {

/// Parameters for one multi-threaded churn run (RunShardedChurn; the
/// churn benches and concurrency_test run it on one shard where one
/// engine is meant).
struct ConcurrentChurnConfig {
  // Synthetic collection seeded through the engine's DML path.
  uint32_t initial_docs = 5000;
  uint32_t vocab = 4000;
  uint32_t terms_per_doc = 40;
  double term_zipf = 1.0;
  double max_score = 100000.0;
  double score_zipf = 0.75;

  // Writer workload: `writer_ops` operations, split by percentage into
  // document inserts, deletes, content updates — the rest are score
  // updates through the Score view.
  uint32_t writer_ops = 20000;
  double insert_pct = 10.0;
  double delete_pct = 2.0;
  double content_pct = 5.0;

  // Query workload: `query_threads` threads issue top-k searches over
  // frequent terms until the writer finishes.
  uint32_t query_threads = 2;
  uint32_t query_terms = 2;
  uint32_t top_k = 20;
  /// Every Nth query per thread additionally runs under ReadSnapshotAll
  /// and is checked against the brute-force oracle at that snapshot.
  /// 0 disables validation.
  uint32_t validate_every = 0;

  uint64_t seed = 2005;
};

/// Latency distribution of one operation class, in milliseconds.
struct LatencySummary {
  uint64_t count = 0;
  double mean_ms = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  double max_ms = 0.0;
};

/// Computes the summary of a latency sample recorded in *microseconds*
/// into the telemetry histogram (each worker thread records into its own
/// LocalHistogram; the merged snapshot summarizes them all without the
/// old sort-the-concatenation pass). Percentiles are log-bucket upper
/// edges — within 6.25% of exact (docs/observability.md).
LatencySummary SummarizeLatencies(const telemetry::HistogramSnapshot& us);

/// Opens a single SvrEngine (one shard, for the shard-level tests),
/// creates a scored table ("docs": pk + text) plus a 1:1 score-component
/// table ("scores"), loads `initial_docs` synthetic documents through
/// the engine's DML path and builds the text index.
Result<std::unique_ptr<core::SvrEngine>> SetupChurnEngine(
    const core::SvrEngineOptions& options,
    const ConcurrentChurnConfig& config);

// --- churn driver (docs/concurrency.md, docs/sharding.md) -------------

struct ShardedChurnResult {
  LatencySummary query;  // per-Search wall latency across query threads
  LatencySummary write;  // per-DML-op wall latency across writer threads
  uint64_t queries_run = 0;
  uint64_t writer_ops_done = 0;  // DML ops completed across all writers
  uint64_t validated_queries = 0;
  uint64_t mismatches = 0;  // per-shard index vs oracle, or gather drift
  double wall_ms = 0.0;
  double writer_wall_ms = 0.0;  // writer start to last writer join
  /// The sharding bench's headline: writer_ops_done / writer_wall_ms,
  /// scaled to ops per second.
  double writer_ops_per_sec = 0.0;
  core::ShardedEngineStats stats;
};

/// SetupChurnEngine against a ShardedSvrEngine: same "docs" + "scores"
/// schema and synthetic corpus, loaded through the sharded DML path
/// (global ids 0..initial_docs-1, hash-partitioned), then a text index
/// on every shard.
Result<std::unique_ptr<core::ShardedSvrEngine>> SetupShardedChurnEngine(
    const core::ShardedSvrEngineOptions& options,
    const ConcurrentChurnConfig& config);

/// Multi-writer churn against a sharded engine: `writer_threads` threads
/// apply mixed DML (each owns a slice of the documents; fresh global ids
/// come from one atomic counter) while `config.query_threads` threads
/// scatter-gather searches. When `run_ms` > 0 writers run for that wall
/// budget (throughput mode, `config.writer_ops` ignored); otherwise they
/// split `config.writer_ops` evenly. Every `validate_every`-th query per
/// thread re-runs under ReadSnapshotAll: each shard's top-k must equal
/// its brute-force oracle at that cross-shard snapshot, and the engine's
/// gather merge of the index side must equal a plain sort of the oracle
/// side. The single-engine run is one shard, one writer thread and
/// `run_ms` = 0.
Result<ShardedChurnResult> RunShardedChurn(
    core::ShardedSvrEngine* engine, const ConcurrentChurnConfig& config,
    uint32_t writer_threads, uint32_t run_ms);

/// One cross-shard oracle validation at one pinned ShardedReadView (the
/// cross-shard read timestamp): every shard's index top-k of the
/// conjunctive query `tokens` at its pinned version must equal its
/// brute-force oracle at the same version, and the engine's gather merge
/// (MergeTopK) of the index side must equal a plain sort of the oracle
/// side. Returns OK with *mismatch set on divergence. `with_ts` selects
/// the oracle's term-score model.
Status ValidateShardedQuery(core::ShardedSvrEngine* engine,
                            const core::ShardedReadView& view,
                            const std::vector<std::string>& tokens,
                            uint32_t top_k, bool with_ts, bool* mismatch);

}  // namespace svr::workload

#endif  // SVR_WORKLOAD_CONCURRENT_DRIVER_H_
