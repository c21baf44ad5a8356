// MVCC read-path benchmark (docs/concurrency.md): reader latency and
// writer throughput of the versioned read path under churn, at 1/4/8
// shards. Readers pin a ReadView (epoch guard + one atomic snapshot
// load) and never block; writers pay the copy-on-write shadowing.
//
// Each shard count runs in two reader regimes:
//
//   saturated — readers loop with no think time; the writer-throughput
//               number shows writers never wait for readers to drain.
//   paced     — readers arrive with think time, so reader latency is
//               measured against a sustained write rate.
//
// The pre-MVCC lock baseline these rows were once compared against is
// retired; its rows stay in the committed BENCH_mvcc.json as history
// (docs/concurrency.md).
//
// A fraction of queries re-runs under ReadSnapshotAll at one pinned
// cross-shard read timestamp and checks every shard's top-k against the
// brute-force oracle at that exact version, so every curve is
// oracle-validated. Emits BENCH_mvcc.json (gated by
// tools/check_bench_json.py in ci.sh: mismatches must be 0 and every row
// must have validated queries).

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "workload/concurrent_driver.h"

using namespace svr;
using namespace svr::bench;

namespace {

index::Method ParseMethod(const std::string& name) {
  if (name == "id") return index::Method::kId;
  if (name == "idts") return index::Method::kIdTermScore;
  if (name == "st") return index::Method::kScoreThreshold;
  if (name == "cts") return index::Method::kChunkTermScore;
  return index::Method::kChunk;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);

  workload::ConcurrentChurnConfig cfg;
  cfg.initial_docs = static_cast<uint32_t>(flags.GetInt("docs", 4000));
  cfg.vocab = static_cast<uint32_t>(flags.GetInt("vocab", 3000));
  cfg.terms_per_doc = static_cast<uint32_t>(flags.GetInt("terms", 30));
  cfg.insert_pct = flags.GetDouble("insert_pct", 10.0);
  cfg.delete_pct = flags.GetDouble("delete_pct", 2.0);
  cfg.content_pct = flags.GetDouble("content_pct", 5.0);
  cfg.query_threads =
      static_cast<uint32_t>(flags.GetInt("query_threads", 3));
  cfg.query_terms = static_cast<uint32_t>(flags.GetInt("query_terms", 2));
  cfg.top_k = static_cast<uint32_t>(flags.GetInt("k", 20));
  cfg.validate_every =
      static_cast<uint32_t>(flags.GetInt("validate_every", 16));
  const uint32_t think_us =
      static_cast<uint32_t>(flags.GetInt("think_us", 150));
  cfg.seed = static_cast<uint64_t>(flags.GetInt("seed", 2005));

  const uint32_t run_ms =
      static_cast<uint32_t>(flags.GetInt("run_ms", 4000));
  const uint32_t query_pool =
      static_cast<uint32_t>(flags.GetInt("query_pool", 1));

  core::ShardedSvrEngineOptions base;
  base.shard.method = ParseMethod(flags.GetString("method", "chunk"));
  base.shard.table_pool_pages =
      static_cast<uint64_t>(flags.GetInt("table_pages", 1 << 15));
  base.shard.list_pool_pages =
      static_cast<uint64_t>(flags.GetInt("list_pages", 1 << 15));
  base.shard.merge_policy.enabled = true;
  base.shard.merge_policy.short_ratio = flags.GetDouble("merge_ratio", 0.2);
  base.shard.merge_policy.min_short_postings =
      static_cast<uint32_t>(flags.GetInt("merge_min", 32));
  base.shard.merge_policy.check_interval =
      static_cast<uint32_t>(flags.GetInt("merge_interval", 200));
  base.shard.background_merge = flags.GetBool("background", true);
  base.num_query_threads = query_pool;

  const std::string out_path = flags.GetString("out", "BENCH_mvcc.json");
  std::vector<uint32_t> shard_counts;
  for (const std::string& s :
       SplitCsv(flags.GetString("shards", "1,4,8"))) {
    const int n = std::atoi(s.c_str());
    if (n <= 0) {
      std::fprintf(stderr, "FATAL bad shard count '%s'\n", s.c_str());
      return 1;
    }
    shard_counts.push_back(static_cast<uint32_t>(n));
  }

  std::printf("# MVCC churn: %u docs, %u ms writer budget per config, "
              "%u query threads (validate every %u)\n\n",
              cfg.initial_docs, run_ms, cfg.query_threads,
              cfg.validate_every);

  std::FILE* json = std::fopen(out_path.c_str(), "w");
  if (json == nullptr) {
    std::fprintf(stderr, "FATAL cannot open %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(json,
               "{\n  \"bench\": \"mvcc_churn\",\n"
               "  \"docs\": %u,\n  \"run_ms\": %u,\n"
               "  \"query_threads\": %u,\n  \"validate_every\": %u,\n"
               "  \"method\": \"%s\",\n  \"series\": [",
               cfg.initial_docs, run_ms, cfg.query_threads,
               cfg.validate_every,
               flags.GetString("method", "chunk").c_str());

  TablePrinter table({"shards", "pacing", "wr ops/s",
                      "qry p50 ms", "qry p95 ms", "qry p99 ms", "merges",
                      "validated", "mismatches"});
  bool first_series = true;
  for (uint32_t shards : shard_counts) {
    for (const bool paced : {false, true}) {
      core::ShardedSvrEngineOptions options = base;
      options.num_shards = shards;
      workload::ConcurrentChurnConfig run_cfg = cfg;
      run_cfg.query_think_us = paced ? think_us : 0;
      const char* pacing = paced ? "paced" : "saturated";

      auto engine = CheckResult(
          workload::SetupShardedChurnEngine(options, run_cfg), "setup");
      auto result = CheckResult(
          workload::RunShardedChurn(engine.get(), run_cfg, shards, run_ms),
          "mvcc churn run");
      // Quiesce every shard's scheduler so final counters are complete.
      for (uint32_t s = 0; s < engine->num_shards(); ++s) {
        if (engine->shard(s)->merge_scheduler() != nullptr) {
          engine->shard(s)->merge_scheduler()->WaitIdle();
        }
      }
      result.stats = engine->GetStats();

      char opsps[32];
      std::snprintf(opsps, sizeof(opsps), "%.0f",
                    result.writer_ops_per_sec);
      table.Row({std::to_string(shards), pacing, opsps,
                 Ms(result.query.p50_ms), Ms(result.query.p95_ms),
                 Ms(result.query.p99_ms),
                 std::to_string(result.stats.total.index.term_merges),
                 std::to_string(result.validated_queries),
                 std::to_string(result.mismatches)});

      std::fprintf(
          json,
          "%s\n    {\"shards\": %u, \"pacing\": \"%s\", "
          "\"mode\": \"mvcc\",\n"
          "     \"writer_ops\": %llu, \"writer_ops_per_sec\": %.2f, "
          "\"wr_p99_ms\": %.5f,\n"
          "     \"queries\": %llu, \"qry_p50_ms\": %.5f, "
          "\"qry_p95_ms\": %.5f, \"qry_p99_ms\": %.5f,\n"
          "     \"term_merges\": %llu, \"fine_installs\": %llu, "
          "\"install_aborts\": %llu, \"list_state_retired\": %llu,\n"
          "     \"commit_watermark\": %llu, \"objects_reclaimed\": %llu,\n"
          "     \"validated\": %llu, \"mismatches\": %llu, "
          "\"wall_ms\": %.2f}",
          first_series ? "" : ",", shards, pacing,
          static_cast<unsigned long long>(result.writer_ops_done),
          result.writer_ops_per_sec, result.write.p99_ms,
          static_cast<unsigned long long>(result.queries_run),
          result.query.p50_ms, result.query.p95_ms, result.query.p99_ms,
          static_cast<unsigned long long>(
              result.stats.total.index.term_merges),
          static_cast<unsigned long long>(
              result.stats.total.index.merge_installs_fine),
          static_cast<unsigned long long>(
              result.stats.total.index.merge_install_aborts),
          static_cast<unsigned long long>(
              result.stats.total.index.list_state_retired),
          static_cast<unsigned long long>(result.stats.commit_watermark),
          static_cast<unsigned long long>(
              result.stats.total.objects_reclaimed),
          static_cast<unsigned long long>(result.validated_queries),
          static_cast<unsigned long long>(result.mismatches),
          result.wall_ms);
      first_series = false;

      std::printf(
          "# shards=%u %s: %.0f writer ops/s, reader p95 "
          "%.3f ms, %llu validated, %llu mismatches\n",
          shards, pacing, result.writer_ops_per_sec,
          result.query.p95_ms,
          static_cast<unsigned long long>(result.validated_queries),
          static_cast<unsigned long long>(result.mismatches));
    }
  }
  std::fprintf(json, "\n  ]\n}\n");
  std::fclose(json);
  std::printf("\n# wrote %s\n", out_path.c_str());
  std::printf("# expectation: mismatches always 0\n");
  return 0;
}
