// Telemetry overhead benchmark (docs/observability.md): the MVCC churn
// workload (one writer thread racing query threads through the public
// DML/Search paths of a 1-shard ShardedSvrEngine, the single-node
// setup), run alternately with telemetry disabled and fully enabled —
// registry histograms on every query and DML op, the slow-query log
// threshold armed, and the periodic background dump running — to price
// the record path.
//
// The record path is a handful of relaxed atomic fetch_adds per
// operation plus two steady_clock reads per stage, so the gate is
// tight: the median over reps of the paired on/off wall-time ratio must
// stay within 5% (BENCH_telemetry.json, checked by
// tools/check_bench_json.py). Each rep runs off, then on, so drift hits
// both halves of a pair alike, and the median keeps one rep slowed by
// the host from deciding the gate. The summary also reports each mode's
// min/median/max wall time, so the rep-to-rep spread is on record.
// Every rep oracle-validates a slice of its queries; mismatches must be
// 0 — telemetry must never alter results.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "telemetry/metrics_registry.h"
#include "workload/concurrent_driver.h"

using namespace svr;
using namespace svr::bench;

namespace {

struct RepOutcome {
  double wall_ms = 0.0;
  double qry_p50_ms = 0.0;
  double qry_p95_ms = 0.0;
  uint64_t queries = 0;
  uint64_t validated = 0;
  uint64_t mismatches = 0;
};

struct WallSpread {
  double min = 0.0;
  double median = 0.0;
  double max = 0.0;
};

WallSpread SpreadOf(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  WallSpread w;
  w.min = values.front();
  w.max = values.back();
  w.median = n % 2 == 1 ? values[n / 2]
                        : (values[n / 2 - 1] + values[n / 2]) / 2.0;
  return w;
}

WallSpread WallSpreadOf(const std::vector<RepOutcome>& reps) {
  std::vector<double> walls;
  for (const RepOutcome& o : reps) walls.push_back(o.wall_ms);
  return SpreadOf(std::move(walls));
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);

  workload::ConcurrentChurnConfig cfg;
  cfg.initial_docs = static_cast<uint32_t>(flags.GetInt("docs", 4000));
  cfg.vocab = static_cast<uint32_t>(flags.GetInt("vocab", 3000));
  cfg.terms_per_doc = static_cast<uint32_t>(flags.GetInt("terms", 30));
  cfg.writer_ops = static_cast<uint32_t>(flags.GetInt("writer_ops", 12000));
  cfg.query_threads =
      static_cast<uint32_t>(flags.GetInt("query_threads", 3));
  cfg.top_k = static_cast<uint32_t>(flags.GetInt("k", 20));
  cfg.validate_every =
      static_cast<uint32_t>(flags.GetInt("validate_every", 64));
  cfg.seed = static_cast<uint64_t>(flags.GetInt("seed", 2005));
  const int reps = static_cast<int>(flags.GetInt("reps", 5));
  const std::string out_path =
      flags.GetString("out", "BENCH_telemetry.json");

  std::printf("# telemetry overhead: %u docs, %u writer ops, %u query "
              "threads, %d off/on pairs\n\n",
              cfg.initial_docs, cfg.writer_ops, cfg.query_threads, reps);

  std::FILE* json = std::fopen(out_path.c_str(), "w");
  if (json == nullptr) {
    std::fprintf(stderr, "FATAL cannot open %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(json, "{\n  \"bench\": \"telemetry\",\n");
  WriteContextJson(json);
  std::fprintf(json,
               "  \"docs\": %u,\n  \"writer_ops\": %u,\n"
               "  \"query_threads\": %u,\n  \"reps\": %d,\n"
               "  \"series\": [",
               cfg.initial_docs, cfg.writer_ops, cfg.query_threads, reps);

  TablePrinter table({"rep", "mode", "wall ms", "qry p50 ms", "qry p95 ms",
                      "validated", "mismatches"});
  std::vector<RepOutcome> off_reps, on_reps;
  std::atomic<uint64_t> periodic_dumps{0};
  bool dump_ok = true;
  bool first_series = true;
  for (int rep = 0; rep < reps; ++rep) {
    // Off first, on second, every rep: interleaving cancels drift.
    for (const bool telemetry_on : {false, true}) {
      core::ShardedSvrEngineOptions options;  // one shard
      core::TelemetryOptions& telemetry = options.shard.telemetry;
      telemetry.enabled = telemetry_on;
      if (telemetry_on) {
        // Everything armed: slow-query comparisons on the query path
        // (the default threshold keeps captures rare, which is the
        // production posture) and the background dump thread racing the
        // workload through the registry. The interval sits below
        // one rep's wall time (about 1 s at ci.sh's smoke size), so
        // the dump runs inside every rep.
        telemetry.dump_interval_ms = 50;
        telemetry.dump_sink = [&periodic_dumps](const std::string&) {
          periodic_dumps.fetch_add(1);
        };
      }
      auto engine = CheckResult(
          workload::SetupShardedChurnEngine(options, cfg), "setup");
      auto result = CheckResult(
          workload::RunShardedChurn(engine.get(), cfg,
                                    /*writer_threads=*/1, /*run_ms=*/0),
          "churn run");
      if (telemetry_on) {
        // The export surface must round-trip both formats mid-flight.
        const std::string j =
            engine->DumpMetrics(telemetry::DumpFormat::kJson);
        const std::string p =
            engine->DumpMetrics(telemetry::DumpFormat::kPrometheus);
        if (j.find("\"query.total_us\"") == std::string::npos ||
            p.find("# TYPE svr_query_total_us summary") ==
                std::string::npos) {
          dump_ok = false;
        }
      }
      engine->Stop();

      RepOutcome o;
      o.wall_ms = result.wall_ms;
      o.qry_p50_ms = result.query.p50_ms;
      o.qry_p95_ms = result.query.p95_ms;
      o.queries = result.queries_run;
      o.validated = result.validated_queries;
      o.mismatches = result.mismatches;
      (telemetry_on ? on_reps : off_reps).push_back(o);

      const char* mode = telemetry_on ? "on" : "off";
      char wall[32];
      std::snprintf(wall, sizeof(wall), "%.1f", o.wall_ms);
      table.Row({std::to_string(rep), mode, wall, Ms(o.qry_p50_ms),
                 Ms(o.qry_p95_ms), std::to_string(o.validated),
                 std::to_string(o.mismatches)});
      std::fprintf(
          json,
          "%s\n    {\"rep\": %d, \"mode\": \"%s\", \"wall_ms\": %.3f,\n"
          "     \"queries\": %llu, \"qry_p50_ms\": %.5f, "
          "\"qry_p95_ms\": %.5f,\n"
          "     \"validated\": %llu, \"mismatches\": %llu}",
          first_series ? "" : ",", rep, mode, o.wall_ms,
          static_cast<unsigned long long>(o.queries), o.qry_p50_ms,
          o.qry_p95_ms, static_cast<unsigned long long>(o.validated),
          static_cast<unsigned long long>(o.mismatches));
      first_series = false;
    }
  }

  const WallSpread off = WallSpreadOf(off_reps);
  const WallSpread on = WallSpreadOf(on_reps);
  std::vector<double> pair_ratios;
  for (size_t i = 0; i < on_reps.size(); ++i) {
    pair_ratios.push_back(on_reps[i].wall_ms / off_reps[i].wall_ms);
  }
  const WallSpread pairs = SpreadOf(pair_ratios);
  const double ratio = pairs.median;

  std::fprintf(json,
               "\n  ],\n  \"summary\": {\"overhead_ratio\": %.4f, "
               "\"periodic_dumps\": %llu, \"dump_ok\": %s,\n"
               "    \"off\": {\"min_wall_ms\": %.3f, \"median_wall_ms\": %.3f, "
               "\"max_wall_ms\": %.3f},\n"
               "    \"on\": {\"min_wall_ms\": %.3f, \"median_wall_ms\": %.3f, "
               "\"max_wall_ms\": %.3f}}\n}\n",
               ratio, static_cast<unsigned long long>(periodic_dumps.load()),
               dump_ok ? "true" : "false", off.min, off.median, off.max,
               on.min, on.median, on.max);
  std::fclose(json);

  std::printf("\n# paired on/off ratio: median %.4f (gate: <= 1.05), "
              "min %.4f, max %.4f\n",
              ratio, pairs.min, pairs.max);
  std::printf("# wall spread (min/median/max ms): off %.1f/%.1f/%.1f, "
              "on %.1f/%.1f/%.1f\n",
              off.min, off.median, off.max, on.min, on.median, on.max);
  std::printf("# periodic dumps delivered: %llu, export round-trip %s\n",
              static_cast<unsigned long long>(periodic_dumps.load()),
              dump_ok ? "ok" : "FAILED");
  std::printf("# wrote %s\n", out_path.c_str());
  return 0;
}
