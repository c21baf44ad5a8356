// Reproduces Figure 8: "Varying # Desired Results" — query time as a
// function of k for ID, Score-Threshold and Chunk (after the default
// update workload).
//
// Paper's shape: ID is flat (it always scans everything); Chunk and
// Score-Threshold grow with k because they scan deeper before the stop
// rule fires; Chunk dominates Score-Threshold at every k (smaller
// lists), and both converge to ID for very large k — Score-Threshold
// even overtakes ID there because its score-fattened lists are longer
// to scan.
//
// `out=BENCH_paper.json` also writes the rows as JSON (method, k,
// qry_ms, qry_pages); tools/check_bench_json.py gates the page counts.

#include <cstdio>

#include "bench/bench_common.h"

using namespace svr;
using namespace svr::bench;

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  workload::ExperimentConfig config = DefaultConfig(flags);
  const bool validate = flags.GetBool("validate", false);
  const std::string out_path = flags.GetString("out", "");

  const uint32_t ks[] = {1, 5, 10, 20, 50, 100, 500, 2000};
  const index::Method methods[] = {index::Method::kId,
                                   index::Method::kScoreThreshold,
                                   index::Method::kChunk};

  std::printf("# Figure 8: varying k (query times in ms)\n");
  std::printf("# %u docs, %u updates applied first\n\n",
              config.corpus.num_docs, config.num_updates);

  TablePrinter table(
      {"method", "k", "qry ms", "qry pages", "sim qry ms"});
  JsonRows json({"method", "k", "qry_ms", "qry_pages"});
  for (index::Method m : methods) {
    auto exp = CheckResult(workload::Experiment::Setup(
                               m, config, DefaultIndexOptions(flags)),
                           "setup");
    CheckResult(exp->ApplyUpdates(config.num_updates), "updates");
    for (uint32_t k : ks) {
      auto qry = CheckResult(
          exp->RunQueriesWithK(workload::QueryClass::kUnselective, k,
                               validate),
          "queries");
      table.Row({exp->index()->name(), std::to_string(k), Ms(qry.avg_ms()),
                 Num(qry.avg_misses()),
                 Ms(qry.sim_avg_ms(config.page_ms))});
      json.Row({exp->index()->name(), std::to_string(k), Ms(qry.avg_ms()),
                Num(qry.avg_misses())});
    }
  }
  if (!out_path.empty()) {
    json.Write(out_path, "paper",
               {{"figure", "fig8"},
                {"docs", std::to_string(config.corpus.num_docs)},
                {"updates", std::to_string(config.num_updates)},
                {"queries", std::to_string(config.num_queries)},
                {"validated", validate ? "true" : "false"}});
  }
  std::printf(
      "\n# paper: ID flat; Chunk & Score-Threshold grow with k; Chunk "
      "dominates Score-Threshold everywhere\n");
  return 0;
}
