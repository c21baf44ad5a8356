// Same-work harness: the query work every method does, as exact counts.
//
// One seeded, single-threaded Experiment per method (all six): score
// updates, then fresh documents through InsertDocuments, so the short
// lists hold postings when the queries run. Then, for two query classes,
// each k and both semantics, `queries=` oracle-validated queries. The
// unselective class (frequent terms) runs first; the selective class
// (rarer terms) pairs lists of very different lengths, so conjunctive
// seeks skip whole blocks and the cursors' gallop path is counted too.
// Each (method, class, k, semantics) row records the deltas of the
// index's query counters and the list-pool misses. No wall time is
// recorded: every number repeats exactly on any host, so a refactor that
// claims "same work" can be checked for it.
//
// `out=BENCH_work.json` writes the rows; tools/check_bench_json.py's
// check_work requires a rerun at the committed parameters to reproduce
// the committed rows exactly.

#include <cstdio>
#include <utility>

#include "bench/bench_common.h"

using namespace svr;
using namespace svr::bench;

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  // Smaller than the figure benches: six methods, sixteen query sets
  // each, every query checked against the brute-force oracle.
  workload::ExperimentConfig config = DefaultConfig(flags);
  config.corpus.num_docs =
      static_cast<uint32_t>(flags.GetInt("docs", 10000));
  config.corpus.vocab_size =
      static_cast<uint32_t>(flags.GetInt("vocab", 10000));
  config.corpus.terms_per_doc =
      static_cast<uint32_t>(flags.GetInt("terms", 60));
  config.num_updates =
      static_cast<uint32_t>(flags.GetInt("updates", 5000));
  config.num_queries = static_cast<uint32_t>(flags.GetInt("queries", 20));
  const uint32_t inserts =
      static_cast<uint32_t>(flags.GetInt("inserts", 500));
  const std::string out_path = flags.GetString("out", "");

  const uint32_t ks[] = {1, 10, 100, 2000};
  const std::pair<workload::QueryClass, const char*> classes[] = {
      {workload::QueryClass::kUnselective, "unselective"},
      {workload::QueryClass::kSelective, "selective"},
  };
  const index::Method methods[] = {
      index::Method::kId,          index::Method::kScore,
      index::Method::kScoreThreshold, index::Method::kChunk,
      index::Method::kIdTermScore, index::Method::kChunkTermScore,
  };

  std::printf("# query work per method (per query-set totals)\n");
  std::printf("# %u docs + %u inserted, %u updates, %u queries per set\n\n",
              config.corpus.num_docs, inserts, config.num_updates,
              config.num_queries);

  const std::vector<std::string> columns = {
      "method", "class", "k", "semantics", "postings_scanned",
      "score_lookups", "candidates_considered", "blocks_decoded",
      "groups_galloped", "cursor_seeks", "list_misses"};
  TablePrinter table(columns);
  JsonRows json(columns);
  for (index::Method m : methods) {
    auto exp = CheckResult(workload::Experiment::Setup(
                               m, config, DefaultIndexOptions(flags)),
                           "setup");
    CheckResult(exp->ApplyUpdates(config.num_updates), "updates");
    CheckResult(exp->InsertDocuments(inserts), "inserts");
    for (const auto& [cls, cls_name] : classes) {
      for (uint32_t k : ks) {
        for (const bool conjunctive : {true, false}) {
          const index::IndexStats before = exp->index()->stats();
          auto qry = CheckResult(
              conjunctive ? exp->RunQueriesWithK(cls, k, /*validate=*/true)
                          : exp->RunDisjunctiveQueriesWithK(
                                cls, k, /*validate=*/true),
              "queries");
          const index::IndexStats after = exp->index()->stats();
          const std::vector<std::string> row = {
              exp->index()->name(),
              cls_name,
              std::to_string(k),
              conjunctive ? "and" : "or",
              std::to_string(after.postings_scanned -
                             before.postings_scanned),
              std::to_string(after.score_lookups - before.score_lookups),
              std::to_string(after.candidates_considered -
                             before.candidates_considered),
              std::to_string(after.blocks_decoded - before.blocks_decoded),
              std::to_string(after.groups_galloped -
                             before.groups_galloped),
              std::to_string(after.cursor_seeks - before.cursor_seeks),
              std::to_string(qry.page_misses)};
          table.Row(row);
          json.Row(row);
        }
      }
    }
  }
  if (!out_path.empty()) {
    json.Write(out_path, "work",
               {{"docs", std::to_string(config.corpus.num_docs)},
                {"vocab", std::to_string(config.corpus.vocab_size)},
                {"terms", std::to_string(config.corpus.terms_per_doc)},
                {"updates", std::to_string(config.num_updates)},
                {"inserts", std::to_string(inserts)},
                {"queries", std::to_string(config.num_queries)},
                {"validated", "true"}});
  }
  return 0;
}
