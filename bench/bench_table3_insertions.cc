// Reproduces Table 3 (Appendix A.3): "Varying # Insertions" — the Chunk
// method's query / score-update / insertion cost as fresh documents are
// added through the short lists.
//
// Paper's shape (1k -> 10k insertions): query time stays flat (~28 ms);
// score-update time degrades from ~0.25 ms to ~17 ms as short lists
// lengthen; insertion cost jumps once the short lists outgrow memory
// (~12 ms -> ~0.5-0.7 s past 4k docs) and then plateaus. An offline
// merge (§A.3) resets both.
//
// `out=BENCH_paper_table3.json` also writes the short-list size after
// each batch (layout, inserted, short_bytes, short_postings,
// bytes_per_inserted_doc); tools/check_bench_json.py gates its shape.
// Sizes are deterministic; the timings are printed, not recorded.

#include <cstdio>

#include "bench/bench_common.h"

using namespace svr;
using namespace svr::bench;

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  workload::ExperimentConfig config = DefaultConfig(flags);
  const bool validate = flags.GetBool("validate", false);
  const std::string out_path = flags.GetString("out", "");

  // Paper inserts 1k..10k into its full-size collection; defaults here
  // scale to the smaller corpus (12.5% of base size at each step, like
  // the paper's 1k/8k..10k/8k... flags override).
  const uint32_t batches[] = {
      static_cast<uint32_t>(flags.GetInt("batch1", 250)),
      static_cast<uint32_t>(flags.GetInt("batch2", 250)),
      static_cast<uint32_t>(flags.GetInt("batch3", 500)),
      static_cast<uint32_t>(flags.GetInt("batch4", 1000)),
      static_cast<uint32_t>(flags.GetInt("batch5", 500)),
  };

  auto exp = CheckResult(
      workload::Experiment::Setup(index::Method::kChunk, config,
                                  DefaultIndexOptions(flags)),
      "setup");

  std::printf("# Table 3: varying number of insertions (Chunk, ms/op)\n");
  std::printf("# base corpus %u docs\n\n", config.corpus.num_docs);

  TablePrinter table({"inserted", "insert ms", "upd ms", "qry ms",
                      "sim qry ms", "short MB"});
  JsonRows json({"layout", "inserted", "short_bytes", "short_postings",
                 "bytes_per_inserted_doc"});
  // Short bytes include the list-state column (ShortListBytes()).
  auto json_row = [&](const std::string& inserted, uint32_t docs) {
    const uint64_t bytes = exp->ShortListBytes();
    json.Row({"run", inserted, std::to_string(bytes),
              std::to_string(exp->index()->ShortPostingCount()),
              Num(static_cast<double>(bytes) / docs)});
  };
  uint32_t total = 0;
  for (uint32_t batch : batches) {
    auto ins = CheckResult(exp->InsertDocuments(batch), "insert");
    total += batch;
    auto upd = CheckResult(exp->ApplyUpdates(1000), "updates");
    auto qry = CheckResult(
        exp->RunQueries(workload::QueryClass::kUnselective, validate),
        "queries");
    table.Row({std::to_string(total), Ms(ins.avg_ms()), Ms(upd.avg_ms()),
               Ms(qry.avg_ms()), Ms(qry.sim_avg_ms(config.page_ms)),
               Mb(exp->ShortListBytes())});
    json_row(std::to_string(total), total);
  }

  // The paper notes short lists are periodically merged offline,
  // "bringing down document insertion cost again" — demonstrate it.
  Check(exp->index()->RebuildIndex(), "offline merge");
  auto ins = CheckResult(exp->InsertDocuments(100), "insert post-merge");
  auto qry = CheckResult(
      exp->RunQueries(workload::QueryClass::kUnselective, validate),
      "queries post-merge");
  table.Row({"merge+" + std::to_string(100), Ms(ins.avg_ms()), "-",
             Ms(qry.avg_ms()), Ms(qry.sim_avg_ms(config.page_ms)),
             Mb(exp->ShortListBytes())});
  json_row("merge+100", 100);
  if (!out_path.empty()) {
    json.Write(out_path, "paper",
               {{"figure", "table3"},
                {"docs", std::to_string(config.corpus.num_docs)}});
  }

  std::printf(
      "\n# paper: query flat ~28ms; score updates 0.25 -> 17ms; insert "
      "12ms -> ~0.5s past 4k docs, reset by the offline merge\n");
  return 0;
}
