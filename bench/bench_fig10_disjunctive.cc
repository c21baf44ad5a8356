// Reproduces Figure 10 (+§5.3.6): "Performance of Disjunctive Queries" —
// conjunctive vs disjunctive query time per method after the default
// update workload.
//
// Paper's shape: for Score-Threshold / Chunk / Chunk-TermScore the
// difference is under a millisecond (disk pages dominate, and both
// variants touch the same pages); ID and ID-TermScore get *worse*
// disjunctively because the much larger candidate set hammers the result
// heap.

#include <cstdio>

#include "bench/bench_common.h"

using namespace svr;
using namespace svr::bench;

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  workload::ExperimentConfig config = DefaultConfig(flags);
  const bool validate = flags.GetBool("validate", false);

  const index::Method methods[] = {
      index::Method::kId,          index::Method::kScoreThreshold,
      index::Method::kChunk,       index::Method::kIdTermScore,
      index::Method::kChunkTermScore,
  };

  std::printf("# Figure 10: conjunctive vs disjunctive queries (ms)\n\n");
  TablePrinter table({"method", "conj ms", "disj ms", "sim conj ms",
                      "sim disj ms"});
  for (index::Method m : methods) {
    auto exp = CheckResult(workload::Experiment::Setup(
                               m, config, DefaultIndexOptions(flags)),
                           "setup");
    CheckResult(exp->ApplyUpdates(config.num_updates), "updates");

    auto conj = CheckResult(
        exp->RunQueries(workload::QueryClass::kUnselective, validate),
        "conj queries");
    // Flip the experiment to disjunctive via a second query workload.
    auto disj = CheckResult(
        exp->RunDisjunctiveQueriesWithK(workload::QueryClass::kUnselective,
                                        config.top_k, validate),
        "disj queries");
    table.Row({exp->index()->name(), Ms(conj.avg_ms()), Ms(disj.avg_ms()),
               Ms(conj.sim_avg_ms(config.page_ms)),
               Ms(disj.sim_avg_ms(config.page_ms))});
  }
  std::printf(
      "\n# paper: chunked/threshold methods ~unchanged (<1ms); ID "
      "methods degrade disjunctively (result-heap overhead)\n");
  return 0;
}
