// Reproduces Table 1: "Size of Long Inverted Lists".
//
// Paper (805 MB collection): ID 145 MB | Score 2768 MB | Score-Threshold
// 847 MB | Chunk 146 MB | ID-TermScore 428 MB | Chunk-TermScore 430 MB.
//
// Expected shape at any scale: Score >> Score-Threshold >> ID-TermScore
// ~= Chunk-TermScore >> Chunk >~ ID. The Score method pays B+-tree
// overhead (it must stay updatable); Score-Threshold stores an 8-byte
// score per posting and loses delta compression; the TermScore variants
// add a 4-byte term score per posting; Chunk matches ID except for the
// per-chunk group headers.
//
// `out=BENCH_paper_table1.json` also writes the rows as JSON (method,
// format, long_bytes); tools/check_bench_json.py gates the byte order.

#include <cstdio>

#include "bench/bench_common.h"

using namespace svr;
using namespace svr::bench;

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  workload::ExperimentConfig config = DefaultConfig(flags);
  index::IndexOptions options = DefaultIndexOptions(flags);
  const std::string out_path = flags.GetString("out", "");

  std::printf("# Table 1: size of long inverted lists\n");
  std::printf("# corpus: %u docs x %u terms, vocab %u\n\n",
              config.corpus.num_docs, config.corpus.terms_per_doc,
              config.corpus.vocab_size);

  const index::Method methods[] = {
      index::Method::kId,          index::Method::kScore,
      index::Method::kScoreThreshold, index::Method::kChunk,
      index::Method::kIdTermScore, index::Method::kChunkTermScore,
  };

  TablePrinter table({"method", "long lists MB", "vs ID"});
  JsonRows json({"method", "format", "long_bytes"});
  uint64_t id_bytes = 0;
  for (index::Method m : methods) {
    auto exp = CheckResult(workload::Experiment::Setup(m, config, options),
                           "setup");
    const uint64_t bytes = exp->LongListBytes();
    if (m == index::Method::kId) id_bytes = bytes;
    char ratio[32];
    std::snprintf(ratio, sizeof(ratio), "%.2fx",
                  id_bytes == 0 ? 0.0
                                : static_cast<double>(bytes) /
                                      static_cast<double>(id_bytes));
    table.Row({index::MethodName(m), Mb(bytes), ratio});
    // "v2": the blocked layout, the only one built. The committed
    // artifact also keeps frozen "v1" rows of the paper's layout.
    json.Row({index::MethodName(m), "v2", std::to_string(bytes)});
  }
  if (!out_path.empty()) {
    json.Write(out_path, "paper",
               {{"figure", "table1"},
                {"docs", std::to_string(config.corpus.num_docs)},
                {"terms", std::to_string(config.corpus.terms_per_doc)},
                {"vocab", std::to_string(config.corpus.vocab_size)}});
  }
  std::printf(
      "\n# paper: ID 145MB | Score 2768MB | Score-Threshold 847MB | "
      "Chunk 146MB | ID-TS 428MB | Chunk-TS 430MB\n");
  return 0;
}
