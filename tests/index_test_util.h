#ifndef SVR_TESTS_INDEX_TEST_UTIL_H_
#define SVR_TESTS_INDEX_TEST_UTIL_H_

#include <cmath>
#include <memory>
#include <vector>

#include "common/random.h"
#include "core/oracle.h"
#include "index/index_factory.h"
#include "relational/score_table.h"
#include "storage/buffer_pool.h"
#include "storage/page_store.h"
#include "text/corpus.h"
#include "text/corpus_generator.h"

namespace svr::test {

/// A self-contained world for index testing: the list pool, score table,
/// corpus, one index method, and the brute-force oracle.
struct IndexWorld {
  std::unique_ptr<storage::InMemoryPageStore> list_store;
  std::unique_ptr<storage::BufferPool> list_pool;
  std::unique_ptr<relational::ScoreTable> score_table;
  text::Corpus corpus;
  std::unique_ptr<index::TextIndex> idx;
  std::unique_ptr<core::BruteForceOracle> oracle;

  /// A NaN in `scores` leaves that doc without a Score-table entry
  /// (never-scored; indexed at 0.0 like BuildLongLists does).
  static std::unique_ptr<IndexWorld> Make(
      index::Method method, const text::CorpusParams& corpus_params,
      const std::vector<double>& scores,
      index::IndexOptions options = DefaultOptions(),
      MergePolicy merge_policy = {}) {
    auto w = std::make_unique<IndexWorld>();
    w->list_store = std::make_unique<storage::InMemoryPageStore>(4096);
    w->list_pool =
        std::make_unique<storage::BufferPool>(w->list_store.get(), 4096);
    w->score_table = relational::ScoreTable::Create();
    w->corpus = text::GenerateCorpus(corpus_params);
    for (DocId d = 0; d < w->corpus.num_docs(); ++d) {
      if (std::isnan(scores[d])) continue;
      if (!w->score_table->Set(d, scores[d]).ok()) return nullptr;
    }
    index::IndexContext ctx;
    ctx.list_pool = w->list_pool.get();
    ctx.score_table = w->score_table.get();
    ctx.corpus = &w->corpus;
    ctx.merge_policy = merge_policy;
    auto idx = index::CreateIndex(method, ctx, options);
    if (!idx.ok()) return nullptr;
    w->idx = std::move(idx).value();
    if (!w->idx->Build().ok()) return nullptr;
    w->oracle = std::make_unique<core::BruteForceOracle>(
        &w->corpus, w->score_table.get(), options.term_scores);
    return w;
  }

  static index::IndexOptions DefaultOptions() {
    index::IndexOptions o;
    // Small-scale settings so tiny test corpora still get many chunks.
    o.chunk.chunking.chunk_ratio = 2.0;
    o.chunk.chunking.min_chunk_size = 5;
    o.score_threshold.threshold_ratio = 2.0;
    o.term_scores.fancy_list_size = 8;
    o.chunk.term_scores.fancy_list_size = 8;
    return o;
  }
};

/// Zipf-like initial scores in [0, max], mirroring Figure 6.
inline std::vector<double> MakeScores(size_t n, double max_score,
                                      double theta, uint64_t seed) {
  std::vector<size_t> ranks(n);
  for (size_t i = 0; i < n; ++i) ranks[i] = i;
  Random rng(seed);
  for (size_t i = n; i > 1; --i) {
    std::swap(ranks[i - 1], ranks[rng.Uniform(i)]);
  }
  std::vector<double> scores(n);
  for (size_t i = 0; i < n; ++i) {
    scores[i] =
        max_score / std::pow(static_cast<double>(ranks[i] + 1), theta);
  }
  return scores;
}

inline bool IsTermScoreMethod(index::Method m) {
  return m == index::Method::kIdTermScore ||
         m == index::Method::kChunkTermScore;
}

}  // namespace svr::test

#endif  // SVR_TESTS_INDEX_TEST_UTIL_H_
