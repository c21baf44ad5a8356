#include "workload/experiment.h"

#include <algorithm>
#include <cmath>

#include "common/stopwatch.h"
#include "workload/score_generator.h"

namespace svr::workload {

Result<std::unique_ptr<Experiment>> Experiment::Setup(
    index::Method method, const ExperimentConfig& config,
    const index::IndexOptions& options) {
  auto exp = std::unique_ptr<Experiment>(new Experiment());
  exp->method_ = method;
  exp->config_ = config;
  exp->insert_rng_ = Random(config.seed ^ 0x77777777ULL);

  exp->table_store_ =
      std::make_unique<storage::InMemoryPageStore>(config.page_size);
  exp->list_store_ =
      std::make_unique<storage::InMemoryPageStore>(config.page_size);
  // Table-side structures stay cached (the paper's 100 MB BDB cache held
  // them easily); the long-list pool is the cold-cache target.
  exp->table_pool_ = std::make_unique<storage::BufferPool>(
      exp->table_store_.get(), config.table_pool_pages);
  exp->list_pool_ = std::make_unique<storage::BufferPool>(
      exp->list_store_.get(), config.list_pool_pages);

  exp->score_table_ = relational::ScoreTable::Create();

  exp->corpus_ = text::GenerateCorpus(config.corpus);
  exp->current_scores_ =
      GenerateScores(config.corpus.num_docs, config.max_score,
                     config.score_zipf, config.seed);
  for (DocId d = 0; d < exp->corpus_.num_docs(); ++d) {
    SVR_RETURN_NOT_OK(
        exp->score_table_->Set(d, exp->current_scores_[d]));
  }

  index::IndexContext ctx;
  ctx.table_pool = exp->table_pool_.get();
  ctx.list_pool = exp->list_pool_.get();
  ctx.score_table = exp->score_table_.get();
  ctx.corpus = &exp->corpus_;
  ctx.posting_format = config.posting_format;
  ctx.merge_policy = config.merge_policy;
  SVR_ASSIGN_OR_RETURN(exp->index_,
                       index::CreateIndex(method, ctx, options));
  SVR_RETURN_NOT_OK(exp->index_->Build());

  exp->oracle_ = std::make_unique<core::BruteForceOracle>(
      &exp->corpus_, exp->score_table_.get(), options.term_scores);
  exp->updates_ =
      std::make_unique<UpdateWorkload>(config, exp->current_scores_);
  exp->queries_ = std::make_unique<QueryWorkload>(config, exp->corpus_);
  return exp;
}

Status Experiment::CountWriteAndMaybeMerge() {
  if (!merge_ticks_.Tick(config_.merge_policy)) return Status::OK();
  return index_->MaybeAutoMerge().status();
}

Result<OpStats> Experiment::ApplyUpdates(uint32_t n) {
  OpStats stats;
  for (uint32_t i = 0; i < n; ++i) {
    const ScoreUpdate u = updates_->Next();
    const double new_score =
        std::max(0.0, current_scores_[u.doc] + u.delta);
    current_scores_[u.doc] = new_score;
    Stopwatch sw;
    SVR_RETURN_NOT_OK(index_->OnScoreUpdate(u.doc, new_score));
    // Auto-merge maintenance runs on the write path and is charged to
    // it: the bench numbers show merge cost amortized over updates.
    SVR_RETURN_NOT_OK(CountWriteAndMaybeMerge());
    stats.total_ms += sw.ElapsedMillis();
    ++stats.count;
  }
  return stats;
}

Result<OpStats> Experiment::RunQueries(QueryClass cls, bool validate) {
  return RunQueriesImpl(cls, config_.top_k, config_.conjunctive, validate);
}

Result<OpStats> Experiment::RunQueriesWithK(QueryClass cls, uint32_t k,
                                            bool validate) {
  return RunQueriesImpl(cls, k, config_.conjunctive, validate);
}

Result<OpStats> Experiment::RunDisjunctiveQueries(QueryClass cls,
                                                  bool validate) {
  return RunQueriesImpl(cls, config_.top_k, /*conjunctive=*/false,
                        validate);
}

Result<OpStats> Experiment::RunQueriesImpl(QueryClass cls, uint32_t k,
                                           bool conjunctive,
                                           bool validate) {
  OpStats stats;
  std::vector<index::SearchResult> results;
  for (uint32_t i = 0; i < config_.num_queries; ++i) {
    index::Query q = queries_->Next(cls);
    q.conjunctive = conjunctive;
    // The paper's protocol: cold cache for the long inverted lists.
    SVR_RETURN_NOT_OK(list_pool_->EvictAll());
    const uint64_t misses_before = list_pool_->stats().misses;
    const uint64_t tbl_before = table_pool_->stats().misses;
    Stopwatch sw;
    SVR_RETURN_NOT_OK(index_->TopK(q, k, &results));
    stats.total_ms += sw.ElapsedMillis();
    stats.page_misses += list_pool_->stats().misses - misses_before;
    stats.table_misses += table_pool_->stats().misses - tbl_before;
    ++stats.count;

    if (validate) {
      std::vector<index::SearchResult> expected;
      SVR_RETURN_NOT_OK(oracle_->TopK(q, k,
                                      with_term_scores(), &expected));
      if (results.size() != expected.size()) {
        return Status::Internal("top-k size mismatch vs oracle");
      }
      for (size_t r = 0; r < results.size(); ++r) {
        if (results[r].doc != expected[r].doc) {
          return Status::Internal("top-k document mismatch vs oracle");
        }
      }
    }
  }
  return stats;
}

Result<OpStats> Experiment::InsertDocuments(uint32_t n) {
  OpStats stats;
  ZipfDistribution term_dist(config_.corpus.vocab_size,
                             config_.corpus.term_zipf);
  for (uint32_t i = 0; i < n; ++i) {
    std::vector<TermId> tokens;
    tokens.reserve(config_.corpus.terms_per_doc);
    for (uint32_t t = 0; t < config_.corpus.terms_per_doc; ++t) {
      tokens.push_back(static_cast<TermId>(term_dist.Sample(&insert_rng_)));
    }
    const DocId doc = static_cast<DocId>(corpus_.num_docs());
    corpus_.Add(text::Document::FromTokens(std::move(tokens)));
    const double score = config_.max_score /
                         std::pow(1.0 + insert_rng_.Uniform(1000),
                                  config_.score_zipf);
    current_scores_.push_back(score);
    Stopwatch sw;
    SVR_RETURN_NOT_OK(index_->InsertDocument(doc, score));
    SVR_RETURN_NOT_OK(CountWriteAndMaybeMerge());
    stats.total_ms += sw.ElapsedMillis();
    ++stats.count;
  }
  return stats;
}

}  // namespace svr::workload
