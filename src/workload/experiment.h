#ifndef SVR_WORKLOAD_EXPERIMENT_H_
#define SVR_WORKLOAD_EXPERIMENT_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/oracle.h"
#include "index/index_factory.h"
#include "index/merge_policy.h"
#include "relational/score_table.h"
#include "storage/buffer_pool.h"
#include "storage/page_store.h"
#include "text/corpus.h"
#include "workload/params.h"
#include "workload/query_workload.h"
#include "workload/update_workload.h"

namespace svr::workload {

/// Aggregate timing of a batch of operations.
struct OpStats {
  uint64_t count = 0;
  double total_ms = 0.0;
  uint64_t page_misses = 0;  // long-list pool misses ("disk reads")

  double avg_ms() const { return count == 0 ? 0.0 : total_ms / count; }
  double avg_misses() const {
    return count == 0 ? 0.0
                      : static_cast<double>(page_misses) / count;
  }
  /// Wall time plus a simulated disk cost per long-list page miss — the
  /// number comparable to the paper's cold-cache measurements.
  double sim_avg_ms(double page_ms) const {
    return avg_ms() + page_ms * avg_misses();
  }
};

/// \brief A complete §5 experiment instance: synthetic collection +
/// score table + one index method, with the paper's measurement
/// protocol (update timing; cold-cache query timing averaged over
/// `num_queries` runs; page-miss accounting as the scale-free cost).
class Experiment {
 public:
  static Result<std::unique_ptr<Experiment>> Setup(
      index::Method method, const ExperimentConfig& config,
      const index::IndexOptions& options);

  /// Applies `n` workload updates through Algorithm 1, timed.
  Result<OpStats> ApplyUpdates(uint32_t n);

  /// Runs the configured number of queries of `cls`, each against a cold
  /// long-list cache (§5.2), timed. If `validate`, every result list is
  /// checked against the brute-force oracle (and an error returned on
  /// mismatch).
  Result<OpStats> RunQueries(QueryClass cls, bool validate = false);

  /// Same, overriding the configured top-k (Figure 8 sweeps k).
  Result<OpStats> RunQueriesWithK(QueryClass cls, uint32_t k,
                                  bool validate = false);

  /// Same, forcing disjunctive semantics (Figure 10).
  Result<OpStats> RunDisjunctiveQueriesWithK(QueryClass cls, uint32_t k,
                                             bool validate = false);

  /// Appendix-A insertion workload: inserts `n` fresh documents with
  /// `terms_per_doc` terms and Zipf scores, timed.
  Result<OpStats> InsertDocuments(uint32_t n);

  uint64_t LongListBytes() const { return index_->LongListBytes(); }
  uint64_t ShortListBytes() const { return index_->ShortListBytes(); }
  index::TextIndex* index() { return index_.get(); }
  const ExperimentConfig& config() const { return config_; }

 private:
  Experiment() = default;

  Result<OpStats> RunQueriesImpl(QueryClass cls, uint32_t k,
                                 bool conjunctive, bool validate);
  /// Counts one index-affecting write; runs the auto-merge policy every
  /// `check_interval` of them (the count persists across batches).
  Status CountWriteAndMaybeMerge();

  bool with_term_scores() const {
    return method_ == index::Method::kIdTermScore ||
           method_ == index::Method::kChunkTermScore;
  }

  index::Method method_ = index::Method::kChunk;
  ExperimentConfig config_;
  std::unique_ptr<storage::InMemoryPageStore> list_store_;
  std::unique_ptr<storage::BufferPool> list_pool_;
  std::unique_ptr<relational::ScoreTable> score_table_;
  text::Corpus corpus_;
  std::unique_ptr<index::TextIndex> index_;
  std::unique_ptr<core::BruteForceOracle> oracle_;
  std::unique_ptr<UpdateWorkload> updates_;
  std::unique_ptr<QueryWorkload> queries_;
  std::vector<double> current_scores_;
  Random insert_rng_{0};
  index::MergeCheckCounter merge_ticks_;
};

}  // namespace svr::workload

#endif  // SVR_WORKLOAD_EXPERIMENT_H_
