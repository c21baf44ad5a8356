#ifndef SVR_WORKLOAD_PARAMS_H_
#define SVR_WORKLOAD_PARAMS_H_

#include <cstdint>

#include "common/types.h"
#include "text/corpus_generator.h"

namespace svr::workload {

/// Behaviour of focus-set updates ("focus increase update" in Figure 6):
/// strictly increasing (default), strictly decreasing, or half/half.
enum class FocusMode {
  kIncrease,
  kDecrease,
  kMixed,
};

/// The paper's query selectivity classes (§5.1): keywords drawn from the
/// top 350 / 1600 / 15000 most frequent terms of a 200k vocabulary. Pool
/// sizes scale proportionally with the configured vocabulary.
enum class QueryClass {
  kUnselective,
  kMedium,
  kSelective,
};

/// \brief The experimental parameters of Figure 6 (defaults scaled from
/// the paper's 805 MB dataset to laptop size; every knob is sweepable).
struct ExperimentConfig {
  text::CorpusParams corpus;

  // Initial score distribution: Zipf 0.75 over [0, 100000] (§5.1, fitted
  // from the real Internet Archive data).
  double max_score = 100000.0;
  double score_zipf = 0.75;

  // Score update workload.
  uint32_t num_updates = 20000;
  /// Mean |delta|; actual deltas are uniform in [0, 2*mean], increases
  /// and decreases equally likely.
  double mean_update_step = 100.0;
  /// Zipf skew of the victim choice: higher-scored docs are updated more
  /// often, as in the Internet Archive update logs.
  double update_zipf = 0.75;
  /// Focus set: percentage of the collection receiving concentrated
  /// attention regardless of current score.
  double focus_set_pct = 1.0;
  /// Percentage of updates that go to the focus set.
  double focus_update_pct = 20.0;
  FocusMode focus_mode = FocusMode::kIncrease;

  // Queries.
  uint32_t query_terms = 2;
  uint32_t num_queries = 50;  // "averaged over 50 independent measurements"
  uint32_t top_k = 20;
  bool conjunctive = true;

  // Query pool sizes at the paper's 200k vocabulary; scaled linearly to
  // the configured vocabulary size.
  uint32_t unselective_pool = 350;
  uint32_t medium_pool = 1600;
  uint32_t selective_pool = 15000;
  uint32_t reference_vocab = 200000;

  uint64_t seed = 2005;

  /// Storage page size. Benchmarks default to 1 KiB pages so that the
  /// laptop-scale lists still span enough pages for the paper's
  /// I/O-driven effects to be visible.
  uint32_t page_size = 4096;

  /// Long-list cache budget, in pages (list_pages=... flag).
  uint64_t list_pool_pages = 1ull << 16;

  /// Simulated cost of one long-list page read from disk, in ms. Used
  /// only for the reported "simulated" times (wall + page_ms * misses):
  /// the paper's 2005 testbed read cold lists from a disk where a page
  /// fetch costs ~0.1-1 ms; our in-memory substrate makes the same reads
  /// nearly free, so this restores the I/O-dominated cost balance
  /// (list_page_ms flag).
  double page_ms = 0.2;

  /// Incremental short→long auto-merge triggers (docs/merge_policy.md).
  /// Off by default so the paper's figures keep their original
  /// accumulate-only update path; bench_merge_policy switches it on
  /// (auto_merge=1, merge_ratio=, merge_min=, merge_budget_kb=,
  /// merge_interval=, merge_sweep= flags).
  MergePolicy merge_policy;
};

}  // namespace svr::workload

#endif  // SVR_WORKLOAD_PARAMS_H_
