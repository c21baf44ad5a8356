#ifndef SVR_COMMON_TYPES_H_
#define SVR_COMMON_TYPES_H_

#include <cstdint>

namespace svr {

/// Identifier of a document (a row of the indexed table). Matches the
/// paper's "document ID"; the relational primary key maps 1:1 onto it.
using DocId = uint32_t;

/// Identifier of a term in the vocabulary.
using TermId = uint32_t;

/// Identifier of a chunk in the Chunk method. Chunk 0 holds the lowest
/// scores; higher chunk ids hold higher scores.
using ChunkId = uint32_t;

inline constexpr DocId kInvalidDocId = 0xFFFFFFFFu;

/// When and how aggressively short lists are folded back into the long
/// lists by the incremental per-term merge (docs/merge_policy.md). The
/// defaults are off: callers opt in per engine/experiment.
struct MergePolicy {
  bool enabled = false;
  /// Per-term trigger: merge term t once its short postings exceed
  /// `short_ratio` times its long-list posting count. The merge cost is
  /// proportional to the long list, so a fixed ratio amortizes it
  /// against the churn that accumulated.
  double short_ratio = 0.25;
  /// Terms below this many short postings are never merged on their own
  /// (a tiny short range is cheaper to merge at query time than to
  /// rewrite a long list for).
  uint32_t min_short_postings = 64;
  /// Global backstop: when the short lists (ShortList::SizeBytes) exceed
  /// this many bytes, the largest short terms are merged (ratio or not)
  /// until the projected size is back under budget. 0 disables the
  /// backstop.
  uint64_t short_bytes_budget = 0;
  /// Upper bound on terms merged by one policy sweep, so maintenance
  /// never stalls the write path for long.
  uint32_t max_terms_per_sweep = 64;
  /// The engine / experiment driver evaluates the policy every this many
  /// write operations.
  uint32_t check_interval = 256;
};

}  // namespace svr

#endif  // SVR_COMMON_TYPES_H_
