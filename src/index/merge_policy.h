#ifndef SVR_INDEX_MERGE_POLICY_H_
#define SVR_INDEX_MERGE_POLICY_H_

#include <functional>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/types.h"
#include "index/short_list.h"
#include "text/corpus.h"

namespace svr::index {

/// \brief Picks the terms one auto-merge sweep should fold back into
/// their long lists (docs/merge_policy.md).
///
/// Two triggers, evaluated over the short list's per-term counts and
/// byte shares (never its runs):
///  1. per-term ratio — a term whose short postings exceed
///     `short_ratio * long_count` (and the `min_short_postings` floor)
///     has accumulated enough churn to amortize rewriting its long list;
///  2. global byte budget — when the whole short structure exceeds
///     `short_bytes_budget`, the largest terms are merged regardless of
///     ratio until the projected size is back under budget.
///
/// Candidates are returned largest-short-count first, capped at
/// `max_terms_per_sweep`. `long_counts[t]` is the term's long-list
/// posting count (terms at or past the vector's end count as 0).
std::vector<TermId> SelectMergeCandidates(
    const MergePolicy& policy, const ShortList& short_list,
    const std::vector<uint64_t>& long_counts, uint64_t short_bytes);

/// Every term that currently has short postings (MergeAllTerms sweeps).
std::vector<TermId> AllShortTerms(const ShortList& short_list);

/// One policy sweep, shared by every index method's MaybeAutoMerge():
/// selects candidates (budget measured against ShortList::SizeBytes())
/// and runs `merge_term` on each. Returns how many merged.
Result<uint32_t> RunAutoMergeSweep(
    const MergePolicy& policy, const ShortList& short_list,
    const std::vector<uint64_t>& long_counts,
    const std::function<Status(TermId)>& merge_term);

/// `merge_term` over every term with short postings (MergeAllTerms).
Status MergeEveryShortTerm(const ShortList& short_list,
                           const std::function<Status(TermId)>& merge_term);

/// \brief Bookkeeping for the fully-merged list-state sweep, shared by
/// the Chunk family and Score-Threshold (docs/merge_policy.md): one
/// counter orders "doc last moved into the short lists" against "term
/// last merged". A moved doc's ListScore/ListChunk entry may retire
/// once it has no short postings left (the caller checks that) and
/// every term of its content merged at/after its last move — all its
/// long postings then sit at the current list position. Write-path
/// only.
class MergeSweepTracker {
 public:
  void NoteMove(DocId doc) { doc_move_stamp_[doc] = ++counter_; }
  void NoteMerge(TermId term) { term_merge_stamp_[term] = ++counter_; }
  /// Call when the doc's entry is retired (keeps the map bounded).
  void Forget(DocId doc) { doc_move_stamp_.erase(doc); }
  void Clear() {
    doc_move_stamp_.clear();
    term_merge_stamp_.clear();
  }

  bool FullyMerged(const text::Corpus& corpus, DocId doc) const {
    auto ms = doc_move_stamp_.find(doc);
    const uint64_t moved_at =
        ms == doc_move_stamp_.end() ? 0 : ms->second;
    for (TermId u : corpus.doc(doc).terms()) {
      auto it = term_merge_stamp_.find(u);
      if (it == term_merge_stamp_.end() || it->second < moved_at) {
        return false;
      }
    }
    return true;
  }

 private:
  uint64_t counter_ = 0;
  std::unordered_map<DocId, uint64_t> doc_move_stamp_;
  std::unordered_map<TermId, uint64_t> term_merge_stamp_;
};

/// Write-cadence gate shared by SvrEngine and workload::Experiment: one
/// Tick per index-affecting write; returns true every `check_interval`
/// ticks while the policy is enabled (the count persists across
/// batches).
class MergeCheckCounter {
 public:
  bool Tick(const MergePolicy& policy) {
    if (!policy.enabled) return false;
    const uint32_t interval =
        policy.check_interval == 0 ? 1 : policy.check_interval;
    if (++writes_ < interval) return false;
    writes_ = 0;
    return true;
  }

 private:
  uint64_t writes_ = 0;
};

}  // namespace svr::index

#endif  // SVR_INDEX_MERGE_POLICY_H_
