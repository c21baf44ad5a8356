#include "index/merge_policy.h"

#include <algorithm>
#include <utility>

namespace svr::index {

std::vector<TermId> SelectMergeCandidates(
    const MergePolicy& policy, const ShortList& short_list,
    const std::vector<uint64_t>& long_counts, uint64_t short_bytes) {
  if (!policy.enabled) return {};

  const bool over_budget = policy.short_bytes_budget > 0 &&
                           short_bytes > policy.short_bytes_budget;

  // (count desc, term asc) over the dirty terms only.
  std::vector<std::pair<uint64_t, TermId>> by_count;
  by_count.reserve(short_list.dirty_terms().size());
  for (TermId term : short_list.dirty_terms()) {
    by_count.emplace_back(short_list.TermPostingCount(term), term);
  }
  std::sort(by_count.begin(), by_count.end(),
            [](const auto& a, const auto& b) {
              if (a.first != b.first) return a.first > b.first;
              return a.second < b.second;
            });

  std::vector<TermId> out;
  uint64_t reclaimed = 0;
  for (const auto& [count, term] : by_count) {
    if (out.size() >= policy.max_terms_per_sweep) break;
    const uint64_t long_count =
        term < long_counts.size() ? long_counts[term] : 0;
    const bool ratio_hit =
        count >= policy.min_short_postings &&
        static_cast<double>(count) >
            policy.short_ratio * static_cast<double>(long_count);
    const bool budget_hit =
        over_budget &&
        short_bytes - reclaimed > policy.short_bytes_budget;
    if (!ratio_hit && !budget_hit) {
      // by_count is sorted descending: once a term trips neither
      // trigger, smaller ones can still trip the ratio (small long
      // list), so only the budget part short-circuits.
      if (!over_budget) {
        if (count < policy.min_short_postings) break;
        continue;
      }
      continue;
    }
    out.push_back(term);
    reclaimed += short_list.TermApproxBytes(term);
  }
  return out;
}

Result<uint32_t> RunAutoMergeSweep(
    const MergePolicy& policy, const ShortList& short_list,
    const std::vector<uint64_t>& long_counts,
    const std::function<Status(TermId)>& merge_term) {
  const std::vector<TermId> terms = SelectMergeCandidates(
      policy, short_list, long_counts, short_list.SizeBytes());
  for (TermId t : terms) {
    SVR_RETURN_NOT_OK(merge_term(t));
  }
  return static_cast<uint32_t>(terms.size());
}

Status MergeEveryShortTerm(
    const ShortList& short_list,
    const std::function<Status(TermId)>& merge_term) {
  for (TermId t : AllShortTerms(short_list)) {
    SVR_RETURN_NOT_OK(merge_term(t));
  }
  return Status::OK();
}

std::vector<TermId> AllShortTerms(const ShortList& short_list) {
  std::vector<TermId> terms;
  terms.assign(short_list.dirty_terms().begin(),
               short_list.dirty_terms().end());
  std::sort(terms.begin(), terms.end());
  return terms;
}

}  // namespace svr::index
