#ifndef SVR_INDEX_SCORE_THRESHOLD_INDEX_H_
#define SVR_INDEX_SCORE_THRESHOLD_INDEX_H_

#include <memory>
#include <string>
#include <vector>

#include "common/versioned_array.h"
#include "index/list_state.h"
#include "index/merge_policy.h"
#include "index/posting_codec.h"
#include "index/short_list.h"
#include "index/text_index.h"
#include "storage/blob_store.h"

namespace svr::index {

struct ScoreThresholdOptions {
  /// The paper's threshold ratio `t`: thresholdValueOf(s) = t * s, t >= 1.
  /// 11.24 is the optimum the paper finds for the default workload.
  double threshold_ratio = 11.24;
};

/// \brief The Score-Threshold method (§4.3.1).
///
/// Per term: an immutable score-ordered *long* list (blob) plus a small
/// mutable score-ordered *short* list (a coded run). A document's
/// postings move into the short list only when its score exceeds
/// `thresholdValueOf(listScore) = t * listScore` (Algorithm 1); queries
/// merge short ∪ long per term and keep scanning past the first k hits
/// until `thresholdValueOf(currentListScore) < kthListScore` (Algorithm 2),
/// which provably yields the top-k under the *latest* scores.
class ScoreThresholdIndex final : public TextIndex {
 public:
  ScoreThresholdIndex(const IndexContext& ctx,
                      ScoreThresholdOptions options = {});

  std::string name() const override { return "Score-Threshold"; }

  Status Build() override;
  Status OnScoreUpdate(DocId doc, double new_score) override;
  Status TopK(const Query& query, size_t k,
              std::vector<SearchResult>* results) override;
  Status TopKAt(const IndexSnapshot& snap, const Query& query, size_t k,
                std::vector<SearchResult>* results,
                QueryStats* query_stats = nullptr) override;
  IndexSnapshot SealSnapshot() override;

  Status InsertDocument(DocId doc, double score) override;
  Status DeleteDocument(DocId doc) override;
  Status UpdateContent(DocId doc, const text::Document& old_doc) override;
  Status MergeTerm(TermId term) override;
  Status MergeAllTerms() override;
  Result<uint32_t> MaybeAutoMerge() override;
  std::vector<TermId> AutoMergeCandidates() const override;
  Result<std::unique_ptr<TermMergePlan>> PrepareMergeTerm(
      TermId term) override;
  Result<std::unique_ptr<TermMergePlan>> PrepareMergeTermAt(
      const IndexSnapshot& snap, TermId term) override;
  Status InstallMergeTerm(TermMergePlan* plan,
                          const BlobRetirer& retire) override;
  Status ReclaimBlob(const storage::BlobRef& ref) override;
  Status RebuildIndex() override;

  uint64_t LongListBytes() const override {
    return blobs_->TotalDataBytes();
  }
  uint64_t ShortListBytes() const override {
    return short_list_->SizeBytes() + list_state_->SizeBytes();
  }
  uint64_t ShortPostingCount() const override {
    return short_list_->num_postings();
  }

  double thresholdValueOf(double score) const {
    return options_.threshold_ratio * score;
  }

  /// The doc's list position: ListScore entry if present, else its
  /// current (== original) score. Public for invariant checking
  /// (Lemma 1.1/1.2 of Appendix B).
  double ListScoreOf(DocId doc, bool* in_short) const;

  /// Live ListScore entries (diagnostics: the fully-merged sweep must
  /// keep this from growing under long uptimes).
  uint64_t ListStateSize() const { return list_state_->size(); }

 private:
  class TermStream;
  struct MergePlanImpl;

  Status BuildLongLists();
  static double ListScoreOfAt(const ListScoreTable::Snapshot& list_state,
                              const relational::ScoreTable::View& scores,
                              DocId doc, bool* in_short);

  IndexContext ctx_;
  ScoreThresholdOptions options_;
  std::unique_ptr<storage::BlobStore> blobs_;
  /// term -> published long-list blob (versioned for snapshot readers).
  VersionedArray<storage::BlobRef, 128> longs_;
  std::vector<uint64_t> long_counts_;  // postings per long list
  std::unique_ptr<ShortList> short_list_;
  std::unique_ptr<ListScoreTable> list_state_;
  bool has_deletions_ = false;

  /// Fully-merged sweep bookkeeping (docs/merge_policy.md).
  MergeSweepTracker sweep_;
};

}  // namespace svr::index

#endif  // SVR_INDEX_SCORE_THRESHOLD_INDEX_H_
