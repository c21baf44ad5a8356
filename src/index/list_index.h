#ifndef SVR_INDEX_LIST_INDEX_H_
#define SVR_INDEX_LIST_INDEX_H_

#include <memory>
#include <string>
#include <vector>

#include "common/versioned_array.h"
#include "index/list_state.h"
#include "index/merge_policy.h"
#include "index/short_list.h"
#include "index/text_index.h"
#include "storage/blob_store.h"

namespace svr::index {

/// The ID method's list position: none. Its lists are in doc order, so
/// every short posting sits at sort value 0.0 and no score moves one.
struct DocOrder {
  constexpr operator double() const { return 0.0; }
};

/// \brief The inverted-list lifecycle of ID (§4.2.1), Score-Threshold
/// (§4.3.1) and the Chunk family (§4.3.2-3): immutable long lists in a
/// blob store plus a mutable short list per term, the ListScore /
/// ListChunk column of each document's list position, Algorithm 1, and
/// the two-phase incremental merge (docs/merge_policy.md,
/// docs/concurrency.md).
///
/// `Pos` is the method's list position: the score itself
/// (Score-Threshold), a chunk id (Chunk) or DocOrder (ID). `Method` is
/// the derived class; it supplies what the paper says differs, as
/// members this base calls at compile time:
///
///   kShortKeys                        the short list's key kind
///   PositionOf(score)                 the position of a score
///   thresholdValueOf(pos)             Algorithm 1's move threshold
///   SealListState(snapshot*)          where a snapshot keeps ListScore
///                                     / ListChunk
///   ListStateIn(snapshot), PositionIn(stream)
///                                     the same, read back by the
///                                     default LiveInMerge (not ID)
///   Stream, Scratch, Merged           the merged (long ∪ short) stream,
///                                     its cursor scratch, and the live
///                                     postings a merge collects
///   LongCursor(ref, scratch)          a term's long-list cursor
///   AppendMerged(stream, merged)      one live posting's payload
///   EncodeMerged(merged, buf)         the long-list encoder
///   BuildLongLists()                  the corpus gather of Build
///
/// The defaults of RecordListPosition, RecordMove, LiveInMerge and
/// RetireListState keep the list-state column; ID keeps none and
/// replaces each with a no-op. BuildExtras and OnTermMerged are no-ops
/// unless the method defines them (Chunk-TermScore's fancy lists).
template <typename Pos, typename Method>
class ListIndex : public TextIndex {
 public:
  Status Build() override;
  Status OnScoreUpdate(DocId doc, double new_score) override;
  IndexSnapshot SealSnapshot() override;

  Status InsertDocument(DocId doc, double score) override;
  Status DeleteDocument(DocId doc) override;
  Status UpdateContent(DocId doc, const text::Document& old_doc) override;
  Status MergeTerm(TermId term) override;
  Status MergeAllTerms() override;
  Result<uint32_t> MaybeAutoMerge() override;
  std::vector<TermId> AutoMergeCandidates() const override;
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
  uint64_t ListStateSize() const override { return list_state_->size(); }

  /// The doc's list position: its ListScore/ListChunk entry if present,
  /// else the position of its current (== original) score. Public for
  /// invariant checking (Lemma 1 of Appendix B and its chunk analogue).
  Pos ListPositionOf(DocId doc, bool* in_short) const;
  /// ListPositionOf against snapshot views (the lock-free query path).
  Pos ListPositionOfAt(
      const typename ListStateTable<Pos>::Snapshot& list_state,
      const relational::ScoreTable::View& scores, DocId doc,
      bool* in_short) const;

 protected:
  /// Everything one PrepareMergeTerm hands its InstallMergeTerm.
  struct MergePlan;

  ListIndex(const IndexContext& ctx, bool with_term_scores);

  float TsOf(DocId doc, TermId term) const;

  // Default hooks; see the class comment.
  void RecordListPosition(DocId doc, Pos pos) {
    list_state_->Put(doc, pos, false);
  }
  void RecordMove(DocId doc, Pos pos) {
    list_state_->Put(doc, pos, true);
    sweep_.NoteMove(doc);
  }
  template <typename Stream>
  bool LiveInMerge(const IndexSnapshot& snap, const Stream& stream,
                   MergePlan* plan) const;
  void RetireListState(const MergePlan& plan);
  Status BuildExtras() { return Status::OK(); }
  template <typename Merged>
  Status OnTermMerged(TermId /*term*/, const Merged& /*merged*/) {
    return Status::OK();
  }

  IndexContext ctx_;
  bool with_ts_;
  std::unique_ptr<storage::BlobStore> blobs_;
  /// term -> published long-list blob; versioned so sealed snapshots
  /// keep resolving the blob a pinned reader streams.
  VersionedArray<storage::BlobRef, 128> longs_;
  std::vector<uint64_t> long_counts_;  // postings per long list
  std::unique_ptr<ShortList> short_list_;
  std::unique_ptr<ListStateTable<Pos>> list_state_;
  bool has_deletions_ = false;

  /// Fully-merged sweep bookkeeping (docs/merge_policy.md): retires an
  /// in_short list-state entry once the doc has no short postings left
  /// and every term of its content merged at/after the doc's last move.
  MergeSweepTracker sweep_;

 private:
  Method& method() { return static_cast<Method&>(*this); }
  const Method& method() const { return static_cast<const Method&>(*this); }
};

}  // namespace svr::index

#endif  // SVR_INDEX_LIST_INDEX_H_
