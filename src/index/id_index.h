#ifndef SVR_INDEX_ID_INDEX_H_
#define SVR_INDEX_ID_INDEX_H_

#include <string>
#include <vector>

#include "index/list_index.h"
#include "index/posting_codec.h"
#include "index/posting_cursor.h"

namespace svr::index {

/// \brief The ID method (§4.2.1) and its ID-TermScore extension (§5.3.5).
///
/// Long lists hold delta-compressed doc ids in increasing id order
/// (optionally with per-posting term scores); the current score lives
/// only in the Score table. Score updates touch nothing but the Score
/// table — the best possible update cost — while every query must scan
/// the full inverted list of each query term.
///
/// Document insertions/content updates go to an id-ordered short list
/// (the standard IR technique the paper references), unioned with the
/// long list at query time.
class IdIndex final : public ListIndex<DocOrder, IdIndex> {
 public:
  /// \param with_term_scores false -> "ID", true -> "ID-TermScore".
  IdIndex(const IndexContext& ctx, bool with_term_scores,
          TermScoreOptions ts_options = {});

  std::string name() const override {
    return with_ts_ ? "ID-TermScore" : "ID";
  }

  Status TopKAt(const IndexSnapshot& snap, const Query& query, size_t k,
                std::vector<SearchResult>* results,
                QueryStats* query_stats = nullptr) override;

 private:
  friend class ListIndex<DocOrder, IdIndex>;

  // Unified (long ∪ short) doc-ordered stream for one term, with REM
  // cancellation.
  class TermStream;

  // --- ListIndex hooks. ID keeps no list state: a score change touches
  // only the Score table, and no position passes its own threshold, so
  // no posting ever moves.
  static constexpr ShortList::KeyKind kShortKeys = ShortList::KeyKind::kId;
  using Stream = TermStream;
  using Scratch = CursorScratch;
  using Merged = std::vector<IdPosting>;
  DocOrder PositionOf(double /*score*/) const { return {}; }
  DocOrder thresholdValueOf(DocOrder pos) const { return pos; }
  void SealListState(IndexSnapshot* /*snap*/) {}
  void RecordListPosition(DocId /*doc*/, DocOrder /*pos*/) {}
  void RecordMove(DocId /*doc*/, DocOrder /*pos*/) {}
  bool LiveInMerge(const IndexSnapshot& /*snap*/,
                   const TermStream& /*stream*/,
                   MergePlan* /*plan*/) const {
    return true;
  }
  void RetireListState(const MergePlan& /*plan*/) {}
  IdPostingCursor LongCursor(const storage::BlobRef& ref,
                             CursorScratch* scratch) const {
    return IdPostingCursor(blobs_->NewReader(ref), with_ts_, scratch);
  }
  static void AppendMerged(const TermStream& stream, Merged* merged);
  void EncodeMerged(const Merged& merged, std::string* buf) const {
    EncodeIdTsList(merged, with_ts_, buf);
  }
  Status BuildLongLists();

  TermScoreOptions ts_options_;
};

// Merges the term's long list (doc-ordered blob) with its doc-ordered
// short run. REM short postings cancel the matching long posting; ADD
// postings either replace a matching long posting or stand alone (fresh
// documents).
class IdIndex::TermStream {
 public:
  TermStream(IdPostingCursor long_cursor, ShortList::Cursor short_cursor,
             uint64_t* scanned)
      : long_(std::move(long_cursor)),
        short_(std::move(short_cursor)),
        scanned_(scanned) {}

  Status Init() {
    SVR_RETURN_NOT_OK(long_.Init());
    return Advance();
  }

  bool Valid() const { return valid_; }
  DocId doc() const { return doc_; }
  float term_score() const { return ts_; }

  Status Next() { return Advance(); }

  /// Positions the stream on its first posting with doc >= target. The
  /// long side gallops over whole v2 blocks; skipped postings — and the
  /// short postings they would have merged with — are irrelevant to a
  /// conjunctive intersection that already passed them.
  Status SeekTo(DocId target) {
    if (!valid_ || doc_ >= target) return Status::OK();
    SVR_RETURN_NOT_OK(long_.SeekTo(target));
    while (short_.Valid() && short_.doc() < target) short_.Next();
    return Advance();
  }

 private:
  Status Advance() {
    while (true) {
      const bool l = long_.Valid();
      const bool s = short_.Valid();
      if (!l && !s) {
        valid_ = false;
        return Status::OK();
      }
      if (l && (!s || long_.doc() < short_.doc())) {
        doc_ = long_.doc();
        ts_ = long_.term_score();
        valid_ = true;
        ++*scanned_;
        return long_.Next();
      }
      if (l && s && long_.doc() == short_.doc()) {
        // Same doc on both sides: the short posting governs.
        ++*scanned_;
        ++*scanned_;
        const PostingOp op = short_.op();
        doc_ = short_.doc();
        ts_ = short_.term_score();
        SVR_RETURN_NOT_OK(long_.Next());
        short_.Next();
        if (op == PostingOp::kRemove) continue;  // cancelled
        valid_ = true;
        return Status::OK();
      }
      // Short-only posting.
      ++*scanned_;
      const PostingOp op = short_.op();
      doc_ = short_.doc();
      ts_ = short_.term_score();
      short_.Next();
      if (op == PostingOp::kRemove) continue;  // stray REM, ignore
      valid_ = true;
      return Status::OK();
    }
  }

  IdPostingCursor long_;
  ShortList::Cursor short_;
  uint64_t* scanned_;
  bool valid_ = false;
  DocId doc_ = 0;
  float ts_ = 0.0f;
};

inline void IdIndex::AppendMerged(const TermStream& stream,
                                  Merged* merged) {
  merged->push_back({stream.doc(), stream.term_score()});
}

}  // namespace svr::index

#endif  // SVR_INDEX_ID_INDEX_H_
