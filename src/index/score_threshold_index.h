#ifndef SVR_INDEX_SCORE_THRESHOLD_INDEX_H_
#define SVR_INDEX_SCORE_THRESHOLD_INDEX_H_

#include <string>
#include <vector>

#include "index/list_index.h"
#include "index/posting_codec.h"
#include "index/posting_cursor.h"

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
class ScoreThresholdIndex final
    : public ListIndex<double, ScoreThresholdIndex> {
 public:
  ScoreThresholdIndex(const IndexContext& ctx,
                      ScoreThresholdOptions options = {});

  std::string name() const override { return "Score-Threshold"; }

  Status Build() override;
  Status TopKAt(const IndexSnapshot& snap, const Query& query, size_t k,
                std::vector<SearchResult>* results,
                QueryStats* query_stats = nullptr) override;

  /// A document's list position is its list score.
  double PositionOf(double score) const { return score; }
  double thresholdValueOf(double score) const {
    return options_.threshold_ratio * score;
  }

 private:
  friend class ListIndex<double, ScoreThresholdIndex>;

  // Scan order over (score desc, doc asc) positions.
  struct ListPos {
    double score;
    DocId doc;
  };
  static bool PosBefore(const ListPos& a, const ListPos& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.doc < b.doc;
  }
  static bool PosEqual(const ListPos& a, const ListPos& b) {
    return a.score == b.score && a.doc == b.doc;
  }

  class TermStream;

  // --- ListIndex hooks.
  static constexpr ShortList::KeyKind kShortKeys =
      ShortList::KeyKind::kScore;
  using Stream = TermStream;
  using Scratch = ScoreCursorScratch;
  using Merged = std::vector<ScorePosting>;
  void SealListState(IndexSnapshot* snap) {
    snap->list_score = list_state_->Seal();
  }
  static const ListScoreTable::Snapshot& ListStateIn(
      const IndexSnapshot& snap) {
    return snap.list_score;
  }
  static double PositionIn(const TermStream& stream);
  ScorePostingCursor LongCursor(const storage::BlobRef& ref,
                                ScoreCursorScratch* scratch) const {
    return ScorePostingCursor(blobs_->NewReader(ref), scratch);
  }
  static void AppendMerged(const TermStream& stream, Merged* merged);
  void EncodeMerged(const Merged& merged, std::string* buf) const {
    EncodeScoreList(merged, buf);
  }
  Status BuildLongLists();

  ScoreThresholdOptions options_;
};

// Union of one term's short list and long list in (score desc, doc asc)
// order. A short REM posting at the long posting's position cancels it;
// a short ADD posting at the same position shadows it.
class ScoreThresholdIndex::TermStream {
 public:
  TermStream(ScorePostingCursor long_cursor, ShortList::Cursor short_cursor,
             uint64_t* scanned)
      : long_(std::move(long_cursor)),
        short_(std::move(short_cursor)),
        scanned_(scanned) {}

  Status Init() {
    SVR_RETURN_NOT_OK(long_.Init());
    return Advance();
  }

  bool Valid() const { return valid_; }
  double score() const { return pos_.score; }
  DocId doc() const { return pos_.doc; }
  bool from_short() const { return from_short_; }
  ListPos pos() const { return pos_; }

  Status Next() { return Advance(); }

  /// Positions the stream on its first posting at or after `target` in
  /// (score desc, doc asc) scan order. The long side gallops over whole
  /// v2 blocks by their (last_score, last_doc) headers.
  Status SeekTo(const ListPos& target) {
    if (!valid_ || !PosBefore(pos_, target)) return Status::OK();
    SVR_RETURN_NOT_OK(long_.SeekTo(target.score, target.doc));
    while (short_.Valid()) {
      const ListPos sp{short_.sort_value(), short_.doc()};
      if (!PosBefore(sp, target)) break;
      short_.Next();
    }
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
      ListPos lp{l ? long_.score() : 0.0, l ? long_.doc() : 0};
      ListPos sp{s ? short_.sort_value() : 0.0, s ? short_.doc() : 0};

      if (l && (!s || PosBefore(lp, sp))) {
        pos_ = lp;
        from_short_ = false;
        valid_ = true;
        ++*scanned_;
        return long_.Next();
      }
      if (l && s && PosEqual(lp, sp)) {
        *scanned_ += 2;
        const PostingOp op = short_.op();
        pos_ = sp;
        from_short_ = true;
        SVR_RETURN_NOT_OK(long_.Next());
        short_.Next();
        if (op == PostingOp::kRemove) continue;  // cancel both
        valid_ = true;
        return Status::OK();
      }
      // Short posting strictly first.
      ++*scanned_;
      const PostingOp op = short_.op();
      pos_ = sp;
      from_short_ = true;
      short_.Next();
      if (op == PostingOp::kRemove) continue;  // stray REM
      valid_ = true;
      return Status::OK();
    }
  }

  ScorePostingCursor long_;
  ShortList::Cursor short_;
  uint64_t* scanned_;
  bool valid_ = false;
  ListPos pos_{0.0, 0};
  bool from_short_ = false;
};

inline double ScoreThresholdIndex::PositionIn(const TermStream& stream) {
  return stream.score();
}

inline void ScoreThresholdIndex::AppendMerged(const TermStream& stream,
                                              Merged* merged) {
  merged->push_back({stream.score(), stream.doc()});
}

}  // namespace svr::index

#endif  // SVR_INDEX_SCORE_THRESHOLD_INDEX_H_
