#ifndef SVR_INDEX_CHUNK_BASE_H_
#define SVR_INDEX_CHUNK_BASE_H_

#include <memory>
#include <string>
#include <vector>

#include "index/chunker.h"
#include "index/list_index.h"
#include "index/posting_codec.h"
#include "index/posting_cursor.h"

namespace svr::index {

/// \brief Union of one term's chunked long list (blob) and chunk-keyed
/// short run, in (cid desc, doc asc) order, with REM cancellation. The
/// workhorse cursor of the Chunk-family query algorithms.
class MergedChunkStream {
 public:
  MergedChunkStream(ChunkPostingCursor long_cursor,
                    ShortList::Cursor short_cursor, uint64_t* scanned);

  Status Init();

  bool Valid() const { return valid_; }
  ChunkId cid() const { return cid_; }
  DocId doc() const { return doc_; }
  float term_score() const { return ts_; }
  bool from_short() const { return from_short_; }

  Status Next();

  /// Positions the stream on its first posting of the *current* chunk
  /// with doc >= target (or past the chunk if none remains). The long
  /// side gallops over whole v2 blocks by their skip headers.
  Status SeekInChunk(DocId target);

  /// Advances past every remaining posting of the current chunk. Long
  /// groups are skipped by byte length — their pages are never fetched.
  Status SkipChunk();

 private:
  Status NormalizeLong();  // move long_ to a valid posting or exhaust
  Status Advance();

  ChunkPostingCursor long_;
  ShortList::Cursor short_;
  uint64_t* scanned_;
  bool valid_ = false;
  ChunkId cid_ = 0;
  DocId doc_ = 0;
  float ts_ = 0.0f;
  bool from_short_ = false;
};

struct ChunkIndexOptions {
  ChunkOptions chunking;
  TermScoreOptions term_scores;
};

/// \brief State and maintenance shared by the Chunk method (§4.3.2) and
/// Chunk-TermScore (§4.3.3): chunked long lists, chunk-keyed short list,
/// the ListChunk table, and Algorithm 1 with the chunk threshold
/// thresholdValueOf(cid) = cid + 1.
class ChunkIndexBase : public ListIndex<ChunkId, ChunkIndexBase> {
 public:
  ChunkIndexBase(const IndexContext& ctx, ChunkIndexOptions options,
                 bool with_term_scores);

  /// The chunk boundaries. Immutable between (offline, quiescent)
  /// RebuildIndex calls, so snapshot queries read it with no lock.
  const Chunker& chunker() const { return *chunker_; }

  /// A document's list position is the chunk of its score; the chunk
  /// analogue of Lemma 1.2 is PositionOf(score(d)) <=
  /// thresholdValueOf(ListPositionOf(d)).
  ChunkId PositionOf(double score) const { return chunker_->ChunkOf(score); }
  ChunkId thresholdValueOf(ChunkId cid) const {
    return Chunker::ThresholdValueOf(cid);
  }

 protected:
  /// Hook for method-specific structures (fancy lists). Runs after the
  /// long lists are (re)built.
  virtual Status BuildExtras() { return Status::OK(); }

  /// Hook for method-specific per-term structures after MergeTerm
  /// rewrote `term`'s long list to exactly `groups` (fancy-list refresh).
  virtual Status OnTermMerged(TermId term,
                              const std::vector<ChunkGroup>& groups) {
    (void)term;
    (void)groups;
    return Status::OK();
  }

  /// One merged stream per query term over `snap`, charging scan and
  /// cursor work to `qs` (the calling query's local counters). `scratch`
  /// must outlive `streams` (the cursors refill blocks into it) and is
  /// sized by this call.
  Status MakeStreams(const IndexSnapshot& snap, const Query& query,
                     std::vector<CursorScratch>* scratch,
                     std::vector<MergedChunkStream>* streams,
                     QueryStats* qs);

  /// Classifies a candidate seen at a list position: true, with its
  /// current score from the Score table, when it belongs in the result
  /// heap. Stale long postings of short-moved documents, deleted and
  /// never-scored documents are not candidates. `cid` is the chunk the
  /// posting was found in — a long posting of a moved document is stale
  /// exactly when it sits at a chunk other than the document's current
  /// list chunk (incrementally merged postings sit *at* it and are live;
  /// see docs/merge_policy.md). Probe work is charged to the calling
  /// query's counters `qs`. Reads only the given snapshot views.
  static bool JudgeCandidate(const IndexSnapshot& snap,
                             const relational::ScoreTable::View& scores,
                             DocId doc, ChunkId cid, bool from_short,
                             double* current_score, QueryStats* qs);

  ChunkIndexOptions options_;

 private:
  friend class ListIndex<ChunkId, ChunkIndexBase>;

  // --- ListIndex hooks.
  static constexpr ShortList::KeyKind kShortKeys =
      ShortList::KeyKind::kChunk;
  using Stream = MergedChunkStream;
  using Scratch = CursorScratch;
  using Merged = std::vector<ChunkGroup>;
  void SealListState(IndexSnapshot* snap) {
    snap->list_state = list_state_->Seal();
  }
  static const ListChunkTable::Snapshot& ListStateIn(
      const IndexSnapshot& snap) {
    return snap.list_state;
  }
  static ChunkId PositionIn(const MergedChunkStream& stream) {
    return stream.cid();
  }
  ChunkPostingCursor LongCursor(const storage::BlobRef& ref,
                                CursorScratch* scratch) const {
    return ChunkPostingCursor(blobs_->NewReader(ref), with_ts_, scratch);
  }
  static void AppendMerged(const MergedChunkStream& stream,
                           Merged* groups) {
    const ChunkId cid = stream.cid();
    if (groups->empty() || groups->back().cid != cid) {
      groups->push_back(ChunkGroup{cid, {}});
    }
    groups->back().postings.push_back({stream.doc(), stream.term_score()});
  }
  void EncodeMerged(const Merged& groups, std::string* buf) const {
    EncodeChunkList(groups, with_ts_, buf);
  }
  Status BuildLongLists();

  std::unique_ptr<Chunker> chunker_;
};

}  // namespace svr::index

#endif  // SVR_INDEX_CHUNK_BASE_H_
