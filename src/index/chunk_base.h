#ifndef SVR_INDEX_CHUNK_BASE_H_
#define SVR_INDEX_CHUNK_BASE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/versioned_array.h"
#include "index/chunker.h"
#include "index/list_state.h"
#include "index/merge_policy.h"
#include "index/posting_codec.h"
#include "index/posting_cursor.h"
#include "index/short_list.h"
#include "index/text_index.h"
#include "storage/blob_store.h"

namespace svr::index {

/// \brief Union of one term's chunked long list (blob) and chunk-keyed
/// short list (B+-tree), in (cid desc, doc asc) order, with REM
/// cancellation. The workhorse cursor of the Chunk-family query
/// algorithms.
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
class ChunkIndexBase : public TextIndex {
 public:
  ChunkIndexBase(const IndexContext& ctx, ChunkIndexOptions options,
                 bool with_term_scores);

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
  Result<std::unique_ptr<TermMergePlan>> PrepareMergeTerm(
      TermId term) override;
  Result<std::unique_ptr<TermMergePlan>> PrepareMergeTermAt(
      const IndexSnapshot& snap, TermId term) override;
  Status InstallMergeTerm(TermMergePlan* plan,
                          const BlobRetirer& retire) override;
  Status ReclaimBlob(const storage::BlobRef& ref) override;
  Status RebuildIndex() override;

  uint64_t LongListBytes() const override;
  uint64_t ShortListBytes() const override;
  uint64_t ShortPostingCount() const override {
    return short_list_->num_postings();
  }

  /// The chunk boundaries. Immutable between (offline, quiescent)
  /// RebuildIndex calls, so snapshot queries read it with no lock.
  const Chunker& chunker() const { return *chunker_; }

  /// The doc's current list chunk (ListChunk entry, or the chunk of its
  /// long-list postings). Public for invariant checking: the chunk
  /// analogue of Lemma 1.2 is ChunkOf(score(d)) <= ListChunkOf(d) + 1.
  ChunkId ListChunkOf(DocId doc, bool* in_short) const;
  /// ListChunkOf against snapshot views (the lock-free query path).
  ChunkId ListChunkOfAt(const ListChunkTable::Snapshot& list_state,
                        const relational::ScoreTable::View& scores,
                        DocId doc, bool* in_short) const;

  /// Live ListChunk entries (diagnostics: the fully-merged sweep must
  /// keep this from growing under long uptimes).
  uint64_t ListStateSize() const { return list_state_->size(); }

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

  struct MergePlanImpl;

  Status BuildLongLists();
  float TsOf(DocId doc, TermId term) const;

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

  IndexContext ctx_;
  ChunkIndexOptions options_;
  bool with_ts_;
  std::unique_ptr<storage::BlobStore> blobs_;
  /// term -> published long-list blob (versioned for snapshot readers).
  VersionedArray<storage::BlobRef, 128> longs_;
  std::vector<uint64_t> long_counts_;  // postings per long list
  std::unique_ptr<ShortList> short_list_;
  std::unique_ptr<ListChunkTable> list_state_;
  std::unique_ptr<Chunker> chunker_;
  bool has_deletions_ = false;

  /// Fully-merged sweep bookkeeping (docs/merge_policy.md): retires an
  /// in_short ListChunk entry once the doc has no short postings left
  /// and every term of its content merged at/after the doc's last move.
  MergeSweepTracker sweep_;
};

}  // namespace svr::index

#endif  // SVR_INDEX_CHUNK_BASE_H_
