#ifndef SVR_INDEX_POSTING_CURSOR_H_
#define SVR_INDEX_POSTING_CURSOR_H_

#include <cstdint>

#include "common/block_codec.h"
#include "common/status.h"
#include "common/types.h"
#include "storage/blob_store.h"

namespace svr::index {

struct QueryStats;

/// \brief Zero-allocation cursors over the long inverted lists.
///
/// Each cursor refills one block of postings at a time into caller-owned
/// scratch buffers; Next() is an array increment, and SeekTo() skips
/// whole blocks by their headers without fetching or decoding their
/// payload pages.
///
/// The optional trailing `QueryStats*` counts decode/skip/seek events
/// into the per-query trace (docs/observability.md). Query paths pass
/// their per-query struct; merge/codec paths leave it null (unmetered —
/// merge work is attributed through the merge histograms instead).

/// Largest doc-block payload: group-varint deltas plus 4-byte term
/// scores for a full block.
inline constexpr size_t kMaxDocBlockPayload =
    GroupVarintMaxBytes(kPostingBlockSize) + kPostingBlockSize * 4;

/// Scratch for ID/chunk/fancy cursors. Owned by the caller (typically
/// embedded in a per-term stream) so a whole query runs without heap
/// allocation in the decode path.
struct CursorScratch {
  alignas(64) uint32_t docs[kPostingBlockSize];
  alignas(64) float ts[kPostingBlockSize];
  alignas(64) char bytes[kMaxDocBlockPayload];
};

/// Scratch for Score-list cursors.
struct ScoreCursorScratch {
  alignas(64) double scores[kPostingBlockSize];
  alignas(64) uint32_t docs[kPostingBlockSize];
  alignas(64) char bytes[kPostingBlockSize * 12];
};

/// Cursor over an ID / ID+ts list (and the doc-block body of a fancy
/// list, whose float header the caller consumes first).
class IdPostingCursor {
 public:
  IdPostingCursor(storage::BlobStore::Reader reader, bool with_ts,
                  CursorScratch* scratch, QueryStats* qs = nullptr);

  Status Init();  // reads the count header, loads the first block
  bool Valid() const { return pos_ < block_n_; }
  DocId doc() const { return scratch_->docs[pos_]; }
  float term_score() const { return scratch_->ts[pos_]; }
  uint32_t count() const { return count_; }

  Status Next() {
    if (pos_ + 1 < block_n_) {
      ++pos_;
      return Status::OK();
    }
    return LoadNextBlock(/*skip_below=*/0);
  }

  /// Positions the cursor on the first posting with doc >= target (or
  /// exhausts it). Blocks whose header last_doc < target are skipped
  /// without reading their payload.
  Status SeekTo(DocId target);

 private:
  // Loads the next block into scratch. A block whose last_doc is below
  // `skip_below` has its payload skipped instead of decoded
  // (block_n_ stays 0; the caller loops). skip_below == 0 always decodes.
  Status LoadNextBlock(DocId skip_below);

  storage::BlobStore::Reader reader_;
  CursorScratch* scratch_;
  QueryStats* qs_;  // null = unmetered
  bool with_ts_;
  uint32_t count_ = 0;
  uint32_t consumed_ = 0;  // postings decoded or skipped so far
  DocId prev_last_ = 0;    // delta base chaining across blocks
  uint32_t block_n_ = 0;
  uint32_t pos_ = 0;
};

/// Group-structured cursor over a chunk list: (cid desc) groups, doc-
/// ascending postings within each group. Usage:
///   while (c.HasGroup()) {
///     cid = c.cid();
///     (iterate postings with Valid/doc/term_score/Next)  or  SkipGroup();
///     c.NextGroup();
///   }
class ChunkPostingCursor {
 public:
  ChunkPostingCursor(storage::BlobStore::Reader reader, bool with_ts,
                     CursorScratch* scratch, QueryStats* qs = nullptr);

  Status Init();
  bool HasGroup() const { return group_index_ < n_groups_; }
  ChunkId cid() const { return cid_; }

  bool Valid() const { return pos_ < block_n_; }
  DocId doc() const { return scratch_->docs[pos_]; }
  float term_score() const { return scratch_->ts[pos_]; }

  Status Next() {
    if (pos_ + 1 < block_n_) {
      ++pos_;
      return Status::OK();
    }
    return LoadNextBlock(/*skip_below=*/0);
  }

  /// Within the current group: first posting with doc >= target, or
  /// group exhausted (Valid() false). Never crosses into the next group.
  Status SeekInGroup(DocId target);

  /// Skips the rest of the current group without touching its pages.
  Status SkipGroup();
  /// Advances to the next group header and its first posting.
  Status NextGroup();

 private:
  Status ReadGroupHeader();
  Status LoadNextBlock(DocId skip_below);

  storage::BlobStore::Reader reader_;
  CursorScratch* scratch_;
  QueryStats* qs_;  // null = unmetered
  bool with_ts_;
  uint32_t n_groups_ = 0;
  uint32_t group_index_ = 0;
  ChunkId cid_ = 0;
  uint32_t group_count_ = 0;
  uint64_t group_end_offset_ = 0;
  uint32_t consumed_in_group_ = 0;
  DocId prev_last_ = 0;
  uint32_t block_n_ = 0;
  uint32_t pos_ = 0;
};

/// Cursor over a Score list in (score desc, doc asc) scan order.
class ScorePostingCursor {
 public:
  ScorePostingCursor(storage::BlobStore::Reader reader,
                     ScoreCursorScratch* scratch, QueryStats* qs = nullptr);

  Status Init();
  bool Valid() const { return pos_ < block_n_; }
  double score() const { return scratch_->scores[pos_]; }
  DocId doc() const { return scratch_->docs[pos_]; }

  Status Next() {
    if (pos_ + 1 < block_n_) {
      ++pos_;
      return Status::OK();
    }
    return LoadNextBlock(/*have_target=*/false, 0.0, 0);
  }

  /// Positions the cursor on the first posting at or after the
  /// (score, doc) position in scan order — the galloping primitive of
  /// the Score-Threshold conjunctive alignment. Whole blocks are skipped
  /// by their (last_score, last_doc) headers without decoding them.
  Status SeekTo(double score, DocId doc);

 private:
  Status LoadNextBlock(bool have_target, double tscore, DocId tdoc);

  storage::BlobStore::Reader reader_;
  ScoreCursorScratch* scratch_;
  QueryStats* qs_;  // null = unmetered
  uint32_t count_ = 0;
  uint32_t consumed_ = 0;
  uint32_t block_n_ = 0;
  uint32_t pos_ = 0;
};

}  // namespace svr::index

#endif  // SVR_INDEX_POSTING_CURSOR_H_
