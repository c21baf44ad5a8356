#ifndef SVR_INDEX_POSTING_CODEC_H_
#define SVR_INDEX_POSTING_CODEC_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "storage/blob_store.h"

namespace svr::index {

/// Serialized long inverted lists (§4 + §5.2, see
/// docs/posting_lists.md and common/block_codec.h). Postings are grouped
/// into kPostingBlockSize-posting blocks, each preceded by a skip header,
/// with doc deltas group-varint coded:
///
///  - ID list:           [varint n] doc blocks                     — §4.2.1
///  - ID+ts list:        [varint n] doc blocks (+ f32 ts each)     — §5.2
///  - Score list:        [varint n] Score blocks                   — §4.3.1
///                       sorted by (score desc, doc asc); no delta
///                       compression is possible, which is exactly why
///                       Table 1 shows Score-Threshold lists ≈6x ID lists.
///  - Chunk list:        [varint n_groups]
///                       ([varint cid][varint count][varint64 byte_len]
///                        doc blocks)*                             — §4.3.2
///                       groups in decreasing cid; byte_len enables
///                       skipping a whole group without reading it.
///  - Chunk+ts list:     same, doc blocks carry f32 ts
///  - Fancy list:        [f32 min_ts][varint n] doc blocks (+ f32 ts)
///                       doc-ordered, the [21]-style high-term-score list.
///
/// The two block kinds:
///
///  - doc blocks:        [varint last_doc][varint byte_len]
///                       payload = group-varint deltas (+ f32 ts each).
///                       `last_doc` is the absolute id of the block's
///                       final posting: a block whose last_doc is below a
///                       seek target is skipped without decoding it.
///  - Score blocks:      [f64 last_score][fix32 last_doc][varint byte_len]
///                       payload = (f64 score, fix32 doc)*. The header is
///                       the block's scan-order-final (lowest) position,
///                       enabling block skips toward a score threshold.
///
/// The lists are read through the zero-allocation cursors in
/// index/posting_cursor.h.

struct IdPosting {
  DocId doc;
  float term_score;  // 0 when the list carries none
};

struct ScorePosting {
  double score;
  DocId doc;
};

struct ChunkGroup {
  ChunkId cid;
  std::vector<IdPosting> postings;  // doc ascending
};

// --- encoders (bulk build) ---------------------------------------------

/// `docs` must be strictly ascending.
void EncodeIdList(const std::vector<DocId>& docs, std::string* out);
/// `postings` must be strictly ascending by doc.
void EncodeIdTsList(const std::vector<IdPosting>& postings, bool with_ts,
                    std::string* out);
/// `postings` must be sorted by (score desc, doc asc).
void EncodeScoreList(const std::vector<ScorePosting>& postings,
                     std::string* out);
/// `groups` must be sorted by cid descending; postings doc-ascending.
void EncodeChunkList(const std::vector<ChunkGroup>& groups, bool with_ts,
                     std::string* out);
/// `postings` doc-ascending; min_ts = smallest term score among them.
void EncodeFancyList(const std::vector<IdPosting>& postings, float min_ts,
                     std::string* out);

/// Loads an entire fancy list (they are small by construction).
Status DecodeFancyList(storage::BlobStore::Reader reader,
                       std::vector<IdPosting>* postings, float* min_ts);

}  // namespace svr::index

#endif  // SVR_INDEX_POSTING_CODEC_H_
