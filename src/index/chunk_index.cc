#include "index/chunk_index.h"

#include <algorithm>

#include "index/result_heap.h"

namespace svr::index {

Status ChunkIndex::TopK(const Query& query, size_t k,
                        std::vector<SearchResult>* results) {
  return TopKAt(SealSnapshot(), query, k, results);
}

Status ChunkIndex::TopKAt(const IndexSnapshot& snap, const Query& query,
                          size_t k, std::vector<SearchResult>* results,
                          QueryStats* query_stats) {
  // Queries may run concurrently against sealed snapshots: accumulate
  // counters locally and fold them once at the end.
  QueryStats qs;
  results->clear();
  if (query.terms.empty() || k == 0) {
    FoldQueryStats(qs);
    if (query_stats != nullptr) *query_stats = qs;
    return Status::OK();
  }
  const relational::ScoreTable::View scores(snap.score);

  std::vector<CursorScratch> scratch;
  std::vector<MergedChunkStream> streams;
  SVR_RETURN_NOT_OK(
      MakeStreams(snap, query, &scratch, &streams, &qs));

  ResultHeap heap(k);

  auto offer = [&](DocId doc, ChunkId cid, bool from_short) {
    double curr;
    if (JudgeCandidate(snap, scores, doc, cid, from_short, &curr, &qs)) {
      ++qs.candidates_considered;
      heap.Offer(doc, curr);
    }
  };

  while (true) {
    // The next chunk to process: highest cid among live streams.
    bool any_valid = false;
    bool all_valid = true;
    ChunkId current = 0;
    for (const auto& s : streams) {
      if (s.Valid()) {
        current = any_valid ? std::max(current, s.cid()) : s.cid();
        any_valid = true;
      } else {
        all_valid = false;
      }
    }
    if (!any_valid) break;
    if (query.conjunctive && !all_valid) break;

    if (query.conjunctive) {
      bool all_here = true;
      for (const auto& s : streams) {
        if (s.cid() != current) all_here = false;
      }
      if (!all_here) {
        // Some query term has no postings in this chunk: no conjunctive
        // candidate can exist here, so the chunk is skipped outright
        // (group skipping reads none of its pages).
        for (auto& s : streams) {
          if (s.Valid() && s.cid() == current) {
            SVR_RETURN_NOT_OK(s.SkipChunk());
          }
        }
      } else {
        // Doc-id leapfrog intersection within the chunk.
        while (true) {
          bool in_chunk = true;
          DocId max_doc = 0;
          for (const auto& s : streams) {
            if (!s.Valid() || s.cid() != current) {
              in_chunk = false;
              break;
            }
            max_doc = std::max(max_doc, s.doc());
          }
          if (!in_chunk) break;

          bool aligned = true;
          bool from_short = false;
          for (auto& s : streams) {
            if (s.Valid() && s.cid() == current && s.doc() < max_doc) {
              SVR_RETURN_NOT_OK(s.SeekInChunk(max_doc));
            }
            if (!s.Valid() || s.cid() != current || s.doc() != max_doc) {
              aligned = false;
            } else {
              from_short = from_short || s.from_short();
            }
          }
          if (!aligned) continue;

          offer(max_doc, current, from_short);
          for (auto& s : streams) {
            SVR_RETURN_NOT_OK(s.Next());
          }
        }
        // Drain stragglers still inside the chunk (streams whose partner
        // lists ran past it).
        for (auto& s : streams) {
          if (s.Valid() && s.cid() == current) {
            SVR_RETURN_NOT_OK(s.SkipChunk());
          }
        }
      }
    } else {
      // Disjunctive: union of the chunk's docs across streams.
      while (true) {
        DocId min_doc = kInvalidDocId;
        for (const auto& s : streams) {
          if (s.Valid() && s.cid() == current) {
            min_doc = std::min(min_doc, s.doc());
          }
        }
        if (min_doc == kInvalidDocId) break;
        bool from_short = false;
        for (auto& s : streams) {
          if (s.Valid() && s.cid() == current && s.doc() == min_doc) {
            from_short = from_short || s.from_short();
            SVR_RETURN_NOT_OK(s.Next());
          }
        }
        offer(min_doc, current, from_short);
      }
    }

    // End-of-chunk stop test: every remaining document's current score is
    // strictly below LowerBound(current + 1) (it would have needed to
    // climb two chunks to escape, which moves it into the short list).
    if (heap.full() &&
        chunker().LowerBound(current + 1) <= heap.MinScore()) {
      break;
    }
  }

  *results = heap.TakeSorted();
  FoldQueryStats(qs);
  if (query_stats != nullptr) *query_stats = qs;
  return Status::OK();
}

}  // namespace svr::index
