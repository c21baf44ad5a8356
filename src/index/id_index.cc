#include "index/id_index.h"

#include <algorithm>

#include "index/result_heap.h"

namespace svr::index {

IdIndex::IdIndex(const IndexContext& ctx, bool with_term_scores,
                 TermScoreOptions ts_options)
    : ListIndex(ctx, with_term_scores), ts_options_(ts_options) {}

Status IdIndex::BuildLongLists() {
  const text::Corpus& corpus = *ctx_.corpus;
  // Gather doc-ordered postings per term. Iterating docs in id order
  // makes every per-term vector naturally sorted.
  std::vector<std::vector<IdPosting>> postings(corpus.vocab_size());
  for (DocId d = 0; d < corpus.num_docs(); ++d) {
    BumpStat(&IndexStats::corpus_docs_scanned);
    // Rebuilt indexes drop deleted documents.
    if (ctx_.score_table->At(d).deleted()) continue;
    const text::Document& doc = corpus.doc(d);
    for (size_t i = 0; i < doc.terms().size(); ++i) {
      const TermId t = doc.terms()[i];
      float ts = 0.0f;
      if (with_ts_) ts = static_cast<float>(doc.NormalizedTf(t));
      postings[t].push_back({d, ts});
    }
  }

  long_counts_.assign(corpus.vocab_size(), 0);
  std::string buf;
  for (TermId t = 0; t < postings.size(); ++t) {
    if (postings[t].empty()) {
      if (longs_.Get(t).valid()) longs_.Set(t, storage::BlobRef());
      continue;
    }
    buf.clear();
    EncodeIdTsList(postings[t], with_ts_, &buf);
    SVR_ASSIGN_OR_RETURN(storage::BlobRef ref, blobs_->Write(buf));
    longs_.Set(t, ref);
    long_counts_[t] = postings[t].size();
  }
  return Status::OK();
}

Status IdIndex::TopKAt(const IndexSnapshot& snap, const Query& query,
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
  const ShortList::View shorts(short_list_.get(), snap.short_list);
  const relational::ScoreTable::View scores(snap.score);

  // One scratch block per stream, owned here: the whole query decodes
  // into these buffers with no per-posting allocation.
  std::vector<CursorScratch> scratch(query.terms.size());
  std::vector<TermStream> streams;
  streams.reserve(query.terms.size());
  for (size_t i = 0; i < query.terms.size(); ++i) {
    const TermId t = query.terms[i];
    const storage::BlobRef ref = snap.longs.Get(t);
    streams.emplace_back(
        IdPostingCursor(blobs_->NewReader(ref), with_ts_, &scratch[i], &qs),
        shorts.Scan(t), &qs.postings_scanned);
    SVR_RETURN_NOT_OK(streams.back().Init());
  }

  ResultHeap heap(k);
  auto offer = [&](DocId doc, double ts_sum) {
    const relational::ScoreTable::Slot slot = scores.At(doc);
    ++qs.score_lookups;
    if (!slot.live()) return;  // never scored or deleted: skip
    ++qs.candidates_considered;
    heap.Offer(doc, slot.score + (with_ts_
                                      ? ts_options_.term_weight * ts_sum
                                      : 0.0));
  };

  if (query.conjunctive) {
    // Classic k-way leapfrog intersection over id-ordered streams.
    while (true) {
      bool all_valid = true;
      DocId max_doc = 0;
      for (const auto& s : streams) {
        if (!s.Valid()) {
          all_valid = false;
          break;
        }
        max_doc = std::max(max_doc, s.doc());
      }
      if (!all_valid) break;

      bool aligned = true;
      for (auto& s : streams) {
        SVR_RETURN_NOT_OK(s.SeekTo(max_doc));
        if (!s.Valid() || s.doc() != max_doc) aligned = false;
      }
      if (!aligned) continue;

      double ts_sum = 0.0;
      for (auto& s : streams) ts_sum += s.term_score();
      offer(max_doc, ts_sum);
      for (auto& s : streams) {
        SVR_RETURN_NOT_OK(s.Next());
      }
    }
  } else {
    // Union: emit every distinct doc with the term scores of the streams
    // it appears in.
    while (true) {
      DocId min_doc = kInvalidDocId;
      for (const auto& s : streams) {
        if (s.Valid()) min_doc = std::min(min_doc, s.doc());
      }
      if (min_doc == kInvalidDocId) break;
      double ts_sum = 0.0;
      for (auto& s : streams) {
        if (s.Valid() && s.doc() == min_doc) {
          ts_sum += s.term_score();
          SVR_RETURN_NOT_OK(s.Next());
        }
      }
      offer(min_doc, ts_sum);
    }
  }

  *results = heap.TakeSorted();
  FoldQueryStats(qs);
  if (query_stats != nullptr) *query_stats = qs;
  return Status::OK();
}

}  // namespace svr::index
