#include "index/score_threshold_index.h"

#include <algorithm>

#include "index/result_heap.h"

namespace svr::index {

ScoreThresholdIndex::ScoreThresholdIndex(const IndexContext& ctx,
                                         ScoreThresholdOptions options)
    : ListIndex(ctx, /*with_term_scores=*/false), options_(options) {}

Status ScoreThresholdIndex::Build() {
  if (options_.threshold_ratio < 1.0) {
    return Status::InvalidArgument("threshold_ratio must be >= 1");
  }
  return ListIndex::Build();
}

Status ScoreThresholdIndex::BuildLongLists() {
  const text::Corpus& corpus = *ctx_.corpus;
  std::vector<std::vector<ScorePosting>> postings(corpus.vocab_size());
  for (DocId d = 0; d < corpus.num_docs(); ++d) {
    BumpStat(&IndexStats::corpus_docs_scanned);
    // Never-scored docs read 0.0 and are indexed there.
    const relational::ScoreTable::Slot slot = ctx_.score_table->At(d);
    if (slot.deleted()) continue;
    for (TermId t : corpus.doc(d).terms()) {
      postings[t].push_back({slot.score, d});
    }
  }

  long_counts_.assign(corpus.vocab_size(), 0);
  std::string buf;
  for (TermId t = 0; t < postings.size(); ++t) {
    if (postings[t].empty()) {
      if (longs_.Get(t).valid()) longs_.Set(t, storage::BlobRef());
      continue;
    }
    long_counts_[t] = postings[t].size();
    std::sort(postings[t].begin(), postings[t].end(),
              [](const ScorePosting& a, const ScorePosting& b) {
                if (a.score != b.score) return a.score > b.score;
                return a.doc < b.doc;
              });
    buf.clear();
    EncodeScoreList(postings[t], &buf);
    SVR_ASSIGN_OR_RETURN(storage::BlobRef ref, blobs_->Write(buf));
    longs_.Set(t, ref);
  }
  return Status::OK();
}

Status ScoreThresholdIndex::TopKAt(const IndexSnapshot& snap,
                                   const Query& query, size_t k,
                                   std::vector<SearchResult>* results,
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
  const bool has_deletions = snap.has_deletions;

  std::vector<ScoreCursorScratch> scratch(query.terms.size());
  std::vector<TermStream> streams;
  streams.reserve(query.terms.size());
  for (size_t i = 0; i < query.terms.size(); ++i) {
    const TermId t = query.terms[i];
    const storage::BlobRef ref = snap.longs.Get(t);
    streams.emplace_back(
        ScorePostingCursor(blobs_->NewReader(ref), &scratch[i], &qs),
        shorts.Scan(t), &qs.postings_scanned);
    SVR_RETURN_NOT_OK(streams.back().Init());
  }

  ResultHeap heap(k);
  double threshold = -1.0;  // the paper's sentinel (line 6)
  bool threshold_set = false;

  // Processes one aligned candidate (Algorithm 2 lines 12-21); returns
  // false if the scan may stop.
  auto process = [&](const ListPos& pos, bool from_short) {
    // Lines 9-11: the stop test against the candidate's list score.
    if (threshold_set && thresholdValueOf(pos.score) < threshold) {
      return false;
    }
    // Never-scored (absent) and deleted docs are not result candidates
    // (the oracle skips them too).
    double curr = 0.0;
    bool candidate = true;
    const ListScoreTable::Slot e =
        from_short ? ListScoreTable::Slot()
                   : ListScoreTable::GetAt(snap.list_score, pos.doc);
    if (from_short || e.recorded()) {
      if (e.in_short() && e.list_value != pos.score) {
        // Stale long posting at the score the doc moved away from; the
        // short list (or the incrementally merged long posting at the
        // doc's current list score) governs.
        candidate = false;
      } else {
        const relational::ScoreTable::Slot slot = scores.At(pos.doc);
        ++qs.score_lookups;
        curr = slot.score;
        candidate = slot.live();
      }
    } else {
      // Never updated: the list score is the current score (line 18).
      // Probes are only needed once deletions exist — or at position
      // 0.0, the one place a never-scored doc (indexed at 0.0, no
      // Score-table entry) can sit.
      curr = pos.score;
      if (has_deletions || pos.score == 0.0) {
        ++qs.score_lookups;
        candidate = scores.At(pos.doc).live();
      }
    }
    if (candidate) {
      ++qs.candidates_considered;
      heap.Offer(pos.doc, curr);
    }
    // Lines 22-24: arm the threshold once k results at/above this list
    // score are in hand.
    if (!threshold_set && heap.full() && heap.MinScore() >= pos.score) {
      threshold = pos.score;
      threshold_set = true;
    }
    return true;
  };

  if (query.conjunctive) {
    while (true) {
      const TermStream* furthest = nullptr;
      bool any_invalid = false;
      for (auto& s : streams) {
        if (!s.Valid()) {
          any_invalid = true;
          break;
        }
        if (furthest == nullptr || PosBefore(furthest->pos(), s.pos())) {
          furthest = &s;
        }
      }
      if (any_invalid) break;

      const ListPos target = furthest->pos();
      bool aligned = true;
      bool from_short = false;
      for (auto& s : streams) {
        SVR_RETURN_NOT_OK(s.SeekTo(target));
        if (!s.Valid() || !PosEqual(s.pos(), target)) {
          aligned = false;
        } else {
          from_short = from_short || s.from_short();
        }
      }
      if (!aligned) {
        // Even a non-candidate position moves the scan frontier; check
        // the stop rule against it so unbounded scans terminate.
        if (threshold_set && thresholdValueOf(target.score) < threshold) {
          break;
        }
        continue;
      }

      if (!process(target, from_short)) break;
      for (auto& s : streams) {
        SVR_RETURN_NOT_OK(s.Next());
      }
    }
  } else {
    while (true) {
      const TermStream* first = nullptr;
      for (auto& s : streams) {
        if (s.Valid() &&
            (first == nullptr || PosBefore(s.pos(), first->pos()))) {
          first = &s;
        }
      }
      if (first == nullptr) break;
      const ListPos pos = first->pos();
      bool from_short = false;
      for (auto& s : streams) {
        if (s.Valid() && PosEqual(s.pos(), pos)) {
          from_short = from_short || s.from_short();
        }
      }
      if (!process(pos, from_short)) break;
      for (auto& s : streams) {
        if (s.Valid() && PosEqual(s.pos(), pos)) {
          SVR_RETURN_NOT_OK(s.Next());
        }
      }
    }
  }

  *results = heap.TakeSorted();
  FoldQueryStats(qs);
  if (query_stats != nullptr) *query_stats = qs;
  return Status::OK();
}

}  // namespace svr::index
