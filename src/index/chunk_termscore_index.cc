#include "index/chunk_termscore_index.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "index/result_heap.h"

namespace svr::index {

Status ChunkTermScoreIndex::WriteFancyList(TermId term,
                                           std::vector<IdPosting> postings) {
  const storage::BlobRef old_ref = fancy_refs_.Get(term);
  if (old_ref.valid()) {
    fancy_refs_.Set(term, storage::BlobRef());
    if (ctx_.blob_retirer) {
      // A sealed snapshot may still resolve the old fancy list; its
      // pages are reclaimed after the last pinned reader exits.
      ctx_.blob_retirer(old_ref);
    } else {
      SVR_RETURN_NOT_OK(blobs_->Free(old_ref));
    }
  }
  if (postings.empty()) return Status::OK();

  const uint32_t fancy_size = options_.term_scores.fancy_list_size;
  const bool covers_all = postings.size() <= fancy_size;
  // Keep the fancy_size highest term scores (ties by doc id).
  std::sort(postings.begin(), postings.end(),
            [](const IdPosting& a, const IdPosting& b) {
              if (a.term_score != b.term_score) {
                return a.term_score > b.term_score;
              }
              return a.doc < b.doc;
            });
  if (postings.size() > fancy_size) postings.resize(fancy_size);
  // Docs *outside* the fancy list have ts <= min kept ts; if the list
  // covers every posting of the term, outsiders have ts = 0.
  const float min_ts = covers_all ? 0.0f : postings.back().term_score;
  std::sort(postings.begin(), postings.end(),
            [](const IdPosting& a, const IdPosting& b) {
              return a.doc < b.doc;
            });
  std::string buf;
  EncodeFancyList(postings, min_ts, &buf);
  SVR_ASSIGN_OR_RETURN(storage::BlobRef ref, blobs_->Write(buf));
  fancy_refs_.Set(term, ref);
  return Status::OK();
}

Status ChunkTermScoreIndex::BuildExtras() {
  const text::Corpus& corpus = *ctx_.corpus;

  std::vector<std::vector<IdPosting>> per_term(corpus.vocab_size());
  for (DocId d = 0; d < corpus.num_docs(); ++d) {
    BumpStat(&IndexStats::corpus_docs_scanned);
    if (ctx_.score_table->At(d).deleted()) continue;
    const text::Document& doc = corpus.doc(d);
    for (TermId t : doc.terms()) {
      per_term[t].push_back(
          {d, static_cast<float>(doc.NormalizedTf(t))});
    }
  }

  for (TermId t = 0; t < per_term.size(); ++t) {
    SVR_RETURN_NOT_OK(WriteFancyList(t, std::move(per_term[t])));
  }
  return Status::OK();
}

IndexSnapshot ChunkTermScoreIndex::SealSnapshot() {
  IndexSnapshot s = ChunkIndexBase::SealSnapshot();
  s.fancy = fancy_refs_.Seal();
  return s;
}

Status ChunkTermScoreIndex::OnTermMerged(
    TermId term, const std::vector<ChunkGroup>& groups) {
  // The merged long list is the term's complete posting set; refresh the
  // fancy list from it so the [21]-style bounds track the merged view.
  std::vector<IdPosting> postings;
  for (const ChunkGroup& g : groups) {
    postings.insert(postings.end(), g.postings.begin(), g.postings.end());
  }
  return WriteFancyList(term, std::move(postings));
}

Status ChunkTermScoreIndex::TopKAt(const IndexSnapshot& snap,
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
  const size_t n_terms = query.terms.size();
  if (n_terms > 64) {
    return Status::InvalidArgument(
        "Chunk-TermScore queries support at most 64 terms");
  }
  const ShortList::View shorts(short_list_.get(), snap.short_list);
  const relational::ScoreTable::View scores(snap.score);
  const double tw = options_.term_scores.term_weight;
  const uint64_t full_mask =
      n_terms == 64 ? ~0ull : ((1ull << n_terms) - 1);

  // --- Phase 1: merge the fancy lists (Algorithm 3, lines 8-9) --------
  std::vector<std::vector<IdPosting>> fancy(n_terms);
  std::vector<float> min_fancy(n_terms, 0.0f);
  for (size_t i = 0; i < n_terms; ++i) {
    const TermId t = query.terms[i];
    const storage::BlobRef ref = snap.fancy.Get(t);
    SVR_RETURN_NOT_OK(DecodeFancyList(blobs_->NewReader(ref), &fancy[i],
                                      &min_fancy[i]));
    qs.postings_scanned += fancy[i].size();
  }

  struct RemainEntry {
    double known_ts_sum = 0.0;
    uint64_t known_mask = 0;
  };
  std::unordered_map<DocId, RemainEntry> remain;
  std::unordered_set<DocId> finalized;

  ResultHeap heap(k);

  {
    // Single pass over all fancy postings, grouped by doc.
    std::unordered_map<DocId, RemainEntry> seen;
    for (size_t i = 0; i < n_terms; ++i) {
      for (const IdPosting& p : fancy[i]) {
        RemainEntry& e = seen[p.doc];
        e.known_ts_sum += p.term_score;
        e.known_mask |= (1ull << i);
      }
    }
    for (auto& [doc, e] : seen) {
      if (e.known_mask == full_mask) {
        // Contained in every fancy list => exact combined score. Guard
        // against content updates that removed a query term since the
        // fancy lists were built. All checks read the pinned snapshot.
        bool still_contains_all = true;
        for (TermId t : query.terms) {
          if (doc >= snap.corpus.num_docs() ||
              !snap.corpus.doc(doc).Contains(t)) {
            still_contains_all = false;
            break;
          }
        }
        // Fancy term scores are build-time values; a doc with short
        // postings for a query term may carry fresher ones there
        // (content updates change tf, and short-list moves re-read it).
        // Such docs fall through to Phase 2, where the short posting's
        // term score governs.
        bool short_governs = false;
        if (still_contains_all && shorts.DocPostingCount(doc) > 0) {
          bool in_short = false;
          const ChunkId l_chunk =
              ListPositionOfAt(snap.list_state, scores, doc, &in_short);
          for (TermId t : query.terms) {
            if (shorts.TermPostingCount(t) > 0 &&
                shorts.Contains(t, static_cast<double>(l_chunk), doc)) {
              short_governs = true;
              break;
            }
          }
        }
        if (still_contains_all && !short_governs) {
          const relational::ScoreTable::Slot slot = scores.At(doc);
          ++qs.score_lookups;
          if (slot.live()) {
            ++qs.candidates_considered;
            heap.Offer(doc, slot.score + tw * e.known_ts_sum);
          }
          finalized.insert(doc);
          continue;
        }
      }
      remain.emplace(doc, e);
    }
  }

  // --- Phase 2: chunk-by-chunk merge (Algorithm 3, lines 10-34) -------
  std::vector<CursorScratch> stream_scratch;
  std::vector<MergedChunkStream> streams;
  SVR_RETURN_NOT_OK(
      MakeStreams(snap, query, &stream_scratch, &streams, &qs));

  // Per-term upper bound on the term score of any posting not seen in a
  // fancy list: the build-time min_fancy bound, raised to cover short
  // postings (which can carry term scores the build never saw — fresh
  // inserts, content-updated docs). Without this, the prune/stop rules
  // below could cut the scan before a high-ts short posting is reached.
  std::vector<float> ts_cap(n_terms);
  for (size_t i = 0; i < n_terms; ++i) {
    ts_cap[i] = std::max(min_fancy[i], shorts.TermMaxTs(query.terms[i]));
  }

  while (true) {
    bool any_valid = false;
    ChunkId current = 0;
    for (const auto& s : streams) {
      if (s.Valid()) {
        current = any_valid ? std::max(current, s.cid()) : s.cid();
        any_valid = true;
      }
    }
    if (!any_valid) break;

    // Union iteration over the chunk — no chunk skipping here: every
    // encountered doc must be struck off the remainList (line 12).
    while (true) {
      DocId min_doc = kInvalidDocId;
      for (const auto& s : streams) {
        if (s.Valid() && s.cid() == current) {
          min_doc = std::min(min_doc, s.doc());
        }
      }
      if (min_doc == kInvalidDocId) break;

      uint64_t mask = 0;
      double ts_sum = 0.0;
      bool from_short = false;
      for (size_t i = 0; i < streams.size(); ++i) {
        auto& s = streams[i];
        if (s.Valid() && s.cid() == current && s.doc() == min_doc) {
          mask |= (1ull << i);
          ts_sum += s.term_score();
          from_short = from_short || s.from_short();
          SVR_RETURN_NOT_OK(s.Next());
        }
      }

      remain.erase(min_doc);
      if (finalized.count(min_doc) > 0) continue;
      const bool is_candidate =
          query.conjunctive ? (mask == full_mask) : (mask != 0);
      if (!is_candidate) continue;

      double svr;
      if (JudgeCandidate(snap, scores, min_doc, current, from_short, &svr,
                         &qs)) {
        ++qs.candidates_considered;
        heap.Offer(min_doc, svr + tw * ts_sum);
      }
    }

    // --- end of chunk: prune the remainList and test the stop rule ----
    if (heap.full()) {
      // Any unseen doc's SVR score is strictly below this bound.
      const double u_svr = chunker().LowerBound(current + 1);
      for (auto it = remain.begin(); it != remain.end();) {
        // A doc holding short postings may score higher than its
        // (build-time) fancy values suggest; never prune it — it stays
        // in the remainList until its chunk strikes it off.
        if (shorts.DocPostingCount(it->first) > 0) {
          ++it;
          continue;
        }
        double ub = u_svr + tw * it->second.known_ts_sum;
        for (size_t i = 0; i < n_terms; ++i) {
          if ((it->second.known_mask & (1ull << i)) == 0) {
            ub += tw * ts_cap[i];
          }
        }
        if (ub <= heap.MinScore()) {
          it = remain.erase(it);
        } else {
          ++it;
        }
      }
      if (remain.empty()) {
        double m = u_svr;
        for (size_t i = 0; i < n_terms; ++i) m += tw * ts_cap[i];
        if (m <= heap.MinScore()) break;
      }
    }
  }

  *results = heap.TakeSorted();
  FoldQueryStats(qs);
  if (query_stats != nullptr) *query_stats = qs;
  return Status::OK();
}

}  // namespace svr::index
