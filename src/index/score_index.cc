#include "index/score_index.h"

#include <algorithm>

#include "common/key_codec.h"
#include "index/result_heap.h"

namespace svr::index {

// Iterates one term's postings in (score desc, doc asc) order via a
// prefix range scan.
class ScoreIndex::TermCursor {
 public:
  TermCursor(const storage::BPlusTree* tree,
             const storage::TreeSnapshot& snap, TermId term,
             uint64_t* scanned)
      : term_(term), scanned_(scanned) {
    std::string prefix;
    PutKeyU32(&prefix, term);
    it_ = tree->SeekAt(snap, prefix);
    Decode();
  }

  bool Valid() const { return valid_; }
  double score() const { return score_; }
  DocId doc() const { return doc_; }

  void Next() {
    if (!it_->Valid()) {
      valid_ = false;
      return;
    }
    it_->Next();
    Decode();
  }

 private:
  void Decode() {
    valid_ = false;
    if (!it_->Valid()) return;
    Slice key = it_->key();
    uint32_t term;
    if (!GetKeyU32(&key, &term) || term != term_) return;
    double s;
    uint32_t d;
    if (!GetKeyDoubleDesc(&key, &s) || !GetKeyU32(&key, &d)) return;
    score_ = s;
    doc_ = d;
    valid_ = true;
    ++*scanned_;
  }

  TermId term_;
  uint64_t* scanned_;
  std::unique_ptr<storage::BPlusTree::Iterator> it_;
  bool valid_ = false;
  double score_ = 0.0;
  DocId doc_ = 0;
};

ScoreIndex::ScoreIndex(const IndexContext& ctx) : ctx_(ctx) {}

std::string ScoreIndex::PostingKey(TermId term, double score,
                                   DocId doc) const {
  std::string k;
  PutKeyU32(&k, term);
  PutKeyDoubleDesc(&k, score);
  PutKeyU32(&k, doc);
  return k;
}

Status ScoreIndex::Build() {
  // The long list is mutable, so it lives in the *list* pool as a
  // clustered B+-tree (cold-cache protocol still applies to it). Under
  // MVCC the tree is copy-on-write so snapshot queries never lock.
  auto tree =
      ctx_.list_page_retirer != nullptr
          ? storage::BPlusTree::CreateCow(ctx_.list_pool,
                                          ctx_.list_page_retirer)
          : storage::BPlusTree::Create(ctx_.list_pool);
  SVR_RETURN_NOT_OK(tree.status());
  tree_ = std::move(tree).value();
  const text::Corpus& corpus = *ctx_.corpus;
  for (DocId d = 0; d < corpus.num_docs(); ++d) {
    // Never-scored docs read 0.0 and are indexed there.
    const relational::ScoreTable::Slot slot = ctx_.score_table->At(d);
    if (slot.deleted()) continue;
    for (TermId t : corpus.doc(d).terms()) {
      SVR_RETURN_NOT_OK(tree_->Put(PostingKey(t, slot.score, d), Slice()));
    }
  }
  return Status::OK();
}

Status ScoreIndex::OnScoreUpdate(DocId doc, double new_score) {
  BumpStat(&IndexStats::score_updates);
  // Never-scored docs were built at 0.0, where their slot reads.
  const double old_score = ctx_.score_table->At(doc).score;
  SVR_RETURN_NOT_OK(ctx_.score_table->Set(doc, new_score));
  if (old_score == new_score) return Status::OK();
  // Relocate the posting in every distinct term's list: this is the
  // method's Achilles heel the paper quantifies in Figure 7.
  for (TermId t : ctx_.corpus->doc(doc).terms()) {
    SVR_RETURN_NOT_OK(tree_->Delete(PostingKey(t, old_score, doc)));
    SVR_RETURN_NOT_OK(tree_->Put(PostingKey(t, new_score, doc), Slice()));
    BumpStat(&IndexStats::short_list_writes);  // counted as list maintenance work
  }
  return Status::OK();
}

Status ScoreIndex::InsertDocument(DocId doc, double score) {
  SVR_RETURN_NOT_OK(ctx_.score_table->Set(doc, score));
  for (TermId t : ctx_.corpus->doc(doc).terms()) {
    SVR_RETURN_NOT_OK(tree_->Put(PostingKey(t, score, doc), Slice()));
  }
  return Status::OK();
}

Status ScoreIndex::DeleteDocument(DocId doc) {
  const double score = ctx_.score_table->At(doc).score;
  for (TermId t : ctx_.corpus->doc(doc).terms()) {
    SVR_RETURN_NOT_OK(tree_->Delete(PostingKey(t, score, doc)));
  }
  has_deletions_ = true;
  return ctx_.score_table->MarkDeleted(doc);
}

Status ScoreIndex::UpdateContent(DocId doc, const text::Document& old_doc) {
  // Postings of never-scored docs are keyed at 0.0 (as Build wrote them).
  const double score = ctx_.score_table->At(doc).score;
  const text::Document& new_doc = ctx_.corpus->doc(doc);
  for (TermId t : new_doc.terms()) {
    if (!old_doc.Contains(t)) {
      SVR_RETURN_NOT_OK(tree_->Put(PostingKey(t, score, doc), Slice()));
    }
  }
  for (TermId t : old_doc.terms()) {
    if (!new_doc.Contains(t)) {
      SVR_RETURN_NOT_OK(tree_->Delete(PostingKey(t, score, doc)));
    }
  }
  return Status::OK();
}

IndexSnapshot ScoreIndex::SealSnapshot() {
  IndexSnapshot s;
  s.score_postings = tree_->Seal();
  s.score = ctx_.score_table->Seal();
  s.corpus = ctx_.corpus->Seal();
  s.has_deletions = has_deletions_;
  return s;
}

Status ScoreIndex::TopKAt(const IndexSnapshot& snap, const Query& query,
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
  const bool has_deletions = snap.has_deletions;

  std::vector<TermCursor> cursors;
  cursors.reserve(query.terms.size());
  for (TermId t : query.terms) {
    cursors.emplace_back(tree_.get(), snap.score_postings, t,
                         &qs.postings_scanned);
  }

  ResultHeap heap(k);
  auto offer = [&](DocId doc, double score) {
    // Probe only when deletions exist — or at score 0.0, the one place
    // a never-scored doc (indexed at 0.0, no Score-table entry; the
    // oracle skips it) can sit.
    if (has_deletions || score == 0.0) {
      ++qs.score_lookups;
      if (!scores.At(doc).live()) return;
    }
    ++qs.candidates_considered;
    heap.Offer(doc, score);
  };

  // Postings are in exact (score desc, doc asc) order in every cursor, so
  // candidates are generated best-first and the scan can stop the moment
  // the next posting cannot beat the k-th result.
  auto before = [](const TermCursor& a, const TermCursor& b) {
    if (a.score() != b.score()) return a.score() > b.score();
    return a.doc() < b.doc();
  };

  if (query.conjunctive) {
    while (true) {
      // Find the cursor that is furthest along (smallest in scan order).
      const TermCursor* furthest = nullptr;
      bool any_invalid = false;
      for (auto& c : cursors) {
        if (!c.Valid()) {
          any_invalid = true;
          break;
        }
        if (furthest == nullptr || before(*furthest, c)) furthest = &c;
      }
      if (any_invalid) break;

      if (heap.full() && furthest->score() <= heap.MinScore()) break;

      bool aligned = true;
      const double target_score = furthest->score();
      const DocId target_doc = furthest->doc();
      for (auto& c : cursors) {
        while (c.Valid() && before(c, *furthest)) c.Next();
        if (!c.Valid() || c.score() != target_score ||
            c.doc() != target_doc) {
          aligned = false;
        }
      }
      if (!aligned) continue;

      offer(target_doc, target_score);
      for (auto& c : cursors) c.Next();
    }
  } else {
    while (true) {
      // Smallest posting in scan order across cursors.
      const TermCursor* first = nullptr;
      for (auto& c : cursors) {
        if (c.Valid() && (first == nullptr || before(c, *first))) {
          first = &c;
        }
      }
      if (first == nullptr) break;
      const double score = first->score();
      const DocId doc = first->doc();
      if (heap.full() && score <= heap.MinScore()) break;
      for (auto& c : cursors) {
        if (c.Valid() && c.score() == score && c.doc() == doc) c.Next();
      }
      offer(doc, score);
    }
  }

  *results = heap.TakeSorted();
  FoldQueryStats(qs);
  if (query_stats != nullptr) *query_stats = qs;
  return Status::OK();
}

}  // namespace svr::index
