#include "index/score_threshold_index.h"

#include <algorithm>

#include "index/merge_policy.h"
#include "index/posting_cursor.h"
#include "index/result_heap.h"

namespace svr::index {

namespace {

// Scan order over (score desc, doc asc) positions.
struct ListPos {
  double score;
  DocId doc;
};

bool PosBefore(const ListPos& a, const ListPos& b) {
  if (a.score != b.score) return a.score > b.score;
  return a.doc < b.doc;
}

bool PosEqual(const ListPos& a, const ListPos& b) {
  return a.score == b.score && a.doc == b.doc;
}

}  // namespace

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

ScoreThresholdIndex::ScoreThresholdIndex(const IndexContext& ctx,
                                         ScoreThresholdOptions options)
    : ctx_(ctx), options_(options) {
  blobs_ = std::make_unique<storage::BlobStore>(ctx_.list_pool);
}

Status ScoreThresholdIndex::Build() {
  if (options_.threshold_ratio < 1.0) {
    return Status::InvalidArgument("threshold_ratio must be >= 1");
  }
  SVR_ASSIGN_OR_RETURN(
      auto sl, ShortList::Create(ctx_.table_pool, ShortList::KeyKind::kScore,
                                 ctx_.table_page_retirer));
  short_list_ = std::move(sl);
  list_state_ = ListScoreTable::Create();
  return BuildLongLists();
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
    EncodeScoreList(postings[t], &buf, ctx_.posting_format);
    SVR_ASSIGN_OR_RETURN(storage::BlobRef ref, blobs_->Write(buf));
    longs_.Set(t, ref);
  }
  return Status::OK();
}

IndexSnapshot ScoreThresholdIndex::SealSnapshot() {
  IndexSnapshot s;
  s.short_list = short_list_->Seal();
  s.list_score = list_state_->Seal();
  s.score = ctx_.score_table->Seal();
  s.longs = longs_.Seal();
  s.corpus = ctx_.corpus->Seal();
  s.has_deletions = has_deletions_;
  return s;
}

double ScoreThresholdIndex::ListScoreOf(DocId doc, bool* in_short) const {
  return ListScoreOfAt(list_state_->LiveSnapshot(),
                       ctx_.score_table->LiveView(), doc, in_short);
}

double ScoreThresholdIndex::ListScoreOfAt(
    const ListScoreTable::Snapshot& list_state,
    const relational::ScoreTable::View& scores, DocId doc, bool* in_short) {
  const ListScoreTable::Slot e = ListScoreTable::GetAt(list_state, doc);
  if (e.recorded()) {
    *in_short = e.in_short();
    return e.list_value;
  }
  // Never-scored documents read 0.0, exactly where BuildLongLists placed
  // them.
  *in_short = false;
  return scores.At(doc).score;
}

Status ScoreThresholdIndex::OnScoreUpdate(DocId doc, double new_score) {
  BumpStat(&IndexStats::score_updates);
  // Algorithm 1, lines 7-8. A never-scored doc sits at 0.0 (matching
  // BuildLongLists).
  const double old_score = ctx_.score_table->At(doc).score;
  SVR_RETURN_NOT_OK(ctx_.score_table->Set(doc, new_score));

  // Lines 9-17: establish the document's list score.
  const ListScoreTable::Slot e = list_state_->Get(doc);
  const double l_score = e.recorded() ? e.list_value : old_score;
  if (!e.recorded()) list_state_->Put(doc, l_score, false);

  // Lines 18-28: move postings only past the threshold.
  if (new_score > thresholdValueOf(l_score)) {
    for (TermId t : ctx_.corpus->doc(doc).terms()) {
      // "Update" = relocate, since the score is part of the key. The
      // delete also retracts content-update ADD postings parked at the
      // old list score while inShortList was still false.
      Status del = short_list_->Delete(t, l_score, doc);
      if (!del.ok() && !del.IsNotFound()) return del;
      SVR_RETURN_NOT_OK(
          short_list_->Put(t, new_score, doc, PostingOp::kAdd, 0.0f));
      BumpStat(&IndexStats::short_list_writes);
    }
    list_state_->Put(doc, new_score, true);
    sweep_.NoteMove(doc);
  }
  return Status::OK();
}

Status ScoreThresholdIndex::InsertDocument(DocId doc, double score) {
  SVR_RETURN_NOT_OK(ctx_.score_table->Set(doc, score));
  list_state_->Put(doc, score, true);
  sweep_.NoteMove(doc);
  for (TermId t : ctx_.corpus->doc(doc).terms()) {
    SVR_RETURN_NOT_OK(
        short_list_->Put(t, score, doc, PostingOp::kAdd, 0.0f));
    BumpStat(&IndexStats::short_list_writes);
  }
  return Status::OK();
}

Status ScoreThresholdIndex::DeleteDocument(DocId doc) {
  has_deletions_ = true;
  return ctx_.score_table->MarkDeleted(doc);
}

Status ScoreThresholdIndex::UpdateContent(DocId doc,
                                          const text::Document& old_doc) {
  bool in_short;
  const double l_score = ListScoreOf(doc, &in_short);
  const text::Document& new_doc = ctx_.corpus->doc(doc);
  for (TermId t : new_doc.terms()) {
    if (!old_doc.Contains(t)) {
      SVR_RETURN_NOT_OK(
          short_list_->Put(t, l_score, doc, PostingOp::kAdd, 0.0f));
      BumpStat(&IndexStats::short_list_writes);
    }
  }
  for (TermId t : old_doc.terms()) {
    if (!new_doc.Contains(t)) {
      // Always a REM marker, never a plain retraction: an ADD sitting at
      // this key may be *shadowing* a long posting (remove → re-add
      // overwrote the earlier REM), and deleting it would resurrect the
      // long posting. A REM over nothing is skipped by every stream and
      // folded away by the next merge, so the marker is always safe.
      SVR_RETURN_NOT_OK(
          short_list_->Put(t, l_score, doc, PostingOp::kRemove, 0.0f));
      BumpStat(&IndexStats::short_list_writes);
    }
  }
  return Status::OK();
}

Status ScoreThresholdIndex::RebuildIndex() {
  // Offline maintenance: requires quiescence (blobs are freed in place).
  for (size_t t = 0; t < longs_.size(); ++t) {
    const storage::BlobRef ref = longs_.Get(t);
    if (ref.valid()) SVR_RETURN_NOT_OK(blobs_->Free(ref));
    longs_.Set(t, storage::BlobRef());
  }
  SVR_RETURN_NOT_OK(short_list_->Clear());
  list_state_->Clear();
  has_deletions_ = false;
  sweep_.Clear();
  return BuildLongLists();
}

struct ScoreThresholdIndex::MergePlanImpl : TermMergePlan {
  explicit MergePlanImpl(TermId t) : TermMergePlan(t) {}

  uint64_t short_version = 0;   // ShortList::TermVersion at Prepare
  storage::BlobRef old_ref;     // the published blob Prepare streamed
  storage::BlobRef new_ref;     // written but unpublished replacement
  uint64_t n_postings = 0;
  std::vector<DocId> from_short_docs;  // for the ListScore cleanup
  /// Exact short postings the prepare folded in (fine-grained install).
  std::vector<ShortList::RawEntry> read_entries;
};

Result<std::unique_ptr<TermMergePlan>> ScoreThresholdIndex::PrepareMergeTerm(
    TermId term) {
  return PrepareMergeTermAt(SealSnapshot(), term);
}

Result<std::unique_ptr<TermMergePlan>>
ScoreThresholdIndex::PrepareMergeTermAt(const IndexSnapshot& snap,
                                        TermId term) {
  // Reader phase against a sealed snapshot: mutates nothing a concurrent
  // query can see (the new blob stays unpublished until Install).
  const ShortList::View shorts(short_list_.get(), snap.short_list);
  const relational::ScoreTable::View scores(snap.score);
  const storage::BlobRef old_ref = snap.longs.Get(term);
  if (!old_ref.valid() && shorts.TermPostingCount(term) == 0) {
    return std::unique_ptr<TermMergePlan>();
  }
  auto plan = std::make_unique<MergePlanImpl>(term);
  plan->short_version = shorts.TermVersion(term);
  plan->old_ref = old_ref;
  SVR_RETURN_NOT_OK(shorts.ScanRaw(term, &plan->read_entries));

  // Stream the merged (long ∪ short) view in (score desc, doc asc)
  // order — the exact view queries consume, REM cancellation included.
  // Stale long postings of moved documents (score != current list score)
  // and deleted documents are dropped; every surviving posting sits at
  // its document's list score, so Lemma 1 keeps holding for the new list.
  std::vector<ScorePosting> merged;
  {
    // Scoped so the stream's reader unpins the old blob's pages before
    // the plan is installed.
    ScoreCursorScratch scratch;
    uint64_t scanned = 0;
    TermStream stream(
        ScorePostingCursor(blobs_->NewReader(old_ref),
                           ctx_.posting_format, &scratch),
        shorts.Scan(term), &scanned);
    SVR_RETURN_NOT_OK(stream.Init());
    while (stream.Valid()) {
      const DocId doc = stream.doc();
      bool live = true;
      if (stream.from_short()) {
        plan->from_short_docs.push_back(doc);
      } else {
        const ListScoreTable::Slot e =
            ListScoreTable::GetAt(snap.list_score, doc);
        if (e.recorded()) {
          live = !e.in_short() || e.list_value == stream.score();
        }
      }
      if (scores.At(doc).deleted()) live = false;
      if (live) merged.push_back({stream.score(), doc});
      SVR_RETURN_NOT_OK(stream.Next());
    }
  }

  if (!merged.empty()) {
    std::string buf;
    EncodeScoreList(merged, &buf, ctx_.posting_format);
    SVR_ASSIGN_OR_RETURN(plan->new_ref, blobs_->Write(buf));
  }
  plan->n_postings = merged.size();
  return std::unique_ptr<TermMergePlan>(std::move(plan));
}

Status ScoreThresholdIndex::InstallMergeTerm(TermMergePlan* plan,
                                             const BlobRetirer& retire) {
  auto* p = dynamic_cast<MergePlanImpl*>(plan);
  if (p == nullptr) {
    return Status::InvalidArgument("foreign merge plan");
  }
  const TermId term = p->term();
  const storage::BlobRef current = longs_.Get(term);
  if (current != p->old_ref) {
    // A competing merge republished the term's blob; the prepared blob
    // was never published, so it is freed directly.
    if (p->new_ref.valid()) SVR_RETURN_NOT_OK(blobs_->Free(p->new_ref));
    p->new_ref = storage::BlobRef();
    BumpStat(&IndexStats::merge_install_aborts);
    return Status::Aborted("long list republished since PrepareMergeTerm");
  }

  if (term >= long_counts_.size()) {
    long_counts_.resize(term + 1, 0);
  }
  // The publish point: one BlobRef swap in the versioned directory.
  longs_.Set(term, p->new_ref);
  long_counts_[term] = p->n_postings;
  p->new_ref = storage::BlobRef();  // consumed
  if (current.valid()) {
    if (retire) {
      retire(current);
    } else {
      SVR_RETURN_NOT_OK(blobs_->Free(current));
    }
  }
  if (short_list_->TermVersion(term) == p->short_version) {
    SVR_RETURN_NOT_OK(short_list_->DeleteTerm(term));
  } else {
    // Fine-grained path (docs/concurrency.md): delete exactly the
    // postings the prepare folded in; survivors keep layering over the
    // new blob.
    SVR_RETURN_NOT_OK(short_list_->DeleteUnchanged(term, p->read_entries));
    BumpStat(&IndexStats::merge_installs_fine);
  }
  sweep_.NoteMerge(term);

  // ListScore cleanup. An unmoved doc's entry (in_short == false) can go
  // once the doc has no short postings left and its current score equals
  // the recorded list score (the fallback reproduces it). Moved docs'
  // entries retire only once the doc is *fully merged* — no short
  // postings left and every term of its content merged at/after its
  // last move, so all its long postings sit at the current list score
  // (the "fully merged sweep" of docs/merge_policy.md). When the score
  // drifted without crossing the move threshold, the entry is
  // downgraded to in_short == false instead of removed.
  for (DocId doc : p->from_short_docs) {
    if (short_list_->DocPostingCount(doc) != 0) continue;
    const ListScoreTable::Slot e = list_state_->Get(doc);
    if (!e.recorded()) continue;
    const bool reproduces = ctx_.score_table->At(doc).score == e.list_value;
    if (!e.in_short()) {
      if (reproduces) {
        list_state_->Remove(doc);
        BumpStat(&IndexStats::list_state_retired);
      }
      continue;
    }
    if (!sweep_.FullyMerged(*ctx_.corpus, doc)) continue;
    if (reproduces) {
      list_state_->Remove(doc);
    } else {
      list_state_->Put(doc, e.list_value, false);
    }
    sweep_.Forget(doc);
    BumpStat(&IndexStats::list_state_retired);
  }

  BumpStat(&IndexStats::term_merges);
  BumpStat(&IndexStats::merge_postings_written, p->n_postings);
  return Status::OK();
}

Status ScoreThresholdIndex::ReclaimBlob(const storage::BlobRef& ref) {
  return blobs_->Free(ref);
}

Status ScoreThresholdIndex::MergeTerm(TermId term) {
  SVR_ASSIGN_OR_RETURN(auto plan, PrepareMergeTerm(term));
  if (plan == nullptr) return Status::OK();
  // Single writer: the install cannot abort. The replaced blob still
  // goes through the context's retirer when one is wired — under MVCC a
  // sealed snapshot may be streaming it.
  return InstallMergeTerm(plan.get(), ctx_.blob_retirer);
}

Status ScoreThresholdIndex::MergeAllTerms() {
  return MergeEveryShortTerm(*short_list_,
                             [this](TermId t) { return MergeTerm(t); });
}

Result<uint32_t> ScoreThresholdIndex::MaybeAutoMerge() {
  SVR_ASSIGN_OR_RETURN(
      uint32_t merged,
      RunAutoMergeSweep(ctx_.merge_policy, *short_list_, long_counts_,
                        [this](TermId t) { return MergeTerm(t); }));
  if (merged > 0) BumpStat(&IndexStats::auto_merge_sweeps);
  return merged;
}

std::vector<TermId> ScoreThresholdIndex::AutoMergeCandidates() const {
  return SelectMergeCandidates(ctx_.merge_policy, *short_list_,
                               long_counts_, short_list_->SizeBytes());
}

Status ScoreThresholdIndex::TopK(const Query& query, size_t k,
                                 std::vector<SearchResult>* results) {
  return TopKAt(SealSnapshot(), query, k, results);
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
        ScorePostingCursor(blobs_->NewReader(ref), ctx_.posting_format,
                           &scratch[i], &qs),
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
