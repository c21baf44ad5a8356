#include "index/id_index.h"

#include <algorithm>

#include "index/merge_policy.h"
#include "index/posting_cursor.h"
#include "index/result_heap.h"

namespace svr::index {

// Merges the term's long list (doc-ordered blob) with its doc-ordered
// short run. REM short postings cancel the matching long posting; ADD
// postings either replace a matching long posting or stand alone (fresh
// documents).
class IdIndex::TermStream {
 public:
  TermStream(IdPostingCursor long_cursor, ShortList::Cursor short_cursor,
             uint64_t* scanned)
      : long_(std::move(long_cursor)),
        short_(std::move(short_cursor)),
        scanned_(scanned) {}

  Status Init() {
    SVR_RETURN_NOT_OK(long_.Init());
    return Advance();
  }

  bool Valid() const { return valid_; }
  DocId doc() const { return doc_; }
  float term_score() const { return ts_; }

  Status Next() { return Advance(); }

  /// Positions the stream on its first posting with doc >= target. The
  /// long side gallops over whole v2 blocks; skipped postings — and the
  /// short postings they would have merged with — are irrelevant to a
  /// conjunctive intersection that already passed them.
  Status SeekTo(DocId target) {
    if (!valid_ || doc_ >= target) return Status::OK();
    SVR_RETURN_NOT_OK(long_.SeekTo(target));
    while (short_.Valid() && short_.doc() < target) short_.Next();
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
      if (l && (!s || long_.doc() < short_.doc())) {
        doc_ = long_.doc();
        ts_ = long_.term_score();
        valid_ = true;
        ++*scanned_;
        return long_.Next();
      }
      if (l && s && long_.doc() == short_.doc()) {
        // Same doc on both sides: the short posting governs.
        ++*scanned_;
        ++*scanned_;
        const PostingOp op = short_.op();
        doc_ = short_.doc();
        ts_ = short_.term_score();
        SVR_RETURN_NOT_OK(long_.Next());
        short_.Next();
        if (op == PostingOp::kRemove) continue;  // cancelled
        valid_ = true;
        return Status::OK();
      }
      // Short-only posting.
      ++*scanned_;
      const PostingOp op = short_.op();
      doc_ = short_.doc();
      ts_ = short_.term_score();
      short_.Next();
      if (op == PostingOp::kRemove) continue;  // stray REM, ignore
      valid_ = true;
      return Status::OK();
    }
  }

  IdPostingCursor long_;
  ShortList::Cursor short_;
  uint64_t* scanned_;
  bool valid_ = false;
  DocId doc_ = 0;
  float ts_ = 0.0f;
};

IdIndex::IdIndex(const IndexContext& ctx, bool with_term_scores,
                 TermScoreOptions ts_options)
    : ctx_(ctx), with_ts_(with_term_scores), ts_options_(ts_options) {
  blobs_ = std::make_unique<storage::BlobStore>(ctx_.list_pool);
}

float IdIndex::TsOf(DocId doc, TermId term) const {
  if (!with_ts_) return 0.0f;
  return static_cast<float>(ctx_.corpus->doc(doc).NormalizedTf(term));
}

Status IdIndex::Build() {
  short_list_ = ShortList::Create(ShortList::KeyKind::kId);
  return BuildLongLists();
}

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

IndexSnapshot IdIndex::SealSnapshot() {
  IndexSnapshot s;
  s.short_list = short_list_->Seal();
  s.score = ctx_.score_table->Seal();
  s.longs = longs_.Seal();
  s.corpus = ctx_.corpus->Seal();
  s.has_deletions = has_deletions_;
  return s;
}

Status IdIndex::OnScoreUpdate(DocId doc, double new_score) {
  BumpStat(&IndexStats::score_updates);
  // The whole point of the ID method: only the Score table changes.
  return ctx_.score_table->Set(doc, new_score);
}

Status IdIndex::InsertDocument(DocId doc, double score) {
  SVR_RETURN_NOT_OK(ctx_.score_table->Set(doc, score));
  const text::Document& content = ctx_.corpus->doc(doc);
  for (TermId t : content.terms()) {
    SVR_RETURN_NOT_OK(
        short_list_->Put(t, 0.0, doc, PostingOp::kAdd, TsOf(doc, t)));
    BumpStat(&IndexStats::short_list_writes);
  }
  return Status::OK();
}

Status IdIndex::DeleteDocument(DocId doc) {
  has_deletions_ = true;
  return ctx_.score_table->MarkDeleted(doc);
}

Status IdIndex::UpdateContent(DocId doc, const text::Document& old_doc) {
  const text::Document& new_doc = ctx_.corpus->doc(doc);
  for (TermId t : new_doc.terms()) {
    if (!old_doc.Contains(t)) {
      SVR_RETURN_NOT_OK(
          short_list_->Put(t, 0.0, doc, PostingOp::kAdd, TsOf(doc, t)));
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
          short_list_->Put(t, 0.0, doc, PostingOp::kRemove, 0.0f));
      BumpStat(&IndexStats::short_list_writes);
    }
  }
  return Status::OK();
}

Status IdIndex::RebuildIndex() {
  // Offline maintenance: requires quiescence (blobs are freed in place).
  for (size_t t = 0; t < longs_.size(); ++t) {
    const storage::BlobRef ref = longs_.Get(t);
    if (ref.valid()) SVR_RETURN_NOT_OK(blobs_->Free(ref));
    longs_.Set(t, storage::BlobRef());
  }
  SVR_RETURN_NOT_OK(short_list_->Clear());
  has_deletions_ = false;
  return BuildLongLists();
}

struct IdIndex::MergePlanImpl : TermMergePlan {
  explicit MergePlanImpl(TermId t) : TermMergePlan(t) {}

  uint64_t short_version = 0;   // ShortList::TermVersion at Prepare
  storage::BlobRef old_ref;     // the published blob Prepare streamed
  storage::BlobRef new_ref;     // written but unpublished replacement
  uint64_t n_postings = 0;
  /// Exact short postings the prepare folded into the new blob — the
  /// fine-grained install deletes these (each only if unchanged) when
  /// the term moved on after Prepare.
  std::vector<ShortList::Posting> read_entries;
};

Result<std::unique_ptr<TermMergePlan>> IdIndex::PrepareMergeTerm(
    TermId term) {
  return PrepareMergeTermAt(SealSnapshot(), term);
}

Result<std::unique_ptr<TermMergePlan>> IdIndex::PrepareMergeTermAt(
    const IndexSnapshot& snap, TermId term) {
  // Reader phase against a sealed snapshot: mutates nothing a concurrent
  // query can see (the new blob stays unpublished until Install).
  const ShortList::View shorts(short_list_.get(), snap.short_list);
  const relational::ScoreTable::View scores(snap.score);
  const storage::BlobRef old_ref = snap.longs.Get(term);
  if (!old_ref.valid() && shorts.TermPostingCount(term) == 0) {
    return std::unique_ptr<TermMergePlan>();  // nothing on either side
  }
  auto plan = std::make_unique<MergePlanImpl>(term);
  plan->short_version = shorts.TermVersion(term);
  plan->old_ref = old_ref;
  shorts.Collect(term, &plan->read_entries);

  // Stream the merged (long ∪ short) view — the exact view queries see,
  // REM cancellation included — into a fresh posting vector. Deleted
  // documents are dropped, like a rebuild would. The stream is scoped so
  // its reader unpins the old blob's pages before the plan is installed.
  std::vector<IdPosting> merged;
  {
    CursorScratch scratch;
    uint64_t scanned = 0;
    TermStream stream(
        IdPostingCursor(blobs_->NewReader(old_ref), with_ts_, &scratch),
        shorts.Scan(term), &scanned);
    SVR_RETURN_NOT_OK(stream.Init());
    while (stream.Valid()) {
      if (!scores.At(stream.doc()).deleted()) {
        merged.push_back({stream.doc(), stream.term_score()});
      }
      SVR_RETURN_NOT_OK(stream.Next());
    }
  }

  if (!merged.empty()) {
    std::string buf;
    EncodeIdTsList(merged, with_ts_, &buf);
    SVR_ASSIGN_OR_RETURN(plan->new_ref, blobs_->Write(buf));
  }
  plan->n_postings = merged.size();
  return std::unique_ptr<TermMergePlan>(std::move(plan));
}

Status IdIndex::InstallMergeTerm(TermMergePlan* plan,
                                 const BlobRetirer& retire) {
  auto* p = dynamic_cast<MergePlanImpl*>(plan);
  if (p == nullptr) {
    return Status::InvalidArgument("foreign merge plan");
  }
  const TermId term = p->term();
  const storage::BlobRef current = longs_.Get(term);
  if (current != p->old_ref) {
    // A competing merge republished the term's blob: the prepared view
    // is stale in a way the short list can no longer reconcile. The
    // prepared blob was never published, so it is freed directly.
    if (p->new_ref.valid()) SVR_RETURN_NOT_OK(blobs_->Free(p->new_ref));
    p->new_ref = storage::BlobRef();
    BumpStat(&IndexStats::merge_install_aborts);
    return Status::Aborted("long list republished since PrepareMergeTerm");
  }

  if (term >= long_counts_.size()) {
    long_counts_.resize(term + 1, 0);
  }
  // The publish point: one BlobRef swap in the versioned directory.
  // Everything after only retires state the *next* sealed snapshot no
  // longer resolves; already-sealed snapshots keep the old blob until
  // their readers exit (epoch retirement).
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
    // Unchanged since Prepare: the whole range is folded in.
    SVR_RETURN_NOT_OK(short_list_->DeleteTerm(term));
  } else {
    // Fine-grained path (the old protocol aborted here): delete exactly
    // the postings the prepare folded in; survivors keep layering over
    // the new blob (docs/concurrency.md).
    SVR_RETURN_NOT_OK(short_list_->DeleteUnchanged(term, p->read_entries));
    BumpStat(&IndexStats::merge_installs_fine);
  }
  BumpStat(&IndexStats::term_merges);
  BumpStat(&IndexStats::merge_postings_written, p->n_postings);
  return Status::OK();
}

Status IdIndex::ReclaimBlob(const storage::BlobRef& ref) {
  return blobs_->Free(ref);
}

Status IdIndex::MergeTerm(TermId term) {
  SVR_ASSIGN_OR_RETURN(auto plan, PrepareMergeTerm(term));
  if (plan == nullptr) return Status::OK();
  // Single writer: the install cannot abort. The replaced blob still
  // goes through the context's retirer when one is wired — under MVCC a
  // sealed snapshot may be streaming it (docs/concurrency.md).
  return InstallMergeTerm(plan.get(), ctx_.blob_retirer);
}

Status IdIndex::MergeAllTerms() {
  return MergeEveryShortTerm(*short_list_,
                             [this](TermId t) { return MergeTerm(t); });
}

Result<uint32_t> IdIndex::MaybeAutoMerge() {
  SVR_ASSIGN_OR_RETURN(
      uint32_t merged,
      RunAutoMergeSweep(ctx_.merge_policy, *short_list_, long_counts_,
                        [this](TermId t) { return MergeTerm(t); }));
  if (merged > 0) BumpStat(&IndexStats::auto_merge_sweeps);
  return merged;
}

std::vector<TermId> IdIndex::AutoMergeCandidates() const {
  return SelectMergeCandidates(ctx_.merge_policy, *short_list_,
                               long_counts_, short_list_->SizeBytes());
}

uint64_t IdIndex::LongListBytes() const {
  return blobs_->TotalDataBytes();
}

Status IdIndex::TopK(const Query& query, size_t k,
                     std::vector<SearchResult>* results) {
  return TopKAt(SealSnapshot(), query, k, results);
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
