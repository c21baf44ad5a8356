#include "index/list_index.h"

#include <algorithm>

#include "index/chunk_base.h"
#include "index/id_index.h"
#include "index/score_threshold_index.h"

namespace svr::index {

template <typename Pos, typename Method>
struct ListIndex<Pos, Method>::MergePlan : TermMergePlan {
  explicit MergePlan(TermId t) : TermMergePlan(t) {}

  uint64_t short_version = 0;   // ShortList::TermVersion at Prepare
  storage::BlobRef old_ref;     // the published blob Prepare streamed
  storage::BlobRef new_ref;     // written but unpublished replacement
  uint64_t n_postings = 0;
  /// The live postings in list order: the new blob's contents (and the
  /// Chunk family's fancy-list refresh).
  typename Method::Merged merged;
  std::vector<DocId> from_short_docs;  // for the list-state cleanup
  /// Exact short postings the prepare folded into the new blob — the
  /// fine-grained install deletes these (each only if unchanged) when
  /// the term moved on after Prepare.
  std::vector<ShortList::Posting> read_entries;
};

template <typename Pos, typename Method>
ListIndex<Pos, Method>::ListIndex(const IndexContext& ctx,
                                  bool with_term_scores)
    : ctx_(ctx), with_ts_(with_term_scores) {
  blobs_ = std::make_unique<storage::BlobStore>(ctx_.list_pool);
}

template <typename Pos, typename Method>
float ListIndex<Pos, Method>::TsOf(DocId doc, TermId term) const {
  if (!with_ts_) return 0.0f;
  return static_cast<float>(ctx_.corpus->doc(doc).NormalizedTf(term));
}

template <typename Pos, typename Method>
Status ListIndex<Pos, Method>::Build() {
  short_list_ = ShortList::Create(Method::kShortKeys);
  list_state_ = ListStateTable<Pos>::Create();
  SVR_RETURN_NOT_OK(method().BuildLongLists());
  return method().BuildExtras();
}

template <typename Pos, typename Method>
IndexSnapshot ListIndex<Pos, Method>::SealSnapshot() {
  IndexSnapshot s;
  s.short_list = short_list_->Seal();
  method().SealListState(&s);
  s.score = ctx_.score_table->Seal();
  s.longs = longs_.Seal();
  s.corpus = ctx_.corpus->Seal();
  s.has_deletions = has_deletions_;
  return s;
}

template <typename Pos, typename Method>
Pos ListIndex<Pos, Method>::ListPositionOf(DocId doc, bool* in_short) const {
  return ListPositionOfAt(list_state_->LiveSnapshot(),
                          ctx_.score_table->LiveView(), doc, in_short);
}

template <typename Pos, typename Method>
Pos ListIndex<Pos, Method>::ListPositionOfAt(
    const typename ListStateTable<Pos>::Snapshot& list_state,
    const relational::ScoreTable::View& scores, DocId doc,
    bool* in_short) const {
  const typename ListStateTable<Pos>::Slot e =
      ListStateTable<Pos>::GetAt(list_state, doc);
  if (e.recorded()) {
    *in_short = e.in_short();
    return e.list_value;
  }
  // Never-scored documents read 0.0, exactly where BuildLongLists placed
  // them.
  *in_short = false;
  return method().PositionOf(scores.At(doc).score);
}

template <typename Pos, typename Method>
Status ListIndex<Pos, Method>::OnScoreUpdate(DocId doc, double new_score) {
  BumpStat(&IndexStats::score_updates);
  // Algorithm 1, lines 7-8. A never-scored doc sits at 0.0 (matching
  // BuildLongLists).
  const double old_score = ctx_.score_table->At(doc).score;
  SVR_RETURN_NOT_OK(ctx_.score_table->Set(doc, new_score));

  // Lines 9-17: establish the document's list position.
  const typename ListStateTable<Pos>::Slot e = list_state_->Get(doc);
  const Pos l_pos =
      e.recorded() ? e.list_value : method().PositionOf(old_score);
  if (!e.recorded()) method().RecordListPosition(doc, l_pos);

  // Lines 18-28: move postings only past the threshold. For Chunk,
  // thresholdValueOf(c) = c + 1: a doc moves only on a climb of >= 2
  // chunks, which kills the boundary-flapping corner case (§4.3.2).
  const Pos new_pos = method().PositionOf(new_score);
  if (new_pos > method().thresholdValueOf(l_pos)) {
    for (TermId t : ctx_.corpus->doc(doc).terms()) {
      // "Update" = relocate, since the position is part of the key. The
      // delete also retracts content-update ADD postings parked at the
      // old list position while inShortList was still false.
      Status del = short_list_->Delete(t, l_pos, doc);
      if (!del.ok() && !del.IsNotFound()) return del;
      SVR_RETURN_NOT_OK(short_list_->Put(t, new_pos, doc, PostingOp::kAdd,
                                         TsOf(doc, t)));
      BumpStat(&IndexStats::short_list_writes);
    }
    method().RecordMove(doc, new_pos);
  }
  return Status::OK();
}

template <typename Pos, typename Method>
Status ListIndex<Pos, Method>::InsertDocument(DocId doc, double score) {
  SVR_RETURN_NOT_OK(ctx_.score_table->Set(doc, score));
  const Pos pos = method().PositionOf(score);
  method().RecordMove(doc, pos);
  for (TermId t : ctx_.corpus->doc(doc).terms()) {
    SVR_RETURN_NOT_OK(
        short_list_->Put(t, pos, doc, PostingOp::kAdd, TsOf(doc, t)));
    BumpStat(&IndexStats::short_list_writes);
  }
  return Status::OK();
}

template <typename Pos, typename Method>
Status ListIndex<Pos, Method>::DeleteDocument(DocId doc) {
  has_deletions_ = true;
  return ctx_.score_table->MarkDeleted(doc);
}

template <typename Pos, typename Method>
Status ListIndex<Pos, Method>::UpdateContent(DocId doc,
                                             const text::Document& old_doc) {
  bool in_short;
  const Pos l_pos = ListPositionOf(doc, &in_short);
  const text::Document& new_doc = ctx_.corpus->doc(doc);
  for (TermId t : new_doc.terms()) {
    if (!old_doc.Contains(t)) {
      SVR_RETURN_NOT_OK(
          short_list_->Put(t, l_pos, doc, PostingOp::kAdd, TsOf(doc, t)));
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
          short_list_->Put(t, l_pos, doc, PostingOp::kRemove, 0.0f));
      BumpStat(&IndexStats::short_list_writes);
    }
  }
  return Status::OK();
}

template <typename Pos, typename Method>
Status ListIndex<Pos, Method>::RebuildIndex() {
  // Offline maintenance: requires quiescence (blobs are freed in place,
  // and the Chunk family's chunker is replaced).
  for (size_t t = 0; t < longs_.size(); ++t) {
    const storage::BlobRef ref = longs_.Get(t);
    if (ref.valid()) SVR_RETURN_NOT_OK(blobs_->Free(ref));
    longs_.Set(t, storage::BlobRef());
  }
  SVR_RETURN_NOT_OK(short_list_->Clear());
  list_state_->Clear();
  has_deletions_ = false;
  sweep_.Clear();
  SVR_RETURN_NOT_OK(method().BuildLongLists());
  return method().BuildExtras();
}

template <typename Pos, typename Method>
template <typename Stream>
bool ListIndex<Pos, Method>::LiveInMerge(const IndexSnapshot& snap,
                                         const Stream& stream,
                                         MergePlan* plan) const {
  if (stream.from_short()) {
    plan->from_short_docs.push_back(stream.doc());
    return true;
  }
  // A long posting of a moved document is stale unless it sits at the
  // doc's current list position (an earlier incremental merge put it
  // there).
  const typename ListStateTable<Pos>::Slot e =
      ListStateTable<Pos>::GetAt(Method::ListStateIn(snap), stream.doc());
  return !e.in_short() || e.list_value == Method::PositionIn(stream);
}

template <typename Pos, typename Method>
Result<std::unique_ptr<TermMergePlan>>
ListIndex<Pos, Method>::PrepareMergeTermAt(const IndexSnapshot& snap,
                                           TermId term) {
  // Reader phase against a sealed snapshot: mutates nothing a concurrent
  // query can see (the new blob stays unpublished until Install).
  const ShortList::View shorts(short_list_.get(), snap.short_list);
  const relational::ScoreTable::View scores(snap.score);
  const storage::BlobRef old_ref = snap.longs.Get(term);
  if (!old_ref.valid() && shorts.TermPostingCount(term) == 0) {
    return std::unique_ptr<TermMergePlan>();  // nothing on either side
  }
  auto plan = std::make_unique<MergePlan>(term);
  plan->short_version = shorts.TermVersion(term);
  plan->old_ref = old_ref;
  shorts.Collect(term, &plan->read_entries);

  // Stream the merged (long ∪ short) view in list order — the exact view
  // queries consume, REM cancellation included. Stale long postings of
  // moved documents and deleted documents are dropped, so the new list
  // holds only live postings, each at its document's list position and
  // Lemma 1 keeps holding for it. The stream is scoped so its reader
  // unpins the old blob's pages before the plan is installed.
  {
    typename Method::Scratch scratch;
    uint64_t scanned = 0;
    typename Method::Stream stream(method().LongCursor(old_ref, &scratch),
                                   shorts.Scan(term), &scanned);
    SVR_RETURN_NOT_OK(stream.Init());
    while (stream.Valid()) {
      if (method().LiveInMerge(snap, stream, plan.get()) &&
          !scores.At(stream.doc()).deleted()) {
        Method::AppendMerged(stream, &plan->merged);
        ++plan->n_postings;
      }
      SVR_RETURN_NOT_OK(stream.Next());
    }
  }

  if (plan->n_postings > 0) {
    std::string buf;
    method().EncodeMerged(plan->merged, &buf);
    SVR_ASSIGN_OR_RETURN(plan->new_ref, blobs_->Write(buf));
  }
  return std::unique_ptr<TermMergePlan>(std::move(plan));
}

template <typename Pos, typename Method>
Status ListIndex<Pos, Method>::InstallMergeTerm(TermMergePlan* plan,
                                                const BlobRetirer& retire) {
  auto* p = dynamic_cast<MergePlan*>(plan);
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
  method().RetireListState(*p);

  BumpStat(&IndexStats::term_merges);
  BumpStat(&IndexStats::merge_postings_written, p->n_postings);
  return method().OnTermMerged(term, p->merged);
}

template <typename Pos, typename Method>
void ListIndex<Pos, Method>::RetireListState(const MergePlan& plan) {
  sweep_.NoteMerge(plan.term());

  // List-state cleanup. Entries that merely *record* an unmoved doc's
  // list position (in_short == false) can go once the doc has no short
  // postings left anywhere and its current score reproduces the
  // position. Moved docs' entries (in_short == true) are what marks the
  // doc's not-yet-merged long postings in *other* terms' lists as stale;
  // they retire only once the doc is *fully merged* — no short postings
  // left and every term of its content merged at/after its last move,
  // so all its long postings sit at the current list position (the
  // "fully merged sweep" of docs/merge_policy.md). When the current
  // score does not reproduce the position, the entry is downgraded to
  // in_short == false instead of removed (the recorded position is still
  // where the long postings live).
  for (DocId doc : plan.from_short_docs) {
    if (short_list_->DocPostingCount(doc) != 0) continue;
    const typename ListStateTable<Pos>::Slot e = list_state_->Get(doc);
    if (!e.recorded()) continue;
    const bool reproduces =
        method().PositionOf(ctx_.score_table->At(doc).score) ==
        e.list_value;
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
}

template <typename Pos, typename Method>
Status ListIndex<Pos, Method>::ReclaimBlob(const storage::BlobRef& ref) {
  return blobs_->Free(ref);
}

template <typename Pos, typename Method>
Status ListIndex<Pos, Method>::MergeTerm(TermId term) {
  SVR_ASSIGN_OR_RETURN(auto plan, PrepareMergeTerm(term));
  if (plan == nullptr) return Status::OK();
  // Single writer: the install cannot abort. The replaced blob still
  // goes through the context's retirer when one is wired — under MVCC a
  // sealed snapshot may be streaming it (docs/concurrency.md).
  return InstallMergeTerm(plan.get(), ctx_.blob_retirer);
}

template <typename Pos, typename Method>
Status ListIndex<Pos, Method>::MergeAllTerms() {
  return MergeEveryShortTerm(*short_list_,
                             [this](TermId t) { return MergeTerm(t); });
}

template <typename Pos, typename Method>
Result<uint32_t> ListIndex<Pos, Method>::MaybeAutoMerge() {
  SVR_ASSIGN_OR_RETURN(
      uint32_t merged,
      RunAutoMergeSweep(ctx_.merge_policy, *short_list_, long_counts_,
                        [this](TermId t) { return MergeTerm(t); }));
  if (merged > 0) BumpStat(&IndexStats::auto_merge_sweeps);
  return merged;
}

template <typename Pos, typename Method>
std::vector<TermId> ListIndex<Pos, Method>::AutoMergeCandidates() const {
  return SelectMergeCandidates(ctx_.merge_policy, *short_list_,
                               long_counts_, short_list_->SizeBytes());
}

template class ListIndex<DocOrder, IdIndex>;
template class ListIndex<double, ScoreThresholdIndex>;
template class ListIndex<ChunkId, ChunkIndexBase>;

}  // namespace svr::index
