#include "index/chunk_base.h"

#include <algorithm>

#include "index/merge_policy.h"

namespace svr::index {

namespace {

// (cid desc, doc asc) scan order.
bool ChunkPosBefore(ChunkId ca, DocId da, ChunkId cb, DocId db) {
  if (ca != cb) return ca > cb;
  return da < db;
}

}  // namespace

MergedChunkStream::MergedChunkStream(ChunkPostingCursor long_cursor,
                                     ShortList::Cursor short_cursor,
                                     uint64_t* scanned)
    : long_(std::move(long_cursor)),
      short_(std::move(short_cursor)),
      scanned_(scanned) {}

Status MergedChunkStream::Init() {
  SVR_RETURN_NOT_OK(long_.Init());
  SVR_RETURN_NOT_OK(NormalizeLong());
  return Advance();
}

Status MergedChunkStream::NormalizeLong() {
  while (long_.HasGroup() && !long_.Valid()) {
    SVR_RETURN_NOT_OK(long_.NextGroup());
  }
  return Status::OK();
}

Status MergedChunkStream::Advance() {
  while (true) {
    const bool l = long_.HasGroup() && long_.Valid();
    const bool s = short_.Valid();
    if (!l && !s) {
      valid_ = false;
      return Status::OK();
    }
    const ChunkId lc = l ? long_.cid() : 0;
    const DocId ld = l ? long_.doc() : 0;
    const ChunkId sc = s ? static_cast<ChunkId>(short_.sort_value()) : 0;
    const DocId sd = s ? short_.doc() : 0;

    if (l && (!s || ChunkPosBefore(lc, ld, sc, sd))) {
      cid_ = lc;
      doc_ = ld;
      ts_ = long_.term_score();
      from_short_ = false;
      valid_ = true;
      ++*scanned_;
      SVR_RETURN_NOT_OK(long_.Next());
      return NormalizeLong();
    }
    if (l && s && lc == sc && ld == sd) {
      *scanned_ += 2;
      const PostingOp op = short_.op();
      cid_ = sc;
      doc_ = sd;
      ts_ = short_.term_score();
      from_short_ = true;
      SVR_RETURN_NOT_OK(long_.Next());
      SVR_RETURN_NOT_OK(NormalizeLong());
      short_.Next();
      if (op == PostingOp::kRemove) continue;  // REM cancels the long one
      valid_ = true;
      return Status::OK();
    }
    // Short posting strictly first.
    ++*scanned_;
    const PostingOp op = short_.op();
    cid_ = sc;
    doc_ = sd;
    ts_ = short_.term_score();
    from_short_ = true;
    short_.Next();
    if (op == PostingOp::kRemove) continue;  // stray REM
    valid_ = true;
    return Status::OK();
  }
}

Status MergedChunkStream::Next() { return Advance(); }

Status MergedChunkStream::SeekInChunk(DocId target) {
  if (!valid_ || doc_ >= target) return Status::OK();
  const ChunkId c = cid_;
  if (long_.HasGroup() && long_.cid() == c) {
    SVR_RETURN_NOT_OK(long_.SeekInGroup(target));
    SVR_RETURN_NOT_OK(NormalizeLong());
  }
  while (short_.Valid() &&
         static_cast<ChunkId>(short_.sort_value()) == c &&
         short_.doc() < target) {
    short_.Next();
  }
  return Advance();
}

Status MergedChunkStream::SkipChunk() {
  if (!valid_) return Status::OK();
  const ChunkId c = cid_;
  // Long side: the current group (if still on cid c) plus no others —
  // each cid appears in at most one group.
  if (long_.HasGroup() && long_.cid() == c) {
    SVR_RETURN_NOT_OK(long_.SkipGroup());
    SVR_RETURN_NOT_OK(NormalizeLong());
  }
  while (short_.Valid() &&
         static_cast<ChunkId>(short_.sort_value()) == c) {
    short_.Next();
  }
  return Advance();
}

ChunkIndexBase::ChunkIndexBase(const IndexContext& ctx,
                               ChunkIndexOptions options,
                               bool with_term_scores)
    : ctx_(ctx), options_(options), with_ts_(with_term_scores) {
  blobs_ = std::make_unique<storage::BlobStore>(ctx_.list_pool);
}

float ChunkIndexBase::TsOf(DocId doc, TermId term) const {
  if (!with_ts_) return 0.0f;
  return static_cast<float>(ctx_.corpus->doc(doc).NormalizedTf(term));
}

Status ChunkIndexBase::Build() {
  short_list_ = ShortList::Create(ShortList::KeyKind::kChunk);
  list_state_ = ListChunkTable::Create();
  SVR_RETURN_NOT_OK(BuildLongLists());
  return BuildExtras();
}

Status ChunkIndexBase::BuildLongLists() {
  const text::Corpus& corpus = *ctx_.corpus;

  // Initial per-document scores drive the chunk boundaries (§4.3.2:
  // "set the chunks based on the actual score distribution").
  std::vector<double> scores(corpus.num_docs(), 0.0);
  std::vector<bool> alive(corpus.num_docs(), true);
  for (DocId d = 0; d < corpus.num_docs(); ++d) {
    // Never-scored docs read 0.0 and stay indexed there.
    const relational::ScoreTable::Slot slot = ctx_.score_table->At(d);
    scores[d] = slot.score;
    alive[d] = !slot.deleted();
  }
  SVR_ASSIGN_OR_RETURN(Chunker chunker,
                       Chunker::Build(scores, options_.chunking));
  chunker_ = std::make_unique<Chunker>(std::move(chunker));

  // Postings per (term, cid), docs ascending (guaranteed by doc order).
  struct TermPostings {
    // parallel vectors grouped later; collect (cid, doc, ts) triples.
    std::vector<ChunkGroup> groups;  // built after sort
    std::vector<std::pair<ChunkId, IdPosting>> raw;
  };
  std::vector<TermPostings> per_term(corpus.vocab_size());
  for (DocId d = 0; d < corpus.num_docs(); ++d) {
    BumpStat(&IndexStats::corpus_docs_scanned);
    if (!alive[d]) continue;
    const ChunkId cid = chunker_->ChunkOf(scores[d]);
    const text::Document& doc = corpus.doc(d);
    for (TermId t : doc.terms()) {
      float ts = 0.0f;
      if (with_ts_) ts = static_cast<float>(doc.NormalizedTf(t));
      per_term[t].raw.push_back({cid, {d, ts}});
    }
  }

  long_counts_.assign(corpus.vocab_size(), 0);
  std::string buf;
  for (TermId t = 0; t < per_term.size(); ++t) {
    auto& raw = per_term[t].raw;
    if (raw.empty()) {
      if (longs_.Get(t).valid()) longs_.Set(t, storage::BlobRef());
      continue;
    }
    long_counts_[t] = raw.size();
    // (cid desc, doc asc); doc order inside a cid is already ascending,
    // stable_sort by cid desc preserves it.
    std::stable_sort(raw.begin(), raw.end(),
                     [](const auto& a, const auto& b) {
                       return a.first > b.first;
                     });
    std::vector<ChunkGroup> groups;
    for (size_t i = 0; i < raw.size();) {
      size_t j = i;
      ChunkGroup g;
      g.cid = raw[i].first;
      while (j < raw.size() && raw[j].first == g.cid) {
        g.postings.push_back(raw[j].second);
        ++j;
      }
      groups.push_back(std::move(g));
      i = j;
    }
    buf.clear();
    EncodeChunkList(groups, with_ts_, &buf);
    SVR_ASSIGN_OR_RETURN(storage::BlobRef ref, blobs_->Write(buf));
    longs_.Set(t, ref);
    raw.clear();
    raw.shrink_to_fit();
  }
  return Status::OK();
}

IndexSnapshot ChunkIndexBase::SealSnapshot() {
  IndexSnapshot s;
  s.short_list = short_list_->Seal();
  s.list_state = list_state_->Seal();
  s.score = ctx_.score_table->Seal();
  s.longs = longs_.Seal();
  s.corpus = ctx_.corpus->Seal();
  s.has_deletions = has_deletions_;
  return s;
}

ChunkId ChunkIndexBase::ListChunkOf(DocId doc, bool* in_short) const {
  return ListChunkOfAt(list_state_->LiveSnapshot(),
                       ctx_.score_table->LiveView(), doc, in_short);
}

ChunkId ChunkIndexBase::ListChunkOfAt(
    const ListChunkTable::Snapshot& list_state,
    const relational::ScoreTable::View& scores, DocId doc,
    bool* in_short) const {
  const ListChunkTable::Slot e = ListChunkTable::GetAt(list_state, doc);
  if (e.recorded()) {
    *in_short = e.in_short();
    return e.list_value;
  }
  // Never-scored documents read 0.0, exactly where BuildLongLists placed
  // them.
  *in_short = false;
  return chunker_->ChunkOf(scores.At(doc).score);
}

Status ChunkIndexBase::OnScoreUpdate(DocId doc, double new_score) {
  BumpStat(&IndexStats::score_updates);
  // Algorithm 1 with chunks: newS -> newChunk, oldS -> oldChunk. A doc
  // that was never scored reads 0.0 (matching BuildLongLists).
  const double old_score = ctx_.score_table->At(doc).score;
  SVR_RETURN_NOT_OK(ctx_.score_table->Set(doc, new_score));

  const ListChunkTable::Slot e = list_state_->Get(doc);
  const ChunkId l_chunk =
      e.recorded() ? e.list_value : chunker_->ChunkOf(old_score);
  if (!e.recorded()) list_state_->Put(doc, l_chunk, false);

  const ChunkId new_chunk = chunker_->ChunkOf(new_score);
  // thresholdValueOf(c) = c + 1: move only on a climb of >= 2 chunks,
  // which kills the boundary-flapping corner case (§4.3.2).
  if (new_chunk > Chunker::ThresholdValueOf(l_chunk)) {
    for (TermId t : ctx_.corpus->doc(doc).terms()) {
      // Retract the doc's posting at its old list chunk: either the
      // previous short posting (in_short) or a content-update ADD
      // posting parked there while inShortList was still false.
      Status del = short_list_->Delete(t, l_chunk, doc);
      if (!del.ok() && !del.IsNotFound()) return del;
      SVR_RETURN_NOT_OK(short_list_->Put(t, new_chunk, doc,
                                         PostingOp::kAdd, TsOf(doc, t)));
      BumpStat(&IndexStats::short_list_writes);
    }
    list_state_->Put(doc, new_chunk, true);
    sweep_.NoteMove(doc);
  }
  return Status::OK();
}

Status ChunkIndexBase::InsertDocument(DocId doc, double score) {
  SVR_RETURN_NOT_OK(ctx_.score_table->Set(doc, score));
  const ChunkId cid = chunker_->ChunkOf(score);
  list_state_->Put(doc, cid, true);
  sweep_.NoteMove(doc);
  for (TermId t : ctx_.corpus->doc(doc).terms()) {
    SVR_RETURN_NOT_OK(
        short_list_->Put(t, cid, doc, PostingOp::kAdd, TsOf(doc, t)));
    BumpStat(&IndexStats::short_list_writes);
  }
  return Status::OK();
}

Status ChunkIndexBase::DeleteDocument(DocId doc) {
  has_deletions_ = true;
  return ctx_.score_table->MarkDeleted(doc);
}

Status ChunkIndexBase::UpdateContent(DocId doc,
                                     const text::Document& old_doc) {
  bool in_short;
  const ChunkId l_chunk = ListChunkOf(doc, &in_short);
  const text::Document& new_doc = ctx_.corpus->doc(doc);
  for (TermId t : new_doc.terms()) {
    if (!old_doc.Contains(t)) {
      SVR_RETURN_NOT_OK(short_list_->Put(t, l_chunk, doc, PostingOp::kAdd,
                                         TsOf(doc, t)));
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
          short_list_->Put(t, l_chunk, doc, PostingOp::kRemove, 0.0f));
      BumpStat(&IndexStats::short_list_writes);
    }
  }
  return Status::OK();
}

Status ChunkIndexBase::RebuildIndex() {
  // Offline maintenance: requires quiescence (blobs are freed in place
  // and the chunker is replaced).
  for (size_t t = 0; t < longs_.size(); ++t) {
    const storage::BlobRef ref = longs_.Get(t);
    if (ref.valid()) SVR_RETURN_NOT_OK(blobs_->Free(ref));
    longs_.Set(t, storage::BlobRef());
  }
  SVR_RETURN_NOT_OK(short_list_->Clear());
  list_state_->Clear();
  has_deletions_ = false;
  sweep_.Clear();
  SVR_RETURN_NOT_OK(BuildLongLists());
  return BuildExtras();
}

struct ChunkIndexBase::MergePlanImpl : TermMergePlan {
  explicit MergePlanImpl(TermId t) : TermMergePlan(t) {}

  uint64_t short_version = 0;   // ShortList::TermVersion at Prepare
  storage::BlobRef old_ref;     // the published blob Prepare streamed
  storage::BlobRef new_ref;     // written but unpublished replacement
  uint64_t n_postings = 0;
  std::vector<ChunkGroup> groups;         // for OnTermMerged
  std::vector<DocId> from_short_docs;     // for the ListChunk cleanup
  /// Exact short postings the prepare folded in (fine-grained install).
  std::vector<ShortList::Posting> read_entries;
};

Result<std::unique_ptr<TermMergePlan>> ChunkIndexBase::PrepareMergeTerm(
    TermId term) {
  return PrepareMergeTermAt(SealSnapshot(), term);
}

Result<std::unique_ptr<TermMergePlan>> ChunkIndexBase::PrepareMergeTermAt(
    const IndexSnapshot& snap, TermId term) {
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
  shorts.Collect(term, &plan->read_entries);

  // Stream the merged (long ∪ short) view in (cid desc, doc asc) order —
  // the exact view queries consume. REM cancellation happens inside the
  // stream; stale long postings of moved documents (chunk != current
  // list chunk) and deleted documents are dropped here, so the new list
  // holds only live postings, each at its document's list chunk.
  {
    // Scoped so the stream's reader unpins the old blob's pages before
    // the plan is installed.
    CursorScratch scratch;
    uint64_t scanned = 0;
    MergedChunkStream stream(
        ChunkPostingCursor(blobs_->NewReader(old_ref), with_ts_, &scratch),
        shorts.Scan(term), &scanned);
    SVR_RETURN_NOT_OK(stream.Init());
    while (stream.Valid()) {
      const DocId doc = stream.doc();
      const ChunkId cid = stream.cid();
      bool live = true;
      if (stream.from_short()) {
        plan->from_short_docs.push_back(doc);
      } else {
        const ListChunkTable::Slot e =
            ListChunkTable::GetAt(snap.list_state, doc);
        if (e.recorded()) live = !e.in_short() || e.list_value == cid;
      }
      if (scores.At(doc).deleted()) live = false;
      if (live) {
        if (plan->groups.empty() || plan->groups.back().cid != cid) {
          plan->groups.push_back(ChunkGroup{cid, {}});
        }
        plan->groups.back().postings.push_back({doc, stream.term_score()});
        ++plan->n_postings;
      }
      SVR_RETURN_NOT_OK(stream.Next());
    }
  }

  if (!plan->groups.empty()) {
    std::string buf;
    EncodeChunkList(plan->groups, with_ts_, &buf);
    SVR_ASSIGN_OR_RETURN(plan->new_ref, blobs_->Write(buf));
  }
  return std::unique_ptr<TermMergePlan>(std::move(plan));
}

Status ChunkIndexBase::InstallMergeTerm(TermMergePlan* plan,
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

  // ListChunk cleanup. Entries that merely *record* an unmoved doc's
  // list chunk (in_short == false) can go once the doc has no short
  // postings left anywhere and the chunker would reproduce the value.
  // Moved docs' entries (in_short == true) are what marks the doc's
  // not-yet-merged long postings in *other* terms' lists as stale; they
  // retire only once the doc is *fully merged* — no short postings left
  // and every term of its content merged at/after its last move, so all
  // its long postings sit at the current list chunk (the "fully merged
  // sweep" of docs/merge_policy.md). When the chunker does not reproduce
  // the chunk from the current score, the entry is downgraded to
  // in_short == false instead of removed (the recorded chunk is still
  // where the long postings live).
  for (DocId doc : p->from_short_docs) {
    if (short_list_->DocPostingCount(doc) != 0) continue;
    const ListChunkTable::Slot e = list_state_->Get(doc);
    if (!e.recorded()) continue;
    const bool reproduces =
        chunker_->ChunkOf(ctx_.score_table->At(doc).score) == e.list_value;
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
  return OnTermMerged(term, p->groups);
}

Status ChunkIndexBase::ReclaimBlob(const storage::BlobRef& ref) {
  return blobs_->Free(ref);
}

Status ChunkIndexBase::MergeTerm(TermId term) {
  SVR_ASSIGN_OR_RETURN(auto plan, PrepareMergeTerm(term));
  if (plan == nullptr) return Status::OK();
  // Single writer: the install cannot abort. The replaced blob still
  // goes through the context's retirer when one is wired — under MVCC a
  // sealed snapshot may be streaming it.
  return InstallMergeTerm(plan.get(), ctx_.blob_retirer);
}

Status ChunkIndexBase::MergeAllTerms() {
  return MergeEveryShortTerm(*short_list_,
                             [this](TermId t) { return MergeTerm(t); });
}

Result<uint32_t> ChunkIndexBase::MaybeAutoMerge() {
  SVR_ASSIGN_OR_RETURN(
      uint32_t merged,
      RunAutoMergeSweep(ctx_.merge_policy, *short_list_, long_counts_,
                        [this](TermId t) { return MergeTerm(t); }));
  if (merged > 0) BumpStat(&IndexStats::auto_merge_sweeps);
  return merged;
}

std::vector<TermId> ChunkIndexBase::AutoMergeCandidates() const {
  return SelectMergeCandidates(ctx_.merge_policy, *short_list_,
                               long_counts_, short_list_->SizeBytes());
}

uint64_t ChunkIndexBase::LongListBytes() const {
  return blobs_->TotalDataBytes();
}

uint64_t ChunkIndexBase::ShortListBytes() const {
  return short_list_->SizeBytes() + list_state_->SizeBytes();
}

Status ChunkIndexBase::MakeStreams(const IndexSnapshot& snap,
                                   const Query& query,
                                   std::vector<CursorScratch>* scratch,
                                   std::vector<MergedChunkStream>* streams,
                                   QueryStats* qs) {
  streams->clear();
  const ShortList::View shorts(short_list_.get(), snap.short_list);
  // Sized once before any cursor captures a pointer into it.
  scratch->assign(query.terms.size(), CursorScratch());
  streams->reserve(query.terms.size());
  for (size_t i = 0; i < query.terms.size(); ++i) {
    const TermId t = query.terms[i];
    const storage::BlobRef ref = snap.longs.Get(t);
    streams->emplace_back(
        ChunkPostingCursor(blobs_->NewReader(ref), with_ts_, &(*scratch)[i],
                           qs),
        shorts.Scan(t), &qs->postings_scanned);
    SVR_RETURN_NOT_OK(streams->back().Init());
  }
  return Status::OK();
}

bool ChunkIndexBase::JudgeCandidate(
    const IndexSnapshot& snap, const relational::ScoreTable::View& scores,
    DocId doc, ChunkId cid, bool from_short, double* current_score,
    QueryStats* qs) {
  if (!from_short) {
    const ListChunkTable::Slot e = ListChunkTable::GetAt(snap.list_state, doc);
    // Stale long posting left at the chunk the doc moved away from; the
    // short list (or the incrementally merged long posting at the doc's
    // current list chunk) governs.
    if (e.in_short() && e.list_value != cid) return false;
  }
  // The Chunk family never stores scores in postings, so every live
  // candidate costs one Score-table probe. §5.3.1 counts it as free I/O
  // (the table is small and cached); its CPU cost is one array load in
  // the sealed column, with no page fetch, lock or allocation.
  const relational::ScoreTable::Slot slot = scores.At(doc);
  ++qs->score_lookups;
  *current_score = slot.score;
  // Never-scored (absent) and deleted docs are not result candidates;
  // the oracle skips them too.
  return slot.live();
}

}  // namespace svr::index
