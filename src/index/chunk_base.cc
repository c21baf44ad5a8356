#include "index/chunk_base.h"

#include <algorithm>

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
    : ListIndex(ctx, with_term_scores), options_(options) {}

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
