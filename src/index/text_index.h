#ifndef SVR_INDEX_TEXT_INDEX_H_
#define SVR_INDEX_TEXT_INDEX_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "common/types.h"
#include "common/versioned_array.h"
#include "index/list_state.h"
#include "index/short_list.h"
#include "relational/score_table.h"
#include "storage/blob_store.h"
#include "storage/bptree.h"
#include "storage/buffer_pool.h"
#include "text/corpus.h"

namespace svr::index {

/// One ranked search hit.
struct SearchResult {
  DocId doc = kInvalidDocId;
  double score = 0.0;

  bool operator==(const SearchResult& o) const {
    return doc == o.doc && score == o.score;
  }
};

/// A keyword search query against the indexed text column.
struct Query {
  std::vector<TermId> terms;
  /// true: documents must contain all terms; false: at least one (§4.1).
  bool conjunctive = true;
};

/// Per-query counter sink. TopK implementations accumulate into a local
/// instance and fold it into the shared stats once per query, so
/// concurrent readers (docs/concurrency.md) contend on one mutex
/// acquisition per query instead of one per posting.
struct QueryStats {
  uint64_t postings_scanned = 0;
  uint64_t score_lookups = 0;
  uint64_t candidates_considered = 0;
  // Cursor-level counters (src/index/posting_cursor.h), filled on the
  // query path only.
  uint64_t blocks_decoded = 0;   // v2 block refills (LoadNextBlock)
  uint64_t groups_galloped = 0;  // whole skip groups jumped without decode
  uint64_t cursor_seeks = 0;     // SeekTo calls across all cursors
};

/// \brief Counters for behavioural assertions and benchmark reporting.
///
/// Every field is a uint64_t declared through SVR_INDEX_STATS_FIELDS so
/// field-wise consumers (the sharded layer's AddIndexStats, dump code)
/// iterate the same list the struct is built from — adding a counter
/// here updates them automatically, and the static_assert below catches
/// a field added outside the macro.
#define SVR_INDEX_STATS_FIELDS(V)                                         \
  V(score_updates)          /* OnScoreUpdate calls */                     \
  V(short_list_writes)      /* short-list posting inserts/updates */      \
  V(postings_scanned)       /* long+short postings consumed */            \
  V(score_lookups)          /* Score-table probes during queries */       \
  V(candidates_considered)  /* docs offered to the result heap */         \
  V(queries)                                                              \
  V(blocks_decoded)         /* v2 cursor block refills (queries) */       \
  V(groups_galloped)        /* skip groups jumped without decoding */     \
  V(cursor_seeks)           /* galloping SeekTo calls (queries) */        \
  /* Maintenance counters (docs/merge_policy.md). `corpus_docs_scanned`   \
     moves only on full (re)builds — the incremental merge must leave it  \
     untouched, which the merge tests assert. */                          \
  V(corpus_docs_scanned)    /* docs visited by Build/RebuildIndex */      \
  V(term_merges)            /* incremental MergeTerm calls */             \
  V(merge_postings_written) /* postings written by MergeTerm */           \
  V(auto_merge_sweeps)      /* policy sweeps that merged >= 1 term */     \
  /* Two-phase install outcomes (docs/concurrency.md): fine-grained       \
     installs deleted exactly the prepare-read postings because the term  \
     changed in between (the old protocol would have aborted); aborts now \
     only happen when the term's published blob itself was swapped. */    \
  V(merge_installs_fine)                                                  \
  V(merge_install_aborts)                                                 \
  /* ListScore/ListChunk entries retired (removed or downgraded) by the   \
     fully-merged sweep, so the list-state table stops growing under long \
     uptimes (docs/merge_policy.md). */                                   \
  V(list_state_retired)

struct IndexStats {
#define SVR_INDEX_STATS_DECLARE(name) uint64_t name = 0;
  SVR_INDEX_STATS_FIELDS(SVR_INDEX_STATS_DECLARE)
#undef SVR_INDEX_STATS_DECLARE
};

namespace internal {
#define SVR_INDEX_STATS_COUNT(name) +1
inline constexpr size_t kIndexStatsFieldCount =
    SVR_INDEX_STATS_FIELDS(SVR_INDEX_STATS_COUNT);
#undef SVR_INDEX_STATS_COUNT
}  // namespace internal

// A uint64_t field added to IndexStats without going through
// SVR_INDEX_STATS_FIELDS changes the size but not the macro count, and
// fails here — keeping the sharded sum (AddIndexStats) complete.
static_assert(sizeof(IndexStats) ==
                  internal::kIndexStatsFieldCount * sizeof(uint64_t),
              "add IndexStats fields via SVR_INDEX_STATS_FIELDS");

/// \brief One sealed, immutable version of everything a query touches:
/// the short lists' per-term runs, the Score method's clustered list
/// tree root, the per-document judge columns (Score table,
/// ListScore/ListChunk), the per-term blob directories, the corpus, and
/// the deletion flag. Built by the writer via
/// TextIndex::SealSnapshot() at each commit; consumed
/// lock-free by TopKAt / PrepareMergeTermAt at a pinned ReadView
/// (docs/concurrency.md). One concrete struct serves all methods —
/// fields a method does not use stay empty.
struct IndexSnapshot {
  ShortList::Snapshot short_list;
  ListChunkTable::Snapshot list_state;   // Chunk family's ListChunk
  ListScoreTable::Snapshot list_score;   // Score-Threshold's ListScore
  relational::ScoreTable::Column::Snapshot score;  // the shared Score table
  storage::TreeSnapshot score_postings;  // Score method's clustered lists
  VersionedArray<storage::BlobRef, 128>::Snapshot longs;
  VersionedArray<storage::BlobRef, 128>::Snapshot fancy;
  text::Corpus::Snapshot corpus;
  bool has_deletions = false;
};

/// Everything an index method needs from the outside world.
struct IndexContext {
  /// Pool for the long-list blobs (and the Score method's clustered
  /// list tree). Benchmarks evict this one before queries — the paper's
  /// cold-cache protocol. The short lists, ListScore/ListChunk and the
  /// Score table are in-memory versioned columns and use no pool.
  storage::BufferPool* list_pool = nullptr;
  /// The shared, authoritative Score(Id, score) table.
  relational::ScoreTable* score_table = nullptr;
  /// Document contents; Algorithm 1 needs Content(id) when pushing
  /// postings into short lists. The caller keeps it current.
  const text::Corpus* corpus = nullptr;
  /// Auto-merge triggers for the incremental short→long merge; evaluated
  /// by MaybeAutoMerge() (docs/merge_policy.md). Disabled by default.
  MergePolicy merge_policy;
  /// Non-null puts the Score method's clustered list tree in
  /// copy-on-write mode: pages of sealed versions go to this callback
  /// instead of being freed, and the owner defers the free past the last
  /// reader epoch. Null = an in-place tree, the pre-MVCC single-writer
  /// model.
  storage::PageRetirer list_page_retirer;
  /// Non-null routes every write-path blob disposal (merge installs,
  /// fancy-list refreshes) here instead of freeing immediately — under
  /// MVCC a sealed snapshot may still resolve the old blob. Null =
  /// immediate free (exclusive access).
  std::function<void(const storage::BlobRef&)> blob_retirer;
};

/// Weighting for the combined SVR + term-score function of §4.3.3:
/// `f(d) = svr(d) + term_weight * sum_t ts_t(d)`.
struct TermScoreOptions {
  /// Postings with the `fancy_list_size` highest term scores per term go
  /// into the fancy list (Long & Suel [21]). Not stated in the paper;
  /// default chosen so fancy lists stay a few pages.
  uint32_t fancy_list_size = 64;
  /// Multiplier that puts normalized TF on the same scale as SVR scores.
  double term_weight = 1000.0;
};

/// \brief Opaque product of PrepareMergeTerm, consumed once by
/// InstallMergeTerm. Each index method derives its own plan carrying the
/// freshly encoded (but not yet published) long-list blob plus whatever
/// the install step needs to validate and publish it.
class TermMergePlan {
 public:
  virtual ~TermMergePlan() = default;

  TermId term() const { return term_; }

 protected:
  explicit TermMergePlan(TermId term) : term_(term) {}

 private:
  TermId term_;
};

/// How InstallMergeTerm disposes of the blob it replaces. When null the
/// old blob is freed immediately (safe under exclusive access, i.e. the
/// synchronous MergeTerm path); the background scheduler passes a
/// callback that retires the blob to the epoch manager instead, so pages
/// a concurrent reader may still be streaming are reclaimed only after
/// its epoch guard is released (docs/concurrency.md).
using BlobRetirer = std::function<void(const storage::BlobRef&)>;

/// \brief Interface shared by all six inverted-list methods of §4.
///
/// Lifecycle: construct -> Build(corpus snapshot + Score table already
/// populated) -> interleave OnScoreUpdate / TopK / document operations.
///
/// Thread model (docs/concurrency.md): the index itself is not
/// internally synchronized. TopKAt and PrepareMergeTermAt read only the
/// sealed IndexSnapshot they are given, so any number of them may run
/// against pinned snapshots with no lock while the single writer keeps
/// mutating; everything that mutates (DML hooks, InstallMergeTerm,
/// MergeTerm, rebuilds, SealSnapshot) runs on the writer. The live
/// TopK/PrepareMergeTerm forms seal the current state themselves and
/// need exclusive access. The stats are the one exception: they are
/// safe to fold/read from concurrent readers via the internal stats
/// mutex.
class TextIndex {
 public:
  virtual ~TextIndex() = default;

  /// Human-readable method name ("Chunk", "Score-Threshold", ...).
  virtual std::string name() const = 0;

  /// Bulk-builds the long inverted lists from the context's corpus and
  /// the current Score table contents.
  virtual Status Build() = 0;

  /// Algorithm 1: the document's SVR score changed to `new_score`.
  /// Updates the Score table and, when the method requires it, the short
  /// lists. The previous score is read from the Score table.
  virtual Status OnScoreUpdate(DocId doc, double new_score) = 0;

  /// Algorithm 2/3: top-k by the *latest* scores, against the current
  /// contents: TopKAt over a fresh seal. Requires exclusive access.
  Status TopK(const Query& query, size_t k,
              std::vector<SearchResult>* results) {
    return TopKAt(SealSnapshot(), query, k, results);
  }

  /// Top-k against one sealed snapshot. Safe from any number of threads
  /// with no lock while writers keep mutating, as long as the snapshot
  /// was pinned under an epoch guard (docs/concurrency.md).
  /// `query_stats` (optional) receives this query's counters — the same
  /// values folded into stats() — for per-call stage tracing
  /// (docs/observability.md).
  virtual Status TopKAt(const IndexSnapshot& snap, const Query& query,
                        size_t k, std::vector<SearchResult>* results,
                        QueryStats* query_stats = nullptr) = 0;

  /// Freezes the current contents of everything TopKAt reads — short
  /// lists, blob directories, the judge columns (the shared
  /// Score table, ListScore/ListChunk), the corpus's document array —
  /// and returns the snapshot. Called by the engine once per commit
  /// (writer-serialized); cheap, O(state touched since the previous
  /// seal).
  virtual IndexSnapshot SealSnapshot() { return IndexSnapshot(); }

  /// Appendix A.2: index a new document. The corpus must already contain
  /// `doc` with this content.
  virtual Status InsertDocument(DocId doc, double score) {
    (void)doc;
    (void)score;
    return Status::NotSupported(name() + ": document insertion");
  }

  /// Appendix A.2: delete a document (deleted flag in the Score table).
  virtual Status DeleteDocument(DocId doc) {
    (void)doc;
    return Status::NotSupported(name() + ": document deletion");
  }

  /// Appendix A.1: the document's term set changed. `old_doc` is the
  /// content the index last saw; the corpus must already hold the new
  /// content.
  virtual Status UpdateContent(DocId doc, const text::Document& old_doc) {
    (void)doc;
    (void)old_doc;
    return Status::NotSupported(name() + ": content updates");
  }

  /// Incremental maintenance: folds one term's short postings into a
  /// freshly encoded long list for that term — streaming the merged
  /// (long ∪ short) view with ADD/REM semantics and the deletion flags,
  /// freeing the old blob, and erasing only that term's short range.
  /// Never re-scans the corpus and never moves chunk boundaries.
  virtual Status MergeTerm(TermId term) {
    (void)term;
    return Status::NotSupported(name() + ": incremental merge");
  }

  /// MergeTerm over every term that currently has short postings.
  virtual Status MergeAllTerms() {
    return Status::NotSupported(name() + ": incremental merge");
  }

  /// Evaluates the context's MergePolicy once and merges the triggered
  /// terms; returns how many terms were merged. A no-op (0) when the
  /// policy is disabled or the method has no short lists.
  virtual Result<uint32_t> MaybeAutoMerge() { return uint32_t{0}; }

  /// The terms one policy sweep would merge right now (the trigger
  /// evaluation of MaybeAutoMerge without the merging). The background
  /// scheduler turns these into queue jobs on the write path.
  virtual std::vector<TermId> AutoMergeCandidates() const { return {}; }

  // --- two-phase merge (background scheduler; docs/concurrency.md) ----
  //
  // MergeTerm(t) == InstallMergeTerm(PrepareMergeTerm(t)) with immediate
  // blob disposal. The split lets the expensive phase — streaming the
  // merged long ∪ short view and encoding the replacement blob — run as
  // a *reader*, concurrently with queries, while the publish step is a
  // short exclusive critical section: swap the term's BlobRef, erase the
  // short range, retire the old blob.

  /// Reader phase: streams term's merged view and writes the replacement
  /// blob (unpublished — no reader can resolve it yet). Returns null when
  /// the term has nothing to merge. The plain form seals the live state
  /// first (exclusive access, the synchronous-merge path); the At form
  /// runs against a pinned snapshot with no lock at all (the background
  /// scheduler's path). Neither mutates reader-visible state.
  Result<std::unique_ptr<TermMergePlan>> PrepareMergeTerm(TermId term) {
    return PrepareMergeTermAt(SealSnapshot(), term);
  }
  virtual Result<std::unique_ptr<TermMergePlan>> PrepareMergeTermAt(
      const IndexSnapshot& snap, TermId term) {
    (void)snap;
    (void)term;
    return Status::NotSupported(name() + ": two-phase merge");
  }

  /// Writer phase: publishes the prepared blob with a single BlobRef
  /// swap and erases the term's prepare-read short postings. When the
  /// term's short list changed since Prepare, the install takes the
  /// fine-grained path — it deletes exactly the postings the prepare
  /// folded in (each only if its bytes are unchanged), so appends and
  /// overwrites it never saw survive and keep layering over the new
  /// blob. Aborted is returned only when the term's *published blob*
  /// was swapped in between (a competing merge); the prepared blob is
  /// then freed and the caller re-runs the job. The replaced blob goes
  /// to `retire` (or is freed immediately when null).
  virtual Status InstallMergeTerm(TermMergePlan* plan,
                                  const BlobRetirer& retire) {
    (void)plan;
    (void)retire;
    return Status::NotSupported(name() + ": two-phase merge");
  }

  /// Frees a blob previously handed to a BlobRetirer. Called by the
  /// epoch manager's reclaim pass, possibly from another thread; only
  /// touches the (internally synchronized) blob store.
  virtual Status ReclaimBlob(const storage::BlobRef& ref) {
    (void)ref;
    return Status::NotSupported(name() + ": blob reclamation");
  }

  /// Offline maintenance: rebuilds the long lists from scratch (corpus
  /// re-scan; chunk boundaries are re-fitted to the current score
  /// distribution). The heavyweight counterpart of MergeTerm, kept for
  /// re-chunking; §5.1 runs it outside the measured path.
  virtual Status RebuildIndex() {
    return Status::NotSupported(name() + ": offline rebuild");
  }

  /// Size of the long inverted lists (Table 1).
  virtual uint64_t LongListBytes() const = 0;
  /// Size of the short lists + the list-state column's allocated chunks,
  /// 0 if the method has none.
  virtual uint64_t ShortListBytes() const { return 0; }
  /// Number of live short-list postings, 0 if the method has none.
  virtual uint64_t ShortPostingCount() const { return 0; }
  /// Live ListScore/ListChunk entries, 0 if the method has none
  /// (diagnostics: the fully-merged sweep must keep this from growing
  /// under long uptimes).
  virtual uint64_t ListStateSize() const { return 0; }

  /// Snapshot of the counters. Copied under the stats mutex so it is
  /// safe against concurrent queries folding their per-query counts.
  IndexStats stats() const EXCLUDES(stats_mu_) {
    MutexLock lock(stats_mu_);
    return stats_;
  }
  void ResetStats() EXCLUDES(stats_mu_) {
    MutexLock lock(stats_mu_);
    stats_ = IndexStats();
  }

 protected:
  /// Folds one finished query's counters into the shared stats. The only
  /// stats path that may run outside exclusive access.
  void FoldQueryStats(const QueryStats& q) EXCLUDES(stats_mu_) {
    MutexLock lock(stats_mu_);
    ++stats_.queries;
    stats_.postings_scanned += q.postings_scanned;
    stats_.score_lookups += q.score_lookups;
    stats_.candidates_considered += q.candidates_considered;
    stats_.blocks_decoded += q.blocks_decoded;
    stats_.groups_galloped += q.groups_galloped;
    stats_.cursor_seeks += q.cursor_seeks;
  }

  /// Bumps one write-path counter under the stats mutex. Writers are
  /// exclusive among themselves, but stats()/GetStats() read with no
  /// engine lock under MVCC, so every mutation must synchronize here.
  void BumpStat(uint64_t IndexStats::*field, uint64_t delta = 1)
      EXCLUDES(stats_mu_) {
    MutexLock lock(stats_mu_);
    stats_.*field += delta;
  }

 private:
  mutable Mutex stats_mu_;
  IndexStats stats_ GUARDED_BY(stats_mu_);
};

}  // namespace svr::index

#endif  // SVR_INDEX_TEXT_INDEX_H_
