#ifndef SVR_CORE_SVR_ENGINE_H_
#define SVR_CORE_SVR_ENGINE_H_

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "common/versioned_array.h"
#include "concurrency/commit_clock.h"
#include "concurrency/epoch.h"
#include "concurrency/merge_scheduler.h"
#include "index/index_factory.h"
#include "index/merge_policy.h"
#include "relational/database.h"
#include "relational/score_view.h"
#include "storage/buffer_pool.h"
#include "storage/page_store.h"
#include "telemetry/metrics_registry.h"
#include "text/corpus.h"
#include "text/vocabulary.h"

namespace svr::telemetry {
class StageTimer;
}  // namespace svr::telemetry

namespace svr::core {

/// Engine observability (docs/observability.md). Off by default: every
/// instrumented site costs one predictable branch and nothing else, and
/// no telemetry state is allocated. Set on a ShardedSvrEngine through
/// `ShardedSvrEngineOptions::shard.telemetry`; a shard reads `enabled`
/// and `registry` only — the slow-query log and the periodic dump are
/// the sharded layer's.
struct TelemetryOptions {
  bool enabled = false;
  /// Sharded layer only: end-to-end queries whose total wall time
  /// crosses this land in the slow-query ring buffer with their full
  /// stage trace.
  uint64_t slow_query_threshold_us = 100000;
  /// Sharded layer only: traces the slow-query ring retains (oldest
  /// evicted first).
  uint32_t slow_query_log_capacity = 128;
  /// Registry the instruments resolve from. Null = a private one. The
  /// sharded layer installs one shared registry into every shard, so
  /// `dml.*` / `query.*` / `merge.*` histograms aggregate across shards
  /// and one sharded dump covers the whole engine.
  std::shared_ptr<telemetry::MetricsRegistry> registry;
  /// Sharded layer only: > 0 starts the registry's background periodic
  /// dump — every `dump_interval_ms`, `dump_sink` receives a fresh
  /// Dump(dump_format). Requires a non-null sink; stopped by the sharded
  /// engine's Stop().
  uint32_t dump_interval_ms = 0;
  telemetry::DumpFormat dump_format = telemetry::DumpFormat::kJson;
  std::function<void(const std::string&)> dump_sink;
};

struct SvrEngineOptions {
  uint32_t page_size = 4096;
  /// Cache budget for tables / short lists (stays warm, §5.2).
  uint64_t table_pool_pages = 8192;
  /// Cache budget for the long inverted lists (cold-cache target).
  uint64_t list_pool_pages = 8192;
  index::Method method = index::Method::kChunk;
  index::IndexOptions index_options;
  /// Incremental short→long merge triggers (docs/merge_policy.md). When
  /// enabled, the engine evaluates them every `check_interval` writes to
  /// the scored corpus; triggered terms are merged in place (synchronous
  /// mode) or handed to the background scheduler (below).
  MergePolicy merge_policy;
  /// Background maintenance (docs/concurrency.md): when true the engine
  /// runs a merge-scheduler thread — trigger hits become queue jobs, the
  /// merge work happens off the write path against a pinned ReadView,
  /// and the new blobs are installed under the writer mutex. Started by
  /// CreateTextIndex (or Start()), stopped by Stop()/destruction.
  bool background_merge = false;
  concurrency::MergeSchedulerOptions scheduler;
  /// Commit-timestamp source. Shared across engines (the sharded layer
  /// hands every shard one clock, making commit timestamps globally
  /// ordered — the cross-shard read timestamp). Null = the engine
  /// creates a private clock.
  std::shared_ptr<concurrency::CommitClock> commit_clock;
  /// Observability (docs/observability.md): registry-backed histograms
  /// on every hot subsystem. Disabled by default.
  TelemetryOptions telemetry;
};

/// One search hit joined back to its relational row.
struct ScoredRow {
  int64_t pk = 0;
  double score = 0.0;
  relational::Row row;
};

/// The scored table's rows by dense doc id, shared between versions;
/// a deleted document's slot is null.
using RowColumn = VersionedArray<std::shared_ptr<const relational::Row>>;

/// \brief One published engine version: everything the read path needs,
/// sealed at a single commit timestamp. Immutable once published;
/// readers hold it through a shared_ptr inside a ReadView.
struct EngineSnapshot {
  uint64_t commit_ts = 0;
  bool has_index = false;
  index::IndexSnapshot index;
  /// The scored table's rows at this version (for the Search join).
  RowColumn::Snapshot rows;

  /// Row of `doc` at this version; null when deleted or never indexed.
  const relational::Row* RowOf(DocId doc) const {
    const std::shared_ptr<const relational::Row>* slot = rows.Find(doc);
    return slot != nullptr ? slot->get() : nullptr;
  }
};

/// Engine-level counter snapshot. Gathered from internally synchronized
/// sources with no engine lock — fields are individually fresh but not
/// mutually atomic (they never were load-bearing together).
///
/// The summable uint64 counters are declared through
/// SVR_ENGINE_STATS_U64_FIELDS so the sharded layer's field-wise
/// aggregation (AddEngineStats) iterates the same list the struct is
/// built from; the static_assert below catches a counter added outside
/// the macro. `index`, `commit_ts`, `background_merge` and
/// `write_merge_ms` sit outside the macro because they aggregate
/// differently (recursive sum / max / or / double sum).
#define SVR_ENGINE_STATS_U64_FIELDS(V)                                    \
  V(merge_workers)         /* scheduler pool size while running */        \
  V(merge_queue_depth)     /* jobs queued or in flight */                 \
  V(merge_jobs_enqueued)                                                  \
  V(merge_jobs_completed)                                                 \
  V(merge_jobs_aborted)    /* optimistic conflicts retried */             \
  V(merge_jobs_dropped)    /* queue-full rejections */                    \
  V(merge_dedup_hits)      /* enqueues of already-pending terms */        \
  V(merge_sync_fallbacks)                                                 \
  /* Dead version objects (replaced blobs + retired tree pages)           \
     awaiting / past epoch reclamation. Counts objects, not blobs: the    \
     pre-MVCC `blobs_reclaimed` field grew into this when commits         \
     started retiring shadowed pages too. */                              \
  V(reclaim_pending)                                                      \
  V(objects_reclaimed)

struct EngineStats {
  index::IndexStats index;
  /// Commit timestamp of the currently published snapshot.
  uint64_t commit_ts = 0;
  bool background_merge = false;
#define SVR_ENGINE_STATS_DECLARE(name) uint64_t name = 0;
  SVR_ENGINE_STATS_U64_FIELDS(SVR_ENGINE_STATS_DECLARE)
#undef SVR_ENGINE_STATS_DECLARE
  /// Wall time the *write path* has spent on merge maintenance: whole
  /// sweeps in synchronous mode, trigger evaluation + enqueue in
  /// background mode (the headline "write-path merge time ~0" metric of
  /// bench_concurrent_churn).
  double write_merge_ms = 0.0;
};

namespace internal {
#define SVR_ENGINE_STATS_COUNT(name) +1
inline constexpr size_t kEngineStatsU64FieldCount =
    SVR_ENGINE_STATS_U64_FIELDS(SVR_ENGINE_STATS_COUNT);
#undef SVR_ENGINE_STATS_COUNT
}  // namespace internal

// A counter added to EngineStats without going through
// SVR_ENGINE_STATS_U64_FIELDS changes the size but not the macro count
// and fails here, keeping the sharded sum (AddEngineStats) complete.
// Layout: index + commit_ts + bool (padded to 8) + N counters + double.
static_assert(sizeof(EngineStats) ==
                  sizeof(index::IndexStats) + 2 * sizeof(uint64_t) +
                      internal::kEngineStatsU64FieldCount *
                          sizeof(uint64_t) +
                      sizeof(double),
              "add EngineStats counters via SVR_ENGINE_STATS_U64_FIELDS");

/// \brief The system of Figure 2, end to end: a relational database whose
/// text column is ranked by Structured Value Ranking.
///
/// Usage sketch (the SQL/MM flow of §3):
///
///   auto engine = SvrEngine::Open(options).value();
///   engine->CreateTable("Movies", ...);    // pk, ..., text column
///   engine->CreateTable("Reviews", ...);
///   engine->CreateTextIndex("Movies", "description",
///                           {S1_avg_rating, S2_visits, S3_downloads},
///                           AggFunction::WeightedSum({100, 0.5, 1}));
///   engine->Insert("Reviews", {...});      // -> MV -> Algorithm 1
///   auto top = engine->Search("golden gate", 10);
///
/// Every structured write is routed through the incrementally maintained
/// Score view; score changes reach the index as Algorithm-1 updates, so
/// searches always rank by the latest structured values.
///
/// Thread model (docs/concurrency.md): the engine is multi-versioned.
/// Writers (DML, merge installs) serialize on a plain mutex, mutate
/// copy-on-write structures, and publish an immutable EngineSnapshot
/// stamped by the commit clock. Readers — Search, ReadSnapshot, GetStats
/// — acquire no engine lock at all: they pin a ReadView (epoch guard +
/// atomic snapshot load) and run entirely against that version, so they
/// never block on or behind writers, and writers never wait for readers
/// to drain. Dead versions (replaced blobs, shadowed tree pages) are
/// reclaimed through the epoch manager once the last reader that could
/// see them exits. The raw component accessors at the bottom bypass the
/// versioning: quiescent use only.
///
/// Durability is not the engine's concern: ShardedSvrEngine owns the WAL,
/// checkpoints and recovery (docs/durability.md), and one shard is the
/// single-node setup.
class SvrEngine {
 public:
  /// A pinned, immutable view of the engine at one commit timestamp.
  /// Holding it keeps every structure it references alive (the epoch
  /// guard defers reclamation; the shared_ptr keeps the snapshot).
  /// Move-only; release by destruction.
  struct ReadView {
    uint64_t commit_ts() const {
      return state != nullptr ? state->commit_ts : 0;
    }
    bool indexed() const { return state != nullptr && state->has_index; }

    std::shared_ptr<const EngineSnapshot> state;
    concurrency::EpochManager::Guard guard;
  };

  static Result<std::unique_ptr<SvrEngine>> Open(
      const SvrEngineOptions& options);

  SvrEngine(const SvrEngine&) = delete;
  SvrEngine& operator=(const SvrEngine&) = delete;

  /// Stops background maintenance and reclaims retired versions.
  ~SvrEngine();

  Status CreateTable(const std::string& name, relational::Schema schema);

  /// Declares `text_column` of `table` as the SVR-ranked column with the
  /// given score components and combiner, then builds the text index over
  /// the rows already present. Starts the background merge scheduler
  /// when the options ask for it.
  ///
  /// Constraint: the scored table's primary keys must be the dense
  /// sequence 0..N-1 in insertion order (they double as document ids).
  Status CreateTextIndex(const std::string& table,
                         const std::string& text_column,
                         std::vector<relational::ScoreComponentSpec> specs,
                         relational::AggFunction agg);

  /// DML. Writes to the scored table also maintain the corpus and the
  /// text index (insert / delete / content update, Appendix A). Each
  /// statement publishes a new snapshot on return. `commit_ts`
  /// (optional) receives the published snapshot's timestamp — the
  /// sharded layer stamps its WAL records with it.
  Status Insert(const std::string& table, const relational::Row& row,
                uint64_t* commit_ts = nullptr);
  Status Update(const std::string& table, const relational::Row& row,
                uint64_t* commit_ts = nullptr);
  Status Delete(const std::string& table, int64_t pk,
                uint64_t* commit_ts = nullptr);

  /// Pins the latest published snapshot. Lock-free (one epoch-guard
  /// registration plus an atomic shared_ptr load).
  ReadView PinReadView() const;

  /// Top-k keyword search over the indexed text column; results are
  /// joined back to their rows. Safe to call from any number of threads
  /// concurrently with DML and background merges; never blocks on them.
  /// With telemetry enabled, each stage's wall time is recorded into the
  /// `query.*` histograms (docs/observability.md).
  Result<std::vector<ScoredRow>> Search(const std::string& keywords,
                                        size_t k, bool conjunctive = true);
  /// Search against an already-pinned view.
  Result<std::vector<ScoredRow>> SearchAt(const ReadView& view,
                                          const std::string& keywords,
                                          size_t k, bool conjunctive = true);
  /// One leg of a sharded search: term resolution and the index top-k
  /// at `view`, without the row join. `hits` hold local doc ids, best
  /// first; the sharded gather joins only the global winners, from
  /// `view.state->RowOf`.
  Status SearchHitsAt(const ReadView& view, const std::string& keywords,
                      size_t k, bool conjunctive,
                      std::vector<index::SearchResult>* hits);

  /// Pins a view and runs `fn` against it — multi-statement snapshot
  /// reads (a query plus an oracle check over the same version, as the
  /// concurrency tests do). `fn` must read only through the view (index
  /// TopKAt, the snapshot oracle, vocabulary lookups).
  Status ReadSnapshot(const std::function<Status(const ReadView&)>& fn);

  /// True iff `table` currently holds a row with primary key `pk`.
  /// Serializes briefly on the writer mutex — rare error-path probes
  /// only (the sharded router's failed-insert check), never hot reads.
  bool RowExists(const std::string& table, int64_t pk)
      EXCLUDES(writer_mu_);

  /// Starts background maintenance (no-op unless options enable it and
  /// a text index exists). CreateTextIndex calls this automatically.
  Status Start() EXCLUDES(writer_mu_);
  /// Stops the scheduler thread and reclaims every retired version.
  /// Callers must have stopped issuing queries. Idempotent, and safe to
  /// call before Start() or on an engine that never enabled any
  /// background machinery. DML after Stop() still works.
  void Stop() EXCLUDES(writer_mu_);

  /// Index + concurrency counters; lock-free.
  EngineStats GetStats() const;

  // --- component access (benchmarks, tests, diagnostics) --------------
  // Unversioned: use only while no other thread touches the engine.
  relational::Database* database() { return db_.get(); }
  relational::ScoreTable* score_table() { return score_table_.get(); }
  index::TextIndex* text_index() { return index_.get(); }
  text::Vocabulary* vocabulary() { return &vocab_; }
  const text::Corpus* corpus() const { return &corpus_; }
  storage::BufferPool* list_pool() { return list_pool_.get(); }
  storage::BufferPool* table_pool() { return table_pool_.get(); }
  concurrency::MergeScheduler* merge_scheduler() {
    return scheduler_ptr_.load(std::memory_order_acquire);
  }
  concurrency::EpochManager* epoch_manager() { return epochs_.get(); }
  concurrency::CommitClock* commit_clock() { return clock_.get(); }

 private:
  explicit SvrEngine(const SvrEngineOptions& options);

  /// Per-subsystem instruments, resolved out of the registry once at
  /// Open so the record paths go through raw pointers and never touch
  /// the registry mutex. All null when telemetry is disabled — record
  /// sites are guarded by `telemetry_enabled_` / null checks.
  struct EngineInstruments {
    telemetry::ShardedHistogram* dml_apply_us = nullptr;
    telemetry::ShardedHistogram* dml_publish_us = nullptr;
    telemetry::ShardedHistogram* query_total_us = nullptr;
    telemetry::ShardedHistogram* query_term_resolve_us = nullptr;
    telemetry::ShardedHistogram* query_index_us = nullptr;
    telemetry::ShardedHistogram* query_join_us = nullptr;
    telemetry::ShardedHistogram* merge_prepare_us = nullptr;
    telemetry::ShardedHistogram* merge_install_us = nullptr;
  };

  /// Wires the registry (creating a private one unless the options hand
  /// a shared one in), resolves instruments and registers the epoch
  /// gauges. Called by Open.
  void InitTelemetry();

  text::Document TokenizeToDocument(const std::string& text);
  /// Index maintenance after a scored-table write: stores the row in
  /// the row column, then adds the document (`fresh`) or re-indexes a
  /// changed text (Appendix A).
  Status HandleScoredTableWrite(const relational::Row& new_row, bool fresh)
      REQUIRES(writer_mu_);
  /// Term resolution and index top-k: the shared body of SearchAt and
  /// SearchHitsAt. Laps the resolve and index stages into `timer`.
  Status RankAt(const EngineSnapshot& snap, const std::string& keywords,
                size_t k, bool conjunctive, telemetry::StageTimer* timer,
                std::vector<index::SearchResult>* hits);
  /// The statement bodies of Insert/Update/Delete — the table write,
  /// index maintenance, view-error surfacing, and the merge-policy tick.
  /// Split out of the public DML entry points so the writer-mutex
  /// contract is a checked REQUIRES rather than an inline lambda.
  Status ApplyInsertLocked(const std::string& table,
                           const relational::Row& row)
      REQUIRES(writer_mu_);
  Status ApplyUpdateLocked(const std::string& table,
                           const relational::Row& row)
      REQUIRES(writer_mu_);
  Status ApplyDeleteLocked(const std::string& table, int64_t pk)
      REQUIRES(writer_mu_);
  /// The shared tail of Insert/Update/Delete: laps the apply stage,
  /// publishes the statement's snapshot, laps the publish stage, and
  /// reports the commit timestamp. Returns `st` (the apply status) —
  /// the snapshot publishes either way, exactly as the in-place model
  /// exposed partial writes.
  Status FinishStatementLocked(const Status& st,
                               telemetry::StageTimer* timer,
                               uint64_t* commit_ts) REQUIRES(writer_mu_);
  /// Runs the auto-merge policy once every `merge_policy.check_interval`
  /// DML writes while a text index exists (any write may drive score
  /// updates through the view; an off-cycle evaluation over the dirty
  /// term map is cheap). Synchronous mode merges in place; background
  /// mode enqueues the triggered terms. No-op when the policy is
  /// disabled. The REQUIRES is the negative-test site of
  /// tools/run_static_analysis.sh: compiling with -DSVR_TSA_NEGATIVE_TEST
  /// drops it, and the clang -Wthread-safety build must then fail on the
  /// unguarded reads of scheduler_ (GUARDED_BY writer_mu_).
  Status MaybeRunMergePolicy() REQUIRES_FOR_NEGATIVE_TEST(writer_mu_);

  /// Seals every copy-on-write structure, stamps a commit timestamp,
  /// publishes the new EngineSnapshot, and hands the statement's dead
  /// pages/blobs to the epoch manager (the unpublish-then-retire
  /// discipline). Returns the published commit timestamp.
  uint64_t PublishCommit() REQUIRES(writer_mu_);

  concurrency::MergeHostHooks MakeMergeHooks();

  SvrEngineOptions options_;
  std::unique_ptr<storage::InMemoryPageStore> table_store_;
  std::unique_ptr<storage::InMemoryPageStore> list_store_;
  std::unique_ptr<storage::BufferPool> table_pool_;
  std::unique_ptr<storage::BufferPool> list_pool_;
  std::unique_ptr<relational::Database> db_;
  std::unique_ptr<relational::ScoreTable> score_table_;
  std::unique_ptr<relational::ScoreView> score_view_;
  std::unique_ptr<index::TextIndex> index_;
  text::Vocabulary vocab_;
  text::Corpus corpus_;

  /// Writer serialization: DML, merge installs, lifecycle. Readers never
  /// touch it. Ordered after the sharded layer's per-shard insert and
  /// log mutexes (docs/static_analysis.md).
  Mutex writer_mu_;
  /// The published version, swapped atomically at each commit.
  std::shared_ptr<const EngineSnapshot> published_;
  std::shared_ptr<concurrency::CommitClock> clock_;
  std::unique_ptr<concurrency::EpochManager> epochs_;
  /// Owned here; created under writer_mu_ by Start. Lock-free readers
  /// (GetStats, merge_scheduler()) go through scheduler_ptr_ instead.
  std::unique_ptr<concurrency::MergeScheduler> scheduler_
      GUARDED_BY(writer_mu_);
  /// Lock-free mirrors for GetStats (set once, before first use).
  std::atomic<index::TextIndex*> index_ptr_{nullptr};
  std::atomic<concurrency::MergeScheduler*> scheduler_ptr_{nullptr};

  /// Dead state accumulated by the current statement, retired as one
  /// epoch batch at PublishCommit. Guarded by writer_mu_.
  std::vector<std::pair<storage::BufferPool*, storage::PageId>> pending_pages_;
  std::vector<storage::BlobRef> pending_blobs_;
  /// The buffering disposers wired into the index context.
  storage::PageRetirer list_page_retirer_;
  index::BlobRetirer blob_retirer_;

  /// Wall ms the write path spent in MaybeRunMergePolicy.
  std::atomic<double> write_merge_ms_{0.0};

  std::string scored_table_;
  /// Working version of the scored table's rows, indexed by doc id; set
  /// with each scored-table write and sealed into every EngineSnapshot.
  /// Writer-side only (under writer_mu_), like corpus_; not annotated
  /// because CreateTextIndex fills it from lambdas run under the lock.
  RowColumn rows_;
  int text_column_ = -1;
  int pk_column_ = -1;
  index::MergeCheckCounter merge_ticks_;

  // --- telemetry state (docs/observability.md) ------------------------
  /// Mirrors options_.telemetry.enabled; read on every instrumented
  /// path. Set once in InitTelemetry, before any concurrency exists.
  bool telemetry_enabled_ = false;
  std::shared_ptr<telemetry::MetricsRegistry> metrics_;
  EngineInstruments tel_;
};

}  // namespace svr::core

#endif  // SVR_CORE_SVR_ENGINE_H_
