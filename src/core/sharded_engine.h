#ifndef SVR_CORE_SHARDED_ENGINE_H_
#define SVR_CORE_SHARDED_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "concurrency/commit_clock.h"
#include "concurrency/query_pool.h"
#include "core/svr_engine.h"
#include "durability/checkpoint.h"
#include "durability/log_writer.h"
#include "durability/options.h"
#include "index/text_index.h"
#include "telemetry/metrics_registry.h"
#include "telemetry/query_trace.h"
#include "telemetry/slow_query_log.h"

namespace svr::core {

struct ShardedSvrEngineOptions {
  /// Number of independent SvrEngine shards. 1 degenerates to a plain
  /// engine behind the same API.
  uint32_t num_shards = 1;
  /// Options applied to every shard. Each shard gets its own page
  /// stores, buffer pools, score view, text index and (when enabled)
  /// merge scheduler, so DML against different shards never contends.
  /// All shards share ONE commit clock (installed by Open), so their
  /// commit timestamps are globally ordered and a gather reports a
  /// single read watermark.
  SvrEngineOptions shard;
  /// Divide `shard.table_pool_pages` / `shard.list_pool_pages` by
  /// `num_shards` (floored at 64 pages) so the total cache budget stays
  /// constant as the shard count sweeps — the fair comparison the
  /// sharding bench wants. Disable to give every shard the full budget.
  bool split_pool_budgets = true;
  /// Query-side fan-out: > 1 scatters per-shard top-k work onto a small
  /// persistent thread pool instead of running shards sequentially in
  /// the caller (the calling thread always participates, so N means N
  /// lanes). 1 (the default) keeps the scatter sequential — single-core
  /// benches are unchanged.
  uint32_t num_query_threads = 1;
  /// Durability (docs/durability.md) — the engine's one durability
  /// option; shards never log. One WAL segment per shard in one shared
  /// directory, statements logged with their *global* keys so recovery
  /// replays through the sharded DML path (rebuilding all routing state
  /// — and tolerating a different num_shards than the log was written
  /// under). A durable single-node engine is `num_shards = 1`.
  durability::DurabilityOptions durability;
  /// Telemetry rides in `shard.telemetry` (docs/observability.md): Open
  /// installs ONE shared registry into every shard, so per-shard
  /// instruments aggregate under their single names; the sharded layer
  /// adds its own `sharded.*` scatter/gather instruments and owns the
  /// telemetry lifecycle — the slow-query log and, when configured, the
  /// periodic dump.
};

/// \brief One pinned cross-shard read point: every shard's ReadView plus
/// the gather watermark (the highest commit timestamp among them, drawn
/// from the shared clock). Because each DML statement commits on exactly
/// one shard, the vector of per-shard versions is a consistent global
/// snapshot; holding it keeps every referenced version alive on every
/// shard. Move-only.
struct ShardedReadView {
  std::vector<SvrEngine::ReadView> shards;
  /// Highest commit_ts across the pinned views — the cross-shard read
  /// timestamp this gather observes.
  uint64_t watermark = 0;
};

/// Counter snapshot across all shards: per-shard `EngineStats` plus the
/// field-wise sum (`total`). Per-shard snapshots are each coherent under
/// that shard's reader lock; the vector as a whole is gathered shard by
/// shard, not under one global lock.
struct ShardedEngineStats {
  std::vector<EngineStats> shards;
  EngineStats total;
  uint32_t num_shards = 0;
  /// Distinct global primary keys routed so far.
  uint64_t num_ids = 0;
  /// Latest commit timestamp drawn from the shared clock.
  uint64_t commit_watermark = 0;
};

/// \brief N independent `SvrEngine` shards behind the single-engine API:
/// documents are hash-partitioned by primary key, DML routes to the
/// owning shard under that shard's lock, and `Search` scatter-gathers
/// per-shard top-k lists into one bounded merge heap (docs/sharding.md).
///
/// Gather bound: every shard returns its best k, so any document of the
/// global top-k — which ranks at least as high within its own shard —
/// is contained in its shard's list, and the merged heap (ordered by
/// score desc, then global id asc) cannot miss it. This is the classic
/// top-k scatter-gather argument (cf. the TA/NRA family), and makes the
/// partitioned answer equal to the single-engine answer. Exact equality
/// *under ties at a shard's k-boundary* additionally needs the shard's
/// internal (score, local id) order to agree with (score, global id):
/// local ids follow insert order, so this holds when keys reach each
/// shard in increasing order (sequential loads; see docs/sharding.md).
/// Concurrent writers racing on tied scores may truncate a tie group
/// differently than a single engine would — per-shard correctness and
/// the oracle checks are unaffected.
///
/// Id routing. Shards require their scored-table primary keys to be the
/// dense sequence 0..n-1 (they double as document ids), so the sharded
/// engine keeps a global-id -> (shard, local-id) map: the first insert
/// bearing a given key allocates the owning shard's next local id, and
/// results are translated back on the way out. Tables are routed by the
/// column that carries the document id — the primary key by default, or
/// the component spec's match column for score-component tables declared
/// via CreateTextIndex (declare such tables *before* inserting their
/// rows). Every table routed through this engine must be keyed by
/// document id in that sense; see docs/sharding.md for the exact
/// constraints inherited from the per-shard density rule.
///
/// Consistency (docs/concurrency.md, docs/sharding.md). All shards draw
/// commit timestamps from one shared clock. `Search` pins every shard's
/// published snapshot up front (`PinReadViewAll`, lock-free) and runs
/// the whole scatter + gather + row join against that one
/// ShardedReadView — a true cross-shard snapshot at the view's
/// watermark, since single-shard commits have no cross-shard
/// dependencies. `ReadSnapshotAll` hands the same pinned view to a
/// callback for multi-statement snapshot reads (the oracle validation);
/// it acquires no shard locks — the all-shard lock acquisition of the
/// pre-MVCC engine is gone.
class ShardedSvrEngine {
 public:
  static Result<std::unique_ptr<ShardedSvrEngine>> Open(
      const ShardedSvrEngineOptions& options);

  ShardedSvrEngine(const ShardedSvrEngine&) = delete;
  ShardedSvrEngine& operator=(const ShardedSvrEngine&) = delete;

  ~ShardedSvrEngine();

  /// Creates `name` on every shard (each holds its partition's rows).
  Status CreateTable(const std::string& name, relational::Schema schema);

  /// Declares the SVR-ranked column on every shard. Score-component
  /// tables whose match column differs from their primary key become
  /// join-routed from here on: their rows are partitioned (and their
  /// match column translated) by the document id they reference.
  Status CreateTextIndex(const std::string& table,
                         const std::string& text_column,
                         std::vector<relational::ScoreComponentSpec> specs,
                         relational::AggFunction agg);

  /// DML, routed to the owning shard and run under that shard's one
  /// write lock, which also orders the statement's WAL append. Writes
  /// to different shards proceed in parallel. The first insert of a
  /// *new* key allocates the shard's next local id and publishes the
  /// mapping under that same lock, so allocation order is the shard's
  /// insert order.
  Status Insert(const std::string& table, const relational::Row& row);
  Status Update(const std::string& table, const relational::Row& row);
  Status Delete(const std::string& table, int64_t pk);

  /// Scatter-gather top-k at one pinned cross-shard read timestamp:
  /// pins every shard's snapshot, fetches k from each (on the query
  /// pool when `num_query_threads` > 1), merges on one bounded heap by
  /// (score desc, global id asc), and returns rows with their global
  /// primary keys restored — all from the same pinned views. A non-null
  /// `trace` receives the stage trace with one ShardSpan per shard
  /// (docs/observability.md); results are identical either way.
  Result<std::vector<ScoredRow>> Search(const std::string& keywords,
                                        size_t k, bool conjunctive = true,
                                        telemetry::QueryTrace* trace = nullptr);
  /// Search against an already-pinned view (validation compares index
  /// and oracle answers at the identical watermark this way).
  Result<std::vector<ScoredRow>> SearchAt(const ShardedReadView& view,
                                          const std::string& keywords,
                                          size_t k, bool conjunctive = true,
                                          telemetry::QueryTrace* trace = nullptr);

  /// Pins one cross-shard read point. Lock-free: one epoch-guard
  /// registration and one atomic snapshot load per shard.
  ShardedReadView PinReadViewAll() const;

  /// Pins a cross-shard view and runs `fn` against it. `fn` must read
  /// only through the view (per-shard TopKAt / the snapshot oracle /
  /// SearchAt), as the oracle checks do. No shard locks are taken.
  Status ReadSnapshotAll(
      const std::function<Status(const ShardedReadView&)>& fn);

  /// Merges per-shard top-k lists (local document ids, as returned by a
  /// shard's TopK) into the global top-k with global ids — the gather
  /// step of Search, exposed so validation code compares index results
  /// and oracle results through the identical merge. Equivalent to
  /// MergeTopK(TranslateToGlobal(per_shard), k).
  std::vector<index::SearchResult> GatherTopK(
      const std::vector<std::vector<index::SearchResult>>& per_shard,
      size_t k) const;

  /// Rewrites result lists from local to global document ids under ONE
  /// map acquisition; `shard_of_list[i]` names the shard whose locals
  /// list i uses (several lists may reference one shard). Locals with
  /// no published mapping are dropped. Validation code translates the
  /// index side and the oracle side in a single call, so a concurrent
  /// fresh-key publish cannot land between the two and skew one of
  /// them. The one-argument form treats entry i as shard i's list.
  std::vector<std::vector<index::SearchResult>> TranslateToGlobal(
      const std::vector<std::vector<index::SearchResult>>& lists,
      const std::vector<uint32_t>& shard_of_list) const EXCLUDES(map_mu_);
  std::vector<std::vector<index::SearchResult>> TranslateToGlobal(
      const std::vector<std::vector<index::SearchResult>>& per_shard)
      const EXCLUDES(map_mu_);

  /// The gather merge over already-translated lists: one bounded heap
  /// on (score desc, global id asc). Pure function of its inputs.
  static std::vector<index::SearchResult> MergeTopK(
      const std::vector<std::vector<index::SearchResult>>& translated,
      size_t k);

  /// Starts / stops background maintenance on every shard.
  Status Start();
  void Stop() EXCLUDES(ckpt_mu_);

  /// Writes a checkpoint now: captures all shards under every shard
  /// write mutex, rotates every shard's WAL segment, persists one
  /// checkpoint file and deletes the covered segments. See
  /// docs/durability.md for why the capture is a consistent cut. Timed
  /// into `checkpoint.duration_us` when telemetry is on.
  Status CheckpointNow() EXCLUDES(ckpt_run_mu_, map_mu_);

  /// What recovery did during Open (all-zero when durability is off or
  /// the directory was empty).
  const durability::RecoveryStats& recovery_stats() const {
    return recovery_stats_;
  }
  /// Sticky first error of the background checkpoint thread.
  Status last_checkpoint_error() const EXCLUDES(ckpt_mu_);

  ShardedEngineStats GetStats() const;

  /// Renders the shared registry — per-shard instruments (summed gauges,
  /// merged histograms) plus the `sharded.*` family. Empty string when
  /// telemetry is off.
  std::string DumpMetrics(telemetry::DumpFormat format) const {
    return metrics_ != nullptr ? metrics_->Dump(format) : std::string();
  }
  /// The shared registry (null when telemetry is off).
  telemetry::MetricsRegistry* metrics_registry() const {
    return metrics_.get();
  }
  /// The engine's one slow-query log: end-to-end scatter-gather queries
  /// (shards keep none). Null when telemetry is off.
  telemetry::SlowQueryLog* slow_query_log() { return slow_log_.get(); }

  uint32_t num_shards() const {
    return static_cast<uint32_t>(shards_.size());
  }
  SvrEngine* shard(uint32_t i) { return shards_[i].get(); }

  /// Owning shard of key `gid` under this engine's hash partitioning
  /// (fixed at Open; independent of whether the key was seen yet).
  uint32_t ShardOf(int64_t gid) const;
  /// (shard, local doc id) of a routed key; NotFound if never inserted.
  Result<std::pair<uint32_t, DocId>> Route(int64_t gid) const
      EXCLUDES(map_mu_);
  /// Global key of a shard-local document id; kInvalidGlobalId if out of
  /// range.
  int64_t GlobalIdOf(uint32_t shard, DocId local) const EXCLUDES(map_mu_);

  static constexpr int64_t kInvalidGlobalId = -1;

 private:
  struct Loc {
    uint32_t shard = 0;
    DocId local = 0;
  };

  ShardedSvrEngine(std::vector<std::unique_ptr<SvrEngine>> shards,
                   std::shared_ptr<concurrency::CommitClock> clock,
                   uint32_t num_query_threads);

  /// Routing metadata of one table: which column carries the document id
  /// and whether it is the primary key.
  struct TableRoute {
    int pk_index = 0;
    int route_column = 0;  // == pk_index unless join-routed
  };

  Result<const TableRoute*> RouteOf(const std::string& table) const
      EXCLUDES(map_mu_);
  /// Runs fn(s) once per shard and returns when all calls have: fanned
  /// out on the query pool (the caller takes one lane) when the engine
  /// has one, else one shard after another. The search scatter and
  /// CreateTextIndex both use it.
  void ForEachShard(const std::function<void(size_t)>& fn);
  /// Insert of a row whose routing column is a match column rather than
  /// its pk: requires the referenced document to exist, claims the
  /// row's own pk engine-wide (shard-level duplicate checks only see
  /// one partition), translates the match column and forwards.
  Status InsertJoinRouted(const std::string& table, const TableRoute& route,
                          const relational::Row& row, int64_t gid);
  /// Existing mapping of `gid`, or allocates one (owning shard's next
  /// local id) for a first-seen key. Caller holds the owning shard's
  /// write lock. `fresh` reports a new allocation, which is only
  /// reserved: the caller publishes it, under the same lock, once the
  /// row landed.
  Loc MapOrAllocate(int64_t gid, bool* fresh) EXCLUDES(map_mu_);
  /// Owning shard of a join-routed row, by the row's own primary key;
  /// NotFound if it was never inserted through this engine.
  Result<uint32_t> JoinRoutedShardOf(const std::string& table,
                                     int64_t pk) const EXCLUDES(map_mu_);

  /// Resolves the `sharded.*` instruments and the slow-query log from
  /// the shared registry Open installed into every shard. Called by
  /// Open before InitDurability (the WAL writers are instrumented at
  /// creation). No-op when `topt.enabled` is false.
  void InitTelemetry(const TelemetryOptions& topt);

  // --- durability (docs/durability.md) --------------------------------
  /// Directory scan + checkpoint load + WAL replay through the public
  /// sharded DML path; then arms per-shard logging. Called by Open.
  Status InitDurability(const durability::DurabilityOptions& options);
  /// Re-executes one logged statement (recovery).
  Status ApplyStatement(const durability::WalStatement& stmt);
  /// The one commit path of every logged statement: under shard `s`'s
  /// write lock, runs `exec(&ts)` and, when it succeeds while logging
  /// is armed, appends `stmt` stamped at the commit timestamp `exec`
  /// reported. Returns `exec`'s status; `*ticket` is the WaitDurable
  /// ticket, 0 when nothing was appended. The caller waits after
  /// releasing the lock, so concurrent statements share one fsync.
  template <typename Exec>
  Status CommitOnShard(uint32_t s, durability::WalStatement* stmt,
                       Exec&& exec, uint64_t* ticket);
  /// Stamps (seq, ts), frames and appends `stmt` to shard `s`'s log.
  /// Caller holds shard_log_mu_[s] — the same lock that ordered the
  /// statement's execution, so each shard's file order equals its
  /// commit-timestamp order. Returns the WaitDurable ticket.
  uint64_t LogStatementLocked(uint32_t s, durability::WalStatement* stmt,
                              uint64_t ts);
  /// Logs a DDL statement to shard 0's WAL, stamped at clock_->Now().
  /// DDL runs quiescent (no concurrent DML — the engines' standing
  /// contract), so Now() orders it after everything already logged.
  Status LogDdl(durability::WalStatement stmt);
  /// Group-commit ack of shard `s`'s `ticket`, timed into
  /// `dml.wait_durable_us`; ticket 0 has nothing to wait for. Callers
  /// hold no engine lock, so concurrent statements batch onto the same
  /// fsync meanwhile.
  Status WaitDurable(uint32_t s, uint64_t ticket);
  /// Serializes all shards into `data` with global keys. Caller holds
  /// every shard_log_mu_.
  Status BuildCheckpointStatementsLocked(durability::CheckpointData* data)
      EXCLUDES(map_mu_);
  /// CheckpointNow's body; the public entry point times it.
  Status CheckpointNowImpl() EXCLUDES(ckpt_run_mu_, map_mu_);
  void CheckpointLoop() EXCLUDES(ckpt_mu_);

  std::vector<std::unique_ptr<SvrEngine>> shards_;
  /// The shared commit clock every shard stamps its commits from.
  std::shared_ptr<concurrency::CommitClock> clock_;

  // --- telemetry (docs/observability.md) ------------------------------
  /// Instrument pointers resolved once at Open; all nullptr when
  /// telemetry is off, so the hot paths test one bool and never touch
  /// the registry.
  struct ShardedInstruments {
    telemetry::ShardedHistogram* scatter_shard_us = nullptr;
    telemetry::ShardedHistogram* gather_us = nullptr;
    telemetry::ShardedHistogram* join_us = nullptr;
    telemetry::ShardedHistogram* query_total_us = nullptr;
    telemetry::ShardedHistogram* wal_fsync_us = nullptr;
    telemetry::ShardedHistogram* wal_batch_statements = nullptr;
    telemetry::ShardedHistogram* dml_wait_durable_us = nullptr;
    telemetry::ShardedHistogram* checkpoint_us = nullptr;
    telemetry::Counter* slow_queries = nullptr;
  };
  bool telemetry_enabled_ = false;
  /// The registry shared with every shard (their instruments and this
  /// layer's live side by side).
  std::shared_ptr<telemetry::MetricsRegistry> metrics_;
  std::unique_ptr<telemetry::SlowQueryLog> slow_log_;
  ShardedInstruments tel_;
  /// True when this engine started the registry's periodic dump (and
  /// must stop it in Stop, before teardown invalidates gauge callbacks).
  bool owns_periodic_dump_ = false;
  /// Query-side fan-out pool (null when num_query_threads <= 1).
  std::unique_ptr<concurrency::QueryPool> query_pool_;

  /// Guards the id map, the reverse maps and the table routing metadata.
  /// Bounded hash-map critical sections (routing metadata, not engine
  /// state); the read path never blocks behind a DML statement on it.
  /// Nests inside the per-shard write mutexes — no DML path ever
  /// acquires those while holding map_mu_.
  mutable SharedMutex map_mu_;
  std::unordered_map<int64_t, Loc> id_map_ GUARDED_BY(map_mu_);
  /// Per shard: local doc id -> global key (locals are dense).
  std::vector<std::vector<int64_t>> local_to_global_ GUARDED_BY(map_mu_);
  /// Table name -> routing metadata (populated by CreateTable /
  /// CreateTextIndex).
  std::unordered_map<std::string, TableRoute> tables_ GUARDED_BY(map_mu_);
  /// Rows of join-routed tables: pk -> owning shard (their own pk does
  /// not determine the shard, so Update/Delete need the record).
  std::unordered_map<std::string, std::unordered_map<int64_t, uint32_t>>
      join_routed_rows_ GUARDED_BY(map_mu_);
  std::string scored_table_ GUARDED_BY(map_mu_);

  // --- durability state -----------------------------------------------
  durability::DurabilityOptions dur_;
  /// Set once logging may begin; cleared by Stop while holding every
  /// shard_log_mu_, so no append can race the log writers shutting down.
  bool logging_armed_ = false;
  /// Per shard, the one write lock: spans a statement's fresh-key
  /// allocation and publication, its execution, seq assignment and log
  /// append. The checkpoint takes ALL of them (ascending), so its
  /// capture sits on a statement boundary of every shard at once.
  /// Dynamically indexed — locked via std::unique_lock<Mutex>, checked
  /// by the lock-order lint (tools/check_lock_order.py,
  /// docs/static_analysis.md) rather than the compile-time analysis.
  std::vector<std::unique_ptr<Mutex>> shard_log_mu_;
  std::vector<std::unique_ptr<durability::LogWriter>> log_writers_;
  /// Engine-wide dense statement sequence, assigned under the owning
  /// shard's write mutex. When the checkpoint holds every one, all
  /// seqs <= last_seq_ have fully executed AND been appended — seq is
  /// the exact cut line between checkpoint and WAL suffix.
  std::atomic<uint64_t> last_seq_{0};
  /// Shared by all shards' segments.
  uint64_t segment_ordinal_ GUARDED_BY(ckpt_run_mu_) = 0;
  uint64_t next_ckpt_ordinal_ GUARDED_BY(ckpt_run_mu_) = 1;
  /// Segments not yet covered by a checkpoint. Touched only by
  /// InitDurability (which takes ckpt_run_mu_ for the arming phase) and
  /// CheckpointNow.
  std::vector<std::string> live_segments_ GUARDED_BY(ckpt_run_mu_);
  /// DDL in execution order, for checkpoint synthesis. Appended while
  /// quiescent, read under all shard mutexes.
  std::vector<durability::WalStatement> ddl_history_;
  std::atomic<uint64_t> stmts_since_ckpt_{0};
  durability::RecoveryStats recovery_stats_;
  /// One checkpoint at a time; also guards the segment bookkeeping above.
  Mutex ckpt_run_mu_;
  std::thread ckpt_thread_;
  mutable Mutex ckpt_mu_;  // guards ckpt_stop_/ckpt_error_ + the loop's cv
  CondVar ckpt_cv_;
  bool ckpt_stop_ GUARDED_BY(ckpt_mu_) = false;
  Status ckpt_error_ GUARDED_BY(ckpt_mu_);
};

}  // namespace svr::core

#endif  // SVR_CORE_SHARDED_ENGINE_H_
