#include "core/sharded_engine.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "index/result_heap.h"
#include "telemetry/stage_timer.h"

namespace svr::core {

namespace {

/// SplitMix64 finalizer: consecutive keys spread uniformly over shards.
uint64_t MixId(int64_t gid) {
  uint64_t z = static_cast<uint64_t>(gid) + 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Field-wise sum over the same list IndexStats is declared from, so a
/// counter added to the macro is aggregated here automatically (and one
/// added outside it fails the struct's static_assert).
void AddIndexStats(index::IndexStats* into, const index::IndexStats& s) {
#define SVR_INDEX_STATS_ADD(name) into->name += s.name;
  SVR_INDEX_STATS_FIELDS(SVR_INDEX_STATS_ADD)
#undef SVR_INDEX_STATS_ADD
}

/// Placeholder for the non-pk, non-text columns of a reconstructed
/// dead-slot row (see BuildCheckpointStatementsLocked — the row is
/// deleted again before the checkpoint stream ends).
relational::Value DefaultValueFor(relational::ValueType type) {
  switch (type) {
    case relational::ValueType::kInt64:
      return relational::Value::Int(0);
    case relational::ValueType::kDouble:
      return relational::Value::Double(0.0);
    case relational::ValueType::kString:
      return relational::Value::String("");
    default:
      return relational::Value::Null();
  }
}

/// Text whose tokenization reproduces `doc` exactly: each term repeated
/// `freq` times, whitespace-joined (Document::FromTokens is multiset
/// order-insensitive). Checkpoints use it to resurrect the rows of
/// deleted document slots, whose final content still decides the corpus
/// document frequencies.
std::string ReconstructDocText(const text::Document& doc,
                               const text::Vocabulary& vocab) {
  std::string out;
  const std::vector<TermId>& terms = doc.terms();
  const std::vector<uint32_t>& freqs = doc.freqs();
  for (size_t i = 0; i < terms.size(); ++i) {
    const std::string term = vocab.term(terms[i]);
    for (uint32_t f = 0; f < freqs[i]; ++f) {
      if (!out.empty()) out.push_back(' ');
      out.append(term);
    }
  }
  return out;
}

/// Counters sum field-wise through the declaration macro; the non-macro
/// fields keep their own aggregation (watermark max, flag or, time sum).
void AddEngineStats(EngineStats* into, const EngineStats& s) {
  AddIndexStats(&into->index, s.index);
  into->commit_ts = std::max(into->commit_ts, s.commit_ts);
  into->background_merge = into->background_merge || s.background_merge;
#define SVR_ENGINE_STATS_ADD(name) into->name += s.name;
  SVR_ENGINE_STATS_U64_FIELDS(SVR_ENGINE_STATS_ADD)
#undef SVR_ENGINE_STATS_ADD
  into->write_merge_ms += s.write_merge_ms;
}

}  // namespace

ShardedSvrEngine::ShardedSvrEngine(
    std::vector<std::unique_ptr<SvrEngine>> shards,
    std::shared_ptr<concurrency::CommitClock> clock,
    uint32_t num_query_threads)
    : shards_(std::move(shards)),
      clock_(std::move(clock)),
      local_to_global_(shards_.size()) {
  shard_log_mu_.reserve(shards_.size());
  for (size_t i = 0; i < shards_.size(); ++i) {
    shard_log_mu_.push_back(std::make_unique<Mutex>());
  }
  if (num_query_threads > 1 && shards_.size() > 1) {
    // The caller participates in every scatter, so N threads = N - 1
    // pool workers.
    query_pool_ =
        std::make_unique<concurrency::QueryPool>(num_query_threads - 1);
  }
}

ShardedSvrEngine::~ShardedSvrEngine() { Stop(); }

Result<std::unique_ptr<ShardedSvrEngine>> ShardedSvrEngine::Open(
    const ShardedSvrEngineOptions& options) {
  if (options.num_shards == 0) {
    return Status::InvalidArgument("num_shards must be >= 1");
  }
  SvrEngineOptions per_shard = options.shard;
  if (options.split_pool_budgets && options.num_shards > 1) {
    per_shard.table_pool_pages = std::max<uint64_t>(
        64, per_shard.table_pool_pages / options.num_shards);
    per_shard.list_pool_pages = std::max<uint64_t>(
        64, per_shard.list_pool_pages / options.num_shards);
  }
  // One clock for every shard: commit timestamps become globally
  // ordered, which is what makes the gather watermark a cross-shard
  // read timestamp.
  auto clock = per_shard.commit_clock != nullptr
                   ? per_shard.commit_clock
                   : std::make_shared<concurrency::CommitClock>();
  per_shard.commit_clock = clock;
  // One registry for every shard: instruments resolve to the same named
  // objects, so per-shard counters/histograms aggregate and additive
  // gauges sum across shards. The slow-query log and the periodic dump
  // live in this layer only (shards never read those fields).
  TelemetryOptions sharded_telemetry = options.shard.telemetry;
  if (per_shard.telemetry.enabled) {
    if (sharded_telemetry.registry == nullptr) {
      sharded_telemetry.registry =
          std::make_shared<telemetry::MetricsRegistry>();
    }
    per_shard.telemetry.registry = sharded_telemetry.registry;
  }
  std::vector<std::unique_ptr<SvrEngine>> shards;
  shards.reserve(options.num_shards);
  for (uint32_t i = 0; i < options.num_shards; ++i) {
    SVR_ASSIGN_OR_RETURN(auto shard, SvrEngine::Open(per_shard));
    shards.push_back(std::move(shard));
  }
  auto engine = std::unique_ptr<ShardedSvrEngine>(new ShardedSvrEngine(
      std::move(shards), std::move(clock), options.num_query_threads));
  // Before InitDurability: the WAL writers are instrumented at creation.
  engine->InitTelemetry(sharded_telemetry);
  if (options.durability.enabled) {
    SVR_RETURN_NOT_OK(engine->InitDurability(options.durability));
  }
  return engine;
}

uint32_t ShardedSvrEngine::ShardOf(int64_t gid) const {
  return static_cast<uint32_t>(MixId(gid) % shards_.size());
}

void ShardedSvrEngine::InitTelemetry(const TelemetryOptions& topt) {
  if (!topt.enabled) return;
  telemetry_enabled_ = true;
  // Open installed this registry into every shard before constructing
  // them, so the shards' instruments already live in it.
  metrics_ = topt.registry;
  slow_log_ = std::make_unique<telemetry::SlowQueryLog>(
      topt.slow_query_log_capacity, topt.slow_query_threshold_us);
  tel_.scatter_shard_us = metrics_->GetHistogram("sharded.scatter_shard_us");
  tel_.gather_us = metrics_->GetHistogram("sharded.gather_us");
  tel_.join_us = metrics_->GetHistogram("sharded.join_us");
  tel_.query_total_us = metrics_->GetHistogram("sharded.query_total_us");
  tel_.wal_fsync_us = metrics_->GetHistogram("wal.fsync_us");
  tel_.wal_batch_statements = metrics_->GetHistogram("wal.batch_statements");
  tel_.dml_wait_durable_us = metrics_->GetHistogram("dml.wait_durable_us");
  tel_.checkpoint_us = metrics_->GetHistogram("checkpoint.duration_us");
  tel_.slow_queries = metrics_->GetCounter("sharded.query.slow");
  if (topt.dump_interval_ms > 0 && topt.dump_sink) {
    metrics_->StartPeriodicDump(topt.dump_interval_ms, topt.dump_format,
                                topt.dump_sink);
    owns_periodic_dump_ = true;
  }
}

Status ShardedSvrEngine::CreateTable(const std::string& name,
                                     relational::Schema schema) {
  for (auto& shard : shards_) {
    SVR_RETURN_NOT_OK(shard->CreateTable(name, schema));
  }
  // Registered only once every shard has the table, so a failed create
  // leaves no routing entry behind (CreateTextIndex trusts tables_ to
  // mean "exists on every shard").
  {
    WriterMutexLock lock(map_mu_);
    TableRoute route;
    route.pk_index = schema.pk_index();
    route.route_column = schema.pk_index();
    tables_[name] = route;
  }
  if (dur_.enabled) {
    durability::WalStatement ddl;
    ddl.kind = durability::StatementKind::kCreateTable;
    ddl.table = name;
    ddl.schema = std::move(schema);
    ddl_history_.push_back(ddl);
    return LogDdl(std::move(ddl));
  }
  return Status::OK();
}

Status ShardedSvrEngine::CreateTextIndex(
    const std::string& table, const std::string& text_column,
    std::vector<relational::ScoreComponentSpec> specs,
    relational::AggFunction agg) {
  // Validate-then-commit: every check runs before any metadata mutates,
  // and a failed shard create restores what was committed — a failed
  // CreateTextIndex must not leave permanently different DML semantics
  // behind (same invariant CreateTable keeps by registering only after
  // every shard succeeded).
  if (dur_.enabled && agg.is_custom()) {
    // A custom std::function cannot be re-instantiated from a log
    // record; only the serializable WeightedSum family survives replay.
    return Status::NotSupported(
        "durability requires a serializable Agg (WeightedSum)");
  }
  std::string old_scored_table;
  std::vector<std::pair<std::string, int>> old_routes;
  std::vector<std::pair<std::string, int>> new_routes;
  {
    WriterMutexLock lock(map_mu_);
    if (tables_.count(table) == 0) {
      return Status::NotFound("no such table: " + table);
    }
    // Component tables whose match column is not their primary key are
    // join-routed from here on: the match column carries the document
    // id that decides the owning shard. (Tables matching on their pk —
    // the 1:1 score tables of the workloads — were pk-routed all
    // along.)
    for (const auto& spec : specs) {
      if (tables_.count(spec.source_table) == 0) {
        return Status::NotFound("no such table: " + spec.source_table);
      }
      relational::Table* t =
          shards_[0]->database()->GetTable(spec.source_table);
      if (t == nullptr) {
        return Status::NotFound("no such table: " + spec.source_table);
      }
      const int match = t->schema().FindColumn(spec.match_column);
      if (match < 0) {
        return Status::InvalidArgument("no such column: " +
                                       spec.match_column);
      }
      new_routes.emplace_back(spec.source_table, match);
    }
    old_scored_table = scored_table_;
    scored_table_ = table;
    for (const auto& [name, column] : new_routes) {
      old_routes.emplace_back(name, tables_[name].route_column);
      tables_[name].route_column = column;
    }
  }
  // The shards share nothing while they tokenize, intern and build
  // their lists, so they build in parallel.
  std::vector<Status> shard_status(shards_.size());
  ForEachShard([&](size_t s) {
    shard_status[s] =
        shards_[s]->CreateTextIndex(table, text_column, specs, agg);
  });
  for (const Status& st : shard_status) {
    if (!st.ok()) {
      // Routing metadata is restored so DML semantics do not change,
      // but shards that built keep their index (per-shard
      // CreateTextIndex is not undoable; a retry on them returns
      // AlreadyExists). A partially-indexed engine should be
      // discarded — docs/sharding.md.
      WriterMutexLock lock(map_mu_);
      scored_table_ = old_scored_table;
      for (const auto& [name, column] : old_routes) {
        tables_[name].route_column = column;
      }
      return st;
    }
  }
  if (dur_.enabled) {
    durability::WalStatement ddl;
    ddl.kind = durability::StatementKind::kCreateTextIndex;
    ddl.table = table;
    ddl.text_column = text_column;
    ddl.specs = std::move(specs);
    ddl.agg_weights = agg.weights();
    ddl_history_.push_back(ddl);
    return LogDdl(std::move(ddl));
  }
  return Status::OK();
}

void ShardedSvrEngine::ForEachShard(const std::function<void(size_t)>& fn) {
  // The pool exists only for engines of two or more shards.
  if (query_pool_ == nullptr) {
    for (size_t s = 0; s < shards_.size(); ++s) fn(s);
    return;
  }
  // One task per shard on the persistent pool (docs/sharding.md).
  std::vector<std::function<void()>> tasks;
  tasks.reserve(shards_.size());
  for (size_t s = 0; s < shards_.size(); ++s) {
    tasks.emplace_back([&fn, s] { fn(s); });
  }
  query_pool_->RunAll(std::move(tasks));
}

Result<const ShardedSvrEngine::TableRoute*> ShardedSvrEngine::RouteOf(
    const std::string& table) const {
  ReaderMutexLock lock(map_mu_);
  auto it = tables_.find(table);
  if (it == tables_.end()) {
    return Status::NotFound("no such table: " + table);
  }
  // unordered_map values are node-stable; routes only change during
  // (quiescent) CreateTextIndex, so the pointer is safe to hold.
  return &it->second;
}

ShardedSvrEngine::Loc ShardedSvrEngine::MapOrAllocate(int64_t gid,
                                                     bool* fresh) {
  ReaderMutexLock lock(map_mu_);
  auto it = id_map_.find(gid);
  *fresh = it == id_map_.end();
  if (!*fresh) return it->second;
  // A fresh key is only *reserved* here: the caller's shard lock keeps
  // the shard's next local stable until the caller publishes it, once
  // the row actually landed. Nothing can observe — or attach dependent
  // rows to — a mapping whose insert may still fail, so there is never
  // anything to roll back.
  const uint32_t s = ShardOf(gid);
  return Loc{s, static_cast<DocId>(local_to_global_[s].size())};
}

Result<uint32_t> ShardedSvrEngine::JoinRoutedShardOf(const std::string& table,
                                                     int64_t pk) const {
  ReaderMutexLock lock(map_mu_);
  auto table_it = join_routed_rows_.find(table);
  if (table_it != join_routed_rows_.end()) {
    auto row_it = table_it->second.find(pk);
    if (row_it != table_it->second.end()) return row_it->second;
  }
  return Status::NotFound(table + ": row was never inserted here");
}

Result<std::pair<uint32_t, DocId>> ShardedSvrEngine::Route(
    int64_t gid) const {
  ReaderMutexLock lock(map_mu_);
  auto it = id_map_.find(gid);
  if (it == id_map_.end()) {
    return Status::NotFound("key never routed: " + std::to_string(gid));
  }
  return std::make_pair(it->second.shard, it->second.local);
}

int64_t ShardedSvrEngine::GlobalIdOf(uint32_t shard, DocId local) const {
  ReaderMutexLock lock(map_mu_);
  if (shard >= local_to_global_.size() ||
      local >= local_to_global_[shard].size()) {
    return kInvalidGlobalId;
  }
  return local_to_global_[shard][local];
}

template <typename Exec>
Status ShardedSvrEngine::CommitOnShard(uint32_t s,
                                       durability::WalStatement* stmt,
                                       Exec&& exec, uint64_t* ticket) {
  *ticket = 0;
  // Execution and log append under one lock: the shard's WAL file order
  // equals its commit-timestamp order.
  std::unique_lock<Mutex> log_lock(*shard_log_mu_[s]);
  uint64_t ts = 0;
  const Status st = exec(&ts);
  if (st.ok() && logging_armed_) *ticket = LogStatementLocked(s, stmt, ts);
  return st;
}

Status ShardedSvrEngine::Insert(const std::string& table,
                                const relational::Row& row) {
  SVR_ASSIGN_OR_RETURN(const TableRoute* route, RouteOf(table));
  if (route->route_column < 0 ||
      static_cast<size_t>(route->route_column) >= row.size() ||
      row[route->route_column].type() != relational::ValueType::kInt64) {
    return Status::InvalidArgument("row misses the INT64 routing column");
  }
  const int64_t gid = row[route->route_column].as_int();
  if (gid < 0 || gid >= static_cast<int64_t>(kInvalidDocId)) {
    // Global keys double as document ids end to end (GatherTopK carries
    // them through index::SearchResult), so they must fit DocId.
    return Status::InvalidArgument("document keys must be in [0, 2^32-1)");
  }
  if (route->route_column != route->pk_index) {
    return InsertJoinRouted(table, *route, row, gid);
  }
  durability::WalStatement stmt;
  stmt.kind = durability::StatementKind::kInsert;
  stmt.table = table;
  stmt.row = row;  // the caller's global-key row, not the translated one
  // A pk-routed key always lives on ShardOf(gid), so that shard's lock
  // covers the key's allocation, the shard write and the publication:
  // allocation order equals the shard's insert order — the per-shard
  // density the underlying engine requires.
  const uint32_t s = ShardOf(gid);
  uint64_t ticket = 0;
  const Status st = CommitOnShard(s, &stmt, [&](uint64_t* ts) {
    bool fresh = false;
    const Loc loc = MapOrAllocate(gid, &fresh);
    relational::Row translated = row;
    translated[route->route_column] =
        relational::Value::Int(static_cast<int64_t>(loc.local));
    Status insert_st = shards_[s]->Insert(table, translated, ts);
    // Publish a reservation iff the row actually reached the shard — an
    // unpublished failed key leaves no trace, so a rejected insert
    // cannot wedge the shard's dense pk sequence. Some engine errors
    // surface *after* the row landed (score-view latch, background-
    // merge first_error): the row probe keeps those keys mapped, since
    // their slot in the shard's sequence is consumed.
    if (fresh && (insert_st.ok() ||
                  shards_[s]->RowExists(table,
                                        static_cast<int64_t>(loc.local)))) {
      WriterMutexLock lock(map_mu_);
      local_to_global_[s].push_back(gid);
      id_map_.emplace(gid, loc);
    }
    return insert_st;
  }, &ticket);
  SVR_RETURN_NOT_OK(WaitDurable(s, ticket));
  return st;
}

Status ShardedSvrEngine::InsertJoinRouted(const std::string& table,
                                          const TableRoute& route,
                                          const relational::Row& row,
                                          int64_t gid) {
  // Join-routed rows reference a document, they never create one: a doc
  // id may only be allocated by the scored table's own insert, so an
  // unknown gid here is an error rather than a fresh allocation (which
  // would hold a local slot no docs row ever fills and wedge the
  // shard's dense sequence).
  SVR_ASSIGN_OR_RETURN(auto loc, Route(gid));
  if (static_cast<size_t>(route.pk_index) >= row.size() ||
      row[route.pk_index].type() != relational::ValueType::kInt64) {
    return Status::InvalidArgument("row misses the INT64 primary key");
  }
  const int64_t pk = row[route.pk_index].as_int();
  {
    // Claim the pk before the shard write: shard-level duplicate checks
    // only see their own partition, so rows with one pk routed to two
    // different shards would otherwise both land (the first becoming
    // unreachable). The claim is rolled back if the insert fails.
    WriterMutexLock lock(map_mu_);
    auto [it, inserted] =
        join_routed_rows_[table].emplace(pk, loc.first);
    if (!inserted) {
      return Status::AlreadyExists("duplicate primary key in " + table);
    }
  }
  relational::Row translated = row;
  translated[route.route_column] =
      relational::Value::Int(static_cast<int64_t>(loc.second));
  durability::WalStatement stmt;
  stmt.kind = durability::StatementKind::kInsert;
  stmt.table = table;
  stmt.row = row;
  uint64_t ticket = 0;
  const Status st = CommitOnShard(loc.first, &stmt, [&](uint64_t* ts) {
    return shards_[loc.first]->Insert(table, translated, ts);
  }, &ticket);
  if (!st.ok()) {
    WriterMutexLock lock(map_mu_);
    join_routed_rows_[table].erase(pk);
  }
  SVR_RETURN_NOT_OK(WaitDurable(loc.first, ticket));
  return st;
}

Status ShardedSvrEngine::Update(const std::string& table,
                                const relational::Row& row) {
  SVR_ASSIGN_OR_RETURN(const TableRoute* route, RouteOf(table));
  if (route->route_column < 0 ||
      static_cast<size_t>(route->route_column) >= row.size() ||
      row[route->route_column].type() != relational::ValueType::kInt64) {
    return Status::InvalidArgument("row misses the INT64 routing column");
  }
  const int64_t gid = row[route->route_column].as_int();
  SVR_ASSIGN_OR_RETURN(auto loc, Route(gid));
  if (route->route_column != route->pk_index) {
    if (static_cast<size_t>(route->pk_index) >= row.size() ||
        row[route->pk_index].type() != relational::ValueType::kInt64) {
      return Status::InvalidArgument("row misses the INT64 primary key");
    }
    // Join-routed rows live where their document lives; moving a row to
    // a document of another shard would be a cross-shard migration.
    const int64_t pk = row[route->pk_index].as_int();
    SVR_ASSIGN_OR_RETURN(const uint32_t shard, JoinRoutedShardOf(table, pk));
    if (shard != loc.first) {
      return Status::NotSupported(
          table + ": update would move the row across shards");
    }
  }
  relational::Row translated = row;
  translated[route->route_column] =
      relational::Value::Int(static_cast<int64_t>(loc.second));
  durability::WalStatement stmt;
  stmt.kind = durability::StatementKind::kUpdate;
  stmt.table = table;
  stmt.row = row;
  uint64_t ticket = 0;
  const Status st = CommitOnShard(loc.first, &stmt, [&](uint64_t* ts) {
    return shards_[loc.first]->Update(table, translated, ts);
  }, &ticket);
  SVR_RETURN_NOT_OK(WaitDurable(loc.first, ticket));
  return st;
}

Status ShardedSvrEngine::Delete(const std::string& table, int64_t pk) {
  SVR_ASSIGN_OR_RETURN(const TableRoute* route, RouteOf(table));
  const bool join_routed = route->route_column != route->pk_index;
  // Join-routed rows keep their own (untranslated) primary key on the
  // shard; pk-routed rows are deleted by their local id.
  uint32_t shard = 0;
  int64_t shard_pk = pk;
  if (join_routed) {
    SVR_ASSIGN_OR_RETURN(shard, JoinRoutedShardOf(table, pk));
  } else {
    SVR_ASSIGN_OR_RETURN(auto loc, Route(pk));
    shard = loc.first;
    shard_pk = static_cast<int64_t>(loc.second);
  }
  durability::WalStatement stmt;
  stmt.kind = durability::StatementKind::kDelete;
  stmt.table = table;
  stmt.pk = pk;
  uint64_t ticket = 0;
  const Status st = CommitOnShard(shard, &stmt, [&](uint64_t* ts) {
    return shards_[shard]->Delete(table, shard_pk, ts);
  }, &ticket);
  if (st.ok() && join_routed) {
    // The shard record is dropped only after the shard delete succeeded
    // — a failed delete must stay reachable for a retry.
    WriterMutexLock lock(map_mu_);
    auto table_it = join_routed_rows_.find(table);
    if (table_it != join_routed_rows_.end()) table_it->second.erase(pk);
  }
  SVR_RETURN_NOT_OK(WaitDurable(shard, ticket));
  return st;
}

std::vector<std::vector<index::SearchResult>>
ShardedSvrEngine::TranslateToGlobal(
    const std::vector<std::vector<index::SearchResult>>& lists,
    const std::vector<uint32_t>& shard_of_list) const {
  std::vector<std::vector<index::SearchResult>> out(lists.size());
  ReaderMutexLock lock(map_mu_);
  for (size_t i = 0; i < lists.size(); ++i) {
    const size_t s = i < shard_of_list.size() ? shard_of_list[i]
                                              : local_to_global_.size();
    out[i].reserve(lists[i].size());
    for (const index::SearchResult& r : lists[i]) {
      const int64_t gid = s < local_to_global_.size() &&
                                  r.doc < local_to_global_[s].size()
                              ? local_to_global_[s][r.doc]
                              : kInvalidGlobalId;
      // Unmapped locals — documents fed to a shard behind the engine's
      // back, or an insert whose mapping is not yet published — have no
      // global identity and must not occupy top-k slots.
      if (gid == kInvalidGlobalId) continue;
      // Global keys double as document ids and stay within DocId range
      // (validated at Insert; docs/sharding.md).
      out[i].push_back({static_cast<DocId>(gid), r.score});
    }
  }
  return out;
}

std::vector<std::vector<index::SearchResult>>
ShardedSvrEngine::TranslateToGlobal(
    const std::vector<std::vector<index::SearchResult>>& per_shard)
    const {
  std::vector<uint32_t> identity(per_shard.size());
  for (size_t s = 0; s < identity.size(); ++s) {
    identity[s] = static_cast<uint32_t>(s);
  }
  return TranslateToGlobal(per_shard, identity);
}

std::vector<index::SearchResult> ShardedSvrEngine::MergeTopK(
    const std::vector<std::vector<index::SearchResult>>& translated,
    size_t k) {
  index::ResultHeap heap(k);
  for (const auto& list : translated) {
    for (const index::SearchResult& r : list) heap.Offer(r.doc, r.score);
  }
  return heap.TakeSorted();
}

std::vector<index::SearchResult> ShardedSvrEngine::GatherTopK(
    const std::vector<std::vector<index::SearchResult>>& per_shard,
    size_t k) const {
  return MergeTopK(TranslateToGlobal(per_shard), k);
}

ShardedReadView ShardedSvrEngine::PinReadViewAll() const {
  ShardedReadView view;
  view.shards.reserve(shards_.size());
  for (const auto& shard : shards_) {
    view.shards.push_back(shard->PinReadView());
    view.watermark =
        std::max(view.watermark, view.shards.back().commit_ts());
  }
  return view;
}

Result<std::vector<ScoredRow>> ShardedSvrEngine::Search(
    const std::string& keywords, size_t k, bool conjunctive,
    telemetry::QueryTrace* trace) {
  return SearchAt(PinReadViewAll(), keywords, k, conjunctive, trace);
}

Result<std::vector<ScoredRow>> ShardedSvrEngine::SearchAt(
    const ShardedReadView& view, const std::string& keywords, size_t k,
    bool conjunctive, telemetry::QueryTrace* trace) {
  // Scatter: each shard answers its own top-k against its pinned
  // version — the whole gather observes the view's single watermark.
  const size_t n = shards_.size();
  // Tracing (docs/observability.md): with telemetry on, untraced calls
  // still time their stages into the registry through a local trace.
  telemetry::QueryTrace local_trace;
  telemetry::QueryTrace* t = trace;
  if (t == nullptr && telemetry_enabled_) t = &local_trace;
  if (t != nullptr) {
    *t = telemetry::QueryTrace();
    t->keywords = keywords;
    t->k = k;
    t->conjunctive = conjunctive;
    t->commit_ts = view.watermark;
    // One preallocated span per shard: each scatter lambda writes only
    // its own slot, so the parallel fan-out needs no trace lock.
    t->shards.resize(n);
  }
  telemetry::StageTimer timer(t != nullptr);
  std::vector<std::vector<ScoredRow>> shard_rows(n);
  std::vector<std::vector<index::SearchResult>> shard_hits(n);
  std::vector<Status> shard_status(n);
  auto run_shard = [&](size_t s) {
    telemetry::StageTimer shard_timer(t != nullptr);
    auto r = shards_[s]->SearchAt(view.shards[s], keywords, k, conjunctive);
    if (!r.ok()) {
      shard_status[s] = r.status();
      return;
    }
    shard_rows[s] = std::move(r).value();
    shard_hits[s].reserve(shard_rows[s].size());
    for (const ScoredRow& row : shard_rows[s]) {
      shard_hits[s].push_back({static_cast<DocId>(row.pk), row.score});
    }
    if (t != nullptr) {
      telemetry::ShardSpan& span = t->shards[s];
      span.shard = static_cast<uint32_t>(s);
      span.hits = shard_hits[s].size();
      span.latency_us = shard_timer.TotalUs(tel_.scatter_shard_us);
    }
  };
  ForEachShard(run_shard);
  for (const Status& st : shard_status) {
    SVR_RETURN_NOT_OK(st);
  }
  timer.Lap();  // scatter wall time: covered per shard by the spans

  // Gather: one bounded merge heap over (score desc, global id asc).
  const std::vector<index::SearchResult> merged = GatherTopK(shard_hits, k);
  if (t != nullptr) t->gather_us = timer.Lap(tel_.gather_us);

  int pk_index = 0;
  {
    ReaderMutexLock lock(map_mu_);
    auto it = tables_.find(scored_table_);
    if (it != tables_.end()) pk_index = it->second.pk_index;
  }
  // Local pk -> position within each shard's result list, so resolving
  // the merged hits back to their rows stays O(k) rather than O(k^2).
  std::vector<std::unordered_map<int64_t, size_t>> row_index(
      shards_.size());
  for (size_t s = 0; s < shard_rows.size(); ++s) {
    row_index[s].reserve(shard_rows[s].size());
    for (size_t i = 0; i < shard_rows[s].size(); ++i) {
      row_index[s].emplace(shard_rows[s][i].pk, i);
    }
  }
  // One shared map acquisition resolves every merged hit back to its
  // (shard, local) — per-hit Route() calls would re-take the lock k
  // times on the hot query path.
  std::vector<Loc> hit_locs(merged.size());
  {
    ReaderMutexLock lock(map_mu_);
    for (size_t i = 0; i < merged.size(); ++i) {
      auto it = id_map_.find(static_cast<int64_t>(merged[i].doc));
      if (it == id_map_.end()) {
        return Status::Internal("gather produced an unmapped key");
      }
      hit_locs[i] = it->second;
    }
  }
  std::vector<ScoredRow> out;
  out.reserve(merged.size());
  for (size_t i = 0; i < merged.size(); ++i) {
    const index::SearchResult& hit = merged[i];
    const int64_t gid = static_cast<int64_t>(hit.doc);
    const Loc loc = hit_locs[i];
    const auto row_it =
        row_index[loc.shard].find(static_cast<int64_t>(loc.local));
    if (row_it == row_index[loc.shard].end()) {
      return Status::Internal("gather produced a hit no shard returned");
    }
    // Each merged global id maps to exactly one (shard, local) row, so
    // every row is read once here and can be moved, not copied.
    ScoredRow r = std::move(shard_rows[loc.shard][row_it->second]);
    r.pk = gid;  // restore the caller's key space
    if (pk_index >= 0 && static_cast<size_t>(pk_index) < r.row.size()) {
      r.row[pk_index] = relational::Value::Int(gid);
    }
    out.push_back(std::move(r));
  }
  if (t != nullptr) {
    t->join_us = timer.Lap(tel_.join_us);
    t->results = out.size();
    t->total_us = timer.TotalUs(tel_.query_total_us);
    if (slow_log_ != nullptr && slow_log_->MaybeRecord(*t) &&
        tel_.slow_queries != nullptr) {
      tel_.slow_queries->Increment();
    }
  }
  return out;
}

Status ShardedSvrEngine::ReadSnapshotAll(
    const std::function<Status(const ShardedReadView&)>& fn) {
  // Lock-free: pin every shard's published snapshot (epoch guard + one
  // atomic load each) and hand the whole pinned view to the callback.
  // No shard can invalidate any of it while the view is held — the
  // all-shard lock acquisition of the pre-MVCC engine is gone.
  const ShardedReadView view = PinReadViewAll();
  return fn(view);
}

Status ShardedSvrEngine::Start() {
  for (auto& shard : shards_) {
    SVR_RETURN_NOT_OK(shard->Start());
  }
  return Status::OK();
}

void ShardedSvrEngine::Stop() {
  // Periodic metrics dump first: its gauge callbacks read the WAL
  // writers and shard state that the steps below start tearing down.
  if (owns_periodic_dump_ && metrics_ != nullptr) {
    metrics_->StopPeriodicDump();
    owns_periodic_dump_ = false;
  }
  {
    MutexLock lk(ckpt_mu_);
    ckpt_stop_ = true;
  }
  ckpt_cv_.NotifyAll();
  if (ckpt_thread_.joinable()) ckpt_thread_.join();
  {
    // Disarm under every log mutex: no in-flight DML can append to a
    // writer that is about to shut down (its WaitDurable would hang).
    std::vector<std::unique_lock<Mutex>> locks;
    locks.reserve(shard_log_mu_.size());
    // Ascending shard index, the declared order for the per-shard
    // arrays (tools/check_lock_order.py).
    for (size_t i = 0; i < shard_log_mu_.size(); ++i) {
      locks.emplace_back(*shard_log_mu_[i]);
    }
    logging_armed_ = false;
  }
  for (auto& writer : log_writers_) {
    if (writer) (void)writer->Stop();
  }
  for (auto& shard : shards_) shard->Stop();
}

// --- durability (docs/durability.md) ----------------------------------

uint64_t ShardedSvrEngine::LogStatementLocked(uint32_t s,
                                              durability::WalStatement* stmt,
                                              uint64_t ts) {
  stmt->commit_ts = ts;
  stmt->seq = last_seq_.fetch_add(1, std::memory_order_relaxed) + 1;
  std::string payload;
  durability::EncodeStatement(*stmt, &payload);
  std::string frame;
  durability::AppendFrame(&frame, Slice(payload));
  stmts_since_ckpt_.fetch_add(1, std::memory_order_relaxed);
  return log_writers_[s]->Append(Slice(frame));
}

Status ShardedSvrEngine::LogDdl(durability::WalStatement stmt) {
  // The statement already ran on every shard; recovery replay (logging
  // disarmed) appends nothing. DDL runs quiescent, so Now() is >= every
  // logged commit timestamp and the (ts, seq) replay order puts it
  // after all of them.
  uint64_t ticket = 0;
  SVR_RETURN_NOT_OK(CommitOnShard(0, &stmt, [&](uint64_t* ts) {
    *ts = clock_->Now();
    return Status::OK();
  }, &ticket));
  return WaitDurable(0, ticket);
}

Status ShardedSvrEngine::WaitDurable(uint32_t s, uint64_t ticket) {
  if (ticket == 0) return Status::OK();
  telemetry::StageTimer timer(telemetry_enabled_);
  const Status st = log_writers_[s]->WaitDurable(ticket);
  timer.Lap(tel_.dml_wait_durable_us);
  return st;
}

Status ShardedSvrEngine::ApplyStatement(
    const durability::WalStatement& stmt) {
  switch (stmt.kind) {
    case durability::StatementKind::kCreateTable:
      return CreateTable(stmt.table, stmt.schema);
    case durability::StatementKind::kCreateTextIndex:
      return CreateTextIndex(
          stmt.table, stmt.text_column, stmt.specs,
          relational::AggFunction::WeightedSum(stmt.agg_weights));
    case durability::StatementKind::kInsert:
      return Insert(stmt.table, stmt.row);
    case durability::StatementKind::kUpdate:
      return Update(stmt.table, stmt.row);
    case durability::StatementKind::kDelete:
      return Delete(stmt.table, stmt.pk);
    case durability::StatementKind::kCheckpointHeader:
    case durability::StatementKind::kCheckpointFooter:
      return Status::OK();
  }
  return Status::Corruption("unknown statement kind");
}

Status ShardedSvrEngine::InitDurability(
    const durability::DurabilityOptions& options) {
  dur_ = options;
  if (!dur_.file_factory) {
    dur_.file_factory = durability::OpenPosixWalFile;
  }
  SVR_RETURN_NOT_OK(durability::EnsureDirectory(dur_.dir));

  recovery_stats_ = durability::RecoveryStats{};
  recovery_stats_.ran = true;

  // Replay goes through the public sharded DML path: every statement
  // carries global keys, so routing (id map, join-routed records, local
  // id allocation) is rebuilt as a side effect — and keeps working if
  // num_shards differs from the run that wrote the log.
  durability::LoadedCheckpoint ckpt;
  SVR_RETURN_NOT_OK(durability::LoadLatestCheckpoint(dur_.dir, &ckpt));
  uint64_t min_seq = 0;
  if (ckpt.found) {
    recovery_stats_.used_checkpoint = true;
    recovery_stats_.checkpoint_seq = ckpt.last_seq;
    min_seq = ckpt.last_seq;
    for (const durability::WalStatement& stmt : ckpt.statements) {
      if (!ApplyStatement(stmt).ok()) ++recovery_stats_.replay_errors;
    }
  }
  durability::DurabilityDirListing listing;
  SVR_RETURN_NOT_OK(durability::ListDurabilityDir(dur_.dir, &listing));
  durability::WalRecovery rec;
  SVR_RETURN_NOT_OK(
      durability::RecoverWalRecords(listing.segments, min_seq, &rec));
  for (const durability::WalStatement& stmt : rec.records) {
    if (!ApplyStatement(stmt).ok()) ++recovery_stats_.replay_errors;
  }
  recovery_stats_.wal_records_replayed = rec.records.size();
  recovery_stats_.torn_tail_bytes = rec.torn_tail_bytes;
  recovery_stats_.segments_read = rec.segments_read;
  const uint64_t max_seq =
      std::max(rec.max_seen_seq, ckpt.found ? ckpt.last_seq : 0);
  const uint64_t max_ts =
      std::max(rec.max_seen_ts, ckpt.found ? ckpt.last_ts : 0);
  recovery_stats_.recovered_seq = max_seq;
  clock_->AdvanceTo(max_ts);

  last_seq_.store(max_seq, std::memory_order_relaxed);
  {
    // Arming happens before Open returns, so nothing contends — but the
    // segment bookkeeping is ckpt_run_mu_ state, and taking the lock
    // here keeps that a checkable invariant instead of an argument.
    MutexLock lock(ckpt_run_mu_);
    segment_ordinal_ = 1;
    for (const durability::SegmentInfo& seg : listing.segments) {
      segment_ordinal_ = std::max(segment_ordinal_, seg.ordinal + 1);
      live_segments_.push_back(seg.path);
    }
    if (!listing.checkpoints.empty()) {
      next_ckpt_ordinal_ = listing.checkpoints.back().ordinal + 1;
    }
    log_writers_.reserve(shards_.size());
    for (uint32_t s = 0; s < shards_.size(); ++s) {
      const std::string path =
          durability::WalSegmentPath(dur_.dir, s, segment_ordinal_);
      std::unique_ptr<durability::WalFile> file;
      SVR_RETURN_NOT_OK(dur_.file_factory(path, &file));
      log_writers_.push_back(std::make_unique<durability::LogWriter>(
          std::move(file), dur_.sync_mode));
      if (telemetry_enabled_) {
        // All shards' WAL legs feed the same wal.* instruments; the
        // queue-depth gauge is additive across registrations, so the
        // exported value is the engine-wide outstanding-append count.
        log_writers_.back()->SetInstruments(tel_.wal_fsync_us,
                                            tel_.wal_batch_statements);
        metrics_->RegisterGauge(
            "wal.queue_depth", [w = log_writers_.back().get()] {
              return static_cast<double>(w->QueueDepth());
            });
      }
      live_segments_.push_back(path);
    }
    logging_armed_ = true;  // no concurrency yet: Open has not returned
  }
  if (dur_.checkpoint_interval_statements > 0) {
    ckpt_thread_ = std::thread([this] { CheckpointLoop(); });
  }
  return Status::OK();
}

Status ShardedSvrEngine::BuildCheckpointStatementsLocked(
    durability::CheckpointData* data) {
  auto add = [&](const durability::WalStatement& stmt) {
    std::string payload;
    durability::EncodeStatement(stmt, &payload);
    data->statement_payloads.push_back(std::move(payload));
  };
  // Routing metadata is read under map_mu_ (map_mu_ nests inside the
  // shard mutexes the caller holds; no DML path ever acquires them
  // while holding map_mu_).
  ReaderMutexLock lock(map_mu_);
  // 1. Tables, in creation order.
  std::string text_column;
  bool indexed = false;
  for (const durability::WalStatement& ddl : ddl_history_) {
    if (ddl.kind == durability::StatementKind::kCreateTable) {
      add(ddl);
    } else if (ddl.kind == durability::StatementKind::kCreateTextIndex) {
      indexed = true;
      text_column = ddl.text_column;
    }
  }
  // 2. Scored-table slots, shard by shard, each shard's locals in
  // order: alive rows as they stand, dead slots reconstructed from the
  // shard's corpus (their final content still decides the per-shard
  // document frequencies; CreateTextIndex's rebuild scan needs every
  // shard's pk sequence dense). Emitted before every other table so
  // that, on replay, a component row never references a document that
  // does not exist yet.
  std::vector<int64_t> dead;
  if (indexed) {
    auto route_it = tables_.find(scored_table_);
    if (route_it == tables_.end()) {
      return Status::Internal("scored table has no route: " + scored_table_);
    }
    const int pk_col = route_it->second.pk_index;
    for (uint32_t s = 0; s < shards_.size(); ++s) {
      relational::Table* t =
          shards_[s]->database()->GetTable(scored_table_);
      if (t == nullptr) {
        return Status::Internal("scored table vanished: " + scored_table_);
      }
      const relational::Schema& schema = t->schema();
      const int text_col = schema.FindColumn(text_column);
      if (text_col < 0) {
        return Status::Internal("text column vanished: " + text_column);
      }
      const text::Corpus* corpus = shards_[s]->corpus();
      const size_t n = corpus->num_docs();
      if (n != local_to_global_[s].size()) {
        return Status::Internal(
            "shard corpus and id map disagree on document count");
      }
      for (size_t local = 0; local < n; ++local) {
        const int64_t gid = local_to_global_[s][local];
        durability::WalStatement stmt;
        stmt.kind = durability::StatementKind::kInsert;
        stmt.table = scored_table_;
        if (t->Get(static_cast<int64_t>(local), &stmt.row).ok()) {
          stmt.row[pk_col] = relational::Value::Int(gid);
        } else {
          dead.push_back(gid);
          stmt.row.clear();
          stmt.row.reserve(schema.num_columns());
          for (size_t c = 0; c < schema.num_columns(); ++c) {
            stmt.row.push_back(DefaultValueFor(schema.column(c).type));
          }
          stmt.row[pk_col] = relational::Value::Int(gid);
          stmt.row[text_col] = relational::Value::String(ReconstructDocText(
              corpus->doc(static_cast<DocId>(local)),
              *shards_[s]->vocabulary()));
        }
        add(stmt);
      }
    }
  }
  // 3. Every other table, shard by shard, routing column translated
  // back to the global key space (join-routed rows keep their own pk;
  // only the match column was translated on the way in).
  for (const durability::WalStatement& ddl : ddl_history_) {
    if (ddl.kind != durability::StatementKind::kCreateTable) continue;
    if (indexed && ddl.table == scored_table_) continue;
    auto route_it = tables_.find(ddl.table);
    if (route_it == tables_.end()) {
      return Status::Internal("table has no route: " + ddl.table);
    }
    const int route_col = route_it->second.route_column;
    for (uint32_t s = 0; s < shards_.size(); ++s) {
      relational::Table* t = shards_[s]->database()->GetTable(ddl.table);
      if (t == nullptr) continue;
      durability::WalStatement stmt;
      stmt.kind = durability::StatementKind::kInsert;
      stmt.table = ddl.table;
      Status scan_st;
      SVR_RETURN_NOT_OK(t->Scan([&](const relational::Row& row) {
        stmt.row = row;
        const int64_t local = row[route_col].as_int();
        if (local < 0 ||
            static_cast<size_t>(local) >= local_to_global_[s].size()) {
          scan_st = Status::Internal("row references an unmapped local id");
          return false;
        }
        stmt.row[route_col] =
            relational::Value::Int(local_to_global_[s][local]);
        add(stmt);
        return true;
      }));
      SVR_RETURN_NOT_OK(scan_st);
    }
  }
  // 4. The index, built over the dense per-shard slot sets.
  for (const durability::WalStatement& ddl : ddl_history_) {
    if (ddl.kind == durability::StatementKind::kCreateTextIndex) add(ddl);
  }
  // 5. Kill the dead slots again, now that the index records deletions.
  for (const int64_t gid : dead) {
    durability::WalStatement stmt;
    stmt.kind = durability::StatementKind::kDelete;
    stmt.table = scored_table_;
    stmt.pk = gid;
    add(stmt);
  }
  return Status::OK();
}

Status ShardedSvrEngine::CheckpointNow() {
  telemetry::StageTimer timer(telemetry_enabled_);
  const Status st = CheckpointNowImpl();
  timer.Lap(tel_.checkpoint_us);
  return st;
}

Status ShardedSvrEngine::CheckpointNowImpl() {
  MutexLock run(ckpt_run_mu_);
  durability::CheckpointData data;
  std::vector<std::string> covered;
  uint64_t ordinal = 0;
  {
    // ALL shard mutexes, in index order: with every one held, every
    // statement that executed has also been appended and numbered, and
    // no fresh-key insert sits between its shard write and its id-map
    // publication — the capture is a consistent cut at last_seq_.
    std::vector<std::unique_lock<Mutex>> log_locks;
    log_locks.reserve(shard_log_mu_.size());
    for (size_t i = 0; i < shard_log_mu_.size(); ++i) {
      log_locks.emplace_back(*shard_log_mu_[i]);
    }
    if (!logging_armed_) {
      return Status::InvalidArgument("durability is not armed");
    }
    SVR_RETURN_NOT_OK(BuildCheckpointStatementsLocked(&data));
    data.last_seq = last_seq_.load(std::memory_order_relaxed);
    data.last_ts = clock_->Now();
    ++segment_ordinal_;
    std::vector<std::string> next_paths;
    next_paths.reserve(shards_.size());
    for (uint32_t s = 0; s < shards_.size(); ++s) {
      const std::string path =
          durability::WalSegmentPath(dur_.dir, s, segment_ordinal_);
      std::unique_ptr<durability::WalFile> next;
      Status st = dur_.file_factory(path, &next);
      if (st.ok()) st = log_writers_[s]->Rotate(std::move(next));
      if (!st.ok()) {
        // Already-rotated shards keep appending to segments recovery
        // will find by directory scan; they are merely never deleted.
        live_segments_.insert(live_segments_.end(), next_paths.begin(),
                              next_paths.end());
        return st;
      }
      next_paths.push_back(path);
    }
    covered = std::exchange(live_segments_, std::move(next_paths));
    ordinal = next_ckpt_ordinal_++;
    stmts_since_ckpt_.store(0, std::memory_order_relaxed);
  }
  // The slow write happens outside every lock — DML keeps committing
  // into the rotated segments meanwhile.
  const Status st = durability::WriteCheckpoint(dur_.dir, ordinal, data,
                                                dur_.file_factory);
  if (!st.ok()) {
    // The covered segments are still the only durable copy; ckpt_run_mu_
    // is still held here, so this is the only writer.
    live_segments_.insert(live_segments_.begin(), covered.begin(),
                          covered.end());
    return st;
  }
  for (const std::string& path : covered) {
    SVR_RETURN_NOT_OK(durability::RemoveFile(path));
  }
  durability::DurabilityDirListing listing;
  SVR_RETURN_NOT_OK(durability::ListDurabilityDir(dur_.dir, &listing));
  for (const durability::CheckpointInfo& c : listing.checkpoints) {
    if (c.ordinal < ordinal) {
      SVR_RETURN_NOT_OK(durability::RemoveFile(c.path));
    }
  }
  return Status::OK();
}

void ShardedSvrEngine::CheckpointLoop() {
  for (;;) {
    {
      MutexLock lk(ckpt_mu_);
      if (ckpt_stop_) return;
      ckpt_cv_.WaitFor(ckpt_mu_,
                       std::chrono::milliseconds(dur_.checkpoint_poll_ms));
      if (ckpt_stop_) return;
    }
    if (stmts_since_ckpt_.load(std::memory_order_relaxed) <
        dur_.checkpoint_interval_statements) {
      continue;
    }
    // ckpt_mu_ is released across the checkpoint: CheckpointNow takes
    // ckpt_run_mu_ and every shard mutex, and Stop() must be able to
    // set ckpt_stop_ meanwhile.
    const Status st = CheckpointNow();
    MutexLock lk(ckpt_mu_);
    if (!st.ok() && ckpt_error_.ok()) ckpt_error_ = st;
  }
}

Status ShardedSvrEngine::last_checkpoint_error() const {
  MutexLock lk(ckpt_mu_);
  return ckpt_error_;
}

ShardedEngineStats ShardedSvrEngine::GetStats() const {
  ShardedEngineStats out;
  out.num_shards = static_cast<uint32_t>(shards_.size());
  out.shards.reserve(shards_.size());
  for (const auto& shard : shards_) {
    out.shards.push_back(shard->GetStats());
    AddEngineStats(&out.total, out.shards.back());
  }
  out.commit_watermark = clock_->Now();
  ReaderMutexLock lock(map_mu_);
  out.num_ids = id_map_.size();
  return out;
}

}  // namespace svr::core
