#include "core/svr_engine.h"

#include <algorithm>
#include <utility>

#include "common/stopwatch.h"
#include "index/merge_policy.h"
#include "telemetry/stage_timer.h"
#include "text/tokenizer.h"

namespace svr::core {

SvrEngine::SvrEngine(const SvrEngineOptions& options) : options_(options) {
  table_store_ =
      std::make_unique<storage::InMemoryPageStore>(options.page_size);
  list_store_ =
      std::make_unique<storage::InMemoryPageStore>(options.page_size);
  table_pool_ = std::make_unique<storage::BufferPool>(
      table_store_.get(), options.table_pool_pages);
  list_pool_ = std::make_unique<storage::BufferPool>(
      list_store_.get(), options.list_pool_pages);
  epochs_ = std::make_unique<concurrency::EpochManager>();
  clock_ = options.commit_clock != nullptr
               ? options.commit_clock
               : std::make_shared<concurrency::CommitClock>();
  // The buffering disposers: dead pages/blobs of the statement in
  // progress collect here (under writer_mu_) and are retired as one
  // epoch batch when the next snapshot publishes — never freed while a
  // sealed version could still reach them.
  list_page_retirer_ = [this](storage::PageId id) {
    pending_pages_.emplace_back(list_pool_.get(), id);
  };
  blob_retirer_ = [this](const storage::BlobRef& ref) {
    pending_blobs_.push_back(ref);
  };
  db_ = std::make_unique<relational::Database>(table_pool_.get());
}

SvrEngine::~SvrEngine() { Stop(); }

Result<std::unique_ptr<SvrEngine>> SvrEngine::Open(
    const SvrEngineOptions& options) {
  auto engine = std::unique_ptr<SvrEngine>(new SvrEngine(options));
  engine->score_table_ = relational::ScoreTable::Create();
  {
    // Publish the initial (empty) version so ReadViews are never null.
    MutexLock lock(engine->writer_mu_);
    engine->PublishCommit();
  }
  engine->InitTelemetry();
  return engine;
}

void SvrEngine::InitTelemetry() {
  const TelemetryOptions& topt = options_.telemetry;
  if (!topt.enabled) return;
  telemetry_enabled_ = true;
  metrics_ = topt.registry != nullptr
                 ? topt.registry
                 : std::make_shared<telemetry::MetricsRegistry>();
  // Resolve every instrument once; the record paths never take the
  // registry mutex (docs/observability.md lists the metric names).
  tel_.dml_apply_us = metrics_->GetHistogram("dml.apply_us");
  tel_.dml_publish_us = metrics_->GetHistogram("dml.publish_us");
  tel_.query_total_us = metrics_->GetHistogram("query.total_us");
  tel_.query_term_resolve_us =
      metrics_->GetHistogram("query.term_resolve_us");
  tel_.query_index_us = metrics_->GetHistogram("query.index_us");
  tel_.query_join_us = metrics_->GetHistogram("query.join_us");
  tel_.merge_prepare_us = metrics_->GetHistogram("merge.prepare_us");
  tel_.merge_install_us = metrics_->GetHistogram("merge.install_us");
  // Gauges read internally synchronized sources at dump time (no
  // registry lock held). Registration is additive: shards sharing one
  // registry sum into the same gauge.
  metrics_->RegisterGauge("epoch.reclaim_pending", [this] {
    return static_cast<double>(epochs_->objects_pending());
  });
  metrics_->RegisterGauge("epoch.objects_reclaimed", [this] {
    return static_cast<double>(epochs_->objects_reclaimed());
  });
}

uint64_t SvrEngine::PublishCommit() {
  auto snap = std::make_shared<EngineSnapshot>();
  snap->commit_ts = clock_->Tick();
  const uint64_t ts = snap->commit_ts;
  index::TextIndex* idx = index_.get();
  if (idx != nullptr) {
    snap->has_index = true;
    snap->index = idx->SealSnapshot();
    snap->rows = rows_.Seal();
  }
  std::atomic_store_explicit(
      &published_, std::shared_ptr<const EngineSnapshot>(std::move(snap)),
      std::memory_order_release);
  // Unpublish-then-retire: the version just published no longer
  // references the statement's dead pages/blobs; readers pinned on
  // older versions hold epoch guards, so the batch is freed only after
  // the last of them exits.
  if (!pending_pages_.empty() || !pending_blobs_.empty()) {
    const uint64_t n = pending_pages_.size() + pending_blobs_.size();
    epochs_->Retire(
        [idx, pages = std::move(pending_pages_),
         blobs = std::move(pending_blobs_)] {
          for (const auto& [pool, id] : pages) {
            (void)pool->FreePage(id);
          }
          for (const auto& b : blobs) {
            if (idx != nullptr) (void)idx->ReclaimBlob(b);
          }
        },
        n);
    pending_pages_.clear();
    pending_blobs_.clear();
    // Drain whatever expired. Without this the synchronous-merge /
    // no-scheduler configurations would accumulate every statement's
    // dead version objects until Stop() — nothing else runs reclaim
    // passes there. One uncontended mutex check per commit; the actual
    // frees happen outside the epoch mutex.
    epochs_->ReclaimExpired();
  }
  return ts;
}

SvrEngine::ReadView SvrEngine::PinReadView() const {
  ReadView v;
  // Order matters: enter the epoch *before* loading the snapshot, so
  // anything retired after the load carries an epoch stamp >= ours and
  // cannot be reclaimed under us.
  v.guard = epochs_->Enter();
  v.state = std::atomic_load_explicit(&published_,
                                      std::memory_order_acquire);
  return v;
}

Status SvrEngine::CreateTable(const std::string& name,
                              relational::Schema schema) {
  MutexLock lock(writer_mu_);
  const Status st = db_->CreateTable(name, std::move(schema)).status();
  PublishCommit();
  return st;
}

text::Document SvrEngine::TokenizeToDocument(const std::string& text) {
  std::vector<TermId> tokens;
  for (const std::string& tok : text::Tokenizer::Tokenize(text)) {
    tokens.push_back(vocab_.Intern(tok));
  }
  return text::Document::FromTokens(std::move(tokens));
}

Status SvrEngine::CreateTextIndex(
    const std::string& table, const std::string& text_column,
    std::vector<relational::ScoreComponentSpec> specs,
    relational::AggFunction agg) {
  {
    MutexLock lock(writer_mu_);
    Status st = [&]() -> Status {
      if (index_ != nullptr) {
        // Re-creating would replace score_view_ while the database's
        // observer list still holds the old raw pointer (AddObserver has
        // no remove), and re-scan a corpus that was already ingested —
        // open a fresh engine to re-index instead.
        return Status::AlreadyExists("text index already created");
      }
      relational::Table* t = db_->GetTable(table);
      if (t == nullptr) return Status::NotFound("no such table: " + table);
      text_column_ = t->schema().FindColumn(text_column);
      if (text_column_ < 0) {
        return Status::InvalidArgument("no such column: " + text_column);
      }
      pk_column_ = t->schema().pk_index();
      scored_table_ = table;

      // Materialize the Score view over existing rows.
      score_view_ = std::make_unique<relational::ScoreView>(
          db_.get(), table, std::move(specs), std::move(agg),
          score_table_.get());
      db_->AddObserver(score_view_.get());
      SVR_RETURN_NOT_OK(score_view_->FullRefresh());

      // Ingest existing rows into the corpus; pk must be dense 0..N-1.
      DocId expected = 0;
      Status ingest_status;
      SVR_RETURN_NOT_OK(t->Scan([&](const relational::Row& row) {
        const int64_t pk = row[pk_column_].as_int();
        if (pk != static_cast<int64_t>(expected)) {
          ingest_status = Status::InvalidArgument(
              "scored-table primary keys must be dense 0..N-1");
          return false;
        }
        corpus_.Add(TokenizeToDocument(row[text_column_].as_string()));
        rows_.Set(expected, std::make_shared<const relational::Row>(row));
        ++expected;
        return true;
      }));
      SVR_RETURN_NOT_OK(ingest_status);

      // Build the index and route future score changes into Algorithm 1.
      index::IndexContext ctx;
      ctx.list_pool = list_pool_.get();
      ctx.score_table = score_table_.get();
      ctx.corpus = &corpus_;
      ctx.merge_policy = options_.merge_policy;
      ctx.list_page_retirer = list_page_retirer_;
      ctx.blob_retirer = blob_retirer_;
      SVR_ASSIGN_OR_RETURN(
          index_, index::CreateIndex(options_.method, ctx,
                                     options_.index_options));
      SVR_RETURN_NOT_OK(index_->Build());
      score_view_->SetScoreUpdateHandler(
          [this](DocId doc, double new_score) -> Status {
            if (doc >= corpus_.num_docs()) {
              // Score component rows may arrive before the scored row;
              // the eventual document insert picks up the current view
              // score.
              return score_table_->Set(doc, new_score);
            }
            return index_->OnScoreUpdate(doc, new_score);
          });
      index_ptr_.store(index_.get(), std::memory_order_release);
      return Status::OK();
    }();
    // Publish regardless: partial table/view state mutated above must
    // reach the next version exactly as the in-place model exposed it.
    PublishCommit();
    if (!st.ok()) return st;
  }
  return Start();
}

concurrency::MergeHostHooks SvrEngine::MakeMergeHooks() {
  concurrency::MergeHostHooks hooks;
  hooks.prepare =
      [this](TermId term,
             std::unique_ptr<index::TermMergePlan>* plan) -> Status {
    telemetry::StageTimer sw(telemetry_enabled_);
    Status st = [&]() -> Status {
      plan->reset();
      ReadView view = PinReadView();
      if (!view.indexed()) return Status::OK();
      auto prepared = index_->PrepareMergeTermAt(view.state->index, term);
      SVR_RETURN_NOT_OK(prepared.status());
      *plan = std::move(prepared).value();
      return Status::OK();
    }();
    sw.Lap(tel_.merge_prepare_us);
    return st;
  };
  hooks.install = [this](index::TermMergePlan* plan) -> Status {
    telemetry::StageTimer sw(telemetry_enabled_);
    Status st;
    {
      MutexLock lock(writer_mu_);
      st = index_->InstallMergeTerm(plan, blob_retirer_);
      PublishCommit();
    }
    sw.Lap(tel_.merge_install_us);
    return st;
  };
  hooks.sync_merge = [this](TermId term) -> Status {
    MutexLock lock(writer_mu_);
    Status st = index_->MergeTerm(term);
    PublishCommit();
    return st;
  };
  return hooks;
}

Status SvrEngine::Start() {
  concurrency::MergeScheduler* scheduler = nullptr;
  {
    // The scheduler_ pointer itself is guarded by the writer mutex (it
    // is read by the write path); once set it is never reset, so the
    // raw pointer stays valid outside the critical section.
    MutexLock lock(writer_mu_);
    if (!options_.background_merge || index_ == nullptr) {
      return Status::OK();
    }
    if (scheduler_ == nullptr) {
      scheduler_ = std::make_unique<concurrency::MergeScheduler>(
          epochs_.get(), MakeMergeHooks(), options_.scheduler);
      scheduler_ptr_.store(scheduler_.get(), std::memory_order_release);
    }
    scheduler = scheduler_.get();
  }
  // Outside the lock: Start is internally synchronized, and the worker
  // it spawns immediately contends for the writer mutex.
  scheduler->Start();
  return Status::OK();
}

void SvrEngine::Stop() {
  concurrency::MergeScheduler* scheduler =
      scheduler_ptr_.load(std::memory_order_acquire);
  if (scheduler != nullptr) {
    // Must not hold the writer mutex here: the worker needs it to finish
    // its in-flight job before joining.
    scheduler->Stop();
  }
  // No readers remain once the scheduler is down and callers have
  // stopped querying (the Stop contract), so everything retired is
  // reclaimable now.
  if (epochs_ != nullptr) {
    epochs_->ReclaimExpired();
  }
}

Status SvrEngine::HandleScoredTableWrite(const relational::Row& new_row,
                                         bool fresh) {
  const int64_t pk = new_row[pk_column_].as_int();
  const DocId doc = static_cast<DocId>(pk);
  const std::string& text = new_row[text_column_].as_string();
  if (fresh) {
    // Fresh document. Doc ids must stay dense.
    if (pk != static_cast<int64_t>(corpus_.num_docs())) {
      return Status::InvalidArgument(
          "scored-table primary keys must be dense 0..N-1");
    }
    rows_.Set(doc, std::make_shared<const relational::Row>(new_row));
    corpus_.Add(TokenizeToDocument(text));
    return index_->InsertDocument(doc, score_view_->ScoreOf(doc));
  }
  // The column still holds the row this update replaced; a row the
  // index never took (a rejected non-dense insert) has no slot.
  const std::shared_ptr<const relational::Row> old_row =
      pk >= 0 ? rows_.Get(static_cast<size_t>(pk)) : nullptr;
  if (old_row == nullptr) return Status::OK();
  rows_.Set(doc, std::make_shared<const relational::Row>(new_row));
  // Content update (only when the text actually changed).
  const std::string& old_text = (*old_row)[text_column_].as_string();
  if (old_text == text) return Status::OK();
  text::Document old_doc = corpus_.doc(doc);
  corpus_.Replace(doc, TokenizeToDocument(text));
  return index_->UpdateContent(doc, old_doc);
}

Status SvrEngine::MaybeRunMergePolicy() {
  if (index_ == nullptr || !merge_ticks_.Tick(options_.merge_policy)) {
    // Off-interval writes stay free of scheduler-mutex traffic; a
    // background failure is surfaced at the next interval instead of
    // the very next write.
    return Status::OK();
  }
  Stopwatch sw;
  Status st;
  if (scheduler_ != nullptr) {
    // A failed background merge must not fail silently.
    SVR_RETURN_NOT_OK(scheduler_->first_error());
    // Background mode: the write path pays for trigger evaluation plus
    // an enqueue; the merges themselves happen on the worker.
    scheduler_->EnqueueMany(index_->AutoMergeCandidates());
    st = Status::OK();
  } else {
    st = index_->MaybeAutoMerge().status();
  }
  write_merge_ms_.store(
      write_merge_ms_.load(std::memory_order_relaxed) + sw.ElapsedMillis(),
      std::memory_order_relaxed);
  return st;
}

Status SvrEngine::ApplyInsertLocked(const std::string& table,
                                    const relational::Row& row) {
  SVR_RETURN_NOT_OK(db_->Insert(table, row));
  if (index_ != nullptr && table == scored_table_) {
    SVR_RETURN_NOT_OK(HandleScoredTableWrite(row, /*fresh=*/true));
  }
  if (score_view_ != nullptr) {
    SVR_RETURN_NOT_OK(score_view_->last_error());
  }
  return MaybeRunMergePolicy();
}

Status SvrEngine::ApplyUpdateLocked(const std::string& table,
                                    const relational::Row& row) {
  SVR_RETURN_NOT_OK(db_->Update(table, row));
  if (index_ != nullptr && table == scored_table_) {
    SVR_RETURN_NOT_OK(HandleScoredTableWrite(row, /*fresh=*/false));
  }
  if (score_view_ != nullptr) {
    SVR_RETURN_NOT_OK(score_view_->last_error());
  }
  return MaybeRunMergePolicy();
}

Status SvrEngine::ApplyDeleteLocked(const std::string& table, int64_t pk) {
  SVR_RETURN_NOT_OK(db_->Delete(table, pk));
  if (index_ != nullptr && table == scored_table_) {
    if (pk >= 0 && static_cast<uint64_t>(pk) < rows_.size()) {
      rows_.Set(static_cast<size_t>(pk), nullptr);
    }
    SVR_RETURN_NOT_OK(index_->DeleteDocument(static_cast<DocId>(pk)));
  }
  if (score_view_ != nullptr) {
    SVR_RETURN_NOT_OK(score_view_->last_error());
  }
  return MaybeRunMergePolicy();
}

Status SvrEngine::FinishStatementLocked(const Status& st,
                                        telemetry::StageTimer* timer,
                                        uint64_t* commit_ts) {
  timer->Lap(tel_.dml_apply_us);
  const uint64_t ts = PublishCommit();
  timer->Lap(tel_.dml_publish_us);
  if (commit_ts != nullptr) *commit_ts = ts;
  return st;
}

Status SvrEngine::Insert(const std::string& table,
                         const relational::Row& row, uint64_t* commit_ts) {
  MutexLock lock(writer_mu_);
  telemetry::StageTimer timer(telemetry_enabled_);
  return FinishStatementLocked(ApplyInsertLocked(table, row), &timer,
                               commit_ts);
}

Status SvrEngine::Update(const std::string& table,
                         const relational::Row& row, uint64_t* commit_ts) {
  MutexLock lock(writer_mu_);
  telemetry::StageTimer timer(telemetry_enabled_);
  return FinishStatementLocked(ApplyUpdateLocked(table, row), &timer,
                               commit_ts);
}

Status SvrEngine::Delete(const std::string& table, int64_t pk,
                         uint64_t* commit_ts) {
  MutexLock lock(writer_mu_);
  telemetry::StageTimer timer(telemetry_enabled_);
  return FinishStatementLocked(ApplyDeleteLocked(table, pk), &timer,
                               commit_ts);
}

Result<std::vector<ScoredRow>> SvrEngine::Search(const std::string& keywords,
                                                 size_t k, bool conjunctive) {
  return SearchAt(PinReadView(), keywords, k, conjunctive);
}

Result<std::vector<ScoredRow>> SvrEngine::SearchAt(const ReadView& view,
                                                   const std::string& keywords,
                                                   size_t k,
                                                   bool conjunctive) {
  // Everything below — term resolution, the scan, the score probes, the
  // row join — observes the single sealed version the view pinned. The
  // epoch guard keeps reclamation honest about the blobs and tree pages
  // that version references (docs/concurrency.md).
  if (!view.indexed()) {
    return Status::InvalidArgument("no text index; CreateTextIndex first");
  }
  // Stage histograms (docs/observability.md); disabled, the timer reads
  // no clock.
  telemetry::StageTimer timer(telemetry_enabled_);
  std::vector<index::SearchResult> hits;
  Status st = RankAt(*view.state, keywords, k, conjunctive, &timer, &hits);
  std::vector<ScoredRow> out;
  if (st.ok() && !hits.empty()) {
    out.reserve(hits.size());
    for (const index::SearchResult& h : hits) {
      const relational::Row* row = view.state->RowOf(h.doc);
      if (row == nullptr) {
        st = Status::Internal("hit has no row at its version");
        break;
      }
      out.push_back({static_cast<int64_t>(h.doc), h.score, *row});
    }
    timer.Lap(tel_.query_join_us);
  }
  timer.TotalUs(tel_.query_total_us);
  SVR_RETURN_NOT_OK(st);
  return out;
}

Status SvrEngine::SearchHitsAt(const ReadView& view,
                               const std::string& keywords, size_t k,
                               bool conjunctive,
                               std::vector<index::SearchResult>* hits) {
  hits->clear();
  if (!view.indexed()) {
    return Status::InvalidArgument("no text index; CreateTextIndex first");
  }
  telemetry::StageTimer timer(telemetry_enabled_);
  const Status st =
      RankAt(*view.state, keywords, k, conjunctive, &timer, hits);
  timer.TotalUs(tel_.query_total_us);
  return st;
}

Status SvrEngine::RankAt(const EngineSnapshot& snap,
                         const std::string& keywords, size_t k,
                         bool conjunctive, telemetry::StageTimer* timer,
                         std::vector<index::SearchResult>* hits) {
  index::Query query;
  query.conjunctive = conjunctive;
  bool impossible = false;  // conjunctive query with an unknown term
  for (const std::string& tok : text::Tokenizer::Tokenize(keywords)) {
    const TermId term = vocab_.Lookup(tok);
    if (term == text::Vocabulary::kUnknownTerm) {
      if (conjunctive) {
        impossible = true;
        break;
      }
      continue;
    }
    // Repeated keywords ("apple apple") must not double-count term
    // scores or duplicate the stream work of the scans.
    if (std::find(query.terms.begin(), query.terms.end(), term) ==
        query.terms.end()) {
      query.terms.push_back(term);
    }
  }
  timer->Lap(tel_.query_term_resolve_us);
  if (impossible || query.terms.empty()) return Status::OK();
  const Status st = index_->TopKAt(snap.index, query, k, hits);
  timer->Lap(tel_.query_index_us);
  return st;
}

Status SvrEngine::ReadSnapshot(
    const std::function<Status(const ReadView&)>& fn) {
  ReadView view = PinReadView();
  return fn(view);
}

bool SvrEngine::RowExists(const std::string& table, int64_t pk) {
  MutexLock lock(writer_mu_);
  relational::Table* t = db_->GetTable(table);
  relational::Row row;
  return t != nullptr && t->Get(pk, &row).ok();
}

EngineStats SvrEngine::GetStats() const {
  EngineStats s;
  index::TextIndex* idx = index_ptr_.load(std::memory_order_acquire);
  if (idx != nullptr) s.index = idx->stats();
  const auto snap = std::atomic_load_explicit(&published_,
                                              std::memory_order_acquire);
  if (snap != nullptr) s.commit_ts = snap->commit_ts;
  concurrency::MergeScheduler* sched =
      scheduler_ptr_.load(std::memory_order_acquire);
  s.background_merge = sched != nullptr;
  if (sched != nullptr) {
    const concurrency::MergeSchedulerStats ms = sched->StatsSnapshot();
    s.merge_workers = ms.workers;
    s.merge_queue_depth = ms.queue_depth;
    s.merge_jobs_enqueued = ms.enqueued;
    s.merge_jobs_completed = ms.completed;
    s.merge_jobs_aborted = ms.aborted;
    s.merge_jobs_dropped = ms.dropped_full;
    s.merge_dedup_hits = ms.dedup_hits;
    s.merge_sync_fallbacks = ms.sync_fallbacks;
  }
  s.reclaim_pending = epochs_->objects_pending();
  s.objects_reclaimed = epochs_->objects_reclaimed();
  s.write_merge_ms = write_merge_ms_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace svr::core
