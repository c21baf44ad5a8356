// Concurrency-subsystem tests (docs/concurrency.md):
//  - EpochManager unit semantics: no reclaim while any guard that could
//    have seen a retired object is live, reclaim after release.
//  - The two-phase merge publish protocol, driven deterministically
//    without threads: install must abort when the term's short list
//    changed after prepare, and the retired blob must wait for its
//    readers.
//  - The whole engine under real threads: mixed insert/update/delete/
//    content churn racing query threads with the background scheduler
//    on, through the churn driver on a 1-shard ShardedSvrEngine; every
//    validated top-k must match the brute-force oracle at its pinned
//    view (docs/concurrency.md). (This suite is also a TSan
//    target in ci.sh.)

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "concurrency/epoch.h"
#include "concurrency/merge_scheduler.h"
#include "core/oracle.h"
#include "core/svr_engine.h"
#include "storage/buffer_pool.h"
#include "storage/page_store.h"
#include "workload/concurrent_driver.h"

// ThreadSanitizer slows the hot loops ~20x; the thread interleavings it
// needs to see do not require the full workload volume, so the churn
// sizes scale down under TSan builds.
#if defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define SVR_TSAN_BUILD 1
#endif
#elif defined(__SANITIZE_THREAD__)
#define SVR_TSAN_BUILD 1
#endif
#ifndef SVR_TSAN_BUILD
#define SVR_TSAN_BUILD 0
#endif

namespace svr {
namespace {

constexpr bool kTsanBuild = SVR_TSAN_BUILD != 0;

using concurrency::EpochManager;

// --- EpochManager units -----------------------------------------------

TEST(EpochManagerTest, ReclaimsImmediatelyWithNoGuards) {
  EpochManager epochs;
  int freed = 0;
  epochs.Retire([&] { ++freed; });
  EXPECT_EQ(epochs.pending(), 1u);
  EXPECT_EQ(epochs.ReclaimExpired(), 1u);
  EXPECT_EQ(freed, 1);
  EXPECT_EQ(epochs.pending(), 0u);
  EXPECT_EQ(epochs.reclaimed_total(), 1u);
}

TEST(EpochManagerTest, NoReclaimWhileGuarded) {
  EpochManager epochs;
  int freed = 0;
  EpochManager::Guard g = epochs.Enter();
  // The guard entered before the retirement: it could hold a pointer to
  // the object, so nothing may be freed while it lives.
  epochs.Retire([&] { ++freed; });
  EXPECT_EQ(epochs.ReclaimExpired(), 0u);
  EXPECT_EQ(freed, 0);
  EXPECT_EQ(epochs.pending(), 1u);

  g.Release();
  EXPECT_EQ(epochs.ReclaimExpired(), 1u);
  EXPECT_EQ(freed, 1);
}

TEST(EpochManagerTest, LateGuardsDoNotBlockEarlierRetirements) {
  EpochManager epochs;
  int freed = 0;
  epochs.Retire([&] { ++freed; });
  // This reader entered *after* the retirement unpublished the object;
  // it provably cannot reach it, so reclamation proceeds.
  EpochManager::Guard late = epochs.Enter();
  EXPECT_EQ(epochs.ReclaimExpired(), 1u);
  EXPECT_EQ(freed, 1);
}

TEST(EpochManagerTest, EveryOverlappingGuardMustExit) {
  EpochManager epochs;
  int freed = 0;
  EpochManager::Guard g1 = epochs.Enter();
  EpochManager::Guard g2 = epochs.Enter();
  epochs.Retire([&] { ++freed; });
  g1.Release();
  EXPECT_EQ(epochs.ReclaimExpired(), 0u) << "g2 still pins the epoch";
  g2.Release();
  EXPECT_EQ(epochs.ReclaimExpired(), 1u);
  EXPECT_EQ(freed, 1);
}

TEST(EpochManagerTest, RetirementsReclaimInOrderAcrossEpochs) {
  EpochManager epochs;
  std::vector<int> freed;
  epochs.Retire([&] { freed.push_back(1); });
  EpochManager::Guard g = epochs.Enter();  // pins only the second epoch
  epochs.Retire([&] { freed.push_back(2); });
  EXPECT_EQ(epochs.ReclaimExpired(), 1u);
  ASSERT_EQ(freed.size(), 1u);
  EXPECT_EQ(freed[0], 1);
  g.Release();
  EXPECT_EQ(epochs.ReclaimExpired(), 1u);
  ASSERT_EQ(freed.size(), 2u);
  EXPECT_EQ(freed[1], 2);
}

TEST(EpochManagerTest, DestructionRunsPendingReclaims) {
  int freed = 0;
  {
    EpochManager epochs;
    epochs.Retire([&] { ++freed; });
  }
  EXPECT_EQ(freed, 1);
}

TEST(EpochManagerTest, GuardMoveTransfersOwnership) {
  EpochManager epochs;
  EpochManager::Guard a = epochs.Enter();
  EXPECT_EQ(epochs.active_guards(), 1u);
  EpochManager::Guard b = std::move(a);
  EXPECT_FALSE(a.active());
  EXPECT_TRUE(b.active());
  EXPECT_EQ(epochs.active_guards(), 1u);
  b.Release();
  EXPECT_EQ(epochs.active_guards(), 0u);
}

TEST(EpochManagerTest, ConcurrentGuardsAndRetirements) {
  // Hammer the manager from several threads; TSan (ci.sh) checks the
  // synchronization, the counters check nothing is lost or doubled.
  EpochManager epochs;
  constexpr int kThreads = 4;
  constexpr int kIters = kTsanBuild ? 100 : 500;
  std::atomic<int> freed{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        EpochManager::Guard g = epochs.Enter();
        epochs.Retire([&] { freed.fetch_add(1); });
        g.Release();
        epochs.ReclaimExpired();
      }
    });
  }
  for (auto& w : workers) w.join();
  while (epochs.pending() > 0) epochs.ReclaimExpired();
  EXPECT_EQ(freed.load(), kThreads * kIters);
  EXPECT_EQ(epochs.reclaimed_total(),
            static_cast<uint64_t>(kThreads * kIters));
}

// --- deterministic two-phase merge protocol ---------------------------

using relational::Value;

class TwoPhaseMergeTest : public ::testing::TestWithParam<index::Method> {
 protected:
  void SetUp() override {
    workload::ConcurrentChurnConfig cfg;
    cfg.initial_docs = 300;
    cfg.vocab = 120;
    cfg.terms_per_doc = 12;
    core::SvrEngineOptions opt;
    opt.method = GetParam();
    opt.index_options.chunk.chunking.min_chunk_size = 1;
    // Policy stays disabled: merges are driven by hand below.
    auto e = workload::SetupChurnEngine(opt, cfg);
    ASSERT_TRUE(e.ok()) << e.status().ToString();
    engine_ = std::move(e).value();
    // Churn a little so short lists exist. Content updates feed the
    // short lists of every method (the ID family ignores score moves).
    for (int i = 0; i < 50; ++i) {
      ASSERT_TRUE(engine_
                      ->Update("scores", {Value::Int(i),
                                          Value::Double(90000.0 + i)})
                      .ok());
    }
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE(
          engine_
              ->Update("docs",
                       {Value::Int(i),
                        Value::String("fresh" + std::to_string(i % 5) +
                                      " churned tokens t1 t2 t3")})
              .ok());
    }
  }

  /// First term with actual merge work, with its plan.
  void PrepareDirtyTerm(std::unique_ptr<index::TermMergePlan>* plan,
                        TermId* term) {
    index::TextIndex* idx = engine_->text_index();
    plan->reset();
    for (TermId t = 0; t < 2000 && *plan == nullptr; ++t) {
      auto r = idx->PrepareMergeTerm(t);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      *plan = std::move(r).value();
      *term = t;
    }
    ASSERT_NE(*plan, nullptr) << "no term with merge work found";
  }

  std::unique_ptr<core::SvrEngine> engine_;
};

TEST_P(TwoPhaseMergeTest, InstallTakesFinePathWhenShortListChanges) {
  index::TextIndex* idx = engine_->text_index();
  ASSERT_GT(idx->ShortPostingCount(), 0u);

  std::unique_ptr<index::TermMergePlan> plan;
  TermId term = 0;
  PrepareDirtyTerm(&plan, &term);

  // Between prepare and install, a content update strips `term` from a
  // document that contains it: every method then writes a REM/delete
  // into the term's short list, bumping its version. The old protocol
  // aborted here; the fine-grained install must now succeed, deleting
  // only the postings the prepare folded in — the REM it never saw
  // survives and keeps layering over the new blob (the hot-term case).
  DocId victim = kInvalidDocId;
  for (DocId d = 0; d < engine_->corpus()->num_docs(); ++d) {
    if (engine_->corpus()->doc(d).Contains(term)) {
      victim = d;
      break;
    }
  }
  ASSERT_NE(victim, kInvalidDocId) << "term has no live document";
  ASSERT_TRUE(engine_
                  ->Update("docs", {Value::Int(victim),
                                    Value::String("replacementtoken")})
                  .ok());

  const uint64_t fine_before = idx->stats().merge_installs_fine;
  Status st = idx->InstallMergeTerm(plan.get(), nullptr);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(idx->stats().merge_installs_fine, fine_before + 1);
  EXPECT_EQ(idx->stats().merge_install_aborts, 0u);

  // And the index still answers correctly (quiescent spot-check: the
  // direct install above bypassed the engine's publish, so compare the
  // live index against the live oracle).
  index::Query q;
  q.terms.push_back(term);
  std::vector<index::SearchResult> got, want;
  ASSERT_TRUE(engine_->text_index()->TopK(q, 10, &got).ok());
  core::BruteForceOracle oracle(engine_->corpus(), engine_->score_table());
  const bool with_ts =
      engine_->text_index()->name().find("TermScore") != std::string::npos;
  ASSERT_TRUE(oracle.TopK(q, 10, with_ts, &want).ok());
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].doc, want[i].doc) << "rank " << i;
  }
}

TEST_P(TwoPhaseMergeTest, InstallAbortsWhenBlobRepublishedAfterPrepare) {
  index::TextIndex* idx = engine_->text_index();
  ASSERT_GT(idx->ShortPostingCount(), 0u);

  std::unique_ptr<index::TermMergePlan> plan;
  TermId term = 0;
  PrepareDirtyTerm(&plan, &term);

  // A competing merge lands between prepare and install: the term's
  // published blob is swapped, which the short list cannot reconcile —
  // the stale install must observe the conflict and abort. (The
  // scheduler's pending set prevents this race in production; the
  // counter records it if it ever happens.)
  ASSERT_TRUE(idx->MergeTerm(term).ok());

  Status st = idx->InstallMergeTerm(plan.get(), nullptr);
  ASSERT_TRUE(st.IsAborted()) << st.ToString();
  EXPECT_EQ(idx->stats().merge_install_aborts, 1u);

  // Re-running the merge from scratch converges, and queries agree with
  // the oracle.
  ASSERT_TRUE(idx->MergeTerm(term).ok());
  index::Query q;
  q.terms.push_back(term);
  std::vector<index::SearchResult> got, want;
  ASSERT_TRUE(idx->TopK(q, 10, &got).ok());
  core::BruteForceOracle oracle(engine_->corpus(), engine_->score_table());
  const bool with_ts =
      idx->name().find("TermScore") != std::string::npos;
  ASSERT_TRUE(oracle.TopK(q, 10, with_ts, &want).ok());
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].doc, want[i].doc) << "rank " << i;
  }
}

TEST_P(TwoPhaseMergeTest, InstallPublishesAndRetiresOldBlobThroughEpochs) {
  index::TextIndex* idx = engine_->text_index();
  ASSERT_GT(idx->ShortPostingCount(), 0u);

  std::unique_ptr<index::TermMergePlan> plan;
  TermId term = 0;
  PrepareDirtyTerm(&plan, &term);

  // Install with a retirer that defers to the epoch manager while a
  // reader guard is live: the old blob must stay allocated until the
  // guard exits. Drain the engine's own commit-batch retirements first
  // (quiescent: everything pending is reclaimable) so the counters below
  // see only this test's retire.
  concurrency::EpochManager* epochs = engine_->epoch_manager();
  epochs->ReclaimExpired();
  concurrency::EpochManager::Guard reader = epochs->Enter();
  int retired = 0;
  index::BlobRetirer retirer = [&](const storage::BlobRef& ref) {
    ++retired;
    epochs->Retire([idx, ref] { (void)idx->ReclaimBlob(ref); });
  };
  const uint64_t merges_before = idx->stats().term_merges;
  Status st = idx->InstallMergeTerm(plan.get(), retirer);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(idx->stats().term_merges, merges_before + 1);

  if (retired > 0) {
    EXPECT_EQ(epochs->pending(), static_cast<size_t>(retired));
    EXPECT_EQ(epochs->ReclaimExpired(), 0u)
        << "reader guard still pins the retired blob";
    reader.Release();
    EXPECT_EQ(epochs->ReclaimExpired(), static_cast<size_t>(retired));
  }
}

INSTANTIATE_TEST_SUITE_P(AllMergeMethods, TwoPhaseMergeTest,
                         ::testing::Values(index::Method::kId,
                                           index::Method::kChunk,
                                           index::Method::kChunkTermScore,
                                           index::Method::kScoreThreshold));

// --- engine-level concurrent churn vs oracle --------------------------

class ConcurrentChurnTest : public ::testing::TestWithParam<index::Method> {
};

TEST_P(ConcurrentChurnTest, ConcurrentTopKMatchesOracleAtItsSnapshot) {
  workload::ConcurrentChurnConfig cfg;
  cfg.initial_docs = kTsanBuild ? 300 : 800;
  cfg.vocab = kTsanBuild ? 250 : 600;
  cfg.terms_per_doc = kTsanBuild ? 10 : 16;
  cfg.writer_ops = kTsanBuild ? 500 : 3000;
  cfg.query_threads = 2;
  cfg.validate_every = 3;  // every third query is oracle-checked
  cfg.top_k = 15;

  core::ShardedSvrEngineOptions opt;  // one shard: the single-node setup
  opt.shard.method = GetParam();
  opt.shard.index_options.chunk.chunking.min_chunk_size = 1;
  opt.shard.merge_policy.enabled = true;
  opt.shard.merge_policy.short_ratio = 0.1;
  opt.shard.merge_policy.min_short_postings = 8;
  opt.shard.merge_policy.check_interval = 64;
  opt.shard.background_merge = true;

  auto engine_r = workload::SetupShardedChurnEngine(opt, cfg);
  ASSERT_TRUE(engine_r.ok()) << engine_r.status().ToString();
  auto engine = std::move(engine_r).value();
  auto result = workload::RunShardedChurn(engine.get(), cfg,
                                          /*writer_threads=*/1,
                                          /*run_ms=*/0);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  EXPECT_GT(result.value().queries_run, 0u);
  EXPECT_GT(result.value().validated_queries, 0u);
  EXPECT_EQ(result.value().mismatches, 0u);

  // The background scheduler actually worked: merges happened off the
  // write path and their retired blobs were reclaimed through epochs.
  engine->shard(0)->merge_scheduler()->WaitIdle();
  const core::EngineStats stats = engine->GetStats().total;
  EXPECT_TRUE(stats.background_merge);
  EXPECT_GT(stats.merge_jobs_enqueued, 0u);
  EXPECT_GT(stats.index.term_merges, 0u);
  EXPECT_EQ(stats.reclaim_pending, 0u);
  engine->Stop();
}

INSTANTIATE_TEST_SUITE_P(AllMethods, ConcurrentChurnTest,
                         ::testing::Values(index::Method::kId,
                                           index::Method::kIdTermScore,
                                           index::Method::kChunk,
                                           index::Method::kChunkTermScore,
                                           index::Method::kScoreThreshold));

// --- scheduler behaviour ----------------------------------------------

TEST(MergeSchedulerTest, DedupsAndBoundsTheQueue) {
  workload::ConcurrentChurnConfig cfg;
  cfg.initial_docs = 200;
  cfg.vocab = 100;
  cfg.terms_per_doc = 10;
  core::SvrEngineOptions opt;
  opt.method = index::Method::kChunk;
  opt.index_options.chunk.chunking.min_chunk_size = 1;
  opt.merge_policy.enabled = true;
  opt.background_merge = true;
  opt.scheduler.queue_capacity = 4;
  auto engine_r = workload::SetupChurnEngine(opt, cfg);
  ASSERT_TRUE(engine_r.ok());
  auto engine = std::move(engine_r).value();
  concurrency::MergeScheduler* sched = engine->merge_scheduler();
  ASSERT_NE(sched, nullptr);
  ASSERT_TRUE(sched->running());

  // Flood with more terms than the queue holds; dedup + capacity caps
  // the accepted count, and nothing is lost correctness-wise (dropped
  // triggers re-fire later by design).
  std::vector<TermId> terms;
  for (TermId t = 0; t < 64; ++t) terms.push_back(t);
  const size_t accepted = sched->EnqueueMany(terms);
  EXPECT_LE(accepted, 64u);
  sched->WaitIdle();
  const concurrency::MergeSchedulerStats stats = sched->StatsSnapshot();
  EXPECT_EQ(stats.queue_depth, 0u);
  EXPECT_EQ(stats.enqueued, accepted);
  EXPECT_TRUE(sched->first_error().ok())
      << sched->first_error().ToString();
  engine->Stop();
}

// Deterministic scheduler harness: a stub index whose PrepareMergeTerm
// can block (to pin jobs in flight) or fail (to set the sticky error),
// so pool behaviour is testable without racing a real engine. The hooks
// play the engine's role (pin-view prepare / writer-side install).
class StubIndex : public index::TextIndex {
 public:
  std::string name() const override { return "Stub"; }
  Status Build() override { return Status::OK(); }
  Status OnScoreUpdate(DocId, double) override { return Status::OK(); }
  Status TopK(const index::Query&, size_t,
              std::vector<index::SearchResult>*) override {
    return Status::OK();
  }
  uint64_t LongListBytes() const override { return 0; }

  Result<std::unique_ptr<index::TermMergePlan>> PrepareMergeTerm(
      TermId term) override {
    {
      std::unique_lock<std::mutex> lock(mu_);
      ++active_;
      ++calls_;
      entered_.notify_all();
      release_cv_.wait(lock, [this] { return !hold_; });
      --active_;
    }
    if (fail_) return Status::Internal("stub prepare failure");
    (void)term;
    return std::unique_ptr<index::TermMergePlan>();  // nothing to merge
  }

  void Hold() {
    std::lock_guard<std::mutex> lock(mu_);
    hold_ = true;
  }
  void Release() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      hold_ = false;
    }
    release_cv_.notify_all();
  }
  /// Blocks until `n` prepares are simultaneously in flight (requires a
  /// prior Hold()); false on timeout — the pool is smaller than `n`.
  bool AwaitActive(size_t n) {
    std::unique_lock<std::mutex> lock(mu_);
    return entered_.wait_for(lock, std::chrono::seconds(10),
                             [&] { return active_ >= n; });
  }
  void set_fail(bool fail) {
    std::lock_guard<std::mutex> lock(mu_);
    fail_ = fail;
  }
  size_t calls() {
    std::lock_guard<std::mutex> lock(mu_);
    return calls_;
  }

 private:
  std::mutex mu_;
  std::condition_variable entered_;
  std::condition_variable release_cv_;
  size_t active_ = 0;
  size_t calls_ = 0;
  bool hold_ = false;
  bool fail_ = false;
};

concurrency::MergeHostHooks StubHooks(StubIndex* stub) {
  concurrency::MergeHostHooks hooks;
  hooks.prepare = [stub](TermId term,
                         std::unique_ptr<index::TermMergePlan>* plan)
      -> Status {
    plan->reset();
    auto r = stub->PrepareMergeTerm(term);
    SVR_RETURN_NOT_OK(r.status());
    *plan = std::move(r).value();
    return Status::OK();
  };
  hooks.install = [stub](index::TermMergePlan* plan) {
    return stub->InstallMergeTerm(plan, nullptr);
  };
  hooks.sync_merge = [stub](TermId term) { return stub->MergeTerm(term); };
  return hooks;
}

TEST(MergeSchedulerPoolTest, WorkersRunIndependentTermsConcurrently) {
  StubIndex stub;
  concurrency::EpochManager epochs;
  concurrency::MergeSchedulerOptions opt;
  opt.workers = 4;
  concurrency::MergeScheduler sched(&epochs, StubHooks(&stub), opt);
  sched.Start();
  EXPECT_EQ(sched.StatsSnapshot().workers, 4u);

  stub.Hold();
  for (TermId t = 0; t < 4; ++t) EXPECT_TRUE(sched.Enqueue(t));
  // All four jobs must be *simultaneously* inside prepare: a pool of one
  // (the PR-3 scheduler) would never get past 1.
  EXPECT_TRUE(stub.AwaitActive(4)) << "pool did not run 4 jobs at once";
  stub.Release();
  sched.WaitIdle();
  const concurrency::MergeSchedulerStats stats = sched.StatsSnapshot();
  EXPECT_EQ(stats.enqueued, 4u);
  EXPECT_EQ(stats.queue_depth, 0u);
  EXPECT_TRUE(sched.first_error().ok());
  sched.Stop();
}

TEST(MergeSchedulerPoolTest, InFlightTermsDedupAcrossTheWholePool) {
  StubIndex stub;
  concurrency::EpochManager epochs;
  concurrency::MergeSchedulerOptions opt;
  opt.workers = 3;
  concurrency::MergeScheduler sched(&epochs, StubHooks(&stub), opt);
  sched.Start();

  stub.Hold();
  ASSERT_TRUE(sched.Enqueue(7));
  ASSERT_TRUE(stub.AwaitActive(1));
  // The term is in flight (not merely queued): re-enqueues must be
  // dedup hits, so no second worker can prepare the same term.
  EXPECT_FALSE(sched.Enqueue(7));
  EXPECT_FALSE(sched.Enqueue(7));
  EXPECT_EQ(sched.StatsSnapshot().dedup_hits, 2u);
  stub.Release();
  sched.WaitIdle();
  EXPECT_EQ(stub.calls(), 1u) << "a duplicate of an in-flight term ran";

  // Once the job finished, the term may be queued again.
  EXPECT_TRUE(sched.Enqueue(7));
  sched.WaitIdle();
  EXPECT_EQ(stub.calls(), 2u);
  sched.Stop();
}

TEST(MergeSchedulerPoolTest, FirstErrorIsStickyWithinARunAndClearsOnRestart) {
  StubIndex stub;
  concurrency::EpochManager epochs;
  concurrency::MergeScheduler sched(&epochs, StubHooks(&stub), {});
  sched.Start();

  stub.set_fail(true);
  ASSERT_TRUE(sched.Enqueue(1));
  sched.WaitIdle();
  EXPECT_FALSE(sched.first_error().ok());

  // Regression: the sticky error used to survive Stop()/Start(), so a
  // restarted scheduler kept failing every write with a stale status.
  sched.Stop();
  sched.Start();
  EXPECT_TRUE(sched.first_error().ok())
      << "restart must clear the previous run's sticky error, got "
      << sched.first_error().ToString();

  // And the restarted run latches fresh failures again.
  ASSERT_TRUE(sched.Enqueue(2));
  sched.WaitIdle();
  EXPECT_FALSE(sched.first_error().ok());
  sched.Stop();
}

TEST(MergeSchedulerTest, StopIsIdempotentAndRestartable) {
  workload::ConcurrentChurnConfig cfg;
  cfg.initial_docs = 100;
  cfg.vocab = 80;
  cfg.terms_per_doc = 8;
  core::SvrEngineOptions opt;
  opt.method = index::Method::kChunk;
  opt.index_options.chunk.chunking.min_chunk_size = 1;
  opt.merge_policy.enabled = true;
  opt.background_merge = true;
  auto engine_r = workload::SetupChurnEngine(opt, cfg);
  ASSERT_TRUE(engine_r.ok());
  auto engine = std::move(engine_r).value();
  ASSERT_TRUE(engine->merge_scheduler()->running());
  engine->Stop();
  engine->Stop();
  EXPECT_FALSE(engine->merge_scheduler()->running());
  ASSERT_TRUE(engine->Start().ok());
  EXPECT_TRUE(engine->merge_scheduler()->running());
  engine->Stop();
}

// Regression (PR 7 static-analysis sweep): BufferPool::stats() and
// PageStore::stats() used to read their counters without the lock, a
// data race against any page IO. They now return a locked by-value
// snapshot; this runs readers against live IO so the TSan leg proves it.
TEST(BufferPoolTest, StatsReadersRaceLiveIo) {
  storage::InMemoryPageStore store(256);
  storage::BufferPool pool(&store, 4);  // small: constant eviction
  constexpr int kReaders = 2;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> reads{0};
  // Readers that have taken their first snapshot. The writers wait for
  // all of them: otherwise a loaded machine can run every write and set
  // `stop` before a reader is ever scheduled.
  std::atomic<int> readers_started{0};

  std::vector<std::thread> stats_readers;
  for (int t = 0; t < kReaders; ++t) {
    stats_readers.emplace_back([&] {
      bool started = false;
      while (!stop.load(std::memory_order_relaxed)) {
        const auto ps = pool.stats();
        const auto ss = store.stats();
        // hits/misses/evictions only grow; reading torn values here
        // showed up as nonsense sums before the fix.
        if (ps.hits + ps.misses + ps.evictions + ss.reads + ss.writes >
            0) {
          reads.fetch_add(1, std::memory_order_relaxed);
        }
        if (!started) {
          started = true;
          readers_started.fetch_add(1, std::memory_order_release);
        }
      }
    });
  }

  const int kWriters = 3;
  const int kPagesPerWriter = SVR_TSAN_BUILD ? 60 : 200;
  std::vector<std::thread> writers;
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&, t] {
      while (readers_started.load(std::memory_order_acquire) < kReaders) {
        std::this_thread::yield();
      }
      std::vector<storage::PageId> ids;
      for (int i = 0; i < kPagesPerWriter; ++i) {
        storage::PageHandle h;
        ASSERT_TRUE(pool.NewPage(&h).ok());
        h.mutable_data()[0] = static_cast<char>(t);
        ids.push_back(h.id());
        h.Release();
        storage::PageHandle r;
        ASSERT_TRUE(pool.Fetch(ids[i / 2], &r).ok());
      }
      // The readers' first snapshots saw no IO. Keep the IO going until
      // one of them has counted a snapshot taken while it runs, so a
      // descheduled reader cannot miss the whole write phase.
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      for (size_t i = 0; reads.load(std::memory_order_relaxed) == 0 &&
                         std::chrono::steady_clock::now() < deadline;
           ++i) {
        storage::PageHandle r;
        ASSERT_TRUE(pool.Fetch(ids[i % ids.size()], &r).ok());
      }
    });
  }
  for (auto& w : writers) w.join();
  stop.store(true, std::memory_order_relaxed);
  for (auto& r : stats_readers) r.join();

  EXPECT_GT(reads.load(), 0u);
  const auto ps = pool.stats();
  EXPECT_GT(ps.evictions, 0u);
  EXPECT_GT(store.stats().writes, 0u);
}

}  // namespace
}  // namespace svr
