// MVCC read-path tests (docs/concurrency.md):
//  - VersionedArray unit semantics: snapshots are immutable and share
//    untouched chunks with the working version.
//  - Copy-on-write B+-tree: sealed snapshots read the exact contents at
//    their seal point while the writer keeps mutating; retired pages of
//    dead versions are handed to the retirer, never freed in place.
//  - Engine-level pinned ReadViews: a pinned view answers identically
//    before and after concurrent writer churn, and equals the
//    brute-force oracle evaluated at the same view, across all 5
//    methods — including while real writer threads race (a TSan target
//    in ci.sh).
//  - Cross-shard pinned views: one ShardedReadView is a true snapshot —
//    the gather at a pinned watermark never moves, even under writes,
//    including ties at a shard's k-boundary.
//  - The fully-merged sweep retires stale in_short list-state entries
//    once every term of a moved document has been merged.
//  - The judge columns (Score table, ListChunk) at a pinned view agree
//    with a fresh ScoreView recomputation from the relational rows, and
//    a sealed column version ignores later writes.
//  - The row column: a pinned view joins the rows of its version, and
//    every searched row equals its table row, after sharded churn and
//    after a reopen from the WAL.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "common/versioned_array.h"
#include "core/oracle.h"
#include "core/sharded_engine.h"
#include "core/svr_engine.h"
#include "index/chunk_base.h"
#include "index/list_state.h"
#include "index/score_threshold_index.h"
#include "relational/score_table.h"
#include "relational/score_view.h"
#include "storage/bptree.h"
#include "storage/buffer_pool.h"
#include "storage/page_store.h"
#include "workload/concurrent_driver.h"
#include "workload/crash_driver.h"

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

using relational::Value;

// --- VersionedArray ----------------------------------------------------

TEST(VersionedArrayTest, SnapshotsAreImmutable) {
  VersionedArray<int, 4> arr;
  for (int i = 0; i < 10; ++i) arr.Set(i, i * 10);
  auto s1 = arr.Seal();
  ASSERT_EQ(s1.size(), 10u);
  arr.Set(3, -1);
  arr.Set(12, 120);  // grows past the sealed size
  auto s2 = arr.Seal();

  EXPECT_EQ(s1.Get(3), 30);
  EXPECT_EQ(s1.Get(12), 0) << "growth must not leak into old snapshots";
  EXPECT_EQ(s1.size(), 10u);
  EXPECT_EQ(s2.Get(3), -1);
  EXPECT_EQ(s2.Get(12), 120);
  EXPECT_EQ(arr.Get(3), -1);
}

TEST(VersionedArrayTest, UnsetSlotsReadDefault) {
  VersionedArray<uint64_t, 8> arr;
  arr.Set(20, 7);
  auto s = arr.Seal();
  EXPECT_EQ(s.Get(0), 0u);   // chunk never allocated below
  EXPECT_EQ(s.Get(19), 0u);  // same chunk as 20, value-initialized
  EXPECT_EQ(s.Get(20), 7u);
  EXPECT_EQ(s.Get(500), 0u);  // out of range
  EXPECT_EQ(s.Find(500), nullptr);
}

TEST(VersionedArrayTest, ManySnapshotsShareStructure) {
  VersionedArray<int, 16> arr;
  std::vector<VersionedArray<int, 16>::Snapshot> snaps;
  std::vector<std::map<size_t, int>> refs;
  std::map<size_t, int> ref;
  Random rng(7);
  for (int round = 0; round < 30; ++round) {
    for (int i = 0; i < 20; ++i) {
      const size_t idx = rng.Uniform(300);
      const int v = static_cast<int>(rng.Uniform(1000));
      arr.Set(idx, v);
      ref[idx] = v;
    }
    snaps.push_back(arr.Seal());
    refs.push_back(ref);
  }
  for (size_t s = 0; s < snaps.size(); ++s) {
    for (const auto& [idx, v] : refs[s]) {
      EXPECT_EQ(snaps[s].Get(idx), v) << "snapshot " << s << " idx " << idx;
    }
  }
}

// --- copy-on-write B+-tree --------------------------------------------

struct CowTreeWorld {
  std::unique_ptr<storage::InMemoryPageStore> store;
  std::unique_ptr<storage::BufferPool> pool;
  std::unique_ptr<storage::BPlusTree> tree;
  std::vector<storage::PageId> retired;

  explicit CowTreeWorld(uint32_t page_size = 512) {
    store = std::make_unique<storage::InMemoryPageStore>(page_size);
    pool = std::make_unique<storage::BufferPool>(store.get(), 1 << 14);
    auto t = storage::BPlusTree::CreateCow(
        pool.get(), [this](storage::PageId id) { retired.push_back(id); });
    tree = std::move(t).value();
  }
};

std::string Key(int i) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "k%08d", i);
  return buf;
}

TEST(CowBPlusTreeTest, SealedSnapshotSurvivesMutation) {
  CowTreeWorld w;
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(w.tree->Put(Key(i), "v" + std::to_string(i)).ok());
  }
  const storage::TreeSnapshot snap = w.tree->Seal();

  // Mutate heavily: overwrite, delete, insert.
  for (int i = 0; i < 500; i += 2) {
    ASSERT_TRUE(w.tree->Put(Key(i), "NEW" + std::to_string(i)).ok());
  }
  for (int i = 1; i < 500; i += 4) {
    ASSERT_TRUE(w.tree->Delete(Key(i)).ok());
  }
  for (int i = 500; i < 700; ++i) {
    ASSERT_TRUE(w.tree->Put(Key(i), "late").ok());
  }

  // The sealed version still reads exactly its contents...
  EXPECT_EQ(snap.size, 500u);
  std::string v;
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(w.tree->GetAt(snap, Key(i), &v).ok()) << i;
    EXPECT_EQ(v, "v" + std::to_string(i));
  }
  EXPECT_TRUE(w.tree->GetAt(snap, Key(600), &v).IsNotFound());
  // ...and in order.
  int count = 0;
  for (auto it = w.tree->BeginAt(snap); it->Valid(); it->Next()) ++count;
  EXPECT_EQ(count, 500);

  // The live tree reads the new state.
  ASSERT_TRUE(w.tree->Get(Key(0), &v).ok());
  EXPECT_EQ(v, "NEW0");
  EXPECT_TRUE(w.tree->Get(Key(1), &v).IsNotFound());
  // Mutating a sealed version shadowed pages into the retirer.
  EXPECT_GT(w.retired.size(), 0u);
}

TEST(CowBPlusTreeTest, RandomizedSnapshotsMatchReferenceMaps) {
  CowTreeWorld w;
  std::map<std::string, std::string> ref;
  std::vector<storage::TreeSnapshot> snaps;
  std::vector<std::map<std::string, std::string>> refs;
  Random rng(2005);
  for (int round = 0; round < 20; ++round) {
    for (int op = 0; op < 200; ++op) {
      const int k = static_cast<int>(rng.Uniform(800));
      if (rng.OneIn(4)) {
        Status st = w.tree->Delete(Key(k));
        if (ref.count(Key(k)) > 0) {
          EXPECT_TRUE(st.ok());
          ref.erase(Key(k));
        } else {
          EXPECT_TRUE(st.IsNotFound());
        }
      } else {
        const std::string v = "r" + std::to_string(rng.Uniform(10000));
        ASSERT_TRUE(w.tree->Put(Key(k), v).ok());
        ref[Key(k)] = v;
      }
    }
    snaps.push_back(w.tree->Seal());
    refs.push_back(ref);
  }
  // Every sealed version must match its reference map exactly — both by
  // point lookups and by full ordered iteration.
  for (size_t s = 0; s < snaps.size(); ++s) {
    EXPECT_EQ(snaps[s].size, refs[s].size());
    auto it = w.tree->BeginAt(snaps[s]);
    auto rit = refs[s].begin();
    while (it->Valid() && rit != refs[s].end()) {
      EXPECT_EQ(it->key().ToString(), rit->first);
      EXPECT_EQ(it->value().ToString(), rit->second);
      it->Next();
      ++rit;
    }
    EXPECT_FALSE(it->Valid());
    EXPECT_EQ(rit, refs[s].end());
    ASSERT_TRUE(it->status().ok());
  }
}

TEST(CowBPlusTreeTest, RetiredPagesAreSafeToFreeOnceSnapshotsDie) {
  CowTreeWorld w;
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(w.tree->Put(Key(i), std::string(40, 'x')).ok());
  }
  // Churn across many sealed generations, freeing each generation's
  // retired pages once its (only) snapshot is dropped — the working tree
  // must stay fully intact, proving shadowing never reuses dead pages.
  for (int gen = 0; gen < 10; ++gen) {
    w.tree->Seal();
    for (int i = 0; i < 300; i += 3) {
      ASSERT_TRUE(w.tree->Put(Key(i), "g" + std::to_string(gen)).ok());
    }
    for (storage::PageId id : w.retired) {
      ASSERT_TRUE(w.pool->FreePage(id).ok());
    }
    w.retired.clear();
  }
  std::string v;
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(w.tree->Get(Key(i), &v).ok()) << i;
  }
  // Live page count stays bounded by the tree's size, not by the churn.
  EXPECT_LT(w.tree->num_pages(), 200u);
}

// --- engine-level pinned ReadViews ------------------------------------

class PinnedViewTest : public ::testing::TestWithParam<index::Method> {};

TEST_P(PinnedViewTest, PinnedViewIsImmutableUnderWriterChurn) {
  workload::ConcurrentChurnConfig cfg;
  cfg.initial_docs = 400;
  cfg.vocab = 200;
  cfg.terms_per_doc = 12;
  core::SvrEngineOptions opt;
  opt.method = GetParam();
  opt.index_options.chunk.chunking.min_chunk_size = 1;
  opt.merge_policy.enabled = true;
  opt.merge_policy.min_short_postings = 8;
  opt.merge_policy.check_interval = 32;
  auto engine_r = workload::SetupChurnEngine(opt, cfg);
  ASSERT_TRUE(engine_r.ok()) << engine_r.status().ToString();
  auto engine = std::move(engine_r).value();
  const bool with_ts =
      engine->text_index()->name().find("TermScore") != std::string::npos;

  // Pin a view and record the answer plus the oracle at that view.
  core::SvrEngine::ReadView view = engine->PinReadView();
  ASSERT_TRUE(view.indexed());
  index::Query q;
  q.conjunctive = true;
  q.terms.push_back(engine->vocabulary()->Lookup("t1"));
  q.terms.push_back(engine->vocabulary()->Lookup("t2"));
  ASSERT_NE(q.terms[0], text::Vocabulary::kUnknownTerm);

  std::vector<index::SearchResult> before, oracle_at_view;
  ASSERT_TRUE(
      engine->text_index()->TopKAt(view.state->index, q, 20, &before).ok());
  ASSERT_TRUE(core::BruteForceOracle::TopKAt(
                  view.state->index.corpus,
                  relational::ScoreTable::View(view.state->index.score),
                  q, 20, with_ts, &oracle_at_view)
                  .ok());
  EXPECT_EQ(before, oracle_at_view)
      << "pinned query must match the oracle at the same view";

  // Writer churn: score moves, inserts, deletes, content updates —
  // enough to trigger merges and shadow many pages.
  Random rng(99);
  for (int i = 0; i < 300; ++i) {
    const int64_t id = static_cast<int64_t>(rng.Uniform(cfg.initial_docs));
    switch (rng.Uniform(4)) {
      case 0:
        ASSERT_TRUE(engine
                        ->Update("scores",
                                 {Value::Int(id),
                                  Value::Double(90000.0 + i)})
                        .ok());
        break;
      case 1:
        // Same carve-out as the driver: content updates leave the
        // *-TermScore methods' build-time term scores stale by design,
        // so oracle-checked runs redirect them into score churn.
        if (with_ts) {
          ASSERT_TRUE(engine
                          ->Update("scores", {Value::Int(id),
                                              Value::Double(70000.0 + i)})
                          .ok());
        } else {
          ASSERT_TRUE(
              engine
                  ->Update("docs", {Value::Int(id),
                                    Value::String("t1 t2 t3 fresh" +
                                                  std::to_string(i))})
                  .ok());
        }
        break;
      default:
        ASSERT_TRUE(engine
                        ->Update("scores",
                                 {Value::Int(id), Value::Double(5.0 + i)})
                        .ok());
        break;
    }
  }

  // The pinned view answers byte-for-byte identically.
  std::vector<index::SearchResult> after;
  ASSERT_TRUE(
      engine->text_index()->TopKAt(view.state->index, q, 20, &after).ok());
  EXPECT_EQ(before, after)
      << "a pinned view must be immutable under writer churn";

  // A fresh view reflects the churn and matches the oracle at *its*
  // version.
  core::SvrEngine::ReadView fresh = engine->PinReadView();
  EXPECT_GT(fresh.commit_ts(), view.commit_ts());
  std::vector<index::SearchResult> now, oracle_now;
  ASSERT_TRUE(
      engine->text_index()->TopKAt(fresh.state->index, q, 20, &now).ok());
  ASSERT_TRUE(core::BruteForceOracle::TopKAt(
                  fresh.state->index.corpus,
                  relational::ScoreTable::View(fresh.state->index.score),
                  q, 20, with_ts, &oracle_now)
                  .ok());
  EXPECT_EQ(now, oracle_now);
}

INSTANTIATE_TEST_SUITE_P(AllMethods, PinnedViewTest,
                         ::testing::Values(index::Method::kId,
                                           index::Method::kIdTermScore,
                                           index::Method::kChunk,
                                           index::Method::kChunkTermScore,
                                           index::Method::kScoreThreshold));

// The TSan-facing variant: real writer threads race a reader that holds
// one pinned view across many queries; every repetition must return the
// identical result and match the oracle at the pinned version.
class PinnedViewRaceTest : public ::testing::TestWithParam<index::Method> {
};

TEST_P(PinnedViewRaceTest, HeldViewStaysConsistentWhileWritersRace) {
  workload::ConcurrentChurnConfig cfg;
  cfg.initial_docs = kTsanBuild ? 200 : 500;
  cfg.vocab = 150;
  cfg.terms_per_doc = 10;
  core::SvrEngineOptions opt;
  opt.method = GetParam();
  opt.index_options.chunk.chunking.min_chunk_size = 1;
  opt.merge_policy.enabled = true;
  opt.merge_policy.min_short_postings = 8;
  opt.merge_policy.check_interval = 32;
  opt.background_merge = true;
  auto engine_r = workload::SetupChurnEngine(opt, cfg);
  ASSERT_TRUE(engine_r.ok()) << engine_r.status().ToString();
  auto engine = std::move(engine_r).value();
  const bool with_ts =
      engine->text_index()->name().find("TermScore") != std::string::npos;

  // The writer keeps going past its ops until the reader has finished
  // kMinRounds rounds (or given up), so that many rounds run while it
  // writes even when the host runs all its ops before the reader is
  // scheduled. A failed update ends the writer, never the reader's
  // loop condition.
  constexpr int kMinRounds = 3;
  std::atomic<bool> done{false};
  std::atomic<int> rounds{0};
  std::atomic<bool> reader_quit{false};
  std::thread writer([&] {
    Random rng(1234);
    const int ops = kTsanBuild ? 300 : 1500;
    for (int i = 0; i < ops || (rounds.load() < kMinRounds &&
                                !reader_quit.load());
         ++i) {
      const int64_t id =
          static_cast<int64_t>(rng.Uniform(cfg.initial_docs));
      Status st = engine->Update(
          "scores",
          {Value::Int(id), Value::Double(1.0 + rng.Uniform(100000))});
      EXPECT_TRUE(st.ok()) << st.ToString();
      if (!st.ok()) break;
    }
    done.store(true, std::memory_order_release);
  });

  index::Query q;
  q.conjunctive = true;
  q.terms.push_back(engine->vocabulary()->Lookup("t0"));
  q.terms.push_back(engine->vocabulary()->Lookup("t3"));
  Status reader_status;
  while (!done.load(std::memory_order_acquire)) {
    core::SvrEngine::ReadView view = engine->PinReadView();
    std::vector<index::SearchResult> first;
    Status st =
        engine->text_index()->TopKAt(view.state->index, q, 15, &first);
    if (!st.ok()) {
      reader_status = st;
      break;
    }
    // Re-query the held view several times while the writer churns; it
    // must never move. Then check it against the oracle at the view.
    for (int rep = 0; rep < 3; ++rep) {
      std::vector<index::SearchResult> again;
      st = engine->text_index()->TopKAt(view.state->index, q, 15, &again);
      if (!st.ok() || again != first) {
        reader_status = st.ok() ? Status::Internal("pinned view moved")
                                : st;
        break;
      }
    }
    if (!reader_status.ok()) break;
    std::vector<index::SearchResult> want;
    st = core::BruteForceOracle::TopKAt(
        view.state->index.corpus,
        relational::ScoreTable::View(view.state->index.score),
        q, 15, with_ts, &want);
    if (!st.ok() || first != want) {
      reader_status =
          st.ok() ? Status::Internal("pinned view diverged from oracle")
                  : st;
      break;
    }
    rounds.fetch_add(1);
  }
  reader_quit.store(true);
  writer.join();
  EXPECT_TRUE(reader_status.ok()) << reader_status.ToString();
  EXPECT_GE(rounds.load(), kMinRounds);
  engine->Stop();
}

INSTANTIATE_TEST_SUITE_P(AllMethods, PinnedViewRaceTest,
                         ::testing::Values(index::Method::kId,
                                           index::Method::kIdTermScore,
                                           index::Method::kChunk,
                                           index::Method::kChunkTermScore,
                                           index::Method::kScoreThreshold));

// --- cross-shard pinned views -----------------------------------------

TEST(ShardedPinnedViewTest, GatherAtPinnedWatermarkNeverMoves) {
  core::ShardedSvrEngineOptions opt;
  opt.num_shards = 2;
  opt.shard.method = index::Method::kChunk;
  opt.shard.index_options.chunk.chunking.min_chunk_size = 1;
  auto engine_r = core::ShardedSvrEngine::Open(opt);
  ASSERT_TRUE(engine_r.ok());
  auto engine = std::move(engine_r).value();

  ASSERT_TRUE(engine
                  ->CreateTable("docs", relational::Schema(
                                            {{"id", relational::ValueType::
                                                        kInt64},
                                             {"text", relational::ValueType::
                                                          kString}},
                                            0))
                  .ok());
  ASSERT_TRUE(
      engine
          ->CreateTable("scores",
                        relational::Schema(
                            {{"id", relational::ValueType::kInt64},
                             {"val", relational::ValueType::kDouble}},
                            0))
          .ok());
  // 30 docs, all holding token "tie"; a band of equal scores spans both
  // shards so the global k-boundary cuts through a cross-shard tie.
  for (int64_t id = 0; id < 30; ++id) {
    ASSERT_TRUE(engine
                    ->Insert("docs", {Value::Int(id),
                                      Value::String("tie other" +
                                                    std::to_string(id))})
                    .ok());
    const double score = id < 10 ? 1000.0 - id : 500.0;  // 20-way tie
    ASSERT_TRUE(engine
                    ->Insert("scores",
                             {Value::Int(id), Value::Double(score)})
                    .ok());
  }
  ASSERT_TRUE(engine
                  ->CreateTextIndex(
                      "docs", "text",
                      {{"S1", "scores", "id", "val",
                        relational::AggregateKind::kValue}},
                      relational::AggFunction::WeightedSum({1.0}))
                  .ok());

  // k = 15 cuts inside the 20-way tie at score 500.
  core::ShardedReadView view = engine->PinReadViewAll();
  ASSERT_EQ(view.shards.size(), 2u);
  EXPECT_GT(view.watermark, 0u);
  auto before_r = engine->SearchAt(view, "tie", 15);
  ASSERT_TRUE(before_r.ok()) << before_r.status().ToString();
  const std::vector<core::ScoredRow> before = std::move(before_r).value();
  ASSERT_EQ(before.size(), 15u);
  // Tie break is (score desc, global id asc): ids 0..9 then 10..14.
  for (size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(before[i].pk, static_cast<int64_t>(i)) << "rank " << i;
  }

  // Concurrent-style churn *after* the pin: score moves on both shards.
  for (int64_t id = 0; id < 30; id += 3) {
    ASSERT_TRUE(engine
                    ->Update("scores",
                             {Value::Int(id), Value::Double(5000.0 + id)})
                    .ok());
  }

  // The pinned gather is a true snapshot: identical results, same order.
  auto after_r = engine->SearchAt(view, "tie", 15);
  ASSERT_TRUE(after_r.ok());
  const std::vector<core::ScoredRow> after = std::move(after_r).value();
  ASSERT_EQ(after.size(), before.size());
  for (size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(after[i].pk, before[i].pk) << "rank " << i;
    EXPECT_EQ(after[i].score, before[i].score) << "rank " << i;
  }

  // A fresh pin observes the churn (and a larger watermark).
  core::ShardedReadView fresh = engine->PinReadViewAll();
  EXPECT_GT(fresh.watermark, view.watermark);
  auto now_r = engine->SearchAt(fresh, "tie", 15);
  ASSERT_TRUE(now_r.ok());
  EXPECT_EQ(std::move(now_r).value().front().score, 5027.0);
}

TEST(ShardedPinnedViewTest, QueryPoolScatterMatchesSequential) {
  workload::ConcurrentChurnConfig cfg;
  cfg.initial_docs = 300;
  cfg.vocab = 150;
  cfg.terms_per_doc = 10;

  core::ShardedSvrEngineOptions seq;
  seq.num_shards = 4;
  seq.shard.index_options.chunk.chunking.min_chunk_size = 1;
  core::ShardedSvrEngineOptions pooled = seq;
  pooled.num_query_threads = 3;

  auto e1 = workload::SetupShardedChurnEngine(seq, cfg);
  ASSERT_TRUE(e1.ok()) << e1.status().ToString();
  auto e2 = workload::SetupShardedChurnEngine(pooled, cfg);
  ASSERT_TRUE(e2.ok()) << e2.status().ToString();

  // Same data, same queries: the pooled scatter must return the exact
  // sequential answer. Issue from several threads to exercise
  // concurrent RunAll batches (TSan target).
  std::vector<std::thread> askers;
  std::atomic<int> failures{0};
  for (int t = 0; t < 3; ++t) {
    askers.emplace_back([&, t] {
      Random rng(77 * (t + 1));
      for (int i = 0; i < 25; ++i) {
        const std::string kw =
            "t" + std::to_string(rng.Uniform(20)) + " t" +
            std::to_string(rng.Uniform(20));
        auto r1 = e1.value()->Search(kw, 10);
        auto r2 = e2.value()->Search(kw, 10);
        if (!r1.ok() || !r2.ok()) {
          ++failures;
          continue;
        }
        const auto& a = r1.value();
        const auto& b = r2.value();
        if (a.size() != b.size()) {
          ++failures;
          continue;
        }
        for (size_t j = 0; j < a.size(); ++j) {
          if (a[j].pk != b[j].pk || a[j].score != b[j].score) ++failures;
        }
      }
    });
  }
  for (auto& t : askers) t.join();
  EXPECT_EQ(failures.load(), 0);
}

// --- fully-merged sweep (list-state retirement) ------------------------

class ListStateSweepTest : public ::testing::TestWithParam<index::Method> {
};

TEST_P(ListStateSweepTest, FullyMergedDocsRetireTheirEntries) {
  workload::ConcurrentChurnConfig cfg;
  cfg.initial_docs = 400;
  cfg.vocab = 120;
  cfg.terms_per_doc = 10;
  core::SvrEngineOptions opt;
  opt.method = GetParam();
  opt.index_options.chunk.chunking.min_chunk_size = 1;
  auto engine_r = workload::SetupChurnEngine(opt, cfg);
  ASSERT_TRUE(engine_r.ok()) << engine_r.status().ToString();
  auto engine = std::move(engine_r).value();

  auto list_state_size = [&] {
    return engine->text_index()->ListStateSize();
  };

  // Move many documents into the short lists (big score climbs).
  for (int64_t id = 0; id < 200; ++id) {
    ASSERT_TRUE(engine
                    ->Update("scores", {Value::Int(id),
                                        Value::Double(500000.0 + id)})
                    .ok());
  }
  const uint64_t entries_before = list_state_size();
  ASSERT_GT(entries_before, 0u);

  // Merge every term: each moved doc's postings land at its current
  // position; the sweep must retire the now-redundant in_short entries
  // instead of leaving them until a RebuildIndex (the PR-2 behaviour).
  ASSERT_TRUE(engine->text_index()->MergeAllTerms().ok());
  EXPECT_EQ(engine->text_index()->ShortPostingCount(), 0u);
  const uint64_t entries_after = list_state_size();
  EXPECT_LT(entries_after, entries_before);
  EXPECT_GT(engine->text_index()->stats().list_state_retired, 0u);

  // Correctness after retirement: queries still match the oracle, and a
  // *second* round of moves over retired docs rebuilds entries cleanly.
  for (int64_t id = 0; id < 200; id += 2) {
    ASSERT_TRUE(engine
                    ->Update("scores", {Value::Int(id),
                                        Value::Double(900000.0 + id)})
                    .ok());
  }
  core::BruteForceOracle oracle(engine->corpus(), engine->score_table());
  const bool with_ts =
      engine->text_index()->name().find("TermScore") != std::string::npos;
  Random rng(5);
  for (int i = 0; i < 20; ++i) {
    index::Query q;
    q.conjunctive = true;
    const TermId t =
        engine->vocabulary()->Lookup("t" + std::to_string(rng.Uniform(20)));
    if (t == text::Vocabulary::kUnknownTerm) continue;
    q.terms.push_back(t);
    std::vector<index::SearchResult> got, want;
    ASSERT_TRUE(engine->text_index()->TopK(q, 25, &got).ok());
    ASSERT_TRUE(oracle.TopK(q, 25, with_ts, &want).ok());
    ASSERT_EQ(got.size(), want.size()) << "term " << t;
    for (size_t j = 0; j < got.size(); ++j) {
      EXPECT_EQ(got[j].doc, want[j].doc) << "term " << t << " rank " << j;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(ListStateMethods, ListStateSweepTest,
                         ::testing::Values(index::Method::kChunk,
                                           index::Method::kChunkTermScore,
                                           index::Method::kScoreThreshold));

// --- judge columns ------------------------------------------------------

TEST(JudgeColumnTest, SealedVersionsIgnoreLaterWrites) {
  using Slot = relational::ScoreTable::Slot;
  auto scores = relational::ScoreTable::Create();
  auto chunks = index::ListChunkTable::Create();
  constexpr DocId kDocs = 1000;  // several VersionedArray chunks
  for (DocId d = 0; d < kDocs; d += 2) {
    ASSERT_TRUE(scores->Set(d, 1.5 * d).ok());
    chunks->Put(d, d % 7, d % 3 == 0);
  }
  const relational::ScoreTable::View sealed(scores->Seal());
  const index::ListChunkTable::Snapshot sealed_chunks = chunks->Seal();

  Random rng(11);
  for (int i = 0; i < 3000; ++i) {
    const DocId d = static_cast<DocId>(rng.Uniform(kDocs + 300));
    if (i % 3 == 0) {
      (void)scores->MarkDeleted(d);  // NotFound for never-scored docs
      chunks->Remove(d);
    } else {
      ASSERT_TRUE(scores->Set(d, -1.0 * i).ok());
      chunks->Put(d, static_cast<ChunkId>(i), true);
    }
  }
  chunks->Clear();

  for (DocId d = 0; d < kDocs + 300; ++d) {
    const Slot slot = sealed.At(d);
    const index::ListChunkTable::Slot e =
        index::ListChunkTable::GetAt(sealed_chunks, d);
    if (d < kDocs && d % 2 == 0) {
      EXPECT_TRUE(slot.live()) << "doc " << d;
      EXPECT_EQ(slot.score, 1.5 * d) << "doc " << d;
      ASSERT_TRUE(e.recorded()) << "doc " << d;
      EXPECT_EQ(e.list_value, d % 7);
      EXPECT_EQ(e.in_short(), d % 3 == 0);
    } else {
      EXPECT_EQ(slot.state, Slot::State::kAbsent) << "doc " << d;
      EXPECT_FALSE(e.recorded()) << "doc " << d;
    }
  }
  EXPECT_EQ(chunks->size(), 0u);
}

// Cross-checks the judge columns after concurrent churn against sources
// the oracle does not share: the shard's relational rows, re-aggregated
// by a fresh ScoreView, and the docs table itself.
TEST(JudgeColumnTest, PinnedColumnsMatchRelationalRowsAfterChurn) {
  workload::ConcurrentChurnConfig cfg;
  cfg.initial_docs = kTsanBuild ? 300 : 900;
  cfg.vocab = kTsanBuild ? 200 : 500;
  cfg.terms_per_doc = 12;
  cfg.writer_ops = kTsanBuild ? 600 : 3000;
  cfg.query_threads = 1;

  core::ShardedSvrEngineOptions opt;
  opt.num_shards = 2;
  opt.num_query_threads = 2;
  opt.shard.method = index::Method::kChunk;
  opt.shard.index_options.chunk.chunking.min_chunk_size = 1;
  opt.shard.merge_policy.enabled = true;
  opt.shard.merge_policy.short_ratio = 0.1;
  opt.shard.merge_policy.min_short_postings = 8;
  opt.shard.merge_policy.check_interval = 64;
  opt.shard.background_merge = true;
  opt.shard.scheduler.workers = 2;

  auto engine_r = workload::SetupShardedChurnEngine(opt, cfg);
  ASSERT_TRUE(engine_r.ok()) << engine_r.status().ToString();
  auto engine = std::move(engine_r).value();
  auto churn = workload::RunShardedChurn(engine.get(), cfg,
                                         /*writer_threads=*/2, /*run_ms=*/0);
  ASSERT_TRUE(churn.ok()) << churn.status().ToString();
  ASSERT_GT(churn.value().stats.total.index.score_updates, 0u);

  // Stopping joins the merge workers, so the relational tables read
  // below are quiescent; the columns are read at a pinned view.
  engine->Stop();
  const core::ShardedReadView view = engine->PinReadViewAll();
  uint64_t deleted_docs = 0;
  for (uint32_t s = 0; s < engine->num_shards(); ++s) {
    core::SvrEngine* shard = engine->shard(s);
    ASSERT_TRUE(view.shards[s].indexed());
    const index::IndexSnapshot& snap = view.shards[s].state->index;
    const relational::ScoreTable::View column(snap.score);

    auto fresh_table = relational::ScoreTable::Create();
    relational::ScoreView fresh(
        shard->database(), "docs",
        {{"S1", "scores", "id", "val", relational::AggregateKind::kValue}},
        relational::AggFunction::WeightedSum({1.0}), fresh_table.get());
    ASSERT_TRUE(fresh.FullRefresh().ok());

    const auto* chunk_index =
        dynamic_cast<const index::ChunkIndexBase*>(shard->text_index());
    ASSERT_NE(chunk_index, nullptr);
    relational::Table* docs = shard->database()->GetTable("docs");
    ASSERT_NE(docs, nullptr);
    for (DocId d = 0; d < snap.corpus.num_docs(); ++d) {
      const relational::ScoreTable::Slot slot = column.At(d);
      ASSERT_NE(slot.state, relational::ScoreTable::Slot::State::kAbsent)
          << "shard " << s << " doc " << d;
      EXPECT_EQ(slot.score, fresh.ScoreOf(d))
          << "shard " << s << " doc " << d;
      relational::Row row;
      const bool has_row = docs->Get(static_cast<int64_t>(d), &row).ok();
      EXPECT_EQ(slot.deleted(), !has_row) << "shard " << s << " doc " << d;
      if (slot.deleted()) ++deleted_docs;

      bool in_short = false;
      const ChunkId l_chunk = chunk_index->ListPositionOfAt(
          snap.list_state, column, d, &in_short);
      EXPECT_LE(chunk_index->PositionOf(slot.score),
                chunk_index->thresholdValueOf(l_chunk))
          << "shard " << s << " doc " << d;
    }
  }
  EXPECT_GT(deleted_docs, 0u);
}

// --- row column ---------------------------------------------------------

// A search copies each hit's row from the row column sealed with the
// version it read. The benches compare only (pk, score), so these tests
// are what checks the rows themselves.

// A view pinned before content updates, non-text updates and deletes
// still joins the rows of its version; a fresh view joins the new rows.
TEST(RowColumnTest, PinnedViewJoinsRowsOfItsVersion) {
  auto engine_r = core::SvrEngine::Open(core::SvrEngineOptions());
  ASSERT_TRUE(engine_r.ok());
  auto engine = std::move(engine_r).value();
  ASSERT_TRUE(engine
                  ->CreateTable(
                      "docs",
                      relational::Schema(
                          {{"id", relational::ValueType::kInt64},
                           {"text", relational::ValueType::kString},
                           {"note", relational::ValueType::kString}},
                          0))
                  .ok());
  ASSERT_TRUE(
      engine
          ->CreateTable("scores",
                        relational::Schema(
                            {{"id", relational::ValueType::kInt64},
                             {"val", relational::ValueType::kDouble}},
                            0))
          .ok());
  constexpr int64_t kDocs = 600;  // spans three column chunks
  std::map<int64_t, relational::Row> old_rows;
  for (int64_t id = 0; id < kDocs; ++id) {
    relational::Row row = {Value::Int(id),
                           Value::String("common w" + std::to_string(id % 10)),
                           Value::String("v0")};
    ASSERT_TRUE(engine->Insert("docs", row).ok());
    ASSERT_TRUE(
        engine->Insert("scores", {Value::Int(id), Value::Double(1.0 * id)})
            .ok());
    old_rows[id] = row;
  }
  ASSERT_TRUE(engine
                  ->CreateTextIndex(
                      "docs", "text",
                      {{"S1", "scores", "id", "val",
                        relational::AggregateKind::kValue}},
                      relational::AggFunction::WeightedSum({1.0}))
                  .ok());
  // One document inserted after the index exists joins like the rest.
  {
    relational::Row row = {Value::Int(kDocs), Value::String("common late"),
                           Value::String("v0")};
    ASSERT_TRUE(engine->Insert("docs", row).ok());
    ASSERT_TRUE(engine
                    ->Insert("scores",
                             {Value::Int(kDocs), Value::Double(1.0 * kDocs)})
                    .ok());
    old_rows[kDocs] = row;
  }

  const core::SvrEngine::ReadView before = engine->PinReadView();
  std::map<int64_t, relational::Row> new_rows = old_rows;
  for (int64_t id = 0; id <= kDocs; ++id) {
    if (id % 5 == 2) {
      ASSERT_TRUE(engine->Delete("docs", id).ok());
      new_rows.erase(id);
    } else if (id % 3 == 0) {  // content update
      relational::Row row = {Value::Int(id),
                             Value::String("common fresh" +
                                           std::to_string(id)),
                             Value::String("v1")};
      ASSERT_TRUE(engine->Update("docs", row).ok());
      new_rows[id] = row;
    } else if (id % 3 == 1) {  // same text, other column changed
      relational::Row row = old_rows[id];
      row[2] = Value::String("v1");
      ASSERT_TRUE(engine->Update("docs", row).ok());
      new_rows[id] = row;
    }
  }

  auto check = [&](const std::vector<core::ScoredRow>& hits,
                   const std::map<int64_t, relational::Row>& expected,
                   const std::string& where) {
    EXPECT_EQ(hits.size(), expected.size()) << where;
    for (const core::ScoredRow& hit : hits) {
      const auto it = expected.find(hit.pk);
      ASSERT_NE(it, expected.end()) << where << " pk " << hit.pk;
      EXPECT_TRUE(hit.row == it->second) << where << " pk " << hit.pk;
    }
  };
  const size_t all = static_cast<size_t>(kDocs) + 1;
  auto old_hits = engine->SearchAt(before, "common", all);
  ASSERT_TRUE(old_hits.ok()) << old_hits.status().ToString();
  check(old_hits.value(), old_rows, "pinned view");
  auto new_hits = engine->Search("common", all);
  ASSERT_TRUE(new_hits.ok()) << new_hits.status().ToString();
  check(new_hits.value(), new_rows, "fresh view");

  // A term only the new content holds: absent at the pinned version.
  auto fresh = engine->SearchAt(before, "fresh3", 10);
  ASSERT_TRUE(fresh.ok());
  EXPECT_TRUE(fresh.value().empty());
  fresh = engine->Search("fresh3", 10);
  ASSERT_TRUE(fresh.ok());
  ASSERT_EQ(fresh.value().size(), 1u);
  EXPECT_TRUE(fresh.value()[0].row == new_rows[3]);
}

// Every row Search returns equals Table::Get of its (shard, local) row
// with the pk column rewritten to the global key.
void ExpectSearchRowsMatchTables(core::ShardedSvrEngine* engine,
                                 const workload::ConcurrentChurnConfig& cfg,
                                 const std::string& where) {
  const uint32_t frequent = std::max<uint32_t>(10, cfg.vocab / 20);
  size_t checked = 0;
  for (uint32_t q = 0; q < 40; ++q) {
    std::string keywords = "t" + std::to_string(q % frequent);
    if (q % 2 == 1) keywords += " t" + std::to_string((7 * q) % frequent);
    for (const bool conjunctive : {true, false}) {
      auto r = engine->Search(keywords, cfg.top_k, conjunctive);
      ASSERT_TRUE(r.ok()) << where << ": " << r.status().ToString();
      for (const core::ScoredRow& hit : r.value()) {
        auto loc = engine->Route(hit.pk);
        ASSERT_TRUE(loc.ok()) << where << " gid " << hit.pk;
        relational::Table* docs =
            engine->shard(loc.value().first)->database()->GetTable("docs");
        ASSERT_NE(docs, nullptr);
        relational::Row row;
        ASSERT_TRUE(docs->Get(loc.value().second, &row).ok())
            << where << " gid " << hit.pk;
        row[0] = Value::Int(hit.pk);
        EXPECT_TRUE(hit.row == row) << where << " gid " << hit.pk;
        ++checked;
      }
    }
  }
  EXPECT_GT(checked, 200u) << where;
}

// Sharded churn (content updates, deletes, inserts, racing searches) on
// 1 and 3 shards, then the same check after a reopen from the WAL.
TEST(RowColumnTest, SearchRowsMatchTablesAfterChurnAndReopen) {
  workload::ConcurrentChurnConfig cfg;
  cfg.initial_docs = kTsanBuild ? 300 : 900;
  cfg.vocab = kTsanBuild ? 200 : 400;
  cfg.terms_per_doc = 12;
  cfg.writer_ops = kTsanBuild ? 400 : 2000;
  cfg.insert_pct = 10.0;
  cfg.delete_pct = 5.0;
  cfg.content_pct = 30.0;
  cfg.query_threads = 1;
  cfg.top_k = 30;

  for (const uint32_t shards : {1u, 3u}) {
    const std::string where = std::to_string(shards) + " shard(s)";
    const std::string dir = "mvcc_test_row_column_" + std::to_string(shards);
    ASSERT_TRUE(workload::WipeDirectory(dir).ok());
    core::ShardedSvrEngineOptions opt;
    opt.num_shards = shards;
    opt.num_query_threads = shards;
    opt.shard.method = index::Method::kChunk;
    opt.shard.index_options.chunk.chunking.min_chunk_size = 1;
    opt.shard.merge_policy.enabled = true;
    opt.shard.merge_policy.min_short_postings = 8;
    opt.shard.merge_policy.check_interval = 64;
    opt.shard.background_merge = true;
    opt.durability.enabled = true;
    opt.durability.dir = dir;
    {
      auto engine_r = workload::SetupShardedChurnEngine(opt, cfg);
      ASSERT_TRUE(engine_r.ok()) << engine_r.status().ToString();
      auto engine = std::move(engine_r).value();
      auto churn = workload::RunShardedChurn(engine.get(), cfg,
                                             /*writer_threads=*/2,
                                             /*run_ms=*/0);
      ASSERT_TRUE(churn.ok()) << churn.status().ToString();
      engine->Stop();  // quiescent tables for Table::Get
      ExpectSearchRowsMatchTables(engine.get(), cfg, where);
    }
    auto reopened_r = core::ShardedSvrEngine::Open(opt);
    ASSERT_TRUE(reopened_r.ok()) << reopened_r.status().ToString();
    auto reopened = std::move(reopened_r).value();
    ASSERT_TRUE(reopened->recovery_stats().ran);
    EXPECT_EQ(reopened->recovery_stats().replay_errors, 0u);
    reopened->Stop();
    ExpectSearchRowsMatchTables(reopened.get(), cfg, where + ", reopened");
  }
}

}  // namespace
}  // namespace svr
