// Sharded-engine tests (docs/sharding.md):
//  - DML routing units: the global-id -> (shard, local) map, its
//    inverse, hash stability, per-shard density, join-routed component
//    tables, and the pk restoration in search results.
//  - Scatter-gather correctness: for every index method, the sharded
//    top-k must equal the single-engine answer — same documents, same
//    scores, same order — across mixed insert/delete/content/score
//    churn, including deliberate score ties (broken by global id on
//    both sides).
//  - Concurrent churn: multi-writer sharded DML racing scatter-gather
//    queries, with every validated query checked per shard against the
//    brute-force oracle under ReadSnapshotAll.
//  - The shard write lock: racing fresh-key inserts and checkpoints on
//    a durable engine keep every shard's local ids dense, before and
//    after a restart.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "core/oracle.h"
#include "core/sharded_engine.h"
#include "core/svr_engine.h"
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

using core::ShardedSvrEngine;
using core::ShardedSvrEngineOptions;
using core::SvrEngine;
using core::SvrEngineOptions;
using relational::AggFunction;
using relational::AggregateKind;
using relational::Schema;
using relational::Value;
using relational::ValueType;

std::string DocText(Random* rng, uint32_t vocab, uint32_t terms) {
  std::string text;
  for (uint32_t i = 0; i < terms; ++i) {
    if (!text.empty()) text.push_back(' ');
    text += "t" + std::to_string(rng->Uniform(vocab));
  }
  return text;
}

/// One scripted DML op, applied identically to both engines.
struct ChurnOp {
  enum Kind { kInsert, kDelete, kContent, kScore } kind;
  int64_t id;
  std::string text;
  double score;
};

/// Deterministic mixed-churn script over ids 0..initial_docs-1 plus the
/// documents it inserts itself.
std::vector<ChurnOp> MakeChurnScript(uint32_t initial_docs, uint32_t ops,
                                     uint32_t vocab, uint32_t terms,
                                     bool content_updates, uint64_t seed) {
  Random rng(seed);
  std::vector<ChurnOp> script;
  std::vector<bool> alive(initial_docs, true);
  int64_t next_id = initial_docs;
  auto pick_alive = [&]() -> int64_t {
    for (int tries = 0; tries < 64; ++tries) {
      const size_t d = rng.Uniform(alive.size());
      if (alive[d]) return static_cast<int64_t>(d);
    }
    return -1;
  };
  for (uint32_t i = 0; i < ops; ++i) {
    const double roll = rng.NextDouble() * 100.0;
    if (roll < 10.0) {
      script.push_back({ChurnOp::kInsert, next_id++,
                        DocText(&rng, vocab, terms),
                        1.0 + rng.NextDouble() * 1000.0});
      alive.push_back(true);
    } else if (roll < 14.0) {
      const int64_t id = pick_alive();
      if (id < 0) continue;
      script.push_back({ChurnOp::kDelete, id, "", 0.0});
      alive[id] = false;
    } else if (content_updates && roll < 24.0) {
      const int64_t id = pick_alive();
      if (id < 0) continue;
      script.push_back({ChurnOp::kContent, id,
                        DocText(&rng, vocab, terms), 0.0});
    } else {
      const int64_t id = pick_alive();
      if (id < 0) continue;
      script.push_back({ChurnOp::kScore, id, "",
                        1.0 + rng.NextDouble() * 1000.0});
    }
  }
  return script;
}

/// Both engines expose the same DML surface; the script runs verbatim
/// against either.
template <typename Engine>
void ApplyScript(Engine* engine, const std::vector<ChurnOp>& script) {
  for (const ChurnOp& op : script) {
    Status st;
    switch (op.kind) {
      case ChurnOp::kInsert:
        st = engine->Insert("docs", {Value::Int(op.id),
                                     Value::String(op.text)});
        ASSERT_TRUE(st.ok()) << st.ToString();
        st = engine->Insert("scores", {Value::Int(op.id),
                                       Value::Double(op.score)});
        break;
      case ChurnOp::kDelete:
        st = engine->Delete("docs", op.id);
        break;
      case ChurnOp::kContent:
        st = engine->Update("docs", {Value::Int(op.id),
                                     Value::String(op.text)});
        break;
      case ChurnOp::kScore:
        st = engine->Update("scores", {Value::Int(op.id),
                                       Value::Double(op.score)});
        break;
    }
    ASSERT_TRUE(st.ok()) << st.ToString();
  }
}

template <typename Engine>
void SetupDocsAndScores(Engine* engine, uint32_t initial_docs,
                        uint32_t vocab, uint32_t terms, uint64_t seed) {
  ASSERT_TRUE(engine
                  ->CreateTable("docs", Schema({{"id", ValueType::kInt64},
                                                {"text",
                                                 ValueType::kString}},
                                               0))
                  .ok());
  ASSERT_TRUE(engine
                  ->CreateTable("scores",
                                Schema({{"id", ValueType::kInt64},
                                        {"val", ValueType::kDouble}},
                                       0))
                  .ok());
  Random rng(seed);
  for (uint32_t d = 0; d < initial_docs; ++d) {
    ASSERT_TRUE(engine
                    ->Insert("docs", {Value::Int(d),
                                      Value::String(DocText(&rng, vocab,
                                                            terms))})
                    .ok());
    ASSERT_TRUE(engine
                    ->Insert("scores",
                             {Value::Int(d),
                              Value::Double(1.0 + rng.NextDouble() *
                                                      1000.0)})
                    .ok());
  }
  Status st = engine->CreateTextIndex(
      "docs", "text",
      {{"S1", "scores", "id", "val", AggregateKind::kValue}},
      AggFunction::WeightedSum({1.0}));
  ASSERT_TRUE(st.ok()) << st.ToString();
}

// --- DML routing units ------------------------------------------------

class ShardedRoutingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ShardedSvrEngineOptions opt;
    opt.num_shards = 3;
    opt.shard.method = index::Method::kChunk;
    opt.shard.index_options.chunk.chunking.min_chunk_size = 1;
    auto e = ShardedSvrEngine::Open(opt);
    ASSERT_TRUE(e.ok()) << e.status().ToString();
    engine_ = std::move(e).value();
    SetupDocsAndScores(engine_.get(), kDocs, 60, 8, 7);
  }

  static constexpr uint32_t kDocs = 90;
  std::unique_ptr<ShardedSvrEngine> engine_;
};

TEST_F(ShardedRoutingTest, EveryKeyRoutesToItsHashShardDensely) {
  std::vector<uint32_t> per_shard(engine_->num_shards(), 0);
  for (int64_t gid = 0; gid < kDocs; ++gid) {
    auto route = engine_->Route(gid);
    ASSERT_TRUE(route.ok()) << route.status().ToString();
    const auto [shard, local] = route.value();
    EXPECT_EQ(shard, engine_->ShardOf(gid));
    // Locals are assigned densely in arrival order, so within a shard
    // the local sequence enumerates 0,1,2,... as gids arrive.
    EXPECT_EQ(local, per_shard[shard]);
    ++per_shard[shard];
    EXPECT_EQ(engine_->GlobalIdOf(shard, local), gid);
  }
  uint32_t total = 0;
  for (uint32_t s = 0; s < engine_->num_shards(); ++s) {
    EXPECT_EQ(engine_->shard(s)->corpus()->num_docs(), per_shard[s]);
    EXPECT_GT(per_shard[s], 0u) << "hash left shard " << s << " empty";
    total += per_shard[s];
  }
  EXPECT_EQ(total, kDocs);
  EXPECT_EQ(engine_->GetStats().num_ids, kDocs);
}

TEST_F(ShardedRoutingTest, UnknownKeysAreNotFound) {
  EXPECT_TRUE(engine_->Route(kDocs + 500).status().IsNotFound());
  EXPECT_EQ(engine_->GlobalIdOf(0, 100000), ShardedSvrEngine::kInvalidGlobalId);
  EXPECT_TRUE(engine_
                  ->Update("scores", {Value::Int(kDocs + 500),
                                      Value::Double(1.0)})
                  .IsNotFound());
  EXPECT_TRUE(engine_->Delete("docs", kDocs + 500).IsNotFound());
}

TEST_F(ShardedRoutingTest, SearchRestoresGlobalKeysInRowsAndPks) {
  // Give one known document a dominant score and find it by content.
  const int64_t winner = 41;
  ASSERT_TRUE(engine_
                  ->Update("docs", {Value::Int(winner),
                                    Value::String("zebra quark zebra")})
                  .ok());
  ASSERT_TRUE(engine_
                  ->Update("scores", {Value::Int(winner),
                                      Value::Double(999999.0)})
                  .ok());
  auto r = engine_->Search("zebra", 5);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_FALSE(r.value().empty());
  const core::ScoredRow& hit = r.value().front();
  EXPECT_EQ(hit.pk, winner);
  // The row's pk column carries the *global* key, not the shard-local
  // document id it is stored under.
  EXPECT_EQ(hit.row[0].as_int(), winner);
  EXPECT_EQ(hit.row[1].as_string(), "zebra quark zebra");
}

TEST_F(ShardedRoutingTest, DeleteRoutesToOwningShardAndHidesTheDoc) {
  const int64_t victim = 17;
  ASSERT_TRUE(engine_
                  ->Update("docs", {Value::Int(victim),
                                    Value::String("xylophone only here")})
                  .ok());
  ASSERT_TRUE(engine_
                  ->Update("scores", {Value::Int(victim),
                                      Value::Double(500000.0)})
                  .ok());
  auto before = engine_->Search("xylophone", 3);
  ASSERT_TRUE(before.ok());
  ASSERT_FALSE(before.value().empty());
  EXPECT_EQ(before.value().front().pk, victim);

  ASSERT_TRUE(engine_->Delete("docs", victim).ok());
  auto after = engine_->Search("xylophone", 3);
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(after.value().empty());
}

TEST_F(ShardedRoutingTest, FailedFreshInsertRollsItsAllocationBack) {
  // A malformed row for a never-seen key fails inside the shard after
  // the (shard, local) slot was allocated. The allocation must be
  // rolled back — otherwise the shard's dense-pk sequence is off by one
  // and every later fresh insert routed there fails forever.
  for (int64_t gid = kDocs; gid < kDocs + 6; ++gid) {
    Status st = engine_->Insert("docs", {Value::Int(gid)});  // arity 1/2
    EXPECT_FALSE(st.ok());
    EXPECT_TRUE(engine_->Route(gid).status().IsNotFound())
        << "failed insert left key " << gid << " mapped";
  }
  // Every shard still accepts fresh keys afterwards.
  for (int64_t gid = kDocs; gid < kDocs + 24; ++gid) {
    Status st = engine_->Insert(
        "docs", {Value::Int(gid), Value::String("recovered doc")});
    ASSERT_TRUE(st.ok()) << "key " << gid << ": " << st.ToString();
    ASSERT_TRUE(engine_
                    ->Insert("scores", {Value::Int(gid),
                                        Value::Double(50000.0 + gid)})
                    .ok());
  }
  auto r = engine_->Search("recovered", 30);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().size(), 24u);
}

TEST_F(ShardedRoutingTest, NonIntRoutingColumnIsRejectedCleanly) {
  EXPECT_TRUE(engine_
                  ->Insert("docs", {Value::String("oops"),
                                    Value::String("text")})
                  .IsInvalidArgument());
  EXPECT_TRUE(engine_
                  ->Update("docs", {Value::String("oops"),
                                    Value::String("text")})
                  .IsInvalidArgument());
}

TEST(ShardedJoinRoutingTest, ComponentRowsFollowTheirDocument) {
  // A component table keyed by its own id but matching on the document
  // id ("Reviews(rID, mID, rating)"): rows must land on the document's
  // shard, with only the match column translated.
  ShardedSvrEngineOptions opt;
  opt.num_shards = 3;
  opt.shard.method = index::Method::kChunk;
  opt.shard.index_options.chunk.chunking.min_chunk_size = 1;
  auto e = ShardedSvrEngine::Open(opt);
  ASSERT_TRUE(e.ok());
  auto engine = std::move(e).value();

  ASSERT_TRUE(engine
                  ->CreateTable("movies",
                                Schema({{"mID", ValueType::kInt64},
                                        {"desc", ValueType::kString}},
                                       0))
                  .ok());
  ASSERT_TRUE(engine
                  ->CreateTable("reviews",
                                Schema({{"rID", ValueType::kInt64},
                                        {"mID", ValueType::kInt64},
                                        {"rating", ValueType::kDouble}},
                                       0))
                  .ok());
  for (int64_t m = 0; m < 12; ++m) {
    ASSERT_TRUE(engine
                    ->Insert("movies",
                             {Value::Int(m),
                              Value::String("movie word" +
                                            std::to_string(m % 4))})
                    .ok());
  }
  // Declared before any review rows exist: "reviews" becomes
  // join-routed by its mID column.
  ASSERT_TRUE(engine
                  ->CreateTextIndex(
                      "movies", "desc",
                      {{"avg_rating", "reviews", "mID", "rating",
                        AggregateKind::kAvg}},
                      AggFunction::WeightedSum({10.0}))
                  .ok());

  // Reviews with globally unique rIDs for documents on (very likely)
  // different shards.
  ASSERT_TRUE(engine
                  ->Insert("reviews", {Value::Int(100), Value::Int(3),
                                       Value::Double(9.0)})
                  .ok());
  ASSERT_TRUE(engine
                  ->Insert("reviews", {Value::Int(101), Value::Int(7),
                                       Value::Double(2.0)})
                  .ok());
  ASSERT_TRUE(engine
                  ->Insert("reviews", {Value::Int(102), Value::Int(3),
                                       Value::Double(7.0)})
                  .ok());

  // movie 3 (avg 8.0) must outrank movie 7 (avg 2.0) on a shared term.
  auto r = engine->Search("movie", 12);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_GE(r.value().size(), 2u);
  EXPECT_EQ(r.value()[0].pk, 3);
  EXPECT_DOUBLE_EQ(r.value()[0].score, 80.0);

  // Malformed rows fail cleanly on the join-routed path too: a non-int
  // pk must come back as InvalidArgument, not crash.
  EXPECT_TRUE(engine
                  ->Update("reviews", {Value::String("oops"), Value::Int(3),
                                       Value::Double(1.0)})
                  .IsInvalidArgument());

  // Join-routed rows reference documents, they never create them: a
  // review for a movie that does not exist is NotFound (allocating a
  // doc slot for it would wedge the shard's dense pk sequence).
  EXPECT_TRUE(engine
                  ->Insert("reviews", {Value::Int(900), Value::Int(5000),
                                       Value::Double(5.0)})
                  .IsNotFound());
  EXPECT_TRUE(engine->Route(5000).status().IsNotFound());

  // Duplicate review keys are rejected engine-wide even when the two
  // rows would land on different shards.
  Status dup = engine->Insert(
      "reviews", {Value::Int(100), Value::Int(7), Value::Double(3.0)});
  EXPECT_TRUE(dup.IsAlreadyExists()) << dup.ToString();

  // Document keys must fit the 32-bit doc-id space the gather carries.
  EXPECT_TRUE(engine
                  ->Insert("movies", {Value::Int(1LL << 33),
                                      Value::String("huge key")})
                  .IsInvalidArgument());

  // Updating a review routes back to the same shard; moving it to a
  // document of another shard is refused (cross-shard migration).
  ASSERT_TRUE(engine
                  ->Update("reviews", {Value::Int(101), Value::Int(7),
                                       Value::Double(9.5)})
                  .ok());
  int64_t other_shard_doc = -1;
  for (int64_t m = 0; m < 12; ++m) {
    if (engine->ShardOf(m) != engine->ShardOf(7)) {
      other_shard_doc = m;
      break;
    }
  }
  ASSERT_GE(other_shard_doc, 0);
  EXPECT_TRUE(engine
                  ->Update("reviews",
                           {Value::Int(101), Value::Int(other_shard_doc),
                            Value::Double(1.0)})
                  .IsNotSupported());

  // Deleting a review by its own key finds the recorded shard.
  ASSERT_TRUE(engine->Delete("reviews", 102).ok());
  r = engine->Search("movie", 12);
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r.value()[0].score, 95.0);  // movie 7, rating 9.5
  EXPECT_EQ(r.value()[0].pk, 7);
}

TEST(ShardedJoinRoutingTest, FailedCreateTextIndexLeavesRoutingUntouched) {
  ShardedSvrEngineOptions opt;
  opt.num_shards = 2;
  opt.shard.method = index::Method::kChunk;
  opt.shard.index_options.chunk.chunking.min_chunk_size = 1;
  auto e = ShardedSvrEngine::Open(opt);
  ASSERT_TRUE(e.ok());
  auto engine = std::move(e).value();
  ASSERT_TRUE(engine
                  ->CreateTable("movies",
                                Schema({{"mID", ValueType::kInt64},
                                        {"desc", ValueType::kString}},
                                       0))
                  .ok());
  ASSERT_TRUE(engine
                  ->CreateTable("reviews",
                                Schema({{"rID", ValueType::kInt64},
                                        {"mID", ValueType::kInt64},
                                        {"rating", ValueType::kDouble}},
                                       0))
                  .ok());
  ASSERT_TRUE(engine
                  ->Insert("movies", {Value::Int(0),
                                      Value::String("a movie")})
                  .ok());

  // A valid spec followed by an invalid one: the call must fail without
  // flipping "reviews" to join-routed or recording a scored table.
  Status st = engine->CreateTextIndex(
      "movies", "desc",
      {{"avg", "reviews", "mID", "rating", AggregateKind::kAvg},
       {"bad", "reviews", "no_such_column", "rating",
        AggregateKind::kAvg}},
      AggFunction::WeightedSum({1.0, 1.0}));
  ASSERT_FALSE(st.ok());

  // Still pk-routed: a review keyed by its own (fresh) rID inserts fine
  // — join routing would demand its mID referenced a known document.
  ASSERT_TRUE(engine
                  ->Insert("reviews", {Value::Int(1), Value::Int(0),
                                       Value::Double(5.0)})
                  .ok());

  // And a correct declaration afterwards still works end to end.
  ASSERT_TRUE(engine
                  ->CreateTextIndex("movies", "desc",
                                    {{"avg", "reviews", "mID", "rating",
                                      AggregateKind::kAvg}},
                                    AggFunction::WeightedSum({1.0}))
                  .ok());
  auto r = engine->Search("movie", 5);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r.value().size(), 1u);
  EXPECT_EQ(r.value()[0].pk, 0);

  // Re-creating an index on an already-indexed engine is a clean error
  // (replacing the score view would dangle the database's observer
  // pointer), never a crash.
  EXPECT_TRUE(engine
                  ->CreateTextIndex("movies", "desc",
                                    {{"avg", "reviews", "mID", "rating",
                                      AggregateKind::kAvg}},
                                    AggFunction::WeightedSum({1.0}))
                  .IsAlreadyExists());
}

class EmptyShardTest : public ::testing::TestWithParam<index::Method> {};

TEST_P(EmptyShardTest, EnginesWithEmptyShardsIndexAndGrow) {
  // With more shards than documents some shards are empty at
  // CreateTextIndex time; they must still build (degenerate chunker)
  // and accept documents afterwards.
  ShardedSvrEngineOptions opt;
  opt.num_shards = 4;
  opt.shard.method = GetParam();
  opt.shard.index_options.chunk.chunking.min_chunk_size = 1;
  auto e = ShardedSvrEngine::Open(opt);
  ASSERT_TRUE(e.ok());
  auto engine = std::move(e).value();
  SetupDocsAndScores(engine.get(), /*initial_docs=*/1, 20, 6, 11);

  for (int64_t gid = 1; gid < 16; ++gid) {
    ASSERT_TRUE(engine
                    ->Insert("docs", {Value::Int(gid),
                                      Value::String("grown doc common")})
                    .ok());
    ASSERT_TRUE(engine
                    ->Insert("scores", {Value::Int(gid),
                                        Value::Double(10.0 * gid)})
                    .ok());
  }
  auto r = engine->Search("common", 20);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().size(), 15u);
  // Best score (gid 15) first, ties impossible by construction.
  EXPECT_EQ(r.value()[0].pk, 15);
}

INSTANTIATE_TEST_SUITE_P(AllMethods, EmptyShardTest,
                         ::testing::Values(index::Method::kId,
                                           index::Method::kIdTermScore,
                                           index::Method::kChunk,
                                           index::Method::kChunkTermScore,
                                           index::Method::kScoreThreshold));

// --- scatter-gather equivalence vs the single engine ------------------

class ShardedEquivalenceTest
    : public ::testing::TestWithParam<index::Method> {};

TEST_P(ShardedEquivalenceTest, ShardedTopKEqualsSingleEngineUnderChurn) {
  const uint32_t kDocs = 350;
  const uint32_t kVocab = 130;
  const uint32_t kTerms = 10;
  const uint64_t kSeed = 2005;
  const bool with_ts =
      GetParam() == index::Method::kIdTermScore ||
      GetParam() == index::Method::kChunkTermScore;

  SvrEngineOptions shard_opt;
  shard_opt.method = GetParam();
  shard_opt.index_options.chunk.chunking.min_chunk_size = 1;
  // Exercise the per-shard merge machinery while churning.
  shard_opt.merge_policy.enabled = true;
  shard_opt.merge_policy.short_ratio = 0.1;
  shard_opt.merge_policy.min_short_postings = 8;
  shard_opt.merge_policy.check_interval = 64;

  auto single_r = SvrEngine::Open(shard_opt);
  ASSERT_TRUE(single_r.ok());
  auto single = std::move(single_r).value();
  SetupDocsAndScores(single.get(), kDocs, kVocab, kTerms, kSeed);

  ShardedSvrEngineOptions sharded_opt;
  sharded_opt.num_shards = 3;
  sharded_opt.shard = shard_opt;
  auto sharded_r = ShardedSvrEngine::Open(sharded_opt);
  ASSERT_TRUE(sharded_r.ok());
  auto sharded = std::move(sharded_r).value();
  SetupDocsAndScores(sharded.get(), kDocs, kVocab, kTerms, kSeed);

  // Same carve-out as the churn drivers: content updates leave
  // build-time fancy term scores stale by design, so term-score runs
  // redirect that churn into score updates.
  const std::vector<ChurnOp> script =
      MakeChurnScript(kDocs, 600, kVocab, kTerms, !with_ts, kSeed ^ 77);
  ApplyScript(single.get(), script);
  ApplyScript(sharded.get(), script);

  Random rng(kSeed ^ 0xABC);
  uint32_t non_empty = 0;
  for (int q = 0; q < 120; ++q) {
    std::string keywords = "t" + std::to_string(rng.Uniform(kVocab / 4));
    if (q % 2 == 0) {
      keywords += " t" + std::to_string(rng.Uniform(kVocab / 4));
    }
    const bool conjunctive = q % 3 != 0;
    const size_t k = 1 + rng.Uniform(25);
    auto want = single->Search(keywords, k, conjunctive);
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    auto got = sharded->Search(keywords, k, conjunctive);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_EQ(got.value().size(), want.value().size())
        << "query '" << keywords << "' k=" << k;
    for (size_t i = 0; i < got.value().size(); ++i) {
      EXPECT_EQ(got.value()[i].pk, want.value()[i].pk)
          << "query '" << keywords << "' rank " << i;
      EXPECT_DOUBLE_EQ(got.value()[i].score, want.value()[i].score);
      EXPECT_EQ(got.value()[i].row[0].as_int(), want.value()[i].pk);
    }
    if (!got.value().empty()) ++non_empty;
  }
  EXPECT_GT(non_empty, 30u) << "query mix degenerated to empty results";
}

INSTANTIATE_TEST_SUITE_P(AllMethods, ShardedEquivalenceTest,
                         ::testing::Values(index::Method::kId,
                                           index::Method::kIdTermScore,
                                           index::Method::kChunk,
                                           index::Method::kChunkTermScore,
                                           index::Method::kScoreThreshold));

TEST(ShardedTieBreakTest, TiesBreakByGlobalIdExactlyLikeTheSingleEngine) {
  const uint32_t kDocs = 120;
  SvrEngineOptions shard_opt;
  shard_opt.method = index::Method::kChunk;
  shard_opt.index_options.chunk.chunking.min_chunk_size = 1;

  auto single_r = SvrEngine::Open(shard_opt);
  ASSERT_TRUE(single_r.ok());
  auto single = std::move(single_r).value();
  SetupDocsAndScores(single.get(), kDocs, 40, 6, 99);

  ShardedSvrEngineOptions sharded_opt;
  sharded_opt.num_shards = 4;
  sharded_opt.shard = shard_opt;
  auto sharded_r = ShardedSvrEngine::Open(sharded_opt);
  ASSERT_TRUE(sharded_r.ok());
  auto sharded = std::move(sharded_r).value();
  SetupDocsAndScores(sharded.get(), kDocs, 40, 6, 99);

  // Flatten a large band of documents onto the same score and give them
  // a shared term, so the top-k boundary falls inside a tie group that
  // spans shards: only identical (score desc, global id asc) ordering
  // on both sides keeps the lists equal.
  for (int64_t d = 0; d < kDocs; ++d) {
    ASSERT_TRUE(single
                    ->Update("docs", {Value::Int(d),
                                      Value::String("sharedterm filler" +
                                                    std::to_string(d % 7))})
                    .ok());
    ASSERT_TRUE(sharded
                    ->Update("docs", {Value::Int(d),
                                      Value::String("sharedterm filler" +
                                                    std::to_string(d % 7))})
                    .ok());
    const double tied = (d % 3 == 0) ? 777.0 : 100.0 + d;
    ASSERT_TRUE(single
                    ->Update("scores",
                             {Value::Int(d), Value::Double(tied)})
                    .ok());
    ASSERT_TRUE(sharded
                    ->Update("scores",
                             {Value::Int(d), Value::Double(tied)})
                    .ok());
  }
  for (size_t k : {5, 17, 40, 120}) {
    auto want = single->Search("sharedterm", k);
    ASSERT_TRUE(want.ok());
    auto got = sharded->Search("sharedterm", k);
    ASSERT_TRUE(got.ok());
    ASSERT_EQ(got.value().size(), want.value().size());
    for (size_t i = 0; i < got.value().size(); ++i) {
      EXPECT_EQ(got.value()[i].pk, want.value()[i].pk) << "rank " << i;
      EXPECT_DOUBLE_EQ(got.value()[i].score, want.value()[i].score);
    }
  }
}

TEST(ShardedDegenerateTest, OneShardBehavesLikeThePlainEngine) {
  SvrEngineOptions shard_opt;
  shard_opt.method = index::Method::kChunk;
  shard_opt.index_options.chunk.chunking.min_chunk_size = 1;

  auto single_r = SvrEngine::Open(shard_opt);
  ASSERT_TRUE(single_r.ok());
  auto single = std::move(single_r).value();
  SetupDocsAndScores(single.get(), 150, 50, 8, 3);

  ShardedSvrEngineOptions sharded_opt;
  sharded_opt.num_shards = 1;
  sharded_opt.shard = shard_opt;
  auto sharded_r = ShardedSvrEngine::Open(sharded_opt);
  ASSERT_TRUE(sharded_r.ok());
  auto sharded = std::move(sharded_r).value();
  SetupDocsAndScores(sharded.get(), 150, 50, 8, 3);

  Random rng(55);
  for (int q = 0; q < 40; ++q) {
    const std::string keywords = "t" + std::to_string(rng.Uniform(12));
    auto want = single->Search(keywords, 10);
    auto got = sharded->Search(keywords, 10);
    ASSERT_TRUE(want.ok());
    ASSERT_TRUE(got.ok());
    ASSERT_EQ(got.value().size(), want.value().size());
    for (size_t i = 0; i < got.value().size(); ++i) {
      EXPECT_EQ(got.value()[i].pk, want.value()[i].pk);
      EXPECT_DOUBLE_EQ(got.value()[i].score, want.value()[i].score);
    }
  }
}

// --- concurrent sharded churn vs per-shard oracle ---------------------

TEST(ShardedChurnTest, ConcurrentScatterGatherMatchesOraclePerShard) {
  workload::ConcurrentChurnConfig cfg;
  cfg.initial_docs = kTsanBuild ? 300 : 900;
  cfg.vocab = kTsanBuild ? 250 : 700;
  cfg.terms_per_doc = kTsanBuild ? 10 : 16;
  cfg.writer_ops = kTsanBuild ? 600 : 4000;
  cfg.query_threads = 2;
  cfg.validate_every = 3;
  cfg.top_k = 15;

  core::ShardedSvrEngineOptions opt;
  opt.num_shards = 3;
  opt.shard.method = index::Method::kChunk;
  opt.shard.index_options.chunk.chunking.min_chunk_size = 1;
  opt.shard.merge_policy.enabled = true;
  opt.shard.merge_policy.short_ratio = 0.1;
  opt.shard.merge_policy.min_short_postings = 8;
  opt.shard.merge_policy.check_interval = 64;
  opt.shard.background_merge = true;
  opt.shard.scheduler.workers = 2;

  auto engine = workload::SetupShardedChurnEngine(opt, cfg);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  auto result = workload::RunShardedChurn(engine.value().get(), cfg,
                                          /*writer_threads=*/3,
                                          /*run_ms=*/0);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result.value().queries_run, 0u);
  EXPECT_GT(result.value().validated_queries, 0u);
  EXPECT_EQ(result.value().mismatches, 0u);
  EXPECT_GE(result.value().writer_ops_done,
            static_cast<uint64_t>(cfg.writer_ops / 2));

  const core::ShardedEngineStats stats = engine.value()->GetStats();
  EXPECT_EQ(stats.shards.size(), 3u);
  EXPECT_TRUE(stats.total.background_merge);
  EXPECT_EQ(stats.total.merge_workers, 6u) << "2 workers x 3 shards";
  engine.value()->Stop();
}


// --- the shard write lock: fresh inserts racing checkpoints -----------

/// Ranked (global key, score) answers of a few fixed queries.
std::vector<std::pair<int64_t, double>> TopDocs(ShardedSvrEngine* engine) {
  std::vector<std::pair<int64_t, double>> out;
  for (const char* query : {"fresh", "t3", "t7 t9"}) {
    auto r = engine->Search(query, 20);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    if (!r.ok()) continue;
    for (const core::ScoredRow& row : r.value()) {
      out.emplace_back(row.pk, row.score);
    }
  }
  return out;
}

/// Every acked key is routed to its hash shard with its row present, no
/// rejected key is mapped, and each shard's locals 0..n-1 all map to a
/// key that routes back to them: the id map has no holes.
void CheckDenseRouting(ShardedSvrEngine* engine, uint32_t initial,
                       const std::set<int64_t>& acked,
                       const std::set<int64_t>& rejected) {
  for (int64_t gid = 0; gid < static_cast<int64_t>(initial); ++gid) {
    EXPECT_TRUE(engine->Route(gid).ok()) << gid;
  }
  for (const int64_t gid : acked) {
    auto route = engine->Route(gid);
    ASSERT_TRUE(route.ok()) << "acked insert " << gid << " is lost";
    EXPECT_EQ(route.value().first, engine->ShardOf(gid));
    EXPECT_TRUE(engine->shard(route.value().first)
                    ->RowExists("docs",
                                static_cast<int64_t>(route.value().second)))
        << gid;
  }
  for (const int64_t gid : rejected) {
    EXPECT_TRUE(engine->Route(gid).status().IsNotFound())
        << "rejected key " << gid << " is mapped";
  }
  uint64_t mapped = 0;
  for (uint32_t s = 0; s < engine->num_shards(); ++s) {
    const DocId n =
        static_cast<DocId>(engine->shard(s)->corpus()->num_docs());
    for (DocId local = 0; local < n; ++local) {
      const int64_t gid = engine->GlobalIdOf(s, local);
      ASSERT_NE(gid, ShardedSvrEngine::kInvalidGlobalId)
          << "hole at shard " << s << " local " << local;
      auto route = engine->Route(gid);
      ASSERT_TRUE(route.ok()) << gid;
      EXPECT_EQ(route.value(), std::make_pair(s, local));
    }
    EXPECT_EQ(engine->GlobalIdOf(s, n), ShardedSvrEngine::kInvalidGlobalId);
    mapped += n;
  }
  EXPECT_EQ(mapped, initial + acked.size());
  EXPECT_EQ(engine->GetStats().num_ids, initial + acked.size());
}

// One lock per shard spans a fresh key's local-id allocation, the shard
// write, the id-map publication and the WAL append. Four writers insert
// fresh documents into a durable 3-shard engine while the main thread
// checkpoints in a loop. Neighbouring writers share half their keys, so
// every shared key is inserted twice: one insert wins, the other must
// find the key mapped and fail with AlreadyExists. Every writer also
// sends malformed rows for keys nobody else uses; those fail inside the
// shard after the allocation and must leave no mapping. The checks run
// on the live engine and again after a restart from checkpoint + WAL.
TEST(ShardedWriteLockTest, RacingFreshInsertsAndCheckpointsStayDense) {
  const std::string dir = "sharded_engine_test_write_lock";
  ASSERT_TRUE(workload::WipeDirectory(dir).ok());
  ShardedSvrEngineOptions opt;
  opt.num_shards = 3;
  opt.shard.method = index::Method::kChunk;
  opt.shard.index_options.chunk.chunking.min_chunk_size = 1;
  opt.durability.enabled = true;
  opt.durability.dir = dir;

  constexpr uint32_t kInitial = 30;
  constexpr int kWriters = 4;
  const int64_t per_writer = kTsanBuild ? 40 : 120;
  const int64_t stride = per_writer / 2;  // neighbours share `stride` keys
  const int64_t bad_base = 1000000;       // malformed rows' keys

  std::set<int64_t> acked;
  std::set<int64_t> rejected;
  std::vector<std::pair<int64_t, double>> before;
  {
    auto r = ShardedSvrEngine::Open(opt);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    auto engine = std::move(r).value();
    SetupDocsAndScores(engine.get(), kInitial, 40, 6, 11);

    std::vector<std::vector<int64_t>> won(kWriters), lost(kWriters);
    std::vector<std::vector<int64_t>> bad(kWriters);
    std::vector<std::string> errors(kWriters);
    std::atomic<int> running{kWriters};
    std::vector<std::thread> writers;
    for (int w = 0; w < kWriters; ++w) {
      writers.emplace_back([&, w] {
        Random rng(100 + w);
        const int64_t first = kInitial + w * stride;
        for (int64_t gid = first; gid < first + per_writer; ++gid) {
          const Status st = engine->Insert(
              "docs", {Value::Int(gid),
                       Value::String(DocText(&rng, 40, 6) + " fresh")});
          if (st.IsAlreadyExists()) {
            lost[w].push_back(gid);
          } else if (!st.ok()) {
            errors[w] = "insert " + std::to_string(gid) + ": " +
                        st.ToString();
            break;
          } else {
            won[w].push_back(gid);
            const Status score_st = engine->Insert(
                "scores", {Value::Int(gid), Value::Double(1000.0 + gid)});
            if (!score_st.ok()) {
              errors[w] = "score " + std::to_string(gid) + ": " +
                          score_st.ToString();
              break;
            }
          }
          if (gid % 8 == 0) {
            const int64_t key = bad_base + w * per_writer + (gid - first);
            if (!engine->Insert("docs", {Value::Int(key)}).ok()) {
              bad[w].push_back(key);  // arity 1 of 2: fails in the shard
            }
          }
        }
        running.fetch_sub(1);
      });
    }
    int checkpoints = 0;
    Status ckpt_st;
    while (running.load() > 0 && ckpt_st.ok()) {
      ckpt_st = engine->CheckpointNow();
      ++checkpoints;
    }
    for (std::thread& t : writers) t.join();
    ASSERT_TRUE(ckpt_st.ok()) << ckpt_st.ToString();
    EXPECT_GT(checkpoints, 1);

    size_t won_count = 0;
    for (int w = 0; w < kWriters; ++w) {
      EXPECT_EQ(errors[w], "") << "writer " << w;
      acked.insert(won[w].begin(), won[w].end());
      won_count += won[w].size();
      rejected.insert(bad[w].begin(), bad[w].end());
    }
    // Each key was won exactly once, and every AlreadyExists lost to a
    // key some writer won: the shared keys account for all of them.
    EXPECT_EQ(acked.size(), won_count);
    size_t lost_count = 0;
    for (int w = 0; w < kWriters; ++w) {
      for (const int64_t gid : lost[w]) EXPECT_EQ(acked.count(gid), 1u);
      lost_count += lost[w].size();
    }
    EXPECT_EQ(lost_count,
              static_cast<size_t>((kWriters - 1) * (per_writer - stride)));
    EXPECT_FALSE(rejected.empty());
    // A statement after the last checkpoint, so recovery replays a WAL
    // suffix on top of the checkpoint.
    ASSERT_TRUE(engine
                    ->Update("scores", {Value::Int(kInitial),
                                        Value::Double(5000.0)})
                    .ok());
    before = TopDocs(engine.get());
    CheckDenseRouting(engine.get(), kInitial, acked, rejected);
    engine->Stop();
  }
  ASSERT_FALSE(before.empty());

  auto r = ShardedSvrEngine::Open(opt);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  auto engine = std::move(r).value();
  EXPECT_TRUE(engine->recovery_stats().used_checkpoint);
  EXPECT_EQ(engine->recovery_stats().replay_errors, 0u);
  CheckDenseRouting(engine.get(), kInitial, acked, rejected);
  EXPECT_EQ(TopDocs(engine.get()), before);
  engine->Stop();
  EXPECT_TRUE(workload::WipeDirectory(dir).ok());
}

}  // namespace
}  // namespace svr
