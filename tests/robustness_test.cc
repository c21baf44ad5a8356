#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "core/oracle.h"
#include "index/chunk_index.h"
#include "index/score_threshold_index.h"
#include "storage/bptree.h"
#include "storage/buffer_pool.h"
#include "storage/page_store.h"
#include "tests/index_test_util.h"

namespace svr::test {
namespace {

// --- the paper's correctness lemmas as runtime invariants ----------------

class InvariantTest : public ::testing::Test {
 protected:
  void SetUp() override {
    params_.num_docs = 300;
    params_.terms_per_doc = 25;
    params_.vocab_size = 100;
    params_.seed = 21;
    scores_ = MakeScores(params_.num_docs, 50000.0, 0.75, 31);
  }

  // Churn: bursty bidirectional score traffic.
  template <typename Fn>
  void Churn(IndexWorld* w, Fn check) {
    Random rng(5150);
    for (int i = 0; i < 1500; ++i) {
      DocId d = static_cast<DocId>(rng.Uniform(params_.num_docs));
      double s;
      ASSERT_TRUE(w->score_table->Get(d, &s).ok());
      double delta = rng.UniformDouble(0, 3000) * (rng.OneIn(2) ? 1 : -1);
      if (rng.OneIn(50)) delta *= 100;  // occasional flash crowd
      ASSERT_TRUE(
          w->idx->OnScoreUpdate(d, std::max(0.0, s + delta)).ok());
      if (i % 250 == 249) check();
    }
  }

  text::CorpusParams params_;
  std::vector<double> scores_;
};

// Lemma 1.2 (Appendix B): for every document,
//   currentScore(d) <= thresholdValueOf(listScore(d)).
// This is exactly what makes Algorithm 2's bounded extra scan correct.
TEST_F(InvariantTest, ScoreThresholdLemma12HoldsUnderChurn) {
  auto w = IndexWorld::Make(index::Method::kScoreThreshold, params_,
                            scores_);
  ASSERT_NE(w, nullptr);
  auto* st = static_cast<index::ScoreThresholdIndex*>(w->idx.get());
  Churn(w.get(), [&] {
    for (DocId d = 0; d < params_.num_docs; ++d) {
      double curr;
      bool in_short;
      ASSERT_TRUE(w->score_table->Get(d, &curr).ok());
      const double l_score = st->ListScoreOf(d, &in_short);
      EXPECT_LE(curr, st->thresholdValueOf(l_score) + 1e-9) << "doc " << d;
    }
  });
}

// Chunk analogue: ChunkOf(currentScore(d)) <= listChunk(d) + 1 — a doc is
// never more than one chunk "ahead" of its postings.
TEST_F(InvariantTest, ChunkLemmaHoldsUnderChurn) {
  auto w = IndexWorld::Make(index::Method::kChunk, params_, scores_);
  ASSERT_NE(w, nullptr);
  auto* ci = static_cast<index::ChunkIndex*>(w->idx.get());
  Churn(w.get(), [&] {
    for (DocId d = 0; d < params_.num_docs; ++d) {
      double curr;
      bool in_short;
      ASSERT_TRUE(w->score_table->Get(d, &curr).ok());
      const ChunkId l_chunk = ci->ListChunkOf(d, &in_short);
      EXPECT_LE(ci->chunker().ChunkOf(curr),
                index::Chunker::ThresholdValueOf(l_chunk))
          << "doc " << d << " curr " << curr;
    }
  });
}

// Negative updates must never touch the short lists (§4.3.1: "negative
// score updates would not require updates to the short list").
TEST_F(InvariantTest, DecreasesNeverWriteShortLists) {
  auto w =
      IndexWorld::Make(index::Method::kScoreThreshold, params_, scores_);
  ASSERT_NE(w, nullptr);
  w->idx->ResetStats();
  Random rng(2);
  for (int i = 0; i < 500; ++i) {
    DocId d = static_cast<DocId>(rng.Uniform(params_.num_docs));
    double s;
    ASSERT_TRUE(w->score_table->Get(d, &s).ok());
    ASSERT_TRUE(w->idx->OnScoreUpdate(d, s * 0.9).ok());
  }
  EXPECT_EQ(w->idx->stats().short_list_writes, 0u);
}

// Small increases below the threshold leave the short lists alone too —
// the whole point of the method.
TEST_F(InvariantTest, SubThresholdIncreasesAreFree) {
  index::IndexOptions opt = IndexWorld::DefaultOptions();
  opt.score_threshold.threshold_ratio = 100.0;  // generous threshold
  auto w = IndexWorld::Make(index::Method::kScoreThreshold, params_,
                            scores_, opt);
  ASSERT_NE(w, nullptr);
  w->idx->ResetStats();
  Random rng(3);
  for (int i = 0; i < 500; ++i) {
    DocId d = static_cast<DocId>(rng.Uniform(params_.num_docs));
    double s;
    ASSERT_TRUE(w->score_table->Get(d, &s).ok());
    ASSERT_TRUE(w->idx->OnScoreUpdate(d, s * 1.01 + 0.001).ok());
  }
  EXPECT_EQ(w->idx->stats().short_list_writes, 0u);
}

// --- oracle sanity ---------------------------------------------------------

TEST(OracleTest, HandComputedRanking) {
  auto scores = relational::ScoreTable::Create();
  text::Corpus corpus(10);
  corpus.Add(text::Document::FromTokens({1, 2}));     // doc 0
  corpus.Add(text::Document::FromTokens({1, 2, 3}));  // doc 1
  corpus.Add(text::Document::FromTokens({1}));        // doc 2
  ASSERT_TRUE(scores->Set(0, 10).ok());
  ASSERT_TRUE(scores->Set(1, 30).ok());
  ASSERT_TRUE(scores->Set(2, 20).ok());

  core::BruteForceOracle oracle(&corpus, scores.get());
  index::Query q;
  q.terms = {1, 2};
  q.conjunctive = true;
  std::vector<index::SearchResult> out;
  ASSERT_TRUE(oracle.TopK(q, 10, false, &out).ok());
  ASSERT_EQ(out.size(), 2u);  // doc 2 lacks term 2
  EXPECT_EQ(out[0].doc, 1u);
  EXPECT_EQ(out[1].doc, 0u);

  q.conjunctive = false;
  ASSERT_TRUE(oracle.TopK(q, 10, false, &out).ok());
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].doc, 1u);
  EXPECT_EQ(out[1].doc, 2u);
  EXPECT_EQ(out[2].doc, 0u);
}

TEST(OracleTest, SkipsDeletedAndUnscored) {
  auto scores = relational::ScoreTable::Create();
  text::Corpus corpus(10);
  corpus.Add(text::Document::FromTokens({1}));
  corpus.Add(text::Document::FromTokens({1}));
  corpus.Add(text::Document::FromTokens({1}));  // never scored
  ASSERT_TRUE(scores->Set(0, 10).ok());
  ASSERT_TRUE(scores->Set(1, 99).ok());
  ASSERT_TRUE(scores->MarkDeleted(1).ok());

  core::BruteForceOracle oracle(&corpus, scores.get());
  index::Query q;
  q.terms = {1};
  std::vector<index::SearchResult> out;
  ASSERT_TRUE(oracle.TopK(q, 10, false, &out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].doc, 0u);
}

// --- failure injection ------------------------------------------------------

// A page store that starts failing reads after a fuse burns out.
class FlakyPageStore final : public storage::PageStore {
 public:
  explicit FlakyPageStore(uint32_t page_size) : inner_(page_size) {}

  void BlowFuseAfter(int reads) { fuse_ = reads; }

  Status Read(storage::PageId id, char* buf) override {
    if (fuse_ >= 0 && reads_done_++ >= fuse_) {
      return Status::IOError("injected read failure");
    }
    return inner_.Read(id, buf);
  }
  Status Write(storage::PageId id, const char* buf) override {
    return inner_.Write(id, buf);
  }
  Result<storage::PageId> Allocate() override { return inner_.Allocate(); }
  Result<storage::PageId> AllocateRun(uint32_t n) override {
    return inner_.AllocateRun(n);
  }
  Status Free(storage::PageId id) override { return inner_.Free(id); }
  uint32_t page_size() const override { return inner_.page_size(); }
  uint64_t live_pages() const override { return inner_.live_pages(); }

 private:
  storage::InMemoryPageStore inner_;
  int fuse_ = -1;
  int reads_done_ = 0;
};

TEST(FailureInjectionTest, BPlusTreeSurfacesIOErrors) {
  FlakyPageStore store(512);
  storage::BufferPool pool(&store, 2);  // tiny: forces re-reads
  auto tree = storage::BPlusTree::Create(&pool).value();
  for (int i = 0; i < 500; ++i) {
    std::string k = "key" + std::to_string(i);
    ASSERT_TRUE(tree->Put(k, "v").ok());
  }
  ASSERT_TRUE(pool.EvictAll().ok());
  store.BlowFuseAfter(0);
  std::string v;
  Status st = tree->Get("key123", &v);
  EXPECT_TRUE(st.IsIOError()) << st.ToString();
  // And recovers once reads work again.
  store.BlowFuseAfter(1 << 30);
  EXPECT_TRUE(tree->Get("key123", &v).ok());
}

TEST(FailureInjectionTest, BlobReaderSurfacesIOErrors) {
  FlakyPageStore store(256);
  storage::BufferPool pool(&store, 4);
  storage::BlobStore blobs(&pool);
  auto ref = blobs.Write(std::string(1000, 'x')).value();
  ASSERT_TRUE(pool.EvictAll().ok());
  store.BlowFuseAfter(1);  // first page readable, second fails
  auto reader = blobs.NewReader(ref);
  char buf[600];
  Status st = reader.ReadBytes(buf, 600);
  EXPECT_TRUE(st.IsIOError()) << st.ToString();
}

// Queries over an index whose long-list pool hits I/O errors must fail
// cleanly (Status, not crash or wrong answer).
TEST(FailureInjectionTest, QueriesFailCleanlyOnListIOErrors) {
  text::CorpusParams params;
  params.num_docs = 200;
  params.terms_per_doc = 20;
  params.vocab_size = 60;
  params.seed = 9;
  auto scores = MakeScores(params.num_docs, 1000.0, 0.75, 4);

  // Hand-build a world around a flaky list store. The store is declared
  // before the world so it outlives the pools that reference it.
  auto flaky = std::make_unique<FlakyPageStore>(4096);
  FlakyPageStore* flaky_raw = flaky.get();
  auto w = std::make_unique<IndexWorld>();
  w->table_store = std::make_unique<storage::InMemoryPageStore>(4096);
  w->table_pool =
      std::make_unique<storage::BufferPool>(w->table_store.get(), 4096);
  w->list_pool = std::make_unique<storage::BufferPool>(flaky.get(), 4096);
  w->score_table = relational::ScoreTable::Create();
  w->corpus = text::GenerateCorpus(params);
  for (DocId d = 0; d < w->corpus.num_docs(); ++d) {
    ASSERT_TRUE(w->score_table->Set(d, scores[d]).ok());
  }
  index::IndexContext ctx;
  ctx.table_pool = w->table_pool.get();
  ctx.list_pool = w->list_pool.get();
  ctx.score_table = w->score_table.get();
  ctx.corpus = &w->corpus;
  auto idx = index::CreateIndex(index::Method::kChunk, ctx,
                                IndexWorld::DefaultOptions())
                 .value();
  ASSERT_TRUE(idx->Build().ok());
  ASSERT_TRUE(w->list_pool->EvictAll().ok());

  flaky_raw->BlowFuseAfter(0);
  index::Query q;
  q.terms = {w->corpus.TermsByFrequency()[0]};
  std::vector<index::SearchResult> out;
  Status st = idx->TopK(q, 5, &out);
  EXPECT_TRUE(st.IsIOError()) << st.ToString();
}

}  // namespace
}  // namespace svr::test
