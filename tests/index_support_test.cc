#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "index/chunker.h"
#include "index/list_state.h"
#include "index/result_heap.h"
#include "index/short_list.h"
#include "storage/buffer_pool.h"
#include "storage/page_store.h"

namespace svr::index {
namespace {

// --- result heap ---------------------------------------------------------

TEST(ResultHeapTest, KeepsBestK) {
  ResultHeap h(3);
  h.Offer(1, 10);
  h.Offer(2, 50);
  h.Offer(3, 30);
  h.Offer(4, 40);
  h.Offer(5, 5);
  auto out = h.TakeSorted();
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].doc, 2u);
  EXPECT_EQ(out[1].doc, 4u);
  EXPECT_EQ(out[2].doc, 3u);
}

TEST(ResultHeapTest, TieBreaksBySmallerDoc) {
  ResultHeap h(2);
  h.Offer(9, 10);
  h.Offer(3, 10);
  h.Offer(7, 10);
  auto out = h.TakeSorted();
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].doc, 3u);
  EXPECT_EQ(out[1].doc, 7u);
}

TEST(ResultHeapTest, MinScoreSentinelUntilFull) {
  ResultHeap h(2);
  EXPECT_LT(h.MinScore(), -1e308);
  h.Offer(1, 5);
  EXPECT_FALSE(h.full());
  EXPECT_LT(h.MinScore(), -1e308);
  h.Offer(2, 7);
  EXPECT_TRUE(h.full());
  EXPECT_EQ(h.MinScore(), 5);
}

TEST(ResultHeapTest, ZeroK) {
  ResultHeap h(0);
  h.Offer(1, 5);
  EXPECT_TRUE(h.TakeSorted().empty());
}

// --- chunker ---------------------------------------------------------------

TEST(ChunkerTest, RatioBoundariesAreGeometric) {
  std::vector<double> scores;
  for (int i = 1; i <= 1000; ++i) scores.push_back(i * 10.0);
  ChunkOptions opt;
  opt.chunk_ratio = 2.0;
  opt.min_chunk_size = 1;
  auto c = Chunker::Build(scores, opt);
  ASSERT_TRUE(c.ok());
  const Chunker& ch = c.value();
  EXPECT_GT(ch.num_base_chunks(), 3u);
  for (ChunkId i = 2; i < ch.num_base_chunks(); ++i) {
    EXPECT_NEAR(ch.LowerBound(i) / ch.LowerBound(i - 1), 2.0, 1e-9);
  }
}

TEST(ChunkerTest, ChunkOfMatchesLowerBounds) {
  std::vector<double> scores = {1, 5, 20, 80, 400, 2000, 9000};
  ChunkOptions opt;
  opt.chunk_ratio = 3.0;
  opt.min_chunk_size = 1;
  auto c = Chunker::Build(scores, opt);
  ASSERT_TRUE(c.ok());
  const Chunker& ch = c.value();
  for (double s : {0.0, 0.5, 1.0, 4.0, 17.0, 99.0, 1234.0, 8999.0}) {
    ChunkId cid = ch.ChunkOf(s);
    EXPECT_LE(ch.LowerBound(cid), s) << s;
    EXPECT_GT(ch.LowerBound(cid + 1), s) << s;
  }
}

TEST(ChunkerTest, HigherScoreNeverLowerChunk) {
  std::vector<double> scores;
  for (int i = 0; i < 500; ++i) scores.push_back(i * i * 0.37);
  ChunkOptions opt;
  opt.chunk_ratio = 1.7;
  opt.min_chunk_size = 10;
  auto c = Chunker::Build(scores, opt);
  ASSERT_TRUE(c.ok());
  const Chunker& ch = c.value();
  double prev = 0;
  ChunkId prev_cid = ch.ChunkOf(0);
  for (double s = 0; s < 2e6; s += 997.3) {
    ChunkId cid = ch.ChunkOf(s);
    EXPECT_GE(cid, prev_cid) << s;
    prev_cid = cid;
    prev = s;
  }
  (void)prev;
}

TEST(ChunkerTest, ExtrapolatesAboveMaxScore) {
  std::vector<double> scores = {1, 10, 100};
  ChunkOptions opt;
  opt.chunk_ratio = 10.0;
  opt.min_chunk_size = 1;
  auto c = Chunker::Build(scores, opt);
  ASSERT_TRUE(c.ok());
  const Chunker& ch = c.value();
  const ChunkId top = ch.ChunkOf(100.0);
  EXPECT_GT(ch.ChunkOf(1e4), top);
  EXPECT_GT(ch.ChunkOf(1e8), ch.ChunkOf(1e4));
  // thresholdValueOf is simply cid + 1.
  EXPECT_EQ(Chunker::ThresholdValueOf(7), 8u);
}

TEST(ChunkerTest, MinChunkSizeMergesSmallChunks) {
  // 1000 docs all with distinct scores; min size 100 caps chunk count.
  std::vector<double> scores;
  for (int i = 1; i <= 1000; ++i) scores.push_back(i * 1.001);
  ChunkOptions opt;
  opt.chunk_ratio = 1.01;  // would make hundreds of chunks
  opt.min_chunk_size = 100;
  auto c = Chunker::Build(scores, opt);
  ASSERT_TRUE(c.ok());
  EXPECT_LE(c.value().num_base_chunks(), 11u);
}

TEST(ChunkerTest, AllZeroScoresSingleChunk) {
  std::vector<double> scores(50, 0.0);
  ChunkOptions opt;
  auto c = Chunker::Build(scores, opt);
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c.value().num_base_chunks(), 1u);
  EXPECT_EQ(c.value().ChunkOf(0.0), 0u);
  EXPECT_GT(c.value().ChunkOf(1e9), 0u);  // still extrapolates
}

TEST(ChunkerTest, EqualCountStrategy) {
  std::vector<double> scores;
  for (int i = 1; i <= 100; ++i) scores.push_back(static_cast<double>(i));
  ChunkOptions opt;
  opt.strategy = ChunkStrategy::kEqualCount;
  opt.target_num_chunks = 4;
  opt.min_chunk_size = 1;
  auto c = Chunker::Build(scores, opt);
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c.value().num_base_chunks(), 4u);
}

TEST(ChunkerTest, RejectsBadInput) {
  ChunkOptions opt;
  EXPECT_FALSE(Chunker::Build({-1.0}, opt).ok());
  opt.chunk_ratio = 0.9;
  EXPECT_FALSE(Chunker::Build({1.0}, opt).ok());
  EXPECT_FALSE(Chunker::Build({}, opt).ok());
}

TEST(ChunkerTest, EmptyCollectionGetsDegenerateChunker) {
  // A fresh engine — or an empty shard of a sharded one — builds a
  // single-boundary chunker; documents inserted later land in
  // geometrically extrapolated chunks above it.
  ChunkOptions opt;
  opt.min_chunk_size = 1;
  auto c = Chunker::Build({}, opt);
  ASSERT_TRUE(c.ok()) << c.status().ToString();
  EXPECT_EQ(c.value().num_base_chunks(), 1u);
  EXPECT_EQ(c.value().ChunkOf(0.0), 0u);
  EXPECT_DOUBLE_EQ(c.value().LowerBound(0), 0.0);
  const ChunkId high = c.value().ChunkOf(1e6);
  EXPECT_GT(high, 0u);
  EXPECT_LE(c.value().LowerBound(high), 1e6);
}

// --- short list / list state -----------------------------------------------

class ShortListTest : public ::testing::Test {};

TEST_F(ShortListTest, ScoreKeyedScanOrder) {
  auto sl = ShortList::Create(ShortList::KeyKind::kScore);
  auto& list = *sl;
  ASSERT_TRUE(list.Put(7, 10.0, 3, PostingOp::kAdd, 0).ok());
  ASSERT_TRUE(list.Put(7, 99.0, 1, PostingOp::kAdd, 0).ok());
  ASSERT_TRUE(list.Put(7, 99.0, 0, PostingOp::kAdd, 0).ok());
  ASSERT_TRUE(list.Put(8, 500.0, 9, PostingOp::kAdd, 0).ok());  // other term

  auto c = list.Scan(7);
  ASSERT_TRUE(c.Valid());
  EXPECT_EQ(c.sort_value(), 99.0);
  EXPECT_EQ(c.doc(), 0u);
  c.Next();
  EXPECT_EQ(c.doc(), 1u);
  c.Next();
  EXPECT_EQ(c.sort_value(), 10.0);
  EXPECT_EQ(c.doc(), 3u);
  c.Next();
  EXPECT_FALSE(c.Valid());  // does not bleed into term 8
}

TEST_F(ShortListTest, ChunkKeyedScanOrderAndOps) {
  auto sl = ShortList::Create(ShortList::KeyKind::kChunk);
  auto& list = *sl;
  ASSERT_TRUE(list.Put(1, 5, 10, PostingOp::kAdd, 0.5f).ok());
  ASSERT_TRUE(list.Put(1, 9, 20, PostingOp::kRemove, 0).ok());
  ASSERT_TRUE(list.Put(1, 9, 5, PostingOp::kAdd, 0.25f).ok());

  auto c = list.Scan(1);
  ASSERT_TRUE(c.Valid());
  EXPECT_EQ(c.sort_value(), 9.0);
  EXPECT_EQ(c.doc(), 5u);
  EXPECT_EQ(c.op(), PostingOp::kAdd);
  EXPECT_EQ(c.term_score(), 0.25f);
  c.Next();
  EXPECT_EQ(c.doc(), 20u);
  EXPECT_EQ(c.op(), PostingOp::kRemove);
  c.Next();
  EXPECT_EQ(c.sort_value(), 5.0);
  c.Next();
  EXPECT_FALSE(c.Valid());
}

TEST_F(ShortListTest, DeleteAndClear) {
  auto sl = ShortList::Create(ShortList::KeyKind::kChunk);
  auto& list = *sl;
  ASSERT_TRUE(list.Put(1, 5, 10, PostingOp::kAdd, 0).ok());
  ASSERT_TRUE(list.Put(1, 6, 11, PostingOp::kAdd, 0).ok());
  EXPECT_EQ(list.num_postings(), 2u);
  ASSERT_TRUE(list.Delete(1, 5, 10).ok());
  EXPECT_TRUE(list.Delete(1, 5, 10).IsNotFound());
  EXPECT_EQ(list.num_postings(), 1u);
  ASSERT_TRUE(list.Clear().ok());
  EXPECT_EQ(list.num_postings(), 0u);
  EXPECT_FALSE(list.Scan(1).Valid());
}

TEST_F(ShortListTest, ListStateRoundTrip) {
  auto ls = ListScoreTable::Create();
  auto& table = *ls;
  EXPECT_FALSE(table.Get(42).recorded());
  table.Put(42, 87.13, false);
  ListScoreTable::Slot e = table.Get(42);
  ASSERT_TRUE(e.recorded());
  EXPECT_EQ(e.list_value, 87.13);
  EXPECT_FALSE(e.in_short());
  table.Put(42, 124.2, true);
  e = table.Get(42);
  ASSERT_TRUE(e.recorded());
  EXPECT_EQ(e.list_value, 124.2);
  EXPECT_TRUE(e.in_short());
  EXPECT_EQ(table.size(), 1u);
  table.Remove(42);
  EXPECT_FALSE(table.Get(42).recorded());
  EXPECT_EQ(table.size(), 0u);
}

}  // namespace
}  // namespace svr::index
