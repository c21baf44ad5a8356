// Micro-benchmarks (google-benchmark) for the posting codecs: the inner
// loops every query method is built on, through the same cursors the
// queries use. BENCH_codec.json is a frozen record of these loops
// against the paper's per-posting varint layout, which is no longer
// built.

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "index/posting_codec.h"
#include "index/posting_cursor.h"
#include "storage/blob_store.h"
#include "storage/buffer_pool.h"
#include "storage/page_store.h"

namespace svr::index {
namespace {

std::vector<DocId> MakeDocs(size_t n) {
  std::vector<DocId> docs(n);
  DocId d = 0;
  for (size_t i = 0; i < n; ++i) {
    d += 1 + (i % 37);
    docs[i] = d;
  }
  return docs;
}

struct BlobFixture {
  BlobFixture() : store(4096), pool(&store, 1 << 16), blobs(&pool) {}
  storage::BlobRef Put(const std::string& buf) {
    return blobs.Write(buf).value();
  }
  storage::InMemoryPageStore store;
  storage::BufferPool pool;
  storage::BlobStore blobs;
};

// --- encode --------------------------------------------------------------

void BM_EncodeIdList(benchmark::State& state) {
  const auto docs = MakeDocs(state.range(0));
  std::string out;
  for (auto _ : state) {
    out.clear();
    EncodeIdList(docs, &out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EncodeIdList)->Arg(1000)->Arg(100000);

// --- decode: full scan ---------------------------------------------------

void BM_DecodeIdList(benchmark::State& state) {
  const auto docs = MakeDocs(state.range(0));
  std::string buf;
  EncodeIdList(docs, &buf);
  BlobFixture fx;
  auto ref = fx.Put(buf);
  CursorScratch scratch;
  for (auto _ : state) {
    IdPostingCursor c(fx.blobs.NewReader(ref), /*with_ts=*/false, &scratch);
    (void)c.Init();
    uint64_t sum = 0;
    while (c.Valid()) {
      sum += c.doc();
      (void)c.Next();
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_DecodeIdList)->Arg(1000)->Arg(100000);

// --- decode: galloping intersection (SeekTo) -----------------------------

void BM_SeekIdList(benchmark::State& state) {
  const auto docs = MakeDocs(100000);
  const DocId stride = static_cast<DocId>(state.range(0));
  std::string buf;
  EncodeIdList(docs, &buf);
  BlobFixture fx;
  auto ref = fx.Put(buf);
  CursorScratch scratch;
  uint64_t seeks = 0;
  for (auto _ : state) {
    IdPostingCursor c(fx.blobs.NewReader(ref), false, &scratch);
    (void)c.Init();
    uint64_t sum = 0;
    seeks = 0;
    DocId target = 0;
    while (c.Valid()) {
      sum += c.doc();
      target = c.doc() + stride;
      (void)c.SeekTo(target);
      ++seeks;
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * seeks);
}
BENCHMARK(BM_SeekIdList)
    ->Arg(500)     // sparse intersection
    ->Arg(5000);   // very sparse

// --- decode: chunk lists -------------------------------------------------

std::vector<ChunkGroup> MakeGroups() {
  // 64 chunks; skipping every other one exercises the byte-length jump.
  std::vector<ChunkGroup> groups;
  DocId base = 0;
  for (int c = 63; c >= 0; --c) {
    ChunkGroup g;
    g.cid = static_cast<ChunkId>(c);
    for (int i = 0; i < 500; ++i) g.postings.push_back({base + i * 2u, 0});
    base += 1000;
    groups.push_back(std::move(g));
  }
  return groups;
}

void BM_DecodeChunkList(benchmark::State& state) {
  const auto groups = MakeGroups();
  std::string buf;
  EncodeChunkList(groups, false, &buf);
  BlobFixture fx;
  auto ref = fx.Put(buf);
  CursorScratch scratch;
  size_t total = 0;
  for (const auto& g : groups) total += g.postings.size();
  for (auto _ : state) {
    ChunkPostingCursor c(fx.blobs.NewReader(ref), false, &scratch);
    (void)c.Init();
    uint64_t sum = 0;
    while (c.HasGroup()) {
      while (c.Valid()) {
        sum += c.doc();
        (void)c.Next();
      }
      (void)c.NextGroup();
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * total);
}
BENCHMARK(BM_DecodeChunkList);

void BM_DecodeChunkListWithSkips(benchmark::State& state) {
  const auto groups = MakeGroups();
  std::string buf;
  EncodeChunkList(groups, false, &buf);
  BlobFixture fx;
  auto ref = fx.Put(buf);
  CursorScratch scratch;
  for (auto _ : state) {
    ChunkPostingCursor c(fx.blobs.NewReader(ref), false, &scratch);
    (void)c.Init();
    uint64_t sum = 0;
    bool skip = false;
    while (c.HasGroup()) {
      if (skip) {
        (void)c.SkipGroup();
      } else {
        while (c.Valid()) {
          sum += c.doc();
          (void)c.Next();
        }
      }
      skip = !skip;
      (void)c.NextGroup();
    }
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(BM_DecodeChunkListWithSkips);

// --- decode: score lists -------------------------------------------------

void BM_DecodeScoreList(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  std::vector<ScorePosting> ps;
  for (size_t i = 0; i < n; ++i) {
    ps.push_back({static_cast<double>(n - i), static_cast<DocId>(i * 3)});
  }
  std::string buf;
  EncodeScoreList(ps, &buf);
  BlobFixture fx;
  auto ref = fx.Put(buf);
  ScoreCursorScratch scratch;
  for (auto _ : state) {
    ScorePostingCursor c(fx.blobs.NewReader(ref), &scratch);
    (void)c.Init();
    double sum = 0;
    while (c.Valid()) {
      sum += c.score();
      (void)c.Next();
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_DecodeScoreList)->Arg(100000);

}  // namespace
}  // namespace svr::index

BENCHMARK_MAIN();
