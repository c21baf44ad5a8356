// Posting lists: group-varint block codec, skip headers, cursors.
//
// Covers: raw group-varint round trips, every list kind at the
// 127/128/129 block boundaries, empty and absent lists, SeekTo against a
// naive reference, truncated-input fuzzing (every decode must fail
// cleanly, never read past the buffer), and TopK against the brute-force
// oracle for every method that owns blob lists.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/block_codec.h"
#include "common/random.h"
#include "fuzz/standalone_driver.h"
#include "index/posting_codec.h"
#include "index/posting_cursor.h"
#include "storage/blob_store.h"
#include "storage/buffer_pool.h"
#include "storage/page_store.h"
#include "tests/index_test_util.h"

namespace svr::index {
namespace {

// --- group-varint primitives --------------------------------------------

TEST(GroupVarintTest, RoundTripSizes) {
  for (size_t n : {0u, 1u, 2u, 3u, 4u, 5u, 7u, 8u, 127u, 128u, 129u}) {
    std::vector<uint32_t> values(n);
    Random rng(42 + n);
    for (size_t i = 0; i < n; ++i) {
      // Mix of 1..4-byte magnitudes.
      switch (rng.Uniform(4)) {
        case 0: values[i] = static_cast<uint32_t>(rng.Uniform(1 << 8)); break;
        case 1: values[i] = static_cast<uint32_t>(rng.Uniform(1 << 16)); break;
        case 2: values[i] = static_cast<uint32_t>(rng.Uniform(1 << 24)); break;
        default: values[i] = static_cast<uint32_t>(rng.Next()); break;
      }
    }
    std::string buf;
    AppendGroupVarint(values.data(), n, &buf);
    std::vector<uint32_t> decoded(n + 1, 0xDEADBEEF);
    const size_t used =
        DecodeGroupVarint(buf.data(), buf.size(), decoded.data(), n);
    if (n == 0) {
      EXPECT_EQ(used, 0u);
      EXPECT_TRUE(buf.empty());
      continue;
    }
    ASSERT_EQ(used, buf.size()) << "n=" << n;
    for (size_t i = 0; i < n; ++i) EXPECT_EQ(decoded[i], values[i]);
    EXPECT_EQ(decoded[n], 0xDEADBEEFu);  // no overwrite
  }
}

TEST(GroupVarintTest, ExtremeValues) {
  std::vector<uint32_t> values = {0, 0, 0, std::numeric_limits<uint32_t>::max(),
                                  1, 255, 256, 65535, 65536, 0xFFFFFF,
                                  0x1000000, 0xFFFFFFFF};
  std::string buf;
  AppendGroupVarint(values.data(), values.size(), &buf);
  std::vector<uint32_t> decoded(values.size());
  ASSERT_EQ(DecodeGroupVarint(buf.data(), buf.size(), decoded.data(),
                              values.size()),
            buf.size());
  EXPECT_EQ(decoded, values);
}

TEST(GroupVarintTest, TruncationDetected) {
  std::vector<uint32_t> values(130);
  for (size_t i = 0; i < values.size(); ++i) {
    values[i] = static_cast<uint32_t>(i * 11400714819u);  // all widths
  }
  std::string buf;
  AppendGroupVarint(values.data(), values.size(), &buf);
  std::vector<uint32_t> decoded(values.size());
  for (size_t cut = 0; cut < buf.size(); ++cut) {
    EXPECT_EQ(DecodeGroupVarint(buf.data(), cut, decoded.data(),
                                values.size()),
              0u)
        << "cut=" << cut;
  }
}

// --- list fixtures -------------------------------------------------------

class CodecV2Test : public ::testing::Test {
 protected:
  CodecV2Test() : store_(4096), pool_(&store_, 1 << 16), blobs_(&pool_) {}

  storage::BlobRef Put(const std::string& buf) {
    auto ref = blobs_.Write(buf);
    EXPECT_TRUE(ref.ok());
    return ref.value();
  }

  storage::InMemoryPageStore store_;
  storage::BufferPool pool_;
  storage::BlobStore blobs_;
};

std::vector<IdPosting> MakePostings(size_t n, uint64_t seed,
                                    uint32_t max_gap = 37) {
  std::vector<IdPosting> ps;
  Random rng(seed);
  DocId d = 0;
  for (size_t i = 0; i < n; ++i) {
    d += 1 + rng.Uniform(max_gap);
    ps.push_back({d, static_cast<float>(rng.Uniform(1000)) / 1000.0f});
  }
  return ps;
}

// Block-boundary sizes plus small/empty cases.
const size_t kSizes[] = {0, 1, 2, 127, 128, 129, 255, 256, 257, 1000};

TEST_F(CodecV2Test, IdListRoundTrip) {
  for (size_t n : kSizes) {
    auto ps = MakePostings(n, 7 + n);
    std::vector<DocId> docs;
    for (const auto& p : ps) docs.push_back(p.doc);
    std::string buf;
    EncodeIdList(docs, &buf);
    auto ref = Put(buf);
    CursorScratch scratch;
    IdPostingCursor c(blobs_.NewReader(ref), /*with_ts=*/false, &scratch);
    ASSERT_TRUE(c.Init().ok()) << n;
    EXPECT_EQ(c.count(), n);
    for (size_t i = 0; i < n; ++i) {
      ASSERT_TRUE(c.Valid()) << n << " @" << i;
      EXPECT_EQ(c.doc(), docs[i]);
      EXPECT_EQ(c.term_score(), 0.0f);
      ASSERT_TRUE(c.Next().ok());
    }
    EXPECT_FALSE(c.Valid());
  }
}

TEST_F(CodecV2Test, IdTsListRoundTrip) {
  for (size_t n : kSizes) {
    auto ps = MakePostings(n, 13 + n);
    std::string buf;
    EncodeIdTsList(ps, /*with_ts=*/true, &buf);
    auto ref = Put(buf);
    CursorScratch scratch;
    IdPostingCursor c(blobs_.NewReader(ref), /*with_ts=*/true, &scratch);
    ASSERT_TRUE(c.Init().ok());
    for (size_t i = 0; i < n; ++i) {
      ASSERT_TRUE(c.Valid());
      EXPECT_EQ(c.doc(), ps[i].doc);
      EXPECT_EQ(c.term_score(), ps[i].term_score);
      ASSERT_TRUE(c.Next().ok());
    }
    EXPECT_FALSE(c.Valid());
  }
}

TEST_F(CodecV2Test, MaximalDeltas) {
  // Two postings spanning the full 32-bit doc space.
  std::vector<DocId> docs = {0, 0xFFFFFFFEu};
  std::string buf;
  EncodeIdList(docs, &buf);
  auto ref = Put(buf);
  CursorScratch scratch;
  IdPostingCursor c(blobs_.NewReader(ref), false, &scratch);
  ASSERT_TRUE(c.Init().ok());
  EXPECT_EQ(c.doc(), 0u);
  ASSERT_TRUE(c.Next().ok());
  EXPECT_EQ(c.doc(), 0xFFFFFFFEu);
}

TEST_F(CodecV2Test, IdSeekToMatchesNaiveReference) {
  const size_t n = 1000;
  auto ps = MakePostings(n, 99);
  std::vector<DocId> docs;
  for (const auto& p : ps) docs.push_back(p.doc);
  std::string buf;
  EncodeIdList(docs, &buf);
  auto ref = Put(buf);

  Random rng(5);
  // Forward-only seek sequence (cursors are forward iterators).
  std::vector<DocId> targets;
  DocId t = 0;
  while (t < docs.back() + 10) {
    t += 1 + rng.Uniform(200);
    targets.push_back(t);
  }
  CursorScratch scratch;
  IdPostingCursor c(blobs_.NewReader(ref), false, &scratch);
  ASSERT_TRUE(c.Init().ok());
  for (DocId target : targets) {
    ASSERT_TRUE(c.SeekTo(target).ok());
    // Naive reference: first doc >= target.
    auto it = std::lower_bound(docs.begin(), docs.end(), target);
    if (it == docs.end()) {
      EXPECT_FALSE(c.Valid()) << "target=" << target;
    } else {
      ASSERT_TRUE(c.Valid()) << "target=" << target;
      EXPECT_EQ(c.doc(), *it) << "target=" << target;
    }
  }
}

TEST_F(CodecV2Test, ScoreListRoundTripAndSeek) {
  for (size_t n : kSizes) {
    std::vector<ScorePosting> ps;
    Random rng(17 + n);
    for (size_t i = 0; i < n; ++i) {
      ps.push_back({static_cast<double>(rng.Uniform(1000)),
                    static_cast<DocId>(rng.Uniform(100000))});
    }
    std::sort(ps.begin(), ps.end(),
              [](const ScorePosting& a, const ScorePosting& b) {
                if (a.score != b.score) return a.score > b.score;
                return a.doc < b.doc;
              });
    ps.erase(std::unique(ps.begin(), ps.end(),
                         [](const ScorePosting& a, const ScorePosting& b) {
                           return a.score == b.score && a.doc == b.doc;
                         }),
             ps.end());
    std::string buf;
    EncodeScoreList(ps, &buf);
    auto ref = Put(buf);
    ScoreCursorScratch scratch;
    ScorePostingCursor c(blobs_.NewReader(ref), &scratch);
    ASSERT_TRUE(c.Init().ok());
    for (size_t i = 0; i < ps.size(); ++i) {
      ASSERT_TRUE(c.Valid());
      EXPECT_EQ(c.score(), ps[i].score);
      EXPECT_EQ(c.doc(), ps[i].doc);
      ASSERT_TRUE(c.Next().ok());
    }
    EXPECT_FALSE(c.Valid());

    // Forward seeks against the naive reference.
    if (ps.empty()) continue;
    ScorePostingCursor s(blobs_.NewReader(ref), &scratch);
    ASSERT_TRUE(s.Init().ok());
    auto before = [](const ScorePosting& a, double sc, DocId d) {
      if (a.score != sc) return a.score > sc;
      return a.doc < d;
    };
    size_t naive = 0;
    for (size_t step = 0; step < ps.size(); step += 1 + step / 3) {
      const double tsc = ps[step].score;
      const DocId tdoc = ps[step].doc;
      ASSERT_TRUE(s.SeekTo(tsc, tdoc).ok());
      while (naive < ps.size() && before(ps[naive], tsc, tdoc)) ++naive;
      if (naive == ps.size()) {
        EXPECT_FALSE(s.Valid());
      } else {
        ASSERT_TRUE(s.Valid());
        EXPECT_EQ(s.score(), ps[naive].score);
        EXPECT_EQ(s.doc(), ps[naive].doc);
      }
    }
  }
}

// Two Score lists whose (score, doc) ranges are disjoint block by block,
// interleaved in scan order a0 a1 | b0 | a2 a3 | b1. A conjunctive
// leapfrog seeks A past a1 and past a3 on their block headers alone,
// decoding only the blocks a target lands in.
TEST_F(CodecV2Test, ScoreSeekSkipsWholeBlocksOfDisjointLists) {
  auto blocks = [](std::initializer_list<double> tops) {
    std::vector<ScorePosting> ps;
    for (const double top : tops) {
      for (size_t i = 0; i < kPostingBlockSize; ++i) {
        ps.push_back({top - static_cast<double>(i), static_cast<DocId>(i)});
      }
    }
    return ps;
  };
  const std::vector<ScorePosting> a = blocks({10000, 9000, 7000, 6000});
  const std::vector<ScorePosting> b = blocks({8000, 5000});
  std::string abuf, bbuf;
  EncodeScoreList(a, &abuf);
  EncodeScoreList(b, &bbuf);
  const auto aref = Put(abuf);
  const auto bref = Put(bbuf);
  ScoreCursorScratch ascratch, bscratch;
  QueryStats aq, bq;
  ScorePostingCursor ca(blobs_.NewReader(aref), &ascratch, &aq);
  ScorePostingCursor cb(blobs_.NewReader(bref), &bscratch, &bq);
  ASSERT_TRUE(ca.Init().ok());
  ASSERT_TRUE(cb.Init().ok());

  size_t matches = 0;
  while (ca.Valid() && cb.Valid()) {
    if (ca.score() == cb.score() && ca.doc() == cb.doc()) {
      ++matches;
      ASSERT_TRUE(ca.Next().ok());
      ASSERT_TRUE(cb.Next().ok());
    } else if (ca.score() > cb.score() ||
               (ca.score() == cb.score() && ca.doc() < cb.doc())) {
      ASSERT_TRUE(ca.SeekTo(cb.score(), cb.doc()).ok());
    } else {
      ASSERT_TRUE(cb.SeekTo(ca.score(), ca.doc()).ok());
    }
  }
  EXPECT_EQ(matches, 0u);
  EXPECT_FALSE(ca.Valid());
  // A: a0 (Init) and a2 decoded; a1 and a3 skipped by their headers.
  EXPECT_EQ(aq.blocks_decoded, 2u);
  EXPECT_EQ(aq.groups_galloped, 2u);
  EXPECT_EQ(aq.cursor_seeks, 2u);
  // B: each seek target lies inside the next block, so both decode.
  EXPECT_EQ(bq.blocks_decoded, 2u);
  EXPECT_EQ(bq.groups_galloped, 0u);
}

std::vector<ChunkGroup> MakeChunkGroups(size_t n_groups, size_t per_group,
                                        uint64_t seed) {
  std::vector<ChunkGroup> groups;
  Random rng(seed);
  for (size_t g = 0; g < n_groups; ++g) {
    ChunkGroup cg;
    cg.cid = static_cast<ChunkId>(n_groups - 1 - g);  // descending
    DocId d = rng.Uniform(50);
    for (size_t i = 0; i < per_group; ++i) {
      d += 1 + rng.Uniform(9);
      cg.postings.push_back(
          {d, static_cast<float>(rng.Uniform(1000)) / 1000.0f});
    }
    groups.push_back(std::move(cg));
  }
  return groups;
}

TEST_F(CodecV2Test, ChunkListRoundTrip) {
  for (bool with_ts : {false, true}) {
    for (size_t per_group : {1u, 127u, 128u, 129u, 300u}) {
      auto groups = MakeChunkGroups(5, per_group, 31 + per_group);
      std::string buf;
      EncodeChunkList(groups, with_ts, &buf);
      auto ref = Put(buf);
      CursorScratch scratch;
      ChunkPostingCursor c(blobs_.NewReader(ref), with_ts, &scratch);
      ASSERT_TRUE(c.Init().ok());
      for (const auto& g : groups) {
        ASSERT_TRUE(c.HasGroup());
        EXPECT_EQ(c.cid(), g.cid);
        for (const auto& p : g.postings) {
          ASSERT_TRUE(c.Valid());
          EXPECT_EQ(c.doc(), p.doc);
          if (with_ts) {
            EXPECT_EQ(c.term_score(), p.term_score);
          }
          ASSERT_TRUE(c.Next().ok());
        }
        EXPECT_FALSE(c.Valid());
        ASSERT_TRUE(c.NextGroup().ok());
      }
      EXPECT_FALSE(c.HasGroup());
    }
  }
}

TEST_F(CodecV2Test, ChunkSkipGroupAndSeekInGroup) {
  auto groups = MakeChunkGroups(8, 400, 77);
  std::string buf;
  EncodeChunkList(groups, /*with_ts=*/false, &buf);
  auto ref = Put(buf);
  CursorScratch scratch;
  ChunkPostingCursor c(blobs_.NewReader(ref), false, &scratch);
  ASSERT_TRUE(c.Init().ok());
  const uint64_t misses_before = pool_.stats().misses;
  size_t g_idx = 0;
  for (const auto& g : groups) {
    ASSERT_TRUE(c.HasGroup());
    if (g_idx % 2 == 0) {
      ASSERT_TRUE(c.SkipGroup().ok());
    } else {
      // Seek through the group with a stride; compare to reference.
      std::vector<DocId> docs;
      for (const auto& p : g.postings) docs.push_back(p.doc);
      DocId t = docs.front();
      while (true) {
        ASSERT_TRUE(c.SeekInGroup(t).ok());
        auto it = std::lower_bound(docs.begin(), docs.end(), t);
        if (it == docs.end()) {
          EXPECT_FALSE(c.Valid());
          break;
        }
        ASSERT_TRUE(c.Valid());
        EXPECT_EQ(c.doc(), *it);
        t = *it + 173;
      }
    }
    ASSERT_TRUE(c.NextGroup().ok());
    ++g_idx;
  }
  EXPECT_FALSE(c.HasGroup());
  // Skipping must not have fetched every page of the blob.
  EXPECT_LT(pool_.stats().misses - misses_before, ref.num_pages);
}

TEST_F(CodecV2Test, FancyListRoundTrip) {
  for (size_t n : kSizes) {
    auto ps = MakePostings(n, 53 + n);
    std::string buf;
    EncodeFancyList(ps, 0.25f, &buf);
    auto ref = Put(buf);
    std::vector<IdPosting> out;
    float min_ts = -1.0f;
    ASSERT_TRUE(DecodeFancyList(blobs_.NewReader(ref), &out, &min_ts).ok());
    EXPECT_EQ(min_ts, 0.25f);
    ASSERT_EQ(out.size(), n);
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(out[i].doc, ps[i].doc);
      EXPECT_EQ(out[i].term_score, ps[i].term_score);
    }
  }
}

// An encoded empty list and an absent list (a default BlobRef, which is
// what a term without long postings has) both read as empty.
TEST_F(CodecV2Test, EmptyListsAreValid) {
  std::string id_buf, chunk_buf, score_buf, fancy_buf;
  EncodeIdList({}, &id_buf);
  EncodeChunkList({}, /*with_ts=*/false, &chunk_buf);
  EncodeScoreList({}, &score_buf);
  EncodeFancyList({}, 0.0f, &fancy_buf);
  const storage::BlobRef absent;
  struct Lists {
    storage::BlobRef id, chunk, score, fancy;
  };
  for (const Lists& l : {Lists{Put(id_buf), Put(chunk_buf), Put(score_buf),
                               Put(fancy_buf)},
                         Lists{absent, absent, absent, absent}}) {
    CursorScratch scratch;
    IdPostingCursor id(blobs_.NewReader(l.id), /*with_ts=*/false, &scratch);
    ASSERT_TRUE(id.Init().ok());
    EXPECT_FALSE(id.Valid());
    EXPECT_EQ(id.count(), 0u);

    ChunkPostingCursor chunk(blobs_.NewReader(l.chunk), /*with_ts=*/false,
                             &scratch);
    ASSERT_TRUE(chunk.Init().ok());
    EXPECT_FALSE(chunk.HasGroup());
    EXPECT_FALSE(chunk.Valid());

    ScoreCursorScratch sscratch;
    ScorePostingCursor score(blobs_.NewReader(l.score), &sscratch);
    ASSERT_TRUE(score.Init().ok());
    EXPECT_FALSE(score.Valid());

    std::vector<IdPosting> out = {{1, 1.0f}};
    float min_ts = -1.0f;
    ASSERT_TRUE(DecodeFancyList(blobs_.NewReader(l.fancy), &out, &min_ts).ok());
    EXPECT_TRUE(out.empty());
    EXPECT_EQ(min_ts, 0.0f);
  }
}

// --- truncation fuzzing --------------------------------------------------
//
// Every prefix of a valid encoding must decode to an error (or a clean
// early end), never crash or read out of bounds. Exhaustive over every
// cut point of moderately sized lists.

template <typename DecodeAll>
void FuzzTruncations(storage::BlobStore* blobs, const std::string& buf,
                     DecodeAll decode_all) {
  for (size_t cut = 0; cut + 1 < buf.size(); cut += 1 + cut / 64) {
    std::string trunc = buf.substr(0, cut);
    auto ref = blobs->Write(trunc);
    ASSERT_TRUE(ref.ok());
    decode_all(ref.value());  // must not crash; status checked inside
    ASSERT_TRUE(blobs->Free(ref.value()).ok());
  }
}

TEST_F(CodecV2Test, TruncatedIdListFuzz) {
  auto ps = MakePostings(300, 3);
  std::string buf;
  EncodeIdTsList(ps, true, &buf);
  FuzzTruncations(&blobs_, buf, [&](storage::BlobRef ref) {
    CursorScratch scratch;
    IdPostingCursor c(blobs_.NewReader(ref), true, &scratch);
    Status st = c.Init();
    size_t decoded = 0;
    while (st.ok() && c.Valid() && decoded <= ps.size()) {
      ++decoded;
      st = c.Next();
    }
    EXPECT_LE(decoded, ps.size());
  });
}

TEST_F(CodecV2Test, TruncatedChunkListFuzz) {
  auto groups = MakeChunkGroups(4, 150, 11);
  std::string buf;
  EncodeChunkList(groups, false, &buf);
  FuzzTruncations(&blobs_, buf, [&](storage::BlobRef ref) {
    CursorScratch scratch;
    ChunkPostingCursor c(blobs_.NewReader(ref), false, &scratch);
    Status st = c.Init();
    size_t decoded = 0;
    while (st.ok() && c.HasGroup() && decoded < 10000) {
      if (c.Valid()) {
        ++decoded;
        st = c.Next();
      } else {
        st = c.NextGroup();
      }
    }
  });
}

TEST_F(CodecV2Test, TruncatedScoreListFuzz) {
  std::vector<ScorePosting> ps;
  for (size_t i = 0; i < 300; ++i) {
    ps.push_back({3000.0 - static_cast<double>(i), static_cast<DocId>(i)});
  }
  std::string buf;
  EncodeScoreList(ps, &buf);
  FuzzTruncations(&blobs_, buf, [&](storage::BlobRef ref) {
    ScoreCursorScratch scratch;
    ScorePostingCursor c(blobs_.NewReader(ref), &scratch);
    Status st = c.Init();
    size_t decoded = 0;
    while (st.ok() && c.Valid() && decoded <= ps.size()) {
      ++decoded;
      st = c.Next();
    }
    EXPECT_LE(decoded, ps.size());
  });
}

TEST_F(CodecV2Test, TruncatedFancyListFuzz) {
  auto ps = MakePostings(200, 29);
  std::string buf;
  EncodeFancyList(ps, 0.5f, &buf);
  FuzzTruncations(&blobs_, buf, [&](storage::BlobRef ref) {
    std::vector<IdPosting> out;
    float min_ts;
    Status st = DecodeFancyList(blobs_.NewReader(ref), &out, &min_ts);
    EXPECT_LE(out.size(), ps.size());
    (void)st;
  });
}

// --- end-to-end: TopK against the brute-force oracle --------------------

using test::IndexWorld;
using test::IsTermScoreMethod;
using test::MakeScores;

TEST(OracleEquivalenceTest, TopKMatchesOracleAfterScoreUpdates) {
  // Every method that owns blob long lists; kScore has no blobs and
  // kScoreThreshold/kChunk families cover both posting kinds.
  const Method methods[] = {Method::kId, Method::kIdTermScore,
                            Method::kScoreThreshold, Method::kChunk,
                            Method::kChunkTermScore};
  text::CorpusParams cp;
  cp.num_docs = 500;
  cp.terms_per_doc = 30;
  cp.vocab_size = 150;
  cp.term_zipf = 0.8;
  cp.seed = 2005;
  auto scores = MakeScores(cp.num_docs, 10000.0, 0.7, 99);

  for (Method m : methods) {
    auto w = IndexWorld::Make(m, cp, scores);
    ASSERT_NE(w, nullptr);

    // A few score updates so short lists participate.
    Random rng(7);
    for (int i = 0; i < 200; ++i) {
      const DocId d = rng.Uniform(cp.num_docs);
      const double ns = scores[d] + rng.Uniform(2000);
      ASSERT_TRUE(w->idx->OnScoreUpdate(d, ns).ok());
    }

    for (bool conjunctive : {true, false}) {
      for (uint64_t qseed = 0; qseed < 30; ++qseed) {
        Random qr(1000 + qseed);
        Query q;
        q.conjunctive = conjunctive;
        q.terms.push_back(qr.Uniform(cp.vocab_size));
        q.terms.push_back(qr.Uniform(cp.vocab_size));
        if (q.terms[0] == q.terms[1]) q.terms.pop_back();
        std::vector<SearchResult> got, want;
        ASSERT_TRUE(w->idx->TopK(q, 10, &got).ok());
        ASSERT_TRUE(
            w->oracle->TopK(q, 10, IsTermScoreMethod(m), &want).ok());
        ASSERT_EQ(got.size(), want.size())
            << MethodName(m) << " conj=" << conjunctive << " q=" << qseed;
        for (size_t i = 0; i < got.size(); ++i) {
          EXPECT_EQ(got[i].doc, want[i].doc) << MethodName(m) << " @" << i;
          EXPECT_NEAR(got[i].score, want[i].score, 1e-9)
              << MethodName(m) << " @" << i;
        }
      }
    }
  }
}

// --- fuzz-derived properties (fuzz/fuzz_block_codec.cc) -----------------
//
// The block-codec fuzz harness traps when a cursor yields more postings
// than its input bytes could encode; this test pins the same bounded-
// termination contract in the regular suite using the harness's
// deterministic mutator over every list kind.

TEST_F(CodecV2Test, MutatedListsNeverOverrunTheirByteBudget) {
  auto id_ts = MakePostings(129, 77);
  std::vector<DocId> docs;
  std::vector<ScorePosting> scored;
  for (size_t i = 0; i < id_ts.size(); ++i) {
    docs.push_back(id_ts[i].doc);
    scored.push_back({1000.0 - static_cast<double>(i), id_ts[i].doc});
  }
  std::vector<ChunkGroup> groups(2);
  groups[0].cid = 9;
  groups[0].postings.assign(id_ts.begin(), id_ts.begin() + 70);
  groups[1].cid = 3;
  groups[1].postings.assign(id_ts.begin() + 70, id_ts.end());

  std::vector<std::pair<std::string, int>> lists;  // (bytes, kind)
  std::string out;
  EncodeIdList(docs, &out);
  lists.emplace_back(out, 0);
  out.clear();
  EncodeIdTsList(id_ts, /*with_ts=*/true, &out);
  lists.emplace_back(out, 1);
  out.clear();
  EncodeChunkList(groups, /*with_ts=*/true, &out);
  lists.emplace_back(out, 2);
  out.clear();
  EncodeScoreList(scored, &out);
  lists.emplace_back(out, 3);

  auto scratch = std::make_unique<CursorScratch>();
  auto sscratch = std::make_unique<ScoreCursorScratch>();
  uint64_t rng = 0x5eedf00ddeadbeefULL;
  for (const auto& [original, kind] : lists) {
    for (int round = 0; round < 60; ++round) {
      std::string bytes = original;
      for (int s = 0; s < 1 + round % 6; ++s) svr::fuzz::Mutate(&bytes, &rng);
      auto ref = blobs_.Write(bytes);
      ASSERT_TRUE(ref.ok());
      // Each successful step consumes at least one input byte somewhere,
      // so a cursor still yielding past this bound is looping.
      const size_t bound = 16 * bytes.size() + 1024;
      size_t steps = 0;
      if (kind == 3) {
        ScorePostingCursor cur(blobs_.NewReader(ref.value()),
                               sscratch.get());
        if (!cur.Init().ok()) continue;
        while (cur.Valid()) {
          if (!cur.Next().ok()) break;
          ASSERT_LE(++steps, bound);
        }
      } else if (kind == 2) {
        ChunkPostingCursor cur(blobs_.NewReader(ref.value()),
                               /*with_ts=*/true, scratch.get());
        if (!cur.Init().ok()) continue;
        bool bail = false;
        while (cur.HasGroup() && !bail) {
          while (cur.Valid()) {
            if (!cur.Next().ok()) { bail = true; break; }
            ASSERT_LE(++steps, bound);
          }
          if (bail || !cur.NextGroup().ok()) break;
          ASSERT_LE(++steps, bound);
        }
      } else {
        IdPostingCursor cur(blobs_.NewReader(ref.value()),
                            /*with_ts=*/kind == 1, scratch.get());
        if (!cur.Init().ok()) continue;
        while (cur.Valid()) {
          if (!cur.Next().ok()) break;
          ASSERT_LE(++steps, bound);
        }
      }
    }
  }
}

}  // namespace
}  // namespace svr::index
