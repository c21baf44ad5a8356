#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <string>
#include <vector>

#include "index/index_factory.h"
#include "index/merge_policy.h"
#include "index/short_list.h"
#include "storage/page_store.h"
#include "tests/index_test_util.h"

namespace svr::test {
namespace {

using index::Method;
using index::PostingOp;
using index::Query;
using index::SearchResult;
using index::ShortList;

// --- ShortList per-term range deletion & accounting ----------------------

class ShortListKindTest
    : public ::testing::TestWithParam<ShortList::KeyKind> {
 protected:
  void SetUp() override {
    store_ = std::make_unique<storage::InMemoryPageStore>(4096);
    pool_ = std::make_unique<storage::BufferPool>(store_.get(), 256);
    auto sl = ShortList::Create(pool_.get(), GetParam());
    ASSERT_TRUE(sl.ok());
    list_ = std::move(sl).value();
  }

  // A sort value that is valid for every key kind.
  static double Sv(uint32_t v) { return static_cast<double>(v); }

  std::unique_ptr<storage::InMemoryPageStore> store_;
  std::unique_ptr<storage::BufferPool> pool_;
  std::unique_ptr<ShortList> list_;
};

TEST_P(ShortListKindTest, DeleteTermRemovesOnlyThatTerm) {
  ASSERT_TRUE(list_->Put(1, Sv(5), 10, PostingOp::kAdd, 0.5f).ok());
  ASSERT_TRUE(list_->Put(1, Sv(5), 11, PostingOp::kAdd, 0.5f).ok());
  ASSERT_TRUE(list_->Put(1, Sv(7), 12, PostingOp::kRemove, 0.0f).ok());
  ASSERT_TRUE(list_->Put(2, Sv(5), 10, PostingOp::kAdd, 0.5f).ok());
  ASSERT_TRUE(list_->Put(3, Sv(9), 13, PostingOp::kAdd, 0.5f).ok());
  EXPECT_EQ(list_->TermPostingCount(1), 3u);
  EXPECT_EQ(list_->TermPostingCount(2), 1u);
  EXPECT_EQ(list_->num_postings(), 5u);
  EXPECT_EQ(list_->DocPostingCount(10), 2u);

  ASSERT_TRUE(list_->DeleteTerm(1).ok());
  EXPECT_EQ(list_->TermPostingCount(1), 0u);
  EXPECT_FALSE(list_->Scan(1).Valid());
  EXPECT_EQ(list_->num_postings(), 2u);
  EXPECT_EQ(list_->DocPostingCount(10), 1u);
  EXPECT_EQ(list_->DocPostingCount(11), 0u);
  // Untouched terms scan as before.
  EXPECT_TRUE(list_->Scan(2).Valid());
  EXPECT_TRUE(list_->Scan(3).Valid());
  EXPECT_TRUE(list_->Contains(2, Sv(5), 10));
  EXPECT_FALSE(list_->Contains(1, Sv(5), 10));
  // Deleting an empty term is a no-op.
  ASSERT_TRUE(list_->DeleteTerm(1).ok());
  ASSERT_TRUE(list_->DeleteTerm(999).ok());
}

TEST_P(ShortListKindTest, UpsertDoesNotDoubleCount) {
  ASSERT_TRUE(list_->Put(4, Sv(2), 20, PostingOp::kAdd, 0.1f).ok());
  ASSERT_TRUE(list_->Put(4, Sv(2), 20, PostingOp::kRemove, 0.2f).ok());
  EXPECT_EQ(list_->TermPostingCount(4), 1u);
  EXPECT_EQ(list_->DocPostingCount(20), 1u);
  // The overwrite took effect.
  ShortList::Cursor c = list_->Scan(4);
  ASSERT_TRUE(c.Valid());
  EXPECT_EQ(c.op(), PostingOp::kRemove);

  ASSERT_TRUE(list_->Delete(4, Sv(2), 20).ok());
  EXPECT_EQ(list_->TermPostingCount(4), 0u);
  EXPECT_EQ(list_->DocPostingCount(20), 0u);
  EXPECT_TRUE(list_->Delete(4, Sv(2), 20).IsNotFound());
}

TEST_P(ShortListKindTest, TermCountsDriveApproxBytes) {
  ASSERT_TRUE(list_->Put(6, Sv(1), 30, PostingOp::kAdd, 0.0f).ok());
  ASSERT_TRUE(list_->Put(6, Sv(1), 31, PostingOp::kAdd, 0.0f).ok());
  EXPECT_GT(list_->TermApproxBytes(6), 0u);
  EXPECT_EQ(list_->TermApproxBytes(7), 0u);
  EXPECT_EQ(list_->term_counts().size(), 1u);
  ASSERT_TRUE(list_->Clear().ok());
  EXPECT_TRUE(list_->term_counts().empty());
  EXPECT_EQ(list_->DocPostingCount(30), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, ShortListKindTest,
    ::testing::Values(ShortList::KeyKind::kScore,
                      ShortList::KeyKind::kChunk, ShortList::KeyKind::kId),
    [](const ::testing::TestParamInfo<ShortList::KeyKind>& info) {
      switch (info.param) {
        case ShortList::KeyKind::kScore:
          return "Score";
        case ShortList::KeyKind::kChunk:
          return "Chunk";
        case ShortList::KeyKind::kId:
          return "Id";
      }
      return "?";
    });

// --- merge equivalence ----------------------------------------------------

// All five methods with short lists (Score relocates in place instead).
const Method kMergeMethods[] = {
    Method::kId,          Method::kIdTermScore,  Method::kScoreThreshold,
    Method::kChunk,       Method::kChunkTermScore,
};

std::string PrintMethod(const ::testing::TestParamInfo<Method>& info) {
  std::string n = index::MethodName(info.param);
  std::string out;
  for (char c : n) {
    if (c != '-') out.push_back(c);
  }
  return out;
}

// Runs the same mixed insert/update/delete/content-update workload
// against two identical worlds, incrementally merging one of them at
// random points, and asserts the two indexes and the oracle agree at
// every checkpoint.
class MergeEquivalenceTest : public ::testing::TestWithParam<Method> {
 protected:
  void SetUp() override {
    params_.num_docs = 300;
    params_.terms_per_doc = 30;
    params_.vocab_size = 100;
    params_.term_zipf = 0.6;
    params_.seed = 41;
    scores_ = MakeScores(params_.num_docs, 20000.0, 0.75, 13);
    merged_ = IndexWorld::Make(GetParam(), params_, scores_);
    plain_ = IndexWorld::Make(GetParam(), params_, scores_);
    ASSERT_NE(merged_, nullptr);
    ASSERT_NE(plain_, nullptr);
  }

  bool with_ts() const { return IsTermScoreMethod(GetParam()); }

  void ExpectEquivalent(const std::string& label) {
    auto by_freq = merged_->corpus.TermsByFrequency();
    std::vector<Query> qs;
    for (bool conj : {true, false}) {
      for (size_t a : {size_t{0}, size_t{2}, size_t{9}, by_freq.size() / 2}) {
        Query q;
        q.terms = {by_freq[a], by_freq[(a + 1) % by_freq.size()]};
        q.conjunctive = conj;
        qs.push_back(q);
      }
      Query single;
      single.terms = {by_freq[0]};
      single.conjunctive = conj;
      qs.push_back(single);
    }
    int qi = 0;
    for (const Query& q : qs) {
      std::vector<SearchResult> got_m, got_p, want;
      ASSERT_TRUE(merged_->idx->TopK(q, 10, &got_m).ok()) << label;
      ASSERT_TRUE(plain_->idx->TopK(q, 10, &got_p).ok()) << label;
      ASSERT_TRUE(merged_->oracle->TopK(q, 10, with_ts(), &want).ok());
      ASSERT_EQ(got_m.size(), want.size()) << label << " q" << qi;
      ASSERT_EQ(got_p.size(), want.size()) << label << " q" << qi;
      for (size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(got_m[i].doc, want[i].doc)
            << label << " q" << qi << " rank " << i << " (merged)";
        EXPECT_EQ(got_p[i].doc, want[i].doc)
            << label << " q" << qi << " rank " << i << " (plain)";
        EXPECT_NEAR(got_m[i].score, want[i].score, 1e-6)
            << label << " q" << qi << " rank " << i;
      }
      ++qi;
    }
  }

  // Applies one operation identically to both worlds.
  void ScoreUpdate(DocId d, double s) {
    ASSERT_TRUE(merged_->idx->OnScoreUpdate(d, s).ok());
    ASSERT_TRUE(plain_->idx->OnScoreUpdate(d, s).ok());
  }
  void Insert(std::vector<TermId> tokens, double s) {
    const DocId d = static_cast<DocId>(merged_->corpus.num_docs());
    merged_->corpus.Add(text::Document::FromTokens(
        std::vector<TermId>(tokens)));
    plain_->corpus.Add(text::Document::FromTokens(std::move(tokens)));
    ASSERT_TRUE(merged_->idx->InsertDocument(d, s).ok());
    ASSERT_TRUE(plain_->idx->InsertDocument(d, s).ok());
  }
  void Delete(DocId d) {
    ASSERT_TRUE(merged_->idx->DeleteDocument(d).ok());
    ASSERT_TRUE(plain_->idx->DeleteDocument(d).ok());
    deleted_.insert(d);
  }
  void ContentUpdate(DocId d, std::vector<TermId> tokens) {
    const text::Document old_doc = merged_->corpus.doc(d);
    merged_->corpus.Replace(
        d, text::Document::FromTokens(std::vector<TermId>(tokens)));
    plain_->corpus.Replace(
        d, text::Document::FromTokens(std::move(tokens)));
    ASSERT_TRUE(merged_->idx->UpdateContent(d, old_doc).ok());
    ASSERT_TRUE(plain_->idx->UpdateContent(d, old_doc).ok());
  }

  DocId PickLiveDoc(Random* rng) {
    while (true) {
      DocId d = static_cast<DocId>(
          rng->Uniform(merged_->corpus.num_docs()));
      if (deleted_.count(d) == 0) return d;
    }
  }

  text::CorpusParams params_;
  std::vector<double> scores_;
  std::unique_ptr<IndexWorld> merged_;
  std::unique_ptr<IndexWorld> plain_;
  std::set<DocId> deleted_;
};

TEST_P(MergeEquivalenceTest, RandomMergePointsPreserveResults) {
  Random rng(777);
  auto by_freq = merged_->corpus.TermsByFrequency();
  // Content updates on TS methods are excluded like everywhere else in
  // the suite: term-frequency changes leave stale term scores in the
  // untouched long postings of *both* worlds, and the merge legitimately
  // refreshes them — equivalence is only defined without them.
  const bool content_updates = !with_ts();

  for (int step = 0; step < 500; ++step) {
    const uint32_t roll = rng.Uniform(100);
    if (roll < 60) {
      DocId d = PickLiveDoc(&rng);
      double s;
      if (!merged_->score_table->Get(d, &s).ok()) s = 0.0;
      double delta = rng.UniformDouble(0, 4000.0) * (rng.OneIn(2) ? 1 : -1);
      ScoreUpdate(d, std::max(0.0, s + delta));
    } else if (roll < 75) {
      std::vector<TermId> tokens;
      for (int i = 0; i < 12; ++i) {
        tokens.push_back(by_freq[rng.Uniform(by_freq.size())]);
      }
      Insert(std::move(tokens), rng.UniformDouble(0, 40000.0));
    } else if (roll < 83) {
      Delete(PickLiveDoc(&rng));
    } else if (content_updates && roll < 95) {
      DocId d = PickLiveDoc(&rng);
      const auto& terms = merged_->corpus.doc(d).terms();
      std::vector<TermId> tokens(terms.begin(), terms.end());
      if (!tokens.empty() && rng.OneIn(2)) tokens.pop_back();
      tokens.push_back(by_freq[rng.Uniform(by_freq.size())]);
      ContentUpdate(d, std::move(tokens));
    } else {
      DocId d = PickLiveDoc(&rng);
      double s;
      if (!merged_->score_table->Get(d, &s).ok()) s = 0.0;
      ScoreUpdate(d, s + rng.UniformDouble(0, 15000.0));
    }

    // Merge a random term of the merged world at random points.
    if (step % 23 == 22) {
      TermId t = by_freq[rng.Uniform(by_freq.size())];
      ASSERT_TRUE(merged_->idx->MergeTerm(t).ok()) << "term " << t;
    }
    if (step % 125 == 124) {
      ExpectEquivalent("step" + std::to_string(step));
    }
  }

  // Drain every remaining short posting and compare once more.
  ASSERT_TRUE(merged_->idx->MergeAllTerms().ok());
  EXPECT_EQ(merged_->idx->ShortPostingCount(), 0u);
  EXPECT_GT(plain_->idx->ShortPostingCount(), 0u);
  ExpectEquivalent("final");

  // Merged-away terms answer further updates correctly too.
  for (int step = 0; step < 60; ++step) {
    DocId d = PickLiveDoc(&rng);
    double s;
    if (!merged_->score_table->Get(d, &s).ok()) s = 0.0;
    ScoreUpdate(d, std::max(0.0, s + rng.UniformDouble(0, 9000.0) *
                                         (rng.OneIn(2) ? 1 : -1)));
  }
  ExpectEquivalent("post-merge-churn");
}

TEST_P(MergeEquivalenceTest, PolicySweepPreservesResults) {
  // Rebuild the merged world with an aggressive policy so the sweeps do
  // real work on this small corpus.
  MergePolicy policy;
  policy.enabled = true;
  policy.short_ratio = 0.05;
  policy.min_short_postings = 4;
  policy.max_terms_per_sweep = 16;
  merged_ = IndexWorld::Make(GetParam(), params_, scores_,
                             IndexWorld::DefaultOptions(), policy);
  ASSERT_NE(merged_, nullptr);

  Random rng(31);
  auto by_freq = merged_->corpus.TermsByFrequency();
  uint64_t merged_terms = 0;
  for (int step = 0; step < 400; ++step) {
    if (step % 4 == 3) {
      // Inserts churn the short lists of every method (the ID family's
      // score updates touch only the Score table).
      std::vector<TermId> tokens;
      for (int i = 0; i < 12; ++i) {
        tokens.push_back(by_freq[rng.Uniform(by_freq.size())]);
      }
      Insert(std::move(tokens), rng.UniformDouble(0, 30000.0));
    } else {
      DocId d = PickLiveDoc(&rng);
      double s;
      if (!merged_->score_table->Get(d, &s).ok()) s = 0.0;
      double delta =
          rng.UniformDouble(0, 6000.0) * (rng.OneIn(2) ? 1 : -1);
      ScoreUpdate(d, std::max(0.0, s + delta));
    }
    if (step % 50 == 49) {
      auto r = merged_->idx->MaybeAutoMerge();
      ASSERT_TRUE(r.ok());
      merged_terms += r.value();
      ExpectEquivalent("sweep-step" + std::to_string(step));
    }
  }
  EXPECT_GT(merged_terms, 0u) << "policy never triggered";
  EXPECT_GT(merged_->idx->stats().term_merges, 0u);
  EXPECT_GT(merged_->idx->stats().auto_merge_sweeps, 0u);
  // The policy keeps the short structure materially smaller than the
  // never-merged twin's.
  EXPECT_LT(merged_->idx->ShortPostingCount(),
            plain_->idx->ShortPostingCount());
}

TEST_P(MergeEquivalenceTest, MergeTermDoesNotRescanCorpus) {
  Random rng(5);
  auto by_freq = merged_->corpus.TermsByFrequency();
  for (int i = 0; i < 120; ++i) {
    DocId d = PickLiveDoc(&rng);
    double s;
    ASSERT_TRUE(merged_->score_table->Get(d, &s).ok());
    ScoreUpdate(d, s + rng.UniformDouble(0, 20000.0));
  }
  merged_->idx->ResetStats();
  ASSERT_TRUE(merged_->idx->MergeTerm(by_freq[0]).ok());
  EXPECT_EQ(merged_->idx->stats().corpus_docs_scanned, 0u)
      << "incremental merge must not re-scan the corpus";
  EXPECT_EQ(merged_->idx->stats().term_merges, 1u);
  EXPECT_GT(merged_->idx->stats().merge_postings_written, 0u);

  // The full rebuild, by contrast, visits every document.
  merged_->idx->ResetStats();
  ASSERT_TRUE(merged_->idx->RebuildIndex().ok());
  EXPECT_GE(merged_->idx->stats().corpus_docs_scanned,
            static_cast<uint64_t>(merged_->corpus.num_docs()));
  ExpectEquivalent("post-rebuild");
}

INSTANTIATE_TEST_SUITE_P(Methods, MergeEquivalenceTest,
                         ::testing::ValuesIn(kMergeMethods), PrintMethod);

// --- budget trigger -------------------------------------------------------

TEST(MergeBudgetTest, ByteBudgetForcesMerges) {
  text::CorpusParams params;
  params.num_docs = 200;
  params.terms_per_doc = 25;
  params.vocab_size = 60;
  params.seed = 9;
  auto scores = MakeScores(params.num_docs, 10000.0, 0.75, 2);

  MergePolicy policy;
  policy.enabled = true;
  policy.short_ratio = 1e9;  // ratio trigger effectively off
  policy.min_short_postings = 1u << 30;
  policy.short_bytes_budget = 1;  // any short structure is over budget
  auto world = IndexWorld::Make(Method::kChunk, params, scores,
                                IndexWorld::DefaultOptions(), policy);
  ASSERT_NE(world, nullptr);

  Random rng(1);
  for (int i = 0; i < 150; ++i) {
    DocId d = static_cast<DocId>(rng.Uniform(params.num_docs));
    double s;
    ASSERT_TRUE(world->score_table->Get(d, &s).ok());
    ASSERT_TRUE(
        world->idx->OnScoreUpdate(d, s + rng.UniformDouble(0, 30000.0)).ok());
  }
  ASSERT_GT(world->idx->ShortPostingCount(), 0u);
  auto r = world->idx->MaybeAutoMerge();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GT(r.value(), 0u);
}

// --- satellite regressions ------------------------------------------------

// UpdateContent / OnScoreUpdate on a document that never got a Score
// entry must not fail with NotFound (such docs are indexed at 0.0).
class NeverScoredDocTest : public ::testing::TestWithParam<Method> {};

TEST_P(NeverScoredDocTest, ContentAndScoreUpdatesSucceed) {
  text::CorpusParams params;
  params.num_docs = 120;
  params.terms_per_doc = 20;
  params.vocab_size = 50;
  params.seed = 23;
  auto scores = MakeScores(params.num_docs, 10000.0, 0.75, 6);
  const DocId unscored = 7;
  scores[unscored] = std::nan("");
  auto world = IndexWorld::Make(GetParam(), params, scores);
  ASSERT_NE(world, nullptr);

  // While still unscored, the doc is not a result candidate — exactly
  // like the oracle — even with k larger than the match count and no
  // deletions in play.
  {
    Query q;
    q.terms = {world->corpus.doc(unscored).terms()[0]};
    std::vector<SearchResult> got, want;
    ASSERT_TRUE(world->idx->TopK(q, 1000, &got).ok());
    ASSERT_TRUE(world->oracle->TopK(q, 1000, false, &want).ok());
    ASSERT_EQ(got.size(), want.size());
    for (const auto& r : got) EXPECT_NE(r.doc, unscored);
  }

  // Content update on the never-scored doc.
  const text::Document old_doc = world->corpus.doc(unscored);
  auto by_freq = world->corpus.TermsByFrequency();
  std::vector<TermId> tokens(old_doc.terms().begin(),
                             old_doc.terms().end() - 1);
  tokens.push_back(by_freq[by_freq.size() - 1]);
  world->corpus.Replace(unscored,
                        text::Document::FromTokens(std::move(tokens)));
  EXPECT_TRUE(world->idx->UpdateContent(unscored, old_doc).ok());

  // First score it ever receives flows through Algorithm 1.
  EXPECT_TRUE(world->idx->OnScoreUpdate(unscored, 50000.0).ok());

  // And it ranks by that score afterwards.
  Query q;
  q.terms = {by_freq[by_freq.size() - 1]};
  std::vector<SearchResult> got, want;
  ASSERT_TRUE(world->idx->TopK(q, 10, &got).ok());
  ASSERT_TRUE(world->oracle->TopK(q, 10, false, &want).ok());
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].doc, want[i].doc) << "rank " << i;
  }
}

const Method kNeverScoredMethods[] = {
    Method::kScore,
    Method::kScoreThreshold,
    Method::kChunk,
};

INSTANTIATE_TEST_SUITE_P(Methods, NeverScoredDocTest,
                         ::testing::ValuesIn(kNeverScoredMethods),
                         PrintMethod);

// Chunk-TermScore Phase-1 finalization must not use build-time fancy
// term scores for documents whose short postings carry fresher ones
// (content update changed tf, then a score move re-read it).
TEST(ChunkTermScoreStaleFancyTest, ShortPostingsGovernAfterContentUpdate) {
  text::CorpusParams params;
  params.num_docs = 150;
  params.terms_per_doc = 20;
  params.vocab_size = 60;
  params.term_zipf = 0.5;
  params.seed = 77;
  auto scores = MakeScores(params.num_docs, 10000.0, 0.75, 3);
  auto world = IndexWorld::Make(Method::kChunkTermScore, params, scores);
  ASSERT_NE(world, nullptr);

  auto by_freq = world->corpus.TermsByFrequency();
  const TermId a = by_freq[0];
  const TermId b = by_freq[1];
  // The doc with the highest build-time tf for `a` is surely in `a`'s
  // fancy list (fancy_list_size = 8 in the test options).
  DocId d = kInvalidDocId;
  double best = -1.0;
  for (DocId c = 0; c < params.num_docs; ++c) {
    if (!world->corpus.doc(c).Contains(a)) continue;
    if (world->corpus.doc(c).NormalizedTf(a) > best) {
      best = world->corpus.doc(c).NormalizedTf(a);
      d = c;
    }
  }
  ASSERT_NE(d, kInvalidDocId);

  // Dilute its tf for `a` sharply (and raise tf for `b`): surviving-term
  // frequencies change without touching the term *set*.
  const text::Document old_doc = world->corpus.doc(d);
  std::vector<TermId> tokens(old_doc.terms().begin(),
                             old_doc.terms().end());
  if (!old_doc.Contains(b)) tokens.push_back(b);
  for (int i = 0; i < 60; ++i) tokens.push_back(b);
  world->corpus.Replace(d, text::Document::FromTokens(std::move(tokens)));
  ASSERT_TRUE(world->idx->UpdateContent(d, old_doc).ok());

  // Move the doc into the short lists; the move re-reads the current tf.
  double s;
  ASSERT_TRUE(world->score_table->Get(d, &s).ok());
  ASSERT_TRUE(world->idx->OnScoreUpdate(d, s + 30000.0).ok());

  for (const std::vector<TermId>& terms :
       {std::vector<TermId>{a}, std::vector<TermId>{b},
        std::vector<TermId>{a, b}}) {
    Query q;
    q.terms = terms;
    q.conjunctive = true;
    std::vector<SearchResult> got, want;
    ASSERT_TRUE(world->idx->TopK(q, 10, &got).ok());
    ASSERT_TRUE(world->oracle->TopK(q, 10, true, &want).ok());
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].doc, want[i].doc)
          << "terms " << terms.size() << " rank " << i;
      EXPECT_NEAR(got[i].score, want[i].score, 1e-6) << "rank " << i;
    }
  }

  // Merging the churned terms refreshes their fancy lists; results hold.
  ASSERT_TRUE(world->idx->MergeTerm(a).ok());
  ASSERT_TRUE(world->idx->MergeTerm(b).ok());
  Query q;
  q.terms = {a, b};
  std::vector<SearchResult> got, want;
  ASSERT_TRUE(world->idx->TopK(q, 10, &got).ok());
  ASSERT_TRUE(world->oracle->TopK(q, 10, true, &want).ok());
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].doc, want[i].doc) << "post-merge rank " << i;
  }
}

// Regression (found by the concurrent churn driver at scale): removing a
// long-list-backed term, re-adding it, and removing it again must leave
// the term dead for the document. The re-add's short ADD overwrites the
// first removal's REM marker at the same key; the second removal then
// used to *retract* that ADD instead of writing a REM — resurrecting the
// long posting. UpdateContent now always writes REM markers for removed
// terms (a stray REM is skipped by every stream and folded by merges).
class RemoveReaddRemoveTest : public ::testing::TestWithParam<Method> {};

TEST_P(RemoveReaddRemoveTest, SecondRemovalKeepsTheTermDead) {
  text::CorpusParams params;
  params.num_docs = 200;
  params.terms_per_doc = 20;
  params.vocab_size = 60;
  params.seed = 97;
  auto scores = MakeScores(params.num_docs, 10000.0, 0.75, 11);
  auto world = IndexWorld::Make(GetParam(), params, scores);
  ASSERT_NE(world, nullptr);

  const DocId d = 5;
  const std::vector<TermId> original(world->corpus.doc(d).terms().begin(),
                                     world->corpus.doc(d).terms().end());
  ASSERT_GE(original.size(), 2u);
  const TermId t = original[0];  // backed by the long list since Build
  std::vector<TermId> without;
  for (TermId x : original) {
    if (x != t) without.push_back(x);
  }

  auto apply = [&](const std::vector<TermId>& tokens) {
    const text::Document old_doc = world->corpus.doc(d);
    world->corpus.Replace(
        d, text::Document::FromTokens(std::vector<TermId>(tokens)));
    ASSERT_TRUE(world->idx->UpdateContent(d, old_doc).ok());
  };
  auto expect_dead = [&](const char* label) {
    Query q;
    q.terms = {t};
    std::vector<SearchResult> got;
    ASSERT_TRUE(world->idx->TopK(q, 1000, &got).ok()) << label;
    for (const auto& r : got) {
      EXPECT_NE(r.doc, d) << label
                          << ": removed term still matches the doc";
    }
  };

  apply(without);   // remove t -> REM marker over the long posting
  expect_dead("first removal");
  apply(original);  // re-add t -> ADD overwrites the REM at the same key
  apply(without);   // remove again -> must leave a REM, not retract
  expect_dead("second removal");

  // The incremental merge folds the marker away and stays dead.
  ASSERT_TRUE(world->idx->MergeTerm(t).ok());
  expect_dead("after merge");

  // And a final re-add resurfaces the doc for the term.
  apply(original);
  Query q;
  q.terms = {t};
  std::vector<SearchResult> got;
  ASSERT_TRUE(world->idx->TopK(q, 1000, &got).ok());
  bool found = false;
  for (const auto& r : got) found = found || r.doc == d;
  EXPECT_TRUE(found) << "re-added term no longer matches";
}

INSTANTIATE_TEST_SUITE_P(AllMergeMethods, RemoveReaddRemoveTest,
                         ::testing::ValuesIn(kMergeMethods), PrintMethod);

}  // namespace
}  // namespace svr::test
