#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
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
  void SetUp() override { list_ = ShortList::Create(GetParam()); }

  // A sort value that is valid for every key kind.
  static double Sv(uint32_t v) { return static_cast<double>(v); }

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
  EXPECT_EQ(list_->dirty_terms().size(), 1u);
  ASSERT_TRUE(list_->Clear().ok());
  EXPECT_TRUE(list_->dirty_terms().empty());
  EXPECT_EQ(list_->DocPostingCount(30), 0u);
}

// The short list against a std::map model: random Put / Delete /
// DeleteTerm / DeleteUnchanged / Clear over a few hot terms (whose runs
// grow past several 64-posting blocks and re-code their tails many
// times) and a spread of cold ones (inline runs). Snapshots sealed at
// random points are re-checked, posting by posting, after later writes.
class ShortListModel {
 public:
  // Scan order: position descending (score, chunk id), then doc.
  using Key = std::pair<double, DocId>;
  using Term = std::map<Key, index::ShortList::Posting>;

  explicit ShortListModel(ShortList::KeyKind kind) : kind_(kind) {}

  Key KeyOf(double sort_value, DocId doc) const {
    return {kind_ == ShortList::KeyKind::kId ? 0.0 : -sort_value, doc};
  }
  double Position(double sort_value) const {
    return kind_ == ShortList::KeyKind::kId ? 0.0 : sort_value;
  }

  std::map<TermId, Term> terms;

 private:
  ShortList::KeyKind kind_;
};

void ExpectTermMatches(ShortList::Cursor c,
                       const ShortListModel::Term& want,
                       const std::string& where) {
  for (const auto& [key, p] : want) {
    ASSERT_TRUE(c.Valid()) << where << ": cursor ended early";
    EXPECT_EQ(c.doc(), p.doc) << where;
    EXPECT_EQ(c.sort_value(), p.sort_value) << where;
    EXPECT_EQ(c.op(), p.op) << where;
    EXPECT_EQ(c.term_score(), p.term_score) << where;
    c.Next();
  }
  EXPECT_FALSE(c.Valid()) << where << ": cursor has extra postings";
}

TEST_P(ShortListKindTest, MatchesModelThroughCompactionsAndSeals) {
  const ShortList::KeyKind kind = GetParam();
  constexpr TermId kTerms = 48;
  constexpr TermId kHotTerms = 3;
  constexpr DocId kDocs = 3000;
  ShortListModel model(kind);
  Random rng(20240 + static_cast<uint64_t>(kind));

  struct Sealed {
    ShortList::Snapshot snap;
    std::map<TermId, ShortListModel::Term> terms;
  };
  std::vector<Sealed> sealed;
  std::vector<uint64_t> versions(kTerms, 0);
  std::vector<float> max_ts(kTerms, 0.0f);
  size_t peak_hot = 0;

  auto pick_term = [&] {
    return static_cast<TermId>(rng.OneIn(2) ? rng.Uniform(kHotTerms)
                                            : rng.Uniform(kTerms));
  };
  // Whole-term drops (a merge's cleanup) rarely reach the hot terms, so
  // their runs keep growing between Clear()s.
  auto pick_merged_term = [&] {
    TermId t = static_cast<TermId>(rng.Uniform(kTerms));
    while (t < kHotTerms && !rng.OneIn(20)) {
      t = static_cast<TermId>(rng.Uniform(kTerms));
    }
    return t;
  };
  auto pick_position = [&] {
    // Few distinct positions, so groups hold several docs.
    return static_cast<double>(rng.Uniform(40)) *
           (kind == ShortList::KeyKind::kScore ? 12.5 : 1.0);
  };
  auto check_snapshot = [&](const Sealed& s, const std::string& where) {
    const ShortList::View view(list_.get(), s.snap);
    for (TermId t = 0; t < kTerms; ++t) {
      auto it = s.terms.find(t);
      const ShortListModel::Term empty;
      const ShortListModel::Term& want = it == s.terms.end() ? empty
                                                             : it->second;
      EXPECT_EQ(view.TermPostingCount(t), want.size()) << where;
      ExpectTermMatches(view.Scan(t), want, where);
      if (!want.empty()) {
        const auto& p = want.begin()->second;
        EXPECT_TRUE(view.Contains(t, p.sort_value, p.doc)) << where;
      }
    }
  };

  for (int step = 0; step < 30000; ++step) {
    const std::string where = "step " + std::to_string(step);
    const uint64_t roll = rng.Uniform(1000);
    TermId touched = kTerms;  // none
    if (roll < 600) {  // Put: new key or overwrite
      const TermId t = pick_term();
      double pos = pick_position();
      DocId doc = static_cast<DocId>(rng.Uniform(kDocs));
      auto& term = model.terms[t];
      if (!term.empty() && rng.OneIn(4)) {
        auto it = std::next(term.begin(), rng.Uniform(term.size()));
        pos = it->second.sort_value;
        doc = it->second.doc;
      }
      const PostingOp op =
          rng.OneIn(5) ? PostingOp::kRemove : PostingOp::kAdd;
      const float ts = rng.OneIn(2)
                           ? 0.0f
                           : static_cast<float>(rng.UniformDouble(0.01, 1));
      ASSERT_TRUE(list_->Put(t, pos, doc, op, ts).ok()) << where;
      term[model.KeyOf(pos, doc)] = {model.Position(pos), doc, op, ts};
      max_ts[t] = std::max(max_ts[t], ts);
      touched = t;
    } else if (roll < 800) {  // Delete: present or absent
      const TermId t = pick_term();
      auto& term = model.terms[t];
      double pos = pick_position();
      DocId doc = static_cast<DocId>(rng.Uniform(kDocs));
      if (!term.empty() && !rng.OneIn(4)) {
        auto it = std::next(term.begin(), rng.Uniform(term.size()));
        pos = it->second.sort_value;
        doc = it->second.doc;
      }
      const bool present = term.erase(model.KeyOf(pos, doc)) > 0;
      const Status st = list_->Delete(t, pos, doc);
      if (present) {
        ASSERT_TRUE(st.ok()) << where;
        touched = t;
      } else {
        EXPECT_TRUE(st.IsNotFound()) << where;
      }
    } else if (roll < 805) {  // DeleteTerm
      const TermId t = pick_merged_term();
      const bool had = !model.terms[t].empty();
      ASSERT_TRUE(list_->DeleteTerm(t).ok()) << where;
      model.terms[t].clear();
      max_ts[t] = 0.0f;
      if (had) touched = t;
    } else if (roll < 830) {  // DeleteUnchanged after interleaved writes
      const TermId t = pick_merged_term();
      std::vector<ShortList::Posting> read;
      ShortList::View(list_.get(), list_->Seal()).Collect(t, &read);
      auto& term = model.terms[t];
      ASSERT_EQ(read.size(), term.size()) << where;
      // Overwrite one read posting with a new op: it must survive.
      if (!read.empty()) {
        const ShortList::Posting& p = read[rng.Uniform(read.size())];
        const PostingOp op = p.op == PostingOp::kAdd ? PostingOp::kRemove
                                                     : PostingOp::kAdd;
        ASSERT_TRUE(list_->Put(t, p.sort_value, p.doc, op, p.term_score)
                        .ok());
        term[model.KeyOf(p.sort_value, p.doc)].op = op;
      }
      ASSERT_TRUE(list_->DeleteUnchanged(t, read).ok()) << where;
      for (const ShortList::Posting& p : read) {
        auto it = term.find(model.KeyOf(p.sort_value, p.doc));
        if (it != term.end() && it->second.op == p.op &&
            it->second.term_score == p.term_score) {
          term.erase(it);
        }
      }
      if (!read.empty()) touched = t;
    } else if (roll < 831 && rng.OneIn(10)) {  // Clear
      ASSERT_TRUE(list_->Clear().ok()) << where;
      model.terms.clear();
      std::fill(max_ts.begin(), max_ts.end(), 0.0f);
      EXPECT_EQ(list_->SizeBytes(), 0u) << where;
    } else if (roll < 940) {  // Seal
      if (sealed.size() == 4) sealed.erase(sealed.begin());
      sealed.push_back({list_->Seal(), model.terms});
    } else if (!sealed.empty()) {  // Re-check an old snapshot
      check_snapshot(sealed[rng.Uniform(sealed.size())], where);
    }

    // Counts, stamps, bounds and bytes after every step.
    uint64_t total = 0;
    uint64_t term_bytes = 0;
    size_t live_terms = 0;
    for (TermId t = 0; t < kTerms; ++t) {
      const auto it = model.terms.find(t);
      const size_t n = it == model.terms.end() ? 0 : it->second.size();
      total += n;
      live_terms += n > 0 ? 1 : 0;
      ASSERT_EQ(list_->TermPostingCount(t), n) << where << " term " << t;
      EXPECT_EQ(list_->dirty_terms().count(t), n > 0 ? 1u : 0u) << where;
      const uint64_t v = list_->TermVersion(t);
      EXPECT_GE(v, versions[t]) << where << " term " << t;
      if (t == touched) {
        EXPECT_GT(v, versions[t]) << where;
      }
      versions[t] = v;
      EXPECT_GE(list_->TermMaxTs(t), max_ts[t]) << where;
      term_bytes += list_->TermApproxBytes(t);
      if (n == 0) {
        EXPECT_EQ(list_->TermApproxBytes(t), 0u) << where;
      }
    }
    ASSERT_EQ(list_->num_postings(), total) << where;
    EXPECT_EQ(list_->dirty_terms().size(), live_terms) << where;
    EXPECT_EQ(list_->SizeBytes(),
              term_bytes + list_->SlotBytes() -
                  ShortList::kSlotHandleBytes * live_terms)
        << where;
    for (TermId t = 0; t < kHotTerms; ++t) {
      peak_hot = std::max(peak_hot, model.terms[t].size());
    }

    if (step % 500 == 0) {
      std::map<DocId, uint64_t> docs;
      for (TermId t = 0; t < kTerms; ++t) {
        ExpectTermMatches(list_->Scan(t), model.terms[t], where);
        for (const auto& [key, p] : model.terms[t]) ++docs[p.doc];
      }
      for (DocId d = 0; d < kDocs; ++d) {
        ASSERT_EQ(list_->DocPostingCount(d), docs[d]) << where << " doc "
                                                      << d;
      }
      for (const Sealed& s : sealed) check_snapshot(s, where);
    }
    if (HasFatalFailure()) return;
  }
  // The hot terms grew through many blocks, so their tails were re-coded
  // into the run many times over.
  EXPECT_GT(peak_hot, 300u);
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
