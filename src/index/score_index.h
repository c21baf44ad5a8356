#ifndef SVR_INDEX_SCORE_INDEX_H_
#define SVR_INDEX_SCORE_INDEX_H_

#include <memory>
#include <string>
#include <vector>

#include "index/text_index.h"
#include "storage/bptree.h"

namespace svr::index {

/// \brief The Score method (§4.2.2): one inverted list per term ordered
/// by decreasing score, each posting carrying (score, doc).
///
/// Queries terminate as soon as the top-k is complete (the lists are in
/// exact score order), but every score update must relocate one posting
/// in the list of *every* distinct term of the document — the paper
/// measures ~17 s per update at scale. Because the list is mutated it is
/// a clustered B+-tree rather than an immutable blob (§5.2).
class ScoreIndex final : public TextIndex {
 public:
  explicit ScoreIndex(const IndexContext& ctx);

  std::string name() const override { return "Score"; }

  Status Build() override;
  Status OnScoreUpdate(DocId doc, double new_score) override;
  Status TopKAt(const IndexSnapshot& snap, const Query& query, size_t k,
                std::vector<SearchResult>* results,
                QueryStats* query_stats = nullptr) override;
  IndexSnapshot SealSnapshot() override;

  Status InsertDocument(DocId doc, double score) override;
  Status DeleteDocument(DocId doc) override;
  Status UpdateContent(DocId doc, const text::Document& old_doc) override;

  uint64_t LongListBytes() const override { return tree_->SizeBytes(); }

 private:
  class TermCursor;

  std::string PostingKey(TermId term, double score, DocId doc) const;

  IndexContext ctx_;
  std::unique_ptr<storage::BPlusTree> tree_;
  bool has_deletions_ = false;
};

}  // namespace svr::index

#endif  // SVR_INDEX_SCORE_INDEX_H_
