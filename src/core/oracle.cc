#include "core/oracle.h"

#include "index/result_heap.h"

namespace svr::core {

Status BruteForceOracle::TopK(
    const index::Query& query, size_t k, bool with_term_scores,
    std::vector<index::SearchResult>* results) const {
  return TopKAt(corpus_->Seal(), scores_->LiveView(), query, k,
                with_term_scores, results, ts_options_);
}

Status BruteForceOracle::TopKAt(const text::Corpus::Snapshot& corpus,
                                const relational::ScoreTable::View& scores,
                                const index::Query& query, size_t k,
                                bool with_term_scores,
                                std::vector<index::SearchResult>* results,
                                index::TermScoreOptions ts_options) {
  results->clear();
  if (query.terms.empty() || k == 0) return Status::OK();

  index::ResultHeap heap(k);
  for (DocId d = 0; d < corpus.num_docs(); ++d) {
    const text::Document& doc = corpus.doc(d);
    size_t matches = 0;
    double ts_sum = 0.0;
    for (TermId t : query.terms) {
      if (doc.Contains(t)) {
        ++matches;
        // Round through float: posting payloads store 4-byte scores.
        ts_sum += static_cast<double>(
            static_cast<float>(doc.NormalizedTf(t)));
      }
    }
    const bool qualifies =
        query.conjunctive ? (matches == query.terms.size()) : (matches > 0);
    if (!qualifies) continue;

    const relational::ScoreTable::Slot slot = scores.At(d);
    if (!slot.live()) continue;  // never scored, or deleted

    double total = slot.score;
    if (with_term_scores) total += ts_options.term_weight * ts_sum;
    heap.Offer(d, total);
  }
  *results = heap.TakeSorted();
  return Status::OK();
}

}  // namespace svr::core
