#ifndef SVR_INDEX_CHUNK_TERMSCORE_INDEX_H_
#define SVR_INDEX_CHUNK_TERMSCORE_INDEX_H_

#include <string>
#include <vector>

#include "index/chunk_base.h"

namespace svr::index {

/// \brief The Chunk-TermScore method (§4.3.3, Algorithm 3): the Chunk
/// method extended with per-posting term scores and per-term *fancy
/// lists* (Long & Suel [21]) so queries rank by the combined function
/// `f(d) = svr(d) + term_weight * sum_t ts_t(d)` — and still stop early
/// under frequent SVR score updates.
///
/// Query flow: merge the fancy lists first (high-term-score docs become
/// tentative exact results; partially-seen docs go to the remainList),
/// then scan chunks top-down like the Chunk method, scoring candidates
/// with the combined function; at each chunk boundary the remainList is
/// pruned with the [21] upper bound, and the scan stops when the
/// remainList is empty and no unseen document can beat the k-th result.
///
/// Queries are limited to 64 terms (remainList term-set bookkeeping uses
/// a 64-bit mask).
class ChunkTermScoreIndex final : public ChunkIndexBase {
 public:
  ChunkTermScoreIndex(const IndexContext& ctx,
                      ChunkIndexOptions options = {})
      : ChunkIndexBase(ctx, options, /*with_term_scores=*/true) {}

  std::string name() const override { return "Chunk-TermScore"; }

  Status TopKAt(const IndexSnapshot& snap, const Query& query, size_t k,
                std::vector<SearchResult>* results,
                QueryStats* query_stats = nullptr) override;
  IndexSnapshot SealSnapshot() override;

 protected:
  Status BuildExtras() override;
  Status OnTermMerged(TermId term,
                      const std::vector<ChunkGroup>& groups) override;

 private:
  /// Re-encodes one term's fancy list from `postings` (doc order not
  /// required); the previous blob goes to the context's retirer (or is
  /// freed when none is wired — sealed snapshots may still resolve it).
  Status WriteFancyList(TermId term, std::vector<IdPosting> postings);

  /// term -> published fancy-list blob (versioned for snapshot readers).
  /// The blobs share the long lists' store, so LongListBytes counts them.
  VersionedArray<storage::BlobRef, 128> fancy_refs_;
};

}  // namespace svr::index

#endif  // SVR_INDEX_CHUNK_TERMSCORE_INDEX_H_
