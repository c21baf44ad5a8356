#ifndef SVR_INDEX_CHUNK_INDEX_H_
#define SVR_INDEX_CHUNK_INDEX_H_

#include <string>
#include <vector>

#include "index/chunk_base.h"

namespace svr::index {

/// \brief The Chunk method (§4.3.2) — the paper's best-performing index.
///
/// Documents are partitioned into chunks by initial score; postings are
/// ordered (chunk desc, doc asc) with **no scores stored**, so within a
/// chunk the merge is a cheap doc-id intersection and the long lists stay
/// as small as the ID method's (Table 1). Short-list movement only on a
/// climb of two or more chunks; queries scan chunks top-down and stop one
/// chunk after the heap is full.
class ChunkIndex final : public ChunkIndexBase {
 public:
  ChunkIndex(const IndexContext& ctx, ChunkIndexOptions options = {})
      : ChunkIndexBase(ctx, options, /*with_term_scores=*/false) {}

  std::string name() const override { return "Chunk"; }

  Status TopKAt(const IndexSnapshot& snap, const Query& query, size_t k,
                std::vector<SearchResult>* results,
                QueryStats* query_stats = nullptr) override;
};

}  // namespace svr::index

#endif  // SVR_INDEX_CHUNK_INDEX_H_
