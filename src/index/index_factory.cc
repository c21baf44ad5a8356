#include "index/index_factory.h"

#include "index/chunk_index.h"
#include "index/chunk_termscore_index.h"
#include "index/id_index.h"
#include "index/score_index.h"

namespace svr::index {

std::string MethodName(Method method) {
  switch (method) {
    case Method::kId:
      return "ID";
    case Method::kScore:
      return "Score";
    case Method::kScoreThreshold:
      return "Score-Threshold";
    case Method::kChunk:
      return "Chunk";
    case Method::kIdTermScore:
      return "ID-TermScore";
    case Method::kChunkTermScore:
      return "Chunk-TermScore";
  }
  return "?";
}

Result<std::unique_ptr<TextIndex>> CreateIndex(Method method,
                                               const IndexContext& ctx,
                                               const IndexOptions& options) {
  if (ctx.list_pool == nullptr || ctx.score_table == nullptr ||
      ctx.corpus == nullptr) {
    return Status::InvalidArgument("incomplete index context");
  }
  ChunkIndexOptions chunk = options.chunk;
  chunk.term_scores = options.term_scores;
  switch (method) {
    case Method::kId:
      return std::unique_ptr<TextIndex>(
          new IdIndex(ctx, /*with_term_scores=*/false, options.term_scores));
    case Method::kIdTermScore:
      return std::unique_ptr<TextIndex>(
          new IdIndex(ctx, /*with_term_scores=*/true, options.term_scores));
    case Method::kScore:
      return std::unique_ptr<TextIndex>(new ScoreIndex(ctx));
    case Method::kScoreThreshold:
      return std::unique_ptr<TextIndex>(
          new ScoreThresholdIndex(ctx, options.score_threshold));
    case Method::kChunk:
      return std::unique_ptr<TextIndex>(new ChunkIndex(ctx, chunk));
    case Method::kChunkTermScore:
      return std::unique_ptr<TextIndex>(
          new ChunkTermScoreIndex(ctx, chunk));
  }
  return Status::InvalidArgument("unknown index method");
}

}  // namespace svr::index
