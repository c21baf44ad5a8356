#include "index/posting_codec.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "common/block_codec.h"
#include "common/coding.h"
#include "index/posting_cursor.h"

namespace svr::index {

namespace {

void PutFloat(std::string* out, float f) {
  char buf[4];
  std::memcpy(buf, &f, 4);
  out->append(buf, 4);
}

/// Appends the blocked encoding of `n` doc-ascending postings:
/// [varint last_doc][varint byte_len][group-varint deltas (+ f32 ts)*]
/// per block of up to kPostingBlockSize postings. The delta base starts
/// at 0 and chains across blocks; `payload` is caller-provided scratch
/// so encoding a list reuses one buffer. `doc_at(i)` / `ts_at(i)` read
/// posting `i`, so DocId arrays encode without materializing postings.
template <typename DocAt, typename TsAt>
void AppendDocBlocks(size_t n, bool with_ts, DocAt doc_at, TsAt ts_at,
                     std::string* payload, std::string* out) {
  uint32_t deltas[kPostingBlockSize];
  DocId prev = 0;
  for (size_t i = 0; i < n; i += kPostingBlockSize) {
    const size_t cnt = std::min(kPostingBlockSize, n - i);
    for (size_t j = 0; j < cnt; ++j) {
      const DocId d = doc_at(i + j);
      assert(d >= prev);
      deltas[j] = d - prev;
      prev = d;
    }
    payload->clear();
    AppendGroupVarint(deltas, cnt, payload);
    if (with_ts) {
      for (size_t j = 0; j < cnt; ++j) {
        PutFloat(payload, ts_at(i + j));
      }
    }
    PutVarint32(out, doc_at(i + cnt - 1));  // last_doc
    PutVarint32(out, static_cast<uint32_t>(payload->size()));
    out->append(*payload);
  }
}

void AppendDocBlocks(const IdPosting* postings, size_t n, bool with_ts,
                     std::string* payload, std::string* out) {
  AppendDocBlocks(
      n, with_ts, [postings](size_t i) { return postings[i].doc; },
      [postings](size_t i) { return postings[i].term_score; }, payload,
      out);
}

}  // namespace

void EncodeIdList(const std::vector<DocId>& docs, std::string* out) {
  PutVarint32(out, static_cast<uint32_t>(docs.size()));
  std::string payload;
  AppendDocBlocks(
      docs.size(), /*with_ts=*/false,
      [&docs](size_t i) { return docs[i]; }, [](size_t) { return 0.0f; },
      &payload, out);
}

void EncodeIdTsList(const std::vector<IdPosting>& postings, bool with_ts,
                    std::string* out) {
  PutVarint32(out, static_cast<uint32_t>(postings.size()));
  std::string payload;
  AppendDocBlocks(postings.data(), postings.size(), with_ts, &payload,
                    out);
}

void EncodeScoreList(const std::vector<ScorePosting>& postings,
                     std::string* out) {
  PutVarint32(out, static_cast<uint32_t>(postings.size()));
  const size_t n = postings.size();
  for (size_t i = 0; i < n; i += kPostingBlockSize) {
    const size_t cnt = std::min(kPostingBlockSize, n - i);
    const ScorePosting& last = postings[i + cnt - 1];
    PutFixedDouble(out, last.score);
    PutFixed32(out, last.doc);
    PutVarint32(out, static_cast<uint32_t>(cnt * 12));
    for (size_t j = 0; j < cnt; ++j) {
      PutFixedDouble(out, postings[i + j].score);
      PutFixed32(out, postings[i + j].doc);
    }
  }
}

void EncodeChunkList(const std::vector<ChunkGroup>& groups, bool with_ts,
                     std::string* out) {
  PutVarint32(out, static_cast<uint32_t>(groups.size()));
  std::string body;
  std::string payload;
  for (const ChunkGroup& g : groups) {
    body.clear();
    AppendDocBlocks(g.postings.data(), g.postings.size(), with_ts,
                      &payload, &body);
    PutVarint32(out, g.cid);
    PutVarint32(out, static_cast<uint32_t>(g.postings.size()));
    PutVarint64(out, body.size());
    out->append(body);
  }
}

void EncodeFancyList(const std::vector<IdPosting>& postings, float min_ts,
                     std::string* out) {
  PutFloat(out, min_ts);
  PutVarint32(out, static_cast<uint32_t>(postings.size()));
  std::string payload;
  AppendDocBlocks(postings.data(), postings.size(), /*with_ts=*/true,
                    &payload, out);
}

Status DecodeFancyList(storage::BlobStore::Reader reader,
                       std::vector<IdPosting>* postings, float* min_ts) {
  postings->clear();
  *min_ts = 0.0f;
  if (reader.remaining() == 0) return Status::OK();
  SVR_RETURN_NOT_OK(reader.ReadFloat(min_ts));
  CursorScratch scratch;
  IdPostingCursor cursor(std::move(reader), /*with_ts=*/true, &scratch);
  SVR_RETURN_NOT_OK(cursor.Init());
  postings->reserve(cursor.count());
  while (cursor.Valid()) {
    postings->push_back({cursor.doc(), cursor.term_score()});
    SVR_RETURN_NOT_OK(cursor.Next());
  }
  return Status::OK();
}

}  // namespace svr::index
