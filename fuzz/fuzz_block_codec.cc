// Fuzz target over the posting-list decode surface (docs/
// posting_lists.md): the block cursors consume blob bytes that queries
// read straight out of the buffer pool, so every cursor must tolerate
// arbitrary / truncated / hostile list bytes without crashing,
// over-reading its blob, or spinning.
//
// The harness writes the fuzz input as a blob and drives every cursor
// kind (ID, ID+ts, chunk, score) over it, including the SeekTo /
// SeekInGroup / SkipGroup skip paths, which exercise the skip-header
// arithmetic against adversarial headers. Work is bounded:
// a cursor that takes more successful steps than the input could
// plausibly encode is an infinite-loop bug and trips FUZZ_CHECK.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/types.h"
#include "fuzz/standalone_driver.h"
#include "index/posting_codec.h"
#include "index/posting_cursor.h"
#include "storage/blob_store.h"
#include "storage/buffer_pool.h"
#include "storage/page_store.h"

namespace {

using svr::ChunkId;
using svr::DocId;
using svr::index::ChunkGroup;
using svr::index::ChunkPostingCursor;
using svr::index::CursorScratch;
using svr::index::IdPosting;
using svr::index::IdPostingCursor;
using svr::index::ScoreCursorScratch;
using svr::index::ScorePosting;
using svr::index::ScorePostingCursor;

#define FUZZ_CHECK(cond)           \
  do {                             \
    if (!(cond)) __builtin_trap(); \
  } while (0)

/// Ceiling on successful cursor steps for an input of `size` bytes.
/// Every decoded posting consumes at least one input byte somewhere
/// (its share of a block payload), so a cursor
/// that keeps yielding postings past this bound is looping on the spot.
size_t WorkBound(size_t size) { return 16 * size + 1024; }

struct Fixture {
  explicit Fixture(const uint8_t* data, size_t size)
      : store(4096), pool(&store, 1 << 16), blobs(&pool) {
    auto r = blobs.Write(
        svr::Slice(reinterpret_cast<const char*>(data), size));
    ok = r.ok();
    if (ok) ref = r.value();
  }

  svr::storage::InMemoryPageStore store;
  svr::storage::BufferPool pool;
  svr::storage::BlobStore blobs;
  svr::storage::BlobRef ref;
  bool ok = false;
};

void DriveIdCursor(Fixture* fx, bool with_ts, size_t bound,
                   DocId seek_target) {
  auto scratch = std::make_unique<CursorScratch>();
  {
    IdPostingCursor cur(fx->blobs.NewReader(fx->ref), with_ts,
                        scratch.get());
    if (cur.Init().ok()) {
      size_t steps = 0;
      while (cur.Valid()) {
        (void)cur.doc();
        (void)cur.term_score();
        if (!cur.Next().ok()) break;
        FUZZ_CHECK(++steps <= bound);
      }
    }
  }
  // Fresh cursor: seek into the middle, then drain what is left.
  IdPostingCursor cur(fx->blobs.NewReader(fx->ref), with_ts,
                      scratch.get());
  if (!cur.Init().ok()) return;
  if (!cur.SeekTo(seek_target).ok()) return;
  size_t steps = 0;
  while (cur.Valid()) {
    if (!cur.Next().ok()) break;
    FUZZ_CHECK(++steps <= bound);
  }
}

void DriveChunkCursor(Fixture* fx, bool with_ts, size_t bound,
                      DocId seek_target, uint32_t choices) {
  auto scratch = std::make_unique<CursorScratch>();
  ChunkPostingCursor cur(fx->blobs.NewReader(fx->ref), with_ts,
                         scratch.get());
  if (!cur.Init().ok()) return;
  size_t steps = 0;
  while (cur.HasGroup()) {
    (void)cur.cid();
    // Rotate through the three ways a query consumes a group: full
    // scan, skip-without-reading, and seek-then-scan.
    switch (choices % 3) {
      case 0:
        while (cur.Valid()) {
          (void)cur.doc();
          (void)cur.term_score();
          if (!cur.Next().ok()) return;
          FUZZ_CHECK(++steps <= bound);
        }
        break;
      case 1:
        if (!cur.SkipGroup().ok()) return;
        break;
      default:
        if (!cur.SeekInGroup(seek_target).ok()) return;
        while (cur.Valid()) {
          if (!cur.Next().ok()) return;
          FUZZ_CHECK(++steps <= bound);
        }
        break;
    }
    choices /= 3;
    if (!cur.NextGroup().ok()) return;
    FUZZ_CHECK(++steps <= bound);
  }
}

void DriveScoreCursor(Fixture* fx, size_t bound, double seek_score,
                      DocId seek_doc) {
  auto scratch = std::make_unique<ScoreCursorScratch>();
  {
    ScorePostingCursor cur(fx->blobs.NewReader(fx->ref), scratch.get());
    if (cur.Init().ok()) {
      size_t steps = 0;
      while (cur.Valid()) {
        (void)cur.score();
        (void)cur.doc();
        if (!cur.Next().ok()) break;
        FUZZ_CHECK(++steps <= bound);
      }
    }
  }
  ScorePostingCursor cur(fx->blobs.NewReader(fx->ref), scratch.get());
  if (!cur.Init().ok()) return;
  if (!cur.SeekTo(seek_score, seek_doc).ok()) return;
  size_t steps = 0;
  while (cur.Valid()) {
    if (!cur.Next().ok()) break;
    FUZZ_CHECK(++steps <= bound);
  }
}

std::vector<std::string> Seeds() {
  std::vector<std::string> seeds;
  // 129 postings crosses the 128-posting block boundary, so the
  // mutated corpus reaches multi-block headers from the first run.
  std::vector<DocId> docs;
  std::vector<IdPosting> id_ts;
  std::vector<ScorePosting> scored;
  DocId d = 0;
  for (int i = 0; i < 129; ++i) {
    d += 1 + static_cast<DocId>(i % 7);
    docs.push_back(d);
    id_ts.push_back({d, static_cast<float>(i) / 129.0f});
    scored.push_back({1000.0 - i, d});
  }
  std::vector<ChunkGroup> groups(2);
  groups[0].cid = 9;
  groups[0].postings.assign(id_ts.begin(), id_ts.begin() + 70);
  groups[1].cid = 3;
  groups[1].postings.assign(id_ts.begin() + 70, id_ts.end());
  std::string out;
  svr::index::EncodeIdList(docs, &out);
  seeds.push_back(out);
  out.clear();
  svr::index::EncodeIdTsList(id_ts, /*with_ts=*/true, &out);
  seeds.push_back(out);
  out.clear();
  svr::index::EncodeScoreList(scored, &out);
  seeds.push_back(out);
  out.clear();
  svr::index::EncodeChunkList(groups, /*with_ts=*/true, &out);
  seeds.push_back(out);
  // A mid-block truncation of the ID list, and the empty blob.
  std::string cut = seeds[0];
  cut.resize(cut.size() / 2);
  seeds.push_back(cut);
  seeds.push_back(std::string());
  return seeds;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  Fixture fx(data, size);
  if (!fx.ok) return 0;

  const size_t bound = WorkBound(size);
  // Derive seek targets and chunk-consumption choices from the input so
  // the fuzzer controls the skip paths too.
  DocId seek_target = 0;
  uint32_t choices = 0;
  for (size_t i = 0; i < size && i < 8; ++i) {
    seek_target = (seek_target << 8) | data[i];
    choices = choices * 31 + data[size - 1 - i];
  }
  const double seek_score = static_cast<double>(choices % 2048);

  for (bool with_ts : {false, true}) {
    DriveIdCursor(&fx, with_ts, bound, seek_target);
    DriveChunkCursor(&fx, with_ts, bound, seek_target, choices);
  }
  DriveScoreCursor(&fx, bound, seek_score, seek_target);
  return 0;
}

SVR_FUZZ_STANDALONE_MAIN(Seeds)
