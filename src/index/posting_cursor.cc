#include "index/posting_cursor.h"

#include <algorithm>
#include <cstring>

#include "common/coding.h"
#include "index/text_index.h"

namespace svr::index {

namespace {

// Scan-order comparison for Score lists: (score desc, doc asc).
inline bool ScorePosBefore(double sa, DocId da, double sb, DocId db) {
  if (sa != sb) return sa > sb;
  return da < db;
}

}  // namespace

// --- IdPostingCursor -----------------------------------------------------

IdPostingCursor::IdPostingCursor(storage::BlobStore::Reader reader,
                                 bool with_ts, CursorScratch* scratch,
                                 QueryStats* qs)
    : reader_(std::move(reader)),
      scratch_(scratch),
      qs_(qs),
      with_ts_(with_ts) {}

Status IdPostingCursor::Init() {
  if (!with_ts_) {
    std::memset(scratch_->ts, 0, sizeof(scratch_->ts));
  }
  if (reader_.remaining() == 0) {
    count_ = 0;
    return Status::OK();
  }
  SVR_RETURN_NOT_OK(reader_.ReadVarint32(&count_));
  const uint64_t min_bytes =
      static_cast<uint64_t>(count_) * (with_ts_ ? 5 : 1);
  if (min_bytes > reader_.remaining()) {
    return Status::Corruption("ID list count exceeds payload");
  }
  return LoadNextBlock(/*skip_below=*/0);
}

Status IdPostingCursor::LoadNextBlock(DocId skip_below) {
  block_n_ = 0;
  pos_ = 0;
  if (consumed_ >= count_) return Status::OK();  // exhausted
  const uint32_t cnt = static_cast<uint32_t>(
      std::min<uint64_t>(kPostingBlockSize, count_ - consumed_));

  uint32_t last_doc, byte_len;
  SVR_RETURN_NOT_OK(reader_.ReadVarint32(&last_doc));
  SVR_RETURN_NOT_OK(reader_.ReadVarint32(&byte_len));
  if (byte_len > reader_.remaining() || byte_len > kMaxDocBlockPayload) {
    return Status::Corruption("doc block byte_len exceeds payload");
  }
  if (skip_below != 0 && last_doc < skip_below) {
    SVR_RETURN_NOT_OK(reader_.Skip(byte_len));
    prev_last_ = last_doc;
    consumed_ += cnt;
    if (qs_ != nullptr) ++qs_->groups_galloped;
    return Status::OK();  // block_n_ == 0: caller keeps scanning
  }
  SVR_RETURN_NOT_OK(reader_.ReadBytes(scratch_->bytes, byte_len));
  const size_t used =
      DecodeGroupVarint(scratch_->bytes, byte_len, scratch_->docs, cnt);
  const size_t expected = used + (with_ts_ ? cnt * 4u : 0u);
  if (used == 0 || expected != byte_len) {
    return Status::Corruption("doc block payload truncated");
  }
  if (with_ts_) {
    std::memcpy(scratch_->ts, scratch_->bytes + used, cnt * 4u);
  }
  DeltasToAbsolute(scratch_->docs, cnt, prev_last_);
  if (scratch_->docs[cnt - 1] != last_doc) {
    return Status::Corruption("doc block last_doc mismatch");
  }
  prev_last_ = last_doc;
  consumed_ += cnt;
  block_n_ = cnt;
  if (qs_ != nullptr) ++qs_->blocks_decoded;
  return Status::OK();
}

Status IdPostingCursor::SeekTo(DocId target) {
  if (qs_ != nullptr) ++qs_->cursor_seeks;
  if (Valid() && scratch_->docs[pos_] >= target) return Status::OK();
  while (true) {
    if (block_n_ > 0 && scratch_->docs[block_n_ - 1] >= target) {
      const uint32_t* begin = scratch_->docs + pos_;
      const uint32_t* end = scratch_->docs + block_n_;
      pos_ = static_cast<uint32_t>(
          std::lower_bound(begin, end, target) - scratch_->docs);
      return Status::OK();
    }
    if (consumed_ >= count_) {
      block_n_ = 0;
      pos_ = 0;
      return Status::OK();  // exhausted
    }
    SVR_RETURN_NOT_OK(LoadNextBlock(target));
  }
}

// --- ChunkPostingCursor --------------------------------------------------

ChunkPostingCursor::ChunkPostingCursor(storage::BlobStore::Reader reader,
                                       bool with_ts, CursorScratch* scratch,
                                       QueryStats* qs)
    : reader_(std::move(reader)),
      scratch_(scratch),
      qs_(qs),
      with_ts_(with_ts) {}

Status ChunkPostingCursor::Init() {
  if (!with_ts_) {
    std::memset(scratch_->ts, 0, sizeof(scratch_->ts));
  }
  if (reader_.remaining() == 0) {
    n_groups_ = 0;
    return Status::OK();
  }
  SVR_RETURN_NOT_OK(reader_.ReadVarint32(&n_groups_));
  if (n_groups_ == 0) return Status::OK();
  SVR_RETURN_NOT_OK(ReadGroupHeader());
  return LoadNextBlock(/*skip_below=*/0);
}

Status ChunkPostingCursor::ReadGroupHeader() {
  SVR_RETURN_NOT_OK(reader_.ReadVarint32(&cid_));
  SVR_RETURN_NOT_OK(reader_.ReadVarint32(&group_count_));
  uint64_t byte_len;
  SVR_RETURN_NOT_OK(reader_.ReadVarint64(&byte_len));
  if (byte_len > reader_.remaining()) {
    return Status::Corruption("chunk group byte_len exceeds payload");
  }
  const uint64_t min_bytes =
      static_cast<uint64_t>(group_count_) * (with_ts_ ? 5 : 1);
  if (min_bytes > byte_len) {
    return Status::Corruption("chunk group count exceeds byte_len");
  }
  group_end_offset_ = reader_.offset() + byte_len;
  consumed_in_group_ = 0;
  prev_last_ = 0;
  block_n_ = 0;
  pos_ = 0;
  return Status::OK();
}

Status ChunkPostingCursor::LoadNextBlock(DocId skip_below) {
  block_n_ = 0;
  pos_ = 0;
  if (consumed_in_group_ >= group_count_) return Status::OK();
  const uint32_t cnt = static_cast<uint32_t>(std::min<uint64_t>(
      kPostingBlockSize, group_count_ - consumed_in_group_));

  uint32_t last_doc, byte_len;
  SVR_RETURN_NOT_OK(reader_.ReadVarint32(&last_doc));
  SVR_RETURN_NOT_OK(reader_.ReadVarint32(&byte_len));
  if (reader_.offset() + byte_len > group_end_offset_ ||
      byte_len > kMaxDocBlockPayload) {
    return Status::Corruption("doc block byte_len exceeds group");
  }
  if (skip_below != 0 && last_doc < skip_below) {
    SVR_RETURN_NOT_OK(reader_.Skip(byte_len));
    prev_last_ = last_doc;
    consumed_in_group_ += cnt;
    if (qs_ != nullptr) ++qs_->groups_galloped;
    return Status::OK();
  }
  SVR_RETURN_NOT_OK(reader_.ReadBytes(scratch_->bytes, byte_len));
  const size_t used =
      DecodeGroupVarint(scratch_->bytes, byte_len, scratch_->docs, cnt);
  const size_t expected = used + (with_ts_ ? cnt * 4u : 0u);
  if (used == 0 || expected != byte_len) {
    return Status::Corruption("doc block payload truncated");
  }
  if (with_ts_) {
    std::memcpy(scratch_->ts, scratch_->bytes + used, cnt * 4u);
  }
  DeltasToAbsolute(scratch_->docs, cnt, prev_last_);
  if (scratch_->docs[cnt - 1] != last_doc) {
    return Status::Corruption("doc block last_doc mismatch");
  }
  prev_last_ = last_doc;
  consumed_in_group_ += cnt;
  block_n_ = cnt;
  if (qs_ != nullptr) ++qs_->blocks_decoded;
  return Status::OK();
}

Status ChunkPostingCursor::SeekInGroup(DocId target) {
  if (qs_ != nullptr) ++qs_->cursor_seeks;
  if (Valid() && scratch_->docs[pos_] >= target) return Status::OK();
  while (true) {
    if (block_n_ > 0 && scratch_->docs[block_n_ - 1] >= target) {
      const uint32_t* begin = scratch_->docs + pos_;
      const uint32_t* end = scratch_->docs + block_n_;
      pos_ = static_cast<uint32_t>(
          std::lower_bound(begin, end, target) - scratch_->docs);
      return Status::OK();
    }
    if (consumed_in_group_ >= group_count_) {
      block_n_ = 0;
      pos_ = 0;
      return Status::OK();  // group exhausted
    }
    SVR_RETURN_NOT_OK(LoadNextBlock(target));
  }
}

Status ChunkPostingCursor::SkipGroup() {
  const uint64_t off = reader_.offset();
  if (off < group_end_offset_) {
    SVR_RETURN_NOT_OK(reader_.Skip(group_end_offset_ - off));
  }
  if (qs_ != nullptr) ++qs_->groups_galloped;
  consumed_in_group_ = group_count_;
  block_n_ = 0;
  pos_ = 0;
  return Status::OK();
}

Status ChunkPostingCursor::NextGroup() {
  // A group is left only once consumed or skipped; align the reader to
  // the group boundary in case the caller abandoned it mid-block.
  if (reader_.offset() < group_end_offset_) {
    SVR_RETURN_NOT_OK(reader_.Skip(group_end_offset_ - reader_.offset()));
  }
  ++group_index_;
  block_n_ = 0;
  pos_ = 0;
  if (group_index_ >= n_groups_) return Status::OK();
  SVR_RETURN_NOT_OK(ReadGroupHeader());
  return LoadNextBlock(/*skip_below=*/0);
}

// --- ScorePostingCursor --------------------------------------------------

ScorePostingCursor::ScorePostingCursor(storage::BlobStore::Reader reader,
                                       ScoreCursorScratch* scratch,
                                       QueryStats* qs)
    : reader_(std::move(reader)), scratch_(scratch), qs_(qs) {}

Status ScorePostingCursor::Init() {
  if (reader_.remaining() == 0) {
    count_ = 0;
    return Status::OK();
  }
  SVR_RETURN_NOT_OK(reader_.ReadVarint32(&count_));
  if (static_cast<uint64_t>(count_) * 12 > reader_.remaining()) {
    return Status::Corruption("Score list count exceeds payload");
  }
  return LoadNextBlock(/*have_target=*/false, 0.0, 0);
}

Status ScorePostingCursor::LoadNextBlock(bool have_target, double tscore,
                                         DocId tdoc) {
  block_n_ = 0;
  pos_ = 0;
  if (consumed_ >= count_) return Status::OK();
  const uint32_t cnt = static_cast<uint32_t>(
      std::min<uint64_t>(kPostingBlockSize, count_ - consumed_));
  const uint32_t payload_len = cnt * 12;

  char hdr[12];
  SVR_RETURN_NOT_OK(reader_.ReadBytes(hdr, 12));
  const double last_score = DecodeFixedDouble(hdr);
  const DocId last_doc = DecodeFixed32(hdr + 8);
  uint32_t byte_len;
  SVR_RETURN_NOT_OK(reader_.ReadVarint32(&byte_len));
  if (byte_len != payload_len || byte_len > reader_.remaining()) {
    return Status::Corruption("score block byte_len mismatch");
  }
  if (have_target && ScorePosBefore(last_score, last_doc, tscore, tdoc)) {
    SVR_RETURN_NOT_OK(reader_.Skip(byte_len));
    consumed_ += cnt;
    if (qs_ != nullptr) ++qs_->groups_galloped;
    return Status::OK();  // block skipped; caller keeps scanning
  }
  SVR_RETURN_NOT_OK(reader_.ReadBytes(scratch_->bytes, payload_len));
  for (uint32_t j = 0; j < cnt; ++j) {
    scratch_->scores[j] = DecodeFixedDouble(scratch_->bytes + j * 12);
    scratch_->docs[j] = DecodeFixed32(scratch_->bytes + j * 12 + 8);
  }
  consumed_ += cnt;
  block_n_ = cnt;
  if (qs_ != nullptr) ++qs_->blocks_decoded;
  return Status::OK();
}

Status ScorePostingCursor::SeekTo(double tscore, DocId tdoc) {
  if (qs_ != nullptr) ++qs_->cursor_seeks;
  if (Valid() &&
      !ScorePosBefore(scratch_->scores[pos_], scratch_->docs[pos_], tscore,
                      tdoc)) {
    return Status::OK();
  }
  while (true) {
    if (block_n_ > 0 &&
        !ScorePosBefore(scratch_->scores[block_n_ - 1],
                        scratch_->docs[block_n_ - 1], tscore, tdoc)) {
      // Target lies inside this block: first position not before it.
      uint32_t lo = pos_;
      uint32_t hi = block_n_;
      while (lo < hi) {
        const uint32_t mid = (lo + hi) / 2;
        if (ScorePosBefore(scratch_->scores[mid], scratch_->docs[mid],
                           tscore, tdoc)) {
          lo = mid + 1;
        } else {
          hi = mid;
        }
      }
      pos_ = lo;
      return Status::OK();
    }
    if (consumed_ >= count_) {
      block_n_ = 0;
      pos_ = 0;
      return Status::OK();  // exhausted
    }
    SVR_RETURN_NOT_OK(LoadNextBlock(/*have_target=*/true, tscore, tdoc));
  }
}

}  // namespace svr::index
