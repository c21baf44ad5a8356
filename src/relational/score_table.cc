#include "relational/score_table.h"

namespace svr::relational {

Status ScoreTable::Set(DocId doc, double score) {
  if (At(doc).state == Slot::State::kAbsent) ++size_;
  column_.Set(doc, Slot{score, Slot::State::kLive});
  return Status::OK();
}

Status ScoreTable::Get(DocId doc, double* score) const {
  bool deleted;
  return GetWithDeleted(doc, score, &deleted);
}

Status ScoreTable::GetWithDeleted(DocId doc, double* score,
                                  bool* deleted) const {
  const Slot slot = At(doc);
  if (slot.state == Slot::State::kAbsent) {
    return Status::NotFound("doc never scored");
  }
  *score = slot.score;
  *deleted = slot.deleted();
  return Status::OK();
}

Status ScoreTable::MarkDeleted(DocId doc) {
  Slot slot = At(doc);
  if (slot.state == Slot::State::kAbsent) {
    return Status::NotFound("doc never scored");
  }
  slot.state = Slot::State::kDeleted;
  column_.Set(doc, slot);
  return Status::OK();
}

Status ScoreTable::Scan(
    const std::function<bool(DocId, double, bool)>& fn) const {
  for (DocId d = 0; d < column_.size(); ++d) {
    const Slot slot = At(d);
    if (slot.state == Slot::State::kAbsent) continue;
    if (!fn(d, slot.score, slot.deleted())) break;
  }
  return Status::OK();
}

}  // namespace svr::relational
