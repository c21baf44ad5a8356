#ifndef SVR_RELATIONAL_SCORE_TABLE_H_
#define SVR_RELATIONAL_SCORE_TABLE_H_

#include <cstdint>
#include <functional>
#include <memory>

#include "common/status.h"
#include "common/types.h"
#include "common/versioned_array.h"

namespace svr::relational {

/// \brief The paper's `Score(Id, score)` table — the single authoritative
/// map from document id to its *current* SVR score (§4.2.1), plus the
/// deleted flag from Appendix A.2.
///
/// Doc ids are dense (the engines' density rule), so the table is one
/// column: slot `d` of a VersionedArray holds doc d's score and a state
/// of absent, live or deleted. Its memory follows the largest id set,
/// which is why the ids must stay dense; the sharded layer allocates
/// every shard-local id densely. The paper's per-candidate "indexed probe"
/// is one array load and costs no table-pool page. All index methods
/// share one instance. Seal() publishes a version snapshot that queries
/// read with no lock; the chunks it shares are freed by refcount with
/// the last snapshot (docs/concurrency.md).
class ScoreTable {
 public:
  struct Slot {
    enum class State : uint8_t { kAbsent = 0, kLive, kDeleted };
    double score = 0.0;  // 0.0 while absent: never-scored docs rank there
    State state = State::kAbsent;

    bool live() const { return state == State::kLive; }
    bool deleted() const { return state == State::kDeleted; }
  };
  using Column = VersionedArray<Slot>;

  static std::unique_ptr<ScoreTable> Create() {
    return std::unique_ptr<ScoreTable>(new ScoreTable());
  }

  /// Inserts or updates the score of `doc` (reviving a deleted doc).
  Status Set(DocId doc, double score);

  /// Current score; NotFound if the doc was never scored.
  Status Get(DocId doc, double* score) const;

  /// Current score and deleted flag in one probe.
  Status GetWithDeleted(DocId doc, double* score, bool* deleted) const;

  /// Appendix A.2: mark `doc` deleted without dropping its entry, so
  /// queries can filter it out of result heaps.
  Status MarkDeleted(DocId doc);

  /// Scan over (doc, score, deleted) in doc order.
  Status Scan(const std::function<bool(DocId, double, bool)>& fn) const;

  /// Writer-side probe of the working column; never seals it.
  Slot At(DocId doc) const { return column_.Get(doc); }

  /// Freezes the current version; see VersionedArray::Seal.
  Column::Snapshot Seal() { return column_.Seal(); }

  /// \brief Read adapter over one sealed version — the Score table a
  /// pinned ReadView probes. Copyable and self-contained: the snapshot
  /// keeps its chunks alive, so the view does not depend on the table.
  class View {
   public:
    View() = default;
    explicit View(Column::Snapshot snap) : snap_(std::move(snap)) {}
    /// The same view; `table` is ignored. Kept only because the
    /// end-to-end benchmark's oracle check (svrbench/bench_svr.cc)
    /// still passes the table it pins.
    View(const ScoreTable* /*table*/, Column::Snapshot snap)
        : View(std::move(snap)) {}

    /// The doc's slot (State::kAbsent when never scored): one array load.
    Slot At(DocId doc) const { return snap_.Get(doc); }

   private:
    Column::Snapshot snap_;
  };

  /// View over the working column, unsealed — exclusive access only.
  View LiveView() const { return View(column_.LiveSnapshot()); }

  /// Scored docs, live or deleted.
  uint64_t size() const { return size_; }

 private:
  ScoreTable() = default;

  Column column_;
  uint64_t size_ = 0;
};

}  // namespace svr::relational

#endif  // SVR_RELATIONAL_SCORE_TABLE_H_
