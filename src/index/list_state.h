#ifndef SVR_INDEX_LIST_STATE_H_
#define SVR_INDEX_LIST_STATE_H_

#include <cstdint>
#include <memory>

#include "common/types.h"
#include "common/versioned_array.h"

namespace svr::index {

/// \brief The paper's ListScore / ListChunk side table (Figures 4 and 5):
/// an entry for each document whose score has been updated, holding the
/// document's current *list* position — its short- or long-list score
/// for Score-Threshold (V = double), its chunk id for the Chunk family
/// (V = ChunkId) — and whether its postings have been moved into the
/// short lists.
///
/// Doc ids are dense, so the table is one VersionedArray column: slot
/// `d` holds the list value and a state of absent, recorded or in_short.
/// A ListChunk slot is 8 bytes. The paper's per-candidate probe is one
/// array load and costs no table-pool page. Seal() publishes a version
/// that snapshot queries read with no lock; old chunks are freed by
/// refcount with the last snapshot holding them (docs/concurrency.md).
template <typename V>
class ListStateTable {
 public:
  struct Slot {
    enum class State : uint8_t { kAbsent = 0, kRecorded, kInShort };
    V list_value{};  // list score, or chunk id
    State state = State::kAbsent;

    /// The doc has an entry (in the short lists or not).
    bool recorded() const { return state != State::kAbsent; }
    bool in_short() const { return state == State::kInShort; }
  };
  using Column = VersionedArray<Slot>;
  using Snapshot = typename Column::Snapshot;

  static std::unique_ptr<ListStateTable> Create() {
    return std::unique_ptr<ListStateTable>(new ListStateTable());
  }

  /// Inserts or replaces the entry of `doc`.
  void Put(DocId doc, V list_value, bool in_short) {
    if (!column_.Get(doc).recorded()) ++size_;
    column_.Set(doc, Slot{list_value, in_short ? Slot::State::kInShort
                                               : Slot::State::kRecorded});
  }

  /// The doc's slot; not recorded() if it has no entry (its score was
  /// never updated, or the entry was retired). Reads the working column;
  /// never seals it.
  Slot Get(DocId doc) const { return column_.Get(doc); }

  /// Same probe against a sealed version (lock-free snapshot reads).
  static Slot GetAt(const Snapshot& snap, DocId doc) { return snap.Get(doc); }

  /// Drops the entry (offline merges, and the fully-merged sweep that
  /// retires stale in_short entries — docs/merge_policy.md).
  void Remove(DocId doc) {
    if (!column_.Get(doc).recorded()) return;
    column_.Set(doc, Slot());
    --size_;
  }

  /// Removes every entry (offline rebuild resets list state). Sealed
  /// versions keep their own chunks.
  void Clear() {
    column_ = Column();
    size_ = 0;
  }

  /// Freezes the current version; see VersionedArray::Seal.
  Snapshot Seal() { return column_.Seal(); }
  /// The working version, unsealed — exclusive access only.
  Snapshot LiveSnapshot() const { return column_.LiveSnapshot(); }

  /// Live entries.
  uint64_t size() const { return size_; }
  uint64_t SizeBytes() const { return column_.AllocatedBytes(); }

 private:
  ListStateTable() = default;

  Column column_;
  uint64_t size_ = 0;
};

/// Score-Threshold's ListScore table.
using ListScoreTable = ListStateTable<double>;
/// The Chunk family's ListChunk table.
using ListChunkTable = ListStateTable<ChunkId>;
static_assert(sizeof(ListChunkTable::Slot) <= 8,
              "a ListChunk slot must stay within 8 bytes");

}  // namespace svr::index

#endif  // SVR_INDEX_LIST_STATE_H_
