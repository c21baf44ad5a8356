#ifndef SVR_INDEX_SHORT_LIST_H_
#define SVR_INDEX_SHORT_LIST_H_

#include <cstdint>
#include <memory>
#include <unordered_set>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "common/versioned_array.h"

namespace svr::index {

/// Posting operation flag (Appendix A.1): regular/add vs removed term.
enum class PostingOp : uint8_t {
  kAdd = 0,
  kRemove = 1,
};

/// \brief The *short* inverted lists of §4.3 — the small, mutable
/// companion of the immutable long lists — stored as one coded run per
/// term. A term's postings come back in query order:
///
///   Score-keyed (Score-Threshold): (score desc, doc asc)
///   Chunk-keyed (Chunk family):    (cid desc,   doc asc)
///   Id-keyed    (ID family):       (doc asc)
///
/// Each posting carries its PostingOp and, for the *-TermScore methods,
/// its term score.
///
/// Layout. Every term has one slot in a VersionedArray: its count,
/// modification stamp and term-score bound, plus an 8-byte handle.
///  - The run: an immutable byte string of the term's postings, gap-coded
///    per position group. One varint per posting holds the doc gap (or
///    the absolute doc where a position group starts) with the ADD/REM
///    op, the group flag and a has-term-score flag folded into its low
///    bits; a group start adds the chunk id (varint) or the raw 8-byte
///    score, a nonzero term score adds 4 bytes. A run that fits in 7
///    bytes (one or two postings) lives inline in the handle, so the
///    many terms that hold a posting or two allocate nothing. Larger
///    runs are heap objects, cut into blocks of 64 postings with a
///    directory of block starts, so a point lookup decodes at most one
///    block.
///  - The tail: a small sorted array of recent writes (upserts and
///    tombstones of run postings) layered over a heap run. Once it holds more
///    than 1/16 of the run's postings, run and tail are re-coded into a
///    new run; smaller runs are re-coded on every write.
///
/// Versions. Seal() freezes the slots (and the per-doc counts) at one
/// instant; runs are immutable and shared by reference count, so a
/// pinned snapshot reads its frozen runs and tails with no lock, and an
/// old run is freed when its last slot copy goes. After each Seal(), the
/// first write to a term copies its tail (and, through the
/// VersionedArray, its 64-slot, 1.5 KB chunk); later writes before the
/// next seal
/// update that private copy in place.
///
/// Size. SizeBytes() counts the allocated capacity of every heap run and
/// tail in the working version plus the 8-byte handle of every
/// allocated slot. The slots' count/stamp/bound fields and the per-doc
/// count array predate this layout and were never counted; they still
/// are not.
class ShortList {
 public:
  enum class KeyKind { kScore, kChunk, kId };

 private:
  /// \brief A term's run storage: an inline run of up to 7 bytes, a heap
  /// run, or a tail over a heap run; heap objects are reference counted.
  /// Copying shares; the slot's owner copies the tail before changing
  /// it.
  class RunRef {
   public:
    RunRef() = default;
    RunRef(const RunRef& o);
    RunRef(RunRef&& o) noexcept;
    RunRef& operator=(const RunRef& o);
    RunRef& operator=(RunRef&& o) noexcept;
    ~RunRef();

    /// See short_list.cc for the two layouts.
    alignas(8) unsigned char bytes_[8] = {};
  };

 public:
  /// One short posting. `sort_value` is the score (kScore), the chunk id
  /// (kChunk) or 0 (kId).
  struct Posting {
    double sort_value = 0.0;
    DocId doc = 0;
    PostingOp op = PostingOp::kAdd;
    float term_score = 0.0f;
  };

  /// Bytes each allocated slot spends on its run handle.
  static constexpr uint64_t kSlotHandleBytes = sizeof(RunRef);

  static std::unique_ptr<ShortList> Create(KeyKind kind) {
    return std::unique_ptr<ShortList>(new ShortList(kind));
  }

  ShortList(const ShortList&) = delete;
  ShortList& operator=(const ShortList&) = delete;

  /// Inserts/overwrites a posting. `sort_value` is the score (kScore),
  /// the chunk id (kChunk) or ignored (kId).
  Status Put(TermId term, double sort_value, DocId doc, PostingOp op,
             float term_score);

  /// Deletes a posting; NotFound if absent.
  Status Delete(TermId term, double sort_value, DocId doc);

  /// True iff a posting with this exact key exists.
  bool Contains(TermId term, double sort_value, DocId doc) const;

  /// Deletes every posting of `term` (the incremental merge's cleanup
  /// step). OK even when the term has none.
  Status DeleteTerm(TermId term);

  /// The fine-grained merge install's delete step, shared by every
  /// method (docs/concurrency.md): removes each of `postings` (what a
  /// prepare folded into the new blob, in scan order as View::Collect
  /// returns them) only if it is unchanged — same op and term score. An
  /// overwrite carries newer state and an already-deleted posting needs
  /// nothing; both keep layering over the new blob at query time.
  Status DeleteUnchanged(TermId term, const std::vector<Posting>& postings);

  /// Removes every posting (offline rebuild) and releases all storage.
  /// Every term's TermVersion moves past any stamp issued before.
  Status Clear();

  /// \brief Cursor over one term's postings in scan order. Holds its own
  /// references to the run and tail it reads, so it stays valid however
  /// long it lives; over a live (unsealed) list it must not outlive the
  /// next write to the term.
  class Cursor {
   public:
    bool Valid() const { return valid_; }
    DocId doc() const { return cur_.doc; }
    /// score or chunk id, depending on the key kind.
    double sort_value() const { return cur_.sort_value; }
    PostingOp op() const { return cur_.op; }
    float term_score() const { return cur_.term_score; }
    void Next();

   private:
    friend class ShortList;
    Cursor(KeyKind kind, const RunRef* ref);
    void DecodeRun();

    KeyKind kind_;
    RunRef ref_;
    // Run side: byte offsets into the run's payload, plus the decoder's
    // running doc and position.
    uint32_t off_ = 0;
    uint32_t end_ = 0;
    DocId prev_doc_ = 0;
    double pos_ = 0.0;
    bool run_valid_ = false;
    Posting run_cur_;
    // Tail side: index of the next unconsumed entry.
    uint32_t tail_i_ = 0;
    bool valid_ = false;
    Posting cur_;
  };

  Cursor Scan(TermId term) const;

 private:
  struct TermSlot {
    uint64_t version = 0;  // monotone modification stamp (0 = never)
    uint32_t count = 0;    // live postings of the term
    float max_ts = 0.0f;   // monotone term-score upper bound
    RunRef ref;
  };
  /// 64 slots x 24 bytes: the chunk a statement's first write to a term
  /// after a seal copies stays at 1.5 KB.
  static constexpr size_t kSlotChunk = 64;
  using TermArray = VersionedArray<TermSlot, kSlotChunk>;
  using DocArray = VersionedArray<uint32_t, 512>;

 public:
  /// \brief One sealed version of the short lists: the per-term slots
  /// and per-doc counts frozen at the same instant. Copyable and
  /// lock-free to read once published through the engine snapshot.
  struct Snapshot {
    TermArray::Snapshot terms;
    DocArray::Snapshot docs;
    uint64_t version_floor = 0;
  };

  Snapshot Seal() const {
    sealed_version_ = version_counter_;
    return Snapshot{terms_.Seal(), doc_counts_.Seal(), version_floor_};
  }

  /// \brief Read adapter over one Snapshot — what queries and the merge
  /// prepare phase consume at a pinned ReadView.
  class View {
   public:
    View() = default;
    View(const ShortList* list, Snapshot snap)
        : kind_(list->kind_), snap_(std::move(snap)) {}

    Cursor Scan(TermId term) const {
      return Cursor(kind_, SlotRef(snap_.terms.Find(term)));
    }
    uint64_t TermPostingCount(TermId term) const {
      const TermSlot* s = snap_.terms.Find(term);
      return s == nullptr ? 0 : s->count;
    }
    uint64_t TermVersion(TermId term) const {
      const TermSlot* s = snap_.terms.Find(term);
      return VersionOf(s, snap_.version_floor);
    }
    float TermMaxTs(TermId term) const {
      const TermSlot* s = snap_.terms.Find(term);
      return s == nullptr ? 0.0f : s->max_ts;
    }
    uint64_t DocPostingCount(DocId doc) const {
      return snap_.docs.Get(doc);
    }
    bool Contains(TermId term, double sort_value, DocId doc) const;
    /// Every posting of `term` in scan order — what the merge prepare
    /// records so the install can later delete exactly the postings it
    /// folded in (and only if unchanged).
    void Collect(TermId term, std::vector<Posting>* out) const;

   private:
    KeyKind kind_ = KeyKind::kId;
    Snapshot snap_;
  };

  uint64_t num_postings() const { return num_postings_; }
  /// Heap runs and tails of the working version plus one handle per
  /// allocated slot (see the class comment).
  uint64_t SizeBytes() const { return heap_bytes_ + SlotBytes(); }
  /// The handle bytes of every allocated slot.
  uint64_t SlotBytes() const {
    return kSlotHandleBytes * (terms_.AllocatedBytes() / sizeof(TermSlot));
  }

  /// Live postings of one term / one doc.
  uint64_t TermPostingCount(TermId term) const;
  uint64_t DocPostingCount(DocId doc) const { return doc_counts_.Get(doc); }

  /// Monotone upper bound on the term scores of `term`'s postings:
  /// raised by Put, reset only when the whole term is dropped
  /// (DeleteTerm/Clear) — single Deletes leave it high, which keeps it a
  /// bound. Chunk-TermScore uses it to keep the fancy-list pruning and
  /// stop rules sound for postings that live only in the short lists.
  float TermMaxTs(TermId term) const;

  /// One term's share of SizeBytes(): its heap run and tail capacity
  /// plus its slot's handle while it has postings, 0 otherwise. The
  /// policy's byte budget reads this.
  uint64_t TermApproxBytes(TermId term) const;

  /// Monotone per-term modification stamp: changes whenever any posting
  /// of `term` is inserted, overwritten, deleted or range-erased. The
  /// two-phase merge captures it at Prepare; an unchanged stamp lets the
  /// install take the cheap whole-term erase instead of the per-posting
  /// fine path (docs/concurrency.md). 0 means "never modified".
  uint64_t TermVersion(TermId term) const {
    return VersionOf(terms_.Find(term), version_floor_);
  }

  /// Terms that currently have postings — what the auto-merge policy
  /// iterates; only churned terms appear.
  const std::unordered_set<TermId>& dirty_terms() const {
    return dirty_terms_;
  }

 private:
  explicit ShortList(KeyKind kind) : kind_(kind) {}

  static const RunRef* SlotRef(const TermSlot* s) {
    return s == nullptr ? nullptr : &s->ref;
  }
  static uint64_t VersionOf(const TermSlot* s, uint64_t floor) {
    const uint64_t v = s == nullptr ? 0 : s->version;
    return v > floor ? v : floor;
  }

  /// The live postings behind one handle, in scan order.
  void Postings(const RunRef& ref, std::vector<Posting>* out) const;
  /// Rewrites the term's run from `postings` (scan order) with no tail.
  void Recode(TermSlot* slot, const std::vector<Posting>& postings);
  /// Re-codes run + tail once the tail outgrew its share of the run.
  void MaybeCompact(TermSlot* slot);
  /// Gives the slot a tail no snapshot shares (copying it after a seal).
  void PrivatizeTail(TermSlot* slot);
  void Touch(TermSlot* slot) { slot->version = ++version_counter_; }
  void CountPosting(TermId term, TermSlot* slot, DocId doc, int delta);

  KeyKind kind_;
  TermArray terms_;
  DocArray doc_counts_;
  std::unordered_set<TermId> dirty_terms_;
  uint64_t num_postings_ = 0;
  uint64_t heap_bytes_ = 0;
  /// Stamps are drawn from one list-wide counter so they never repeat,
  /// even across DeleteTerm/Clear cycles (an ABA-free version check).
  uint64_t version_counter_ = 0;
  /// Clear() raises every term's stamp to at least this value.
  uint64_t version_floor_ = 0;
  /// version_counter_ at the last Seal(): a term stamped above it was
  /// written since, so its tail is already private.
  mutable uint64_t sealed_version_ = 0;
};

}  // namespace svr::index

#endif  // SVR_INDEX_SHORT_LIST_H_
