#ifndef SVR_COMMON_VERSIONED_ARRAY_H_
#define SVR_COMMON_VERSIONED_ARRAY_H_

#include <array>
#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

namespace svr {

/// \brief A dense array with cheap immutable snapshots, built from
/// fixed-size chunks shared structurally between versions — the
/// in-memory analogue of the copy-on-write B+-tree (storage/bptree.h)
/// for reader-visible state that is not paged: per-term BlobRef
/// directories, short-list side counters, corpus documents, and the
/// per-document judge columns (the Score table, ListScore/ListChunk).
///
/// Protocol: one writer mutates via Set(); Seal() freezes the current
/// contents and returns a Snapshot that any number of threads may read
/// with no lock, provided the Snapshot itself reached them through a
/// synchronizing publication (the engine's atomic EngineSnapshot swap).
/// The first Set() after a Seal() clones the spine (O(size/kChunkSize)
/// pointers) and the first touch of each frozen chunk clones that chunk;
/// everything untouched stays shared with older snapshots, whose
/// contents never change.
///
/// Unset slots read as a value-initialized T.
template <typename T, size_t kChunkSize = 256>
class VersionedArray {
  static_assert(kChunkSize > 0, "chunk size must be positive");
  using Chunk = std::array<T, kChunkSize>;
  using Spine = std::vector<std::shared_ptr<Chunk>>;

 public:
  class Snapshot {
   public:
    Snapshot() = default;

    size_t size() const { return size_; }

    /// Value at `i`, or a value-initialized T when never set / out of
    /// range.
    T Get(size_t i) const {
      const T* p = Find(i);
      return p != nullptr ? *p : T();
    }

    /// Pointer into the (immutable) chunk, or null when never set /
    /// out of range. Valid while this Snapshot is alive.
    const T* Find(size_t i) const {
      if (spine_ == nullptr || i >= size_) return nullptr;
      const size_t c = i / kChunkSize;
      if (c >= spine_->size() || (*spine_)[c] == nullptr) return nullptr;
      return &(*(*spine_)[c])[i % kChunkSize];
    }

   private:
    friend class VersionedArray;
    Snapshot(std::shared_ptr<const Spine> spine, size_t size)
        : spine_(std::move(spine)), size_(size) {}

    std::shared_ptr<const Spine> spine_;
    size_t size_ = 0;
  };

  size_t size() const { return size_; }

  /// Writer-side read of the working version.
  T Get(size_t i) const {
    const T* p = Find(i);
    return p != nullptr ? *p : T();
  }

  const T* Find(size_t i) const {
    if (i >= size_) return nullptr;
    const size_t c = i / kChunkSize;
    if (c >= spine_->size() || (*spine_)[c] == nullptr) return nullptr;
    return &(*(*spine_)[c])[i % kChunkSize];
  }

  /// Writer-side mutation; grows the array as needed.
  void Set(size_t i, T value) {
    if (frozen_) {
      spine_ = std::make_shared<Spine>(*spine_);
      writable_.assign(spine_->size(), false);
      frozen_ = false;
    }
    const size_t c = i / kChunkSize;
    if (c >= spine_->size()) {
      spine_->resize(c + 1);
      writable_.resize(c + 1, false);
    }
    std::shared_ptr<Chunk>& chunk = (*spine_)[c];
    if (chunk == nullptr) {
      chunk = std::make_shared<Chunk>();  // value-initialized contents
      writable_[c] = true;
      ++chunks_;
    } else if (!writable_[c]) {
      chunk = std::make_shared<Chunk>(*chunk);  // copy-on-first-write
      writable_[c] = true;
    }
    (*chunk)[i % kChunkSize] = std::move(value);
    if (i + 1 > size_) size_ = i + 1;
  }

  /// A read view of the working version that does *not* freeze it, so
  /// the writer's next Set() pays no spine clone. Not a snapshot in the
  /// isolation sense: it shares the writer's mutable chunks and sees
  /// their later in-place writes. Writer-side (exclusive access) only.
  Snapshot LiveSnapshot() const { return Snapshot(spine_, size_); }

  /// Bytes of the chunks this version references (allocated on first
  /// write; a chunk shared with older snapshots is counted once here).
  size_t AllocatedBytes() const { return chunks_ * sizeof(Chunk); }

  /// Freezes the working version. Const because sealing changes no
  /// observable contents — only the internal sharing bookkeeping — and
  /// because read paths with exclusive access (standalone index TopK,
  /// the oracle) seal through const pointers. Writer-serialized like
  /// every other member.
  Snapshot Seal() const {
    frozen_ = true;
    writable_.assign(spine_->size(), false);
    return Snapshot(spine_, size_);
  }

 private:
  mutable std::shared_ptr<Spine> spine_ = std::make_shared<Spine>();
  /// Parallel to *spine_: chunk may be mutated in place (allocated or
  /// already cloned since the last Seal).
  mutable std::vector<bool> writable_;
  /// True when *spine_ itself is shared with a Snapshot and must be
  /// cloned before any structural change.
  mutable bool frozen_ = false;
  size_t size_ = 0;
  size_t chunks_ = 0;  // non-null spine entries
};

}  // namespace svr

#endif  // SVR_COMMON_VERSIONED_ARRAY_H_
