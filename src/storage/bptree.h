#ifndef SVR_STORAGE_BPTREE_H_
#define SVR_STORAGE_BPTREE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/result.h"
#include "common/slice.h"
#include "common/status.h"
#include "storage/buffer_pool.h"
#include "storage/page.h"

namespace svr::storage {

/// Callback a copy-on-write tree hands shared pages to instead of
/// freeing them: the owner defers the actual BufferPool::FreePage until
/// every reader that could still traverse the page has exited its epoch
/// (docs/concurrency.md).
using PageRetirer = std::function<void(PageId)>;

/// \brief An immutable root publication of one tree version. Everything
/// reachable from `root` of a *sealed* copy-on-write tree is frozen:
/// readers may traverse it with no lock while the writer keeps mutating
/// its private working version. A default-constructed snapshot reads as
/// an empty tree.
struct TreeSnapshot {
  PageId root = kInvalidPageId;
  uint64_t size = 0;

  bool valid() const { return root != kInvalidPageId; }
};

/// \brief A paged B+-tree with variable-length keys and values,
/// equivalent in role to the BerkeleyDB BTREE access method used by the
/// paper (§5.2): the Score method's clustered long lists and the
/// relational tables live in instances of this structure. (The short
/// inverted lists are per-term coded runs, index/short_list.h, and the
/// Score table and the ListScore/ListChunk state are dense
/// VersionedArray columns, common/versioned_array.h.)
///
/// Keys are compared as raw bytes (memcmp); callers encode composite /
/// descending orders with svr::PutKey* (see common/key_codec.h).
///
/// Properties:
///  - upsert Put(), point Get(), Delete(), ordered forward iteration;
///  - pages that become empty are unlinked and freed (no proactive
///    rebalancing — bounded space overhead traded for simplicity, same
///    trade BerkeleyDB makes with its "reverse split off" default);
///  - every page access goes through the BufferPool, so tree operations
///    are fully accounted in the I/O statistics.
///
/// Two mutation modes:
///  - in place (Create): writers mutate pages directly. Callers must
///    serialize readers against writers themselves — the pre-MVCC model,
///    still used by standalone tools, benchmarks and tests.
///  - copy-on-write (CreateCow): every mutation shadows the root-to-leaf
///    path — pages belonging to the last sealed version are copied, the
///    copies are relinked top-down, and the originals go to the
///    PageRetirer. Seal() freezes the working version and returns a
///    TreeSnapshot; Get/Seek against a sealed snapshot are safe from any
///    number of threads with no lock while one writer keeps mutating
///    (docs/concurrency.md). Iterators never follow leaf sibling links
///    (they ascend through their root-to-leaf path), so shadowing one
///    leaf never cascades into its neighbours.
class BPlusTree {
 public:
  /// Creates a new empty in-place tree whose pages live in `pool`.
  static Result<std::unique_ptr<BPlusTree>> Create(BufferPool* pool);

  /// Creates a new empty copy-on-write tree. `retire` receives pages of
  /// sealed versions the working version no longer references; the owner
  /// must FreePage them once no snapshot reader can reach them. A null
  /// retirer frees such pages immediately (single-threaded COW use).
  static Result<std::unique_ptr<BPlusTree>> CreateCow(BufferPool* pool,
                                                      PageRetirer retire);

  BPlusTree(const BPlusTree&) = delete;
  BPlusTree& operator=(const BPlusTree&) = delete;

  /// Inserts or replaces `key`.
  Status Put(const Slice& key, const Slice& value);

  /// Looks up `key`; Status::NotFound if absent.
  Status Get(const Slice& key, std::string* value) const;

  /// Removes `key`; Status::NotFound if absent.
  Status Delete(const Slice& key);

  /// Freezes the current working version and returns its snapshot. In
  /// COW mode the next mutation shadows its path; in in-place mode this
  /// is just the live root (callers must still serialize readers, as
  /// they always did). Cheap: O(pages shadowed since the last seal).
  TreeSnapshot Seal();

  /// The current working version, *not* sealed. Only valid while the
  /// caller has exclusive access to the tree.
  TreeSnapshot LiveSnapshot() const { return TreeSnapshot{root_, size_}; }

  /// Ordered forward iterator. Holds its root-to-leaf descent path and
  /// pins at most one (leaf) page; advancing past a leaf re-descends
  /// from the deepest unexhausted ancestor, so it never reads sibling
  /// links and works identically over live roots and sealed snapshots.
  class Iterator {
   public:
    /// True if positioned on an entry.
    bool Valid() const { return valid_; }
    /// Advances to the next entry in key order.
    void Next();
    Slice key() const;
    Slice value() const;
    /// Non-OK if iteration hit an I/O error (Valid() turns false).
    Status status() const { return status_; }

   private:
    friend class BPlusTree;
    explicit Iterator(const BPlusTree* tree) : tree_(tree) {}

    /// One internal level of the descent: which child index was taken
    /// out of how many (nslots entries + the rightmost pointer).
    struct Level {
      PageId page;
      int child;     // 0..nchildren-1; nchildren-1 is the rightmost
      int nchildren;
    };

    void SeekInternal(PageId root, const Slice& target);
    /// Descends from path_.back()'s current child to its leftmost leaf.
    void DescendToLeaf(PageId page);
    /// Ascends until a level has another child, then descends; invalid
    /// when the whole tree is exhausted.
    void AdvanceLeaf();

    const BPlusTree* tree_;
    std::vector<Level> path_;
    PageHandle leaf_;
    int slot_ = 0;
    int nslots_ = 0;
    bool valid_ = false;
    Status status_;
  };

  /// Returns an iterator positioned at the first entry >= `target`.
  std::unique_ptr<Iterator> Seek(const Slice& target) const;
  /// Returns an iterator positioned at the first entry.
  std::unique_ptr<Iterator> Begin() const;

  // --- snapshot reads (lock-free against the writer; COW mode) --------
  /// Get against a sealed snapshot. An invalid snapshot reads empty.
  Status GetAt(const TreeSnapshot& snap, const Slice& key,
               std::string* value) const;
  std::unique_ptr<Iterator> SeekAt(const TreeSnapshot& snap,
                                   const Slice& target) const;
  std::unique_ptr<Iterator> BeginAt(const TreeSnapshot& snap) const;

  /// Number of live entries.
  uint64_t size() const { return size_; }
  /// Pages currently owned by this tree (space accounting for Table 1).
  uint64_t num_pages() const { return num_pages_; }
  uint64_t SizeBytes() const {
    return num_pages_ * pool_->page_size();
  }
  PageId root() const { return root_; }
  bool cow() const { return cow_; }

 private:
  BPlusTree(BufferPool* pool, PageId root, uint64_t size, uint64_t num_pages)
      : pool_(pool), root_(root), size_(size), num_pages_(num_pages) {}

  // Descends to the leaf that owns `key` starting at `from`; fills
  // `path` with (page, slot) pairs for the internal nodes visited
  // (slot = index of followed entry, or -1 for the rightmost pointer).
  struct PathEntry {
    PageId page;
    int slot;
  };
  Status FindLeaf(PageId from, const Slice& key, PageHandle* leaf,
                  std::vector<PathEntry>* path) const;
  /// FindLeaf for mutations: in COW mode shadows every shared page on
  /// the descent (copy, relink in the already-shadowed parent, retire
  /// the original), so the caller may mutate any page on `path` and the
  /// returned leaf in place.
  Status FindLeafForWrite(const Slice& key, PageHandle* leaf,
                          std::vector<PathEntry>* path);

  Status InsertIntoParent(std::vector<PathEntry>* path, PageId left,
                          const std::string& sep, PageId right);
  Status RemoveFromParent(std::vector<PathEntry>* path, PageId child);

  Result<PageId> NewNodePage(bool leaf, PageHandle* handle);
  Status FreeNodePage(PageId id);
  /// True when the page belongs to the unsealed working version and may
  /// be mutated in place.
  bool IsPrivate(PageId id) const {
    return !cow_ || private_pages_.count(id) != 0;
  }
  /// Hands a page of a sealed version to the retirer (or frees it).
  Status RetireSharedPage(PageId id);

  BufferPool* pool_;
  PageId root_;
  uint64_t size_;
  uint64_t num_pages_;
  bool cow_ = false;
  PageRetirer retire_;
  /// Pages allocated since the last Seal() — reachable only from the
  /// writer's working root, never from a sealed snapshot.
  std::unordered_set<PageId> private_pages_;
};

}  // namespace svr::storage

#endif  // SVR_STORAGE_BPTREE_H_
