#ifndef SVR_STORAGE_PAGE_STORE_H_
#define SVR_STORAGE_PAGE_STORE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "storage/page.h"

namespace svr::storage {

/// Raw page-read/-write statistics for one backing store.
struct PageStoreStats {
  uint64_t reads = 0;
  uint64_t writes = 0;
  uint64_t allocations = 0;
  uint64_t frees = 0;
};

/// \brief Abstraction over the physical page file, the analogue of
/// BerkeleyDB's mpool backing file.
///
/// The implementation is InMemoryPageStore ("disk" reads are counted by
/// the buffer pool above it); tests substitute fakes through this
/// interface. The WAL, not the page store, is the engine's persistence
/// path (docs/durability.md).
///
/// The store mutex lives in the base class so the stats counters it
/// guards can be read through the base `stats()` accessor under the same
/// lock the implementations mutate them under. (The old unguarded
/// `const&` accessor raced with writers; see docs/static_analysis.md.)
class PageStore {
 public:
  virtual ~PageStore() = default;

  /// Reads page `id` into `buf` (page_size() bytes).
  virtual Status Read(PageId id, char* buf) = 0;
  /// Writes page `id` from `buf` (page_size() bytes).
  virtual Status Write(PageId id, const char* buf) = 0;
  /// Allocates one page (possibly recycling a freed one).
  virtual Result<PageId> Allocate() = 0;
  /// Allocates `n` physically contiguous pages and returns the first id.
  /// Used by the blob store so long inverted lists are sequential on disk.
  virtual Result<PageId> AllocateRun(uint32_t n) = 0;
  /// Returns page `id` to the free list.
  virtual Status Free(PageId id) = 0;

  virtual uint32_t page_size() const = 0;
  /// Number of live (allocated and not freed) pages.
  virtual uint64_t live_pages() const = 0;

  /// Consistent by-value snapshot of the I/O counters.
  PageStoreStats stats() const EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return stats_;
  }

 protected:
  /// Guards stats_ plus whatever per-implementation state the derived
  /// classes hang off it (page table, free list).
  mutable Mutex mu_;
  PageStoreStats stats_ GUARDED_BY(mu_);
};

/// Heap-backed page store. Thread-safe: the page table, free list and
/// statistics are mutex-guarded so buffer pools above it can be shared
/// across query, write and maintenance threads.
class InMemoryPageStore final : public PageStore {
 public:
  explicit InMemoryPageStore(uint32_t page_size = kDefaultPageSize);

  InMemoryPageStore(const InMemoryPageStore&) = delete;
  InMemoryPageStore& operator=(const InMemoryPageStore&) = delete;

  Status Read(PageId id, char* buf) override EXCLUDES(mu_);
  Status Write(PageId id, const char* buf) override EXCLUDES(mu_);
  Result<PageId> Allocate() override EXCLUDES(mu_);
  Result<PageId> AllocateRun(uint32_t n) override EXCLUDES(mu_);
  Status Free(PageId id) override EXCLUDES(mu_);

  uint32_t page_size() const override { return page_size_; }
  uint64_t live_pages() const override EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return live_pages_;
  }

 private:
  bool IsLive(PageId id) const REQUIRES(mu_);

  uint32_t page_size_;
  std::vector<std::unique_ptr<char[]>> pages_ GUARDED_BY(mu_);
  std::vector<bool> live_ GUARDED_BY(mu_);
  std::vector<PageId> free_list_ GUARDED_BY(mu_);
  uint64_t live_pages_ GUARDED_BY(mu_) = 0;
};

}  // namespace svr::storage

#endif  // SVR_STORAGE_PAGE_STORE_H_
