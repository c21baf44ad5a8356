#ifndef SVR_STORAGE_BLOB_STORE_H_
#define SVR_STORAGE_BLOB_STORE_H_

#include <atomic>
#include <cstdint>
#include <string>

#include "common/result.h"
#include "common/slice.h"
#include "common/status.h"
#include "storage/buffer_pool.h"
#include "storage/page.h"

namespace svr::storage {

/// Locator of one immutable blob: a contiguous run of pages.
struct BlobRef {
  PageId first_page = kInvalidPageId;
  uint32_t num_pages = 0;
  uint64_t size_bytes = 0;

  bool valid() const { return first_page != kInvalidPageId; }

  bool operator==(const BlobRef& o) const {
    return first_page == o.first_page && num_pages == o.num_pages &&
           size_bytes == o.size_bytes;
  }
  bool operator!=(const BlobRef& o) const { return !(*this == o); }
};

/// \brief Storage for immutable byte blobs, used for the *long* inverted
/// lists of every method except Score (§5.2: "the long inverted lists were
/// stored as binary objects in the database since they are never updated;
/// they were read in a page at a time during query processing").
///
/// Writes go straight to the PageStore (bulk build); reads go through the
/// BufferPool so the cold-cache protocol and the page-I/O statistics see
/// them.
///
/// Thread-safe to the extent the concurrency model needs: Write and Free
/// ride on the internally synchronized pool/store, the size accounting
/// is atomic, and Readers over distinct (published, immutable) blobs may
/// run on any number of threads. Publication of a blob's *ref* is the
/// caller's job (docs/concurrency.md).
class BlobStore {
 public:
  explicit BlobStore(BufferPool* pool) : pool_(pool) {}

  BlobStore(const BlobStore&) = delete;
  BlobStore& operator=(const BlobStore&) = delete;

  /// Writes `data` as a new blob. Empty blobs get a valid zero-page ref.
  Result<BlobRef> Write(const Slice& data);

  /// Frees the pages of `ref`.
  Status Free(const BlobRef& ref);

  /// Total pages held by blobs written (and not freed) via this store.
  uint64_t total_pages() const { return total_pages_; }

  /// Sum of the encoded blob payloads (excludes the padding of the final
  /// page of each blob). This is the honest "list size" number: at small
  /// scales the one-page-per-term minimum would otherwise dominate.
  uint64_t TotalDataBytes() const { return total_data_bytes_; }

  BufferPool* pool() const { return pool_; }

  /// \brief Sequential, page-at-a-time reader over one blob.
  ///
  /// Keeps exactly one page pinned. All posting-list decoders are built
  /// on ReadByte/ReadBytes/Skip.
  class Reader {
   public:
    Reader(BufferPool* pool, const BlobRef& ref)
        : pool_(pool), ref_(ref) {}

    /// Bytes left to read.
    uint64_t remaining() const { return ref_.size_bytes - offset_; }
    uint64_t offset() const { return offset_; }
    bool AtEnd() const { return remaining() == 0; }

    /// Reads exactly `n` bytes into `dst`; OutOfRange if fewer remain.
    Status ReadBytes(char* dst, size_t n);
    /// Reads one byte.
    Status ReadByte(uint8_t* b);
    /// Reads a LEB128 varint.
    Status ReadVarint32(uint32_t* v);
    Status ReadVarint64(uint64_t* v);
    /// Reads a 4-byte little-endian float (term scores).
    Status ReadFloat(float* v);
    /// Skips `n` bytes without touching pages that are skipped entirely.
    Status Skip(uint64_t n);

   private:
    Status EnsurePage();

    BufferPool* pool_;
    BlobRef ref_;
    uint64_t offset_ = 0;
    PageHandle page_;
    uint32_t page_index_ = 0;  // which page of the run `page_` holds
    bool page_loaded_ = false;
  };

  Reader NewReader(const BlobRef& ref) const { return Reader(pool_, ref); }

 private:
  BufferPool* pool_;
  std::atomic<uint64_t> total_pages_{0};
  std::atomic<uint64_t> total_data_bytes_{0};
};

}  // namespace svr::storage

#endif  // SVR_STORAGE_BLOB_STORE_H_
