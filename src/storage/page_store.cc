#include "storage/page_store.h"

#include <cstring>

namespace svr::storage {

InMemoryPageStore::InMemoryPageStore(uint32_t page_size)
    : page_size_(page_size) {}

bool InMemoryPageStore::IsLive(PageId id) const {
  return id < pages_.size() && live_[id];
}

Status InMemoryPageStore::Read(PageId id, char* buf) {
  MutexLock lock(mu_);
  if (!IsLive(id)) {
    return Status::InvalidArgument("read of unallocated page");
  }
  std::memcpy(buf, pages_[id].get(), page_size_);
  ++stats_.reads;
  return Status::OK();
}

Status InMemoryPageStore::Write(PageId id, const char* buf) {
  MutexLock lock(mu_);
  if (!IsLive(id)) {
    return Status::InvalidArgument("write of unallocated page");
  }
  std::memcpy(pages_[id].get(), buf, page_size_);
  ++stats_.writes;
  return Status::OK();
}

Result<PageId> InMemoryPageStore::Allocate() {
  MutexLock lock(mu_);
  ++stats_.allocations;
  ++live_pages_;
  if (!free_list_.empty()) {
    PageId id = free_list_.back();
    free_list_.pop_back();
    live_[id] = true;
    std::memset(pages_[id].get(), 0, page_size_);
    return id;
  }
  PageId id = static_cast<PageId>(pages_.size());
  pages_.push_back(std::make_unique<char[]>(page_size_));
  std::memset(pages_.back().get(), 0, page_size_);
  live_.push_back(true);
  return id;
}

Result<PageId> InMemoryPageStore::AllocateRun(uint32_t n) {
  MutexLock lock(mu_);
  if (n == 0) return Status::InvalidArgument("empty page run");
  // Runs are always carved off the end so they are contiguous.
  PageId first = static_cast<PageId>(pages_.size());
  for (uint32_t i = 0; i < n; ++i) {
    pages_.push_back(std::make_unique<char[]>(page_size_));
    std::memset(pages_.back().get(), 0, page_size_);
    live_.push_back(true);
  }
  stats_.allocations += n;
  live_pages_ += n;
  return first;
}

Status InMemoryPageStore::Free(PageId id) {
  MutexLock lock(mu_);
  if (!IsLive(id)) {
    return Status::InvalidArgument("free of unallocated page");
  }
  live_[id] = false;
  free_list_.push_back(id);
  ++stats_.frees;
  --live_pages_;
  return Status::OK();
}

}  // namespace svr::storage
