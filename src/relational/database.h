#ifndef SVR_RELATIONAL_DATABASE_H_
#define SVR_RELATIONAL_DATABASE_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "relational/table.h"
#include "storage/buffer_pool.h"

namespace svr::relational {

/// Change notification for one row mutation. Exactly one of
/// old_row/new_row is null for inserts/deletes.
struct TableDelta {
  const std::string* table;
  const Row* old_row;  // null on insert
  const Row* new_row;  // null on delete
};

/// Implemented by incrementally maintained views (ScoreView).
class TableObserver {
 public:
  virtual ~TableObserver() = default;
  virtual void OnDelta(const TableDelta& delta) = 0;
};

/// \brief A minimal multi-table database: a catalog plus mutation routing
/// that feeds registered observers — the infrastructure §3.2 assumes for
/// incremental materialized-view maintenance.
class Database {
 public:
  explicit Database(storage::BufferPool* pool) : pool_(pool) {}

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  Result<Table*> CreateTable(const std::string& name, Schema schema);
  /// Null if the table does not exist.
  Table* GetTable(const std::string& name) const;

  /// Mutations. These are the only write paths that trigger observers;
  /// views stay consistent as long as writers go through the Database.
  Status Insert(const std::string& table, const Row& row);
  Status Update(const std::string& table, const Row& row);
  Status Delete(const std::string& table, int64_t pk);

  void AddObserver(TableObserver* observer) {
    observers_.push_back(observer);
  }

  storage::BufferPool* pool() const { return pool_; }

 private:
  void Notify(const std::string& table, const Row* old_row,
              const Row* new_row);

  storage::BufferPool* pool_;
  std::map<std::string, std::unique_ptr<Table>> tables_;
  std::vector<TableObserver*> observers_;
};

}  // namespace svr::relational

#endif  // SVR_RELATIONAL_DATABASE_H_
