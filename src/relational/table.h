#ifndef SVR_RELATIONAL_TABLE_H_
#define SVR_RELATIONAL_TABLE_H_

#include <functional>
#include <memory>
#include <string>

#include "common/result.h"
#include "common/status.h"
#include "relational/schema.h"
#include "storage/bptree.h"

namespace svr::relational {

/// \brief A relational table clustered on its INT64 primary key,
/// physically an in-place B+-tree (pk -> serialized row) in the shared
/// buffer pool. Only the engine's writer reads or writes it: searches
/// join against the engine's sealed row column instead
/// (docs/concurrency.md).
class Table {
 public:
  static Result<std::unique_ptr<Table>> Create(std::string name,
                                               Schema schema,
                                               storage::BufferPool* pool);

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }
  uint64_t num_rows() const { return tree_->size(); }

  /// Inserts `row`; AlreadyExists if the pk is taken.
  Status Insert(const Row& row);
  /// Replaces the row with the same pk; NotFound if absent.
  Status Update(const Row& row);
  /// Fetches the row with primary key `pk`.
  Status Get(int64_t pk, Row* row) const;
  Status Delete(int64_t pk);

  /// Full scan in pk order; stops early if `fn` returns false.
  Status Scan(const std::function<bool(const Row&)>& fn) const;

 private:
  Table(std::string name, Schema schema,
        std::unique_ptr<storage::BPlusTree> tree)
      : name_(std::move(name)),
        schema_(std::move(schema)),
        tree_(std::move(tree)) {}

  std::string EncodePk(int64_t pk) const;
  Result<int64_t> RowPk(const Row& row) const;

  std::string name_;
  Schema schema_;
  std::unique_ptr<storage::BPlusTree> tree_;
};

}  // namespace svr::relational

#endif  // SVR_RELATIONAL_TABLE_H_
