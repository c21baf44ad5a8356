#include "relational/table.h"

#include "common/key_codec.h"

namespace svr::relational {

Result<std::unique_ptr<Table>> Table::Create(std::string name, Schema schema,
                                             storage::BufferPool* pool,
                                             storage::PageRetirer retire) {
  if (schema.num_columns() == 0) {
    return Status::InvalidArgument("table needs at least one column");
  }
  const int pk = schema.pk_index();
  if (pk < 0 || pk >= static_cast<int>(schema.num_columns()) ||
      schema.column(pk).type != ValueType::kInt64) {
    return Status::InvalidArgument("primary key must be an INT64 column");
  }
  auto tree = retire != nullptr
                  ? storage::BPlusTree::CreateCow(pool, std::move(retire))
                  : storage::BPlusTree::Create(pool);
  SVR_RETURN_NOT_OK(tree.status());
  return std::unique_ptr<Table>(new Table(std::move(name), std::move(schema),
                                          std::move(tree).value()));
}

std::string Table::EncodePk(int64_t pk) const {
  std::string key;
  // Flip the sign bit so memcmp order matches signed numeric order.
  PutKeyU64(&key, static_cast<uint64_t>(pk) ^ (1ULL << 63));
  return key;
}

Result<int64_t> Table::RowPk(const Row& row) const {
  if (row.size() != schema_.num_columns()) {
    return Status::InvalidArgument("row arity mismatch for " + name_);
  }
  const Value& v = row[schema_.pk_index()];
  if (v.type() != ValueType::kInt64) {
    return Status::InvalidArgument("primary key must be INT64");
  }
  return v.as_int();
}

Status Table::Insert(const Row& row) {
  SVR_ASSIGN_OR_RETURN(int64_t pk, RowPk(row));
  std::string key = EncodePk(pk);
  std::string existing;
  if (tree_->Get(key, &existing).ok()) {
    return Status::AlreadyExists("duplicate primary key in " + name_);
  }
  std::string payload;
  EncodeRow(&payload, row);
  return tree_->Put(key, payload);
}

Status Table::Update(const Row& row) {
  SVR_ASSIGN_OR_RETURN(int64_t pk, RowPk(row));
  std::string key = EncodePk(pk);
  std::string existing;
  SVR_RETURN_NOT_OK(tree_->Get(key, &existing));
  std::string payload;
  EncodeRow(&payload, row);
  return tree_->Put(key, payload);
}

Status Table::Get(int64_t pk, Row* row) const {
  return GetAt(tree_->LiveSnapshot(), pk, row);
}

Status Table::GetAt(const storage::TreeSnapshot& snap, int64_t pk,
                    Row* row) const {
  std::string payload;
  SVR_RETURN_NOT_OK(tree_->GetAt(snap, EncodePk(pk), &payload));
  Slice in(payload);
  return DecodeRow(&in, schema_.num_columns(), row);
}

Status Table::Delete(int64_t pk) { return tree_->Delete(EncodePk(pk)); }

Status Table::Scan(const std::function<bool(const Row&)>& fn) const {
  auto it = tree_->Begin();
  Row row;
  while (it->Valid()) {
    Slice in = it->value();
    SVR_RETURN_NOT_OK(DecodeRow(&in, schema_.num_columns(), &row));
    if (!fn(row)) break;
    it->Next();
  }
  return it->status();
}

}  // namespace svr::relational
