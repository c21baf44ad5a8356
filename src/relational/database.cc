#include "relational/database.h"

namespace svr::relational {

Result<Table*> Database::CreateTable(const std::string& name,
                                     Schema schema) {
  if (tables_.count(name) > 0) {
    return Status::AlreadyExists("table exists: " + name);
  }
  SVR_ASSIGN_OR_RETURN(
      auto table, Table::Create(name, std::move(schema), pool_));
  Table* raw = table.get();
  tables_.emplace(name, std::move(table));
  return raw;
}

Table* Database::GetTable(const std::string& name) const {
  auto it = tables_.find(name);
  return it == tables_.end() ? nullptr : it->second.get();
}

Status Database::Insert(const std::string& table, const Row& row) {
  Table* t = GetTable(table);
  if (t == nullptr) return Status::NotFound("no such table: " + table);
  SVR_RETURN_NOT_OK(t->Insert(row));
  Notify(table, nullptr, &row);
  return Status::OK();
}

Status Database::Update(const std::string& table, const Row& row) {
  Table* t = GetTable(table);
  if (t == nullptr) return Status::NotFound("no such table: " + table);
  const int pk_col = t->schema().pk_index();
  if (row.size() <= static_cast<size_t>(pk_col)) {
    return Status::InvalidArgument("row arity mismatch");
  }
  Row old_row;
  SVR_RETURN_NOT_OK(t->Get(row[pk_col].as_int(), &old_row));
  SVR_RETURN_NOT_OK(t->Update(row));
  Notify(table, &old_row, &row);
  return Status::OK();
}

Status Database::Delete(const std::string& table, int64_t pk) {
  Table* t = GetTable(table);
  if (t == nullptr) return Status::NotFound("no such table: " + table);
  Row old_row;
  SVR_RETURN_NOT_OK(t->Get(pk, &old_row));
  SVR_RETURN_NOT_OK(t->Delete(pk));
  Notify(table, &old_row, nullptr);
  return Status::OK();
}

void Database::Notify(const std::string& table, const Row* old_row,
                      const Row* new_row) {
  TableDelta delta{&table, old_row, new_row};
  for (TableObserver* obs : observers_) {
    obs->OnDelta(delta);
  }
}

}  // namespace svr::relational
