// Shared fixtures for engine tests: a small bookstore database and a plan
// tree search.
#pragma once

#include <memory>

#include "engine/plan.h"
#include "storage/database.h"

namespace pse {
namespace testutil {

/// Builds a database with:
///   author(author_id KEY, name, country_id)        -- 10 rows
///   book(book_id KEY, title, author_id, price)     -- 100 rows, 10 per author
///   sale(sale_id KEY, book_id, qty)                -- 300 rows, 3 per book
/// and ANALYZEd statistics. Every author has books; every book has sales.
inline std::unique_ptr<Database> MakeBookstore(size_t pool_pages = 256) {
  auto db = std::make_unique<Database>(pool_pages);
  TableSchema author("author",
                     {Column("author_id", TypeId::kInt64, 0, false),
                      Column("name", TypeId::kVarchar, 16),
                      Column("country_id", TypeId::kInt64)},
                     {"author_id"});
  TableSchema book("book",
                   {Column("book_id", TypeId::kInt64, 0, false),
                    Column("title", TypeId::kVarchar, 20),
                    Column("author_id", TypeId::kInt64),
                    Column("price", TypeId::kDouble)},
                   {"book_id"});
  TableSchema sale("sale",
                   {Column("sale_id", TypeId::kInt64, 0, false),
                    Column("book_id", TypeId::kInt64),
                    Column("qty", TypeId::kInt64)},
                   {"sale_id"});
  if (!db->CreateTable(author).ok() || !db->CreateTable(book).ok() ||
      !db->CreateTable(sale).ok()) {
    return nullptr;
  }
  for (int64_t a = 0; a < 10; ++a) {
    auto s = db->Insert("author", {Value::Int(a), Value::Varchar("author-" + std::to_string(a)),
                                   Value::Int(a % 3)});
    if (!s.ok()) return nullptr;
  }
  for (int64_t b = 0; b < 100; ++b) {
    auto s = db->Insert("book", {Value::Int(b), Value::Varchar("title-" + std::to_string(b)),
                                 Value::Int(b % 10), Value::Double(5.0 + (b % 40))});
    if (!s.ok()) return nullptr;
  }
  for (int64_t s_id = 0; s_id < 300; ++s_id) {
    auto s = db->Insert("sale",
                        {Value::Int(s_id), Value::Int(s_id % 100), Value::Int(1 + s_id % 5)});
    if (!s.ok()) return nullptr;
  }
  if (!db->AnalyzeAll().ok()) return nullptr;
  return db;
}

/// Finds the first node of `kind` in the plan tree (pre-order), or nullptr.
inline const PlanNode* FindPlanNode(const PlanNode* plan, PlanNode::Kind kind) {
  if (plan->kind == kind) return plan;
  for (const auto& c : plan->children) {
    const PlanNode* found = FindPlanNode(c.get(), kind);
    if (found != nullptr) return found;
  }
  return nullptr;
}

}  // namespace testutil
}  // namespace pse
