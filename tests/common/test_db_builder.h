// Shared database builders and row-set helpers for tests.
//
// Three families of suites kept re-implementing the same scaffolding: the
// engine's differential tests (a random single-table instance plus a ground-
// truth row copy), the core migration tests (sorted table dumps and row-set
// equality), and everything fixture-shaped around the paper's miniature
// bookstore. They live here once; tests/core/core_test_util.h remains as a
// shim for the historical include path.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/logical_database.h"
#include "core/logical_schema.h"
#include "core/mapping.h"
#include "core/physical_schema.h"
#include "core/rewriter_dml.h"
#include "storage/database.h"

namespace pse {
namespace testutil {

/// Sorts rows lexicographically by Value::Compare (column by column, then by
/// width) so order-insensitive result sets can be compared index-wise.
std::vector<Row> SortRows(std::vector<Row> rows);

/// Contents of one table (whole rows) in heap order. Reports a gtest
/// failure, and returns what it read so far, when the table does not exist
/// or a page cannot be read.
std::vector<Row> HeapRows(Database* db, const std::string& name);

/// HeapRows, sorted.
std::vector<Row> TableRows(Database* db, const std::string& name);

/// Element-wise equality of two row sets (same order, same arity, Compare==0
/// per value). Combine with SortRows for order-insensitive comparison.
bool SameRows(const std::vector<Row>& a, const std::vector<Row>& b);

/// A candidate schema: a random dependency-closed subset of `opset` applied
/// to `source` in a random topological order (so table order varies too).
/// `chosen` picks the subset before closing it; empty draws one.
PhysicalSchema RandomCandidate(const PhysicalSchema& source, const OperatorSet& opset, Rng* rng,
                               std::vector<bool> chosen = {});

/// A random single-table instance plus its ground-truth row copy, for
/// differential testing against a naive reference evaluator.
struct RandomInstance {
  std::unique_ptr<Database> db;
  std::vector<Row> rows;
};

/// Builds a table t(id BIGINT, a BIGINT, b BIGINT, s VARCHAR) with random
/// data, including NULLs, and ANALYZEs it.
RandomInstance MakeInstance(Rng* rng, size_t num_rows);

/// The paper's miniature bookstore: author/book/user source schema, a
/// combined glossary + split user object schema, and deterministic covering
/// data. Fixture for core, analysis, and (now) engine suites.
struct Bookstore {
  // PhysicalSchema holds a pointer to `logical`, so a Bookstore must never
  // be copied or moved; Make() heap-allocates it.
  Bookstore() = default;
  Bookstore(const Bookstore&) = delete;
  Bookstore& operator=(const Bookstore&) = delete;

  LogicalSchema logical;
  EntityId author = kInvalidId, book = kInvalidId, user = kInvalidId;
  AttrId a_id, a_name, a_bio;
  AttrId b_id, b_title, b_cost, b_a_id, b_abstract;  // b_abstract is new
  AttrId u_id, u_name, u_bday, u_addr;
  PhysicalSchema source;
  PhysicalSchema object;

  /// Paper-style schemas:
  ///   source: author(a_id,a_name,a_bio), book(b_id,b_title,b_cost,b_a_id),
  ///           user(u_id,u_name,u_bday,u_addr)
  ///   object: glossary = book x author (+ new b_abstract) anchored at book,
  ///           user_gen(u_id,u_name,u_bday), user_rest(u_id,u_addr)
  static std::unique_ptr<Bookstore> Make();

  /// Deterministic data: `authors` authors, `books_per_author` books each
  /// (covering: every author has books), `users` users.
  std::unique_ptr<LogicalDatabase> MakeData(int authors = 10, int books_per_author = 20,
                                            int users = 50) const;
};

// --- entity-level DML mirror (write-side differential oracles) ---
//
// Reference semantics of one LogicalDml applied directly to a
// LogicalDatabase, matching the DmlRouter's documented entity-level
// behavior: idempotent INSERT (existing parents win, bare parents created),
// no-op UPDATE/DELETE of absent rows, anchor assignments before parent
// assignments. A physical database driven through the router must equal a
// fresh materialization of the mirror after any statement sequence.

/// Full entity row for `e`: key at the key position, provided attributes at
/// theirs, typed NULL elsewhere. Attributes not belonging to `e` are
/// ignored, so a version table carrying parent attributes can share one
/// provided list.
Row FullEntityRow(const LogicalSchema& lg, EntityId e, int64_t key,
                  const std::vector<AttrId>& attrs, const std::vector<Value>& values);

/// Key of entity `to` reachable from (from, from_key) by the FK chain;
/// values come from `overrides` first (the statement's assignments), then
/// the mirror's stored rows. nullopt when any hop is NULL or dangling.
std::optional<int64_t> MirrorChainKey(const LogicalDatabase& mirror, EntityId from,
                                      int64_t from_key, EntityId to,
                                      const std::map<AttrId, Value>& overrides);

/// Applies `dml` to the mirror (reports gtest failures on mirror errors).
void MirrorApply(LogicalDatabase* mirror, const LogicalDml& dml);

/// Every table of `schema` in `db` must equal a fresh materialization of the
/// mirror, row for row; divergence dumps both sides as a gtest failure.
void ExpectStateMatchesMirror(Database* db, const LogicalDatabase& mirror,
                              const PhysicalSchema& schema, const std::string& where);

}  // namespace testutil
}  // namespace pse
