// End-to-end SQL tests: parse -> bind -> plan -> execute.
#include "sql/session.h"

#include <gtest/gtest.h>

namespace pse {
namespace {

class SessionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = std::make_unique<Database>(256);
    session_ = std::make_unique<Session>(db_.get());
    Must(
        "CREATE TABLE author (author_id BIGINT NOT NULL, name VARCHAR(24), country VARCHAR(16),"
        " PRIMARY KEY (author_id))");
    Must(
        "CREATE TABLE book (book_id BIGINT NOT NULL, title VARCHAR(40), author_id BIGINT,"
        " price DOUBLE, PRIMARY KEY (book_id))");
    for (int a = 0; a < 5; ++a) {
      Must("INSERT INTO author VALUES (" + std::to_string(a) + ", 'author-" + std::to_string(a) +
           "', 'country-" + std::to_string(a % 2) + "')");
    }
    for (int b = 0; b < 40; ++b) {
      Must("INSERT INTO book VALUES (" + std::to_string(b) + ", 'title-" + std::to_string(b) +
           "', " + std::to_string(b % 5) + ", " + std::to_string(1.5 * (b % 8)) + ")");
    }
    Must("ANALYZE");
  }

  ExecResult Must(const std::string& sql) {
    auto r = session_->Execute(sql);
    EXPECT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
    return r.ok() ? std::move(*r) : ExecResult{};
  }

  std::unique_ptr<Database> db_;
  std::unique_ptr<Session> session_;
};

TEST_F(SessionTest, SelectAll) {
  ExecResult r = Must("SELECT * FROM author");
  EXPECT_EQ(r.rows.size(), 5u);
  ASSERT_EQ(r.columns.size(), 3u);
  EXPECT_EQ(r.columns[0], "author_id");
}

TEST_F(SessionTest, WhereFilter) {
  ExecResult r = Must("SELECT book_id FROM book WHERE price > 9.0");
  EXPECT_EQ(r.rows.size(), 5u);  // price=10.5 when b%8==7: books 7,15,23,31,39
}

TEST_F(SessionTest, PointLookupViaIndex) {
  ExecResult r = Must("SELECT title FROM book WHERE book_id = 17");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsString(), "title-17");
  // EXPLAIN confirms the index is used.
  auto plan = session_->Explain("SELECT title FROM book WHERE book_id = 17");
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan->find("IndexScan"), std::string::npos);
}

TEST_F(SessionTest, JoinQuery) {
  ExecResult r = Must(
      "SELECT b.title, a.name FROM book b JOIN author a ON b.author_id = a.author_id "
      "WHERE a.name = 'author-2'");
  EXPECT_EQ(r.rows.size(), 8u);  // books 2,7,12,...,37
  for (const auto& row : r.rows) EXPECT_EQ(row[1].AsString(), "author-2");
}

TEST_F(SessionTest, CommaJoinSameResult) {
  ExecResult r = Must(
      "SELECT b.title FROM book b, author a WHERE b.author_id = a.author_id AND "
      "a.name = 'author-2'");
  EXPECT_EQ(r.rows.size(), 8u);
}

TEST_F(SessionTest, GroupByHaving) {
  ExecResult r = Must(
      "SELECT a.country, COUNT(*) AS n, AVG(b.price) AS avg_price FROM book b "
      "JOIN author a ON b.author_id = a.author_id GROUP BY a.country ORDER BY 1");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0][0].AsString(), "country-0");
  // country-0 has authors 0,2,4 -> 24 books; country-1 has 1,3 -> 16.
  EXPECT_EQ(r.rows[0][1].AsInt(), 24);
  EXPECT_EQ(r.rows[1][1].AsInt(), 16);
}

TEST_F(SessionTest, OrderByAliasAndLimit) {
  ExecResult r = Must("SELECT book_id, price FROM book ORDER BY price DESC, book_id LIMIT 3");
  ASSERT_EQ(r.rows.size(), 3u);
  EXPECT_DOUBLE_EQ(r.rows[0][1].AsDouble(), 10.5);
  EXPECT_EQ(r.rows[0][0].AsInt(), 7);
}

TEST_F(SessionTest, SelectDistinct) {
  ExecResult r = Must("SELECT DISTINCT author_id FROM book");
  EXPECT_EQ(r.rows.size(), 5u);
}

TEST_F(SessionTest, BetweenAndIn) {
  ExecResult r1 = Must("SELECT book_id FROM book WHERE book_id BETWEEN 10 AND 14");
  EXPECT_EQ(r1.rows.size(), 5u);
  ExecResult r2 = Must("SELECT book_id FROM book WHERE author_id IN (0, 1)");
  EXPECT_EQ(r2.rows.size(), 16u);
}

TEST_F(SessionTest, LikePatterns) {
  ExecResult r = Must("SELECT name FROM author WHERE name LIKE 'author-%'");
  EXPECT_EQ(r.rows.size(), 5u);
  ExecResult r2 = Must("SELECT name FROM author WHERE name LIKE '%-3'");
  EXPECT_EQ(r2.rows.size(), 1u);
}

TEST_F(SessionTest, InsertThenQuery) {
  Must("INSERT INTO book (book_id, title, author_id, price) VALUES (100, 'new book', 0, 9.99)");
  ExecResult r = Must("SELECT title FROM book WHERE book_id = 100");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsString(), "new book");
}

TEST_F(SessionTest, InsertNotNullViolation) {
  auto r = session_->Execute("INSERT INTO book (title) VALUES ('orphan')");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kConstraintViolation);
}

TEST_F(SessionTest, UpdateRows) {
  ExecResult r = Must("UPDATE book SET price = price * 2 WHERE author_id = 1");
  EXPECT_EQ(r.affected, 8u);
  ExecResult check = Must("SELECT MAX(price) AS m FROM book WHERE author_id = 1");
  EXPECT_DOUBLE_EQ(check.rows[0][0].AsDouble(), 21.0);
}

TEST_F(SessionTest, UpdateKeyMaintainsIndex) {
  Must("UPDATE book SET book_id = 999 WHERE book_id = 5");
  ExecResult gone = Must("SELECT * FROM book WHERE book_id = 5");
  EXPECT_TRUE(gone.rows.empty());
  ExecResult found = Must("SELECT title FROM book WHERE book_id = 999");
  ASSERT_EQ(found.rows.size(), 1u);
  EXPECT_EQ(found.rows[0][0].AsString(), "title-5");
}

// A row that grows past a page cannot move; the UPDATE fails and leaves
// the row, its index entry and the row count as they were.
TEST_F(SessionTest, OversizedUpdateKeepsTheRow) {
  Must("CREATE TABLE t (id BIGINT NOT NULL, v VARCHAR(16), PRIMARY KEY (id))");
  Must("INSERT INTO t VALUES (1, 'one')");
  Must("INSERT INTO t VALUES (2, 'two')");
  auto r = session_->Execute("UPDATE t SET v = '" + std::string(9000, 'x') + "' WHERE id = 2");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("exceeds page capacity"), std::string::npos)
      << r.status().ToString();

  ExecResult all = Must("SELECT id FROM t");
  EXPECT_EQ(all.rows.size(), 2u);
  ExecResult two = Must("SELECT v FROM t WHERE id = 2");
  ASSERT_EQ(two.rows.size(), 1u);
  EXPECT_EQ(two.rows[0][0].AsString(), "two");
  auto t = db_->GetTable("t");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ((*t)->row_count, 2u);
  std::vector<Rid> rids;
  ASSERT_TRUE((*t)->FindIndex("id")->tree->ScanEqual(2, &rids).ok());
  ASSERT_EQ(rids.size(), 1u);
  Row row;
  ASSERT_TRUE((*t)->heap->Get(rids[0], &row).ok());
  EXPECT_EQ(row[1].AsString(), "two");
}

TEST_F(SessionTest, DeleteRows) {
  ExecResult r = Must("DELETE FROM book WHERE price = 0.0");
  EXPECT_EQ(r.affected, 5u);  // b%8==0: books 0,8,16,24,32
  ExecResult left = Must("SELECT COUNT(*) AS n FROM book");
  EXPECT_EQ(left.rows[0][0].AsInt(), 35);
}

TEST_F(SessionTest, DeleteAll) {
  Must("DELETE FROM author");
  ExecResult r = Must("SELECT COUNT(*) AS n FROM author");
  EXPECT_EQ(r.rows[0][0].AsInt(), 0);
}

TEST_F(SessionTest, CreateIndexAndUseIt) {
  Must("CREATE INDEX ON book (author_id)");
  auto plan = session_->Explain("SELECT title FROM book WHERE author_id = 3");
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan->find("IndexScan"), std::string::npos);
  ExecResult r = Must("SELECT title FROM book WHERE author_id = 3");
  EXPECT_EQ(r.rows.size(), 8u);
}

TEST_F(SessionTest, BindErrors) {
  EXPECT_FALSE(session_->Execute("SELECT nope FROM book").ok());
  EXPECT_FALSE(session_->Execute("SELECT title FROM missing_table").ok());
  EXPECT_FALSE(session_->Execute("SELECT b.title FROM book b, book b").ok());
  // Ambiguous unqualified column across two tables.
  EXPECT_FALSE(
      session_->Execute("SELECT author_id FROM book b, author a WHERE b.author_id = a.author_id")
          .ok());
}

TEST_F(SessionTest, AggregatesWithNulls) {
  Must("INSERT INTO book (book_id, title, author_id) VALUES (200, 'no price', 0)");
  ExecResult r = Must("SELECT COUNT(*) AS all_rows, COUNT(price) AS priced FROM book");
  EXPECT_EQ(r.rows[0][0].AsInt(), 41);
  EXPECT_EQ(r.rows[0][1].AsInt(), 40);
}

TEST_F(SessionTest, HavingFiltersGroups) {
  ExecResult r = Must(
      "SELECT author_id, COUNT(*) AS n FROM book GROUP BY author_id "
      "HAVING n > 0 ORDER BY 1");
  EXPECT_EQ(r.rows.size(), 5u);
  ExecResult none = Must(
      "SELECT author_id, COUNT(*) AS n FROM book GROUP BY author_id "
      "HAVING n > 100");
  EXPECT_TRUE(none.rows.empty());
  // Group columns are addressable too.
  ExecResult some = Must(
      "SELECT author_id, SUM(price) AS total FROM book GROUP BY author_id "
      "HAVING author_id < 2 ORDER BY 1");
  ASSERT_EQ(some.rows.size(), 2u);
  EXPECT_EQ(some.rows[0][0].AsInt(), 0);
}

TEST_F(SessionTest, CountDistinct) {
  ExecResult r = Must("SELECT COUNT(DISTINCT author_id) AS a, COUNT(*) AS n FROM book");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsInt(), 5);
  EXPECT_EQ(r.rows[0][1].AsInt(), 40);
  // Grouped, and NULLs are ignored.
  Must("INSERT INTO book (book_id, title) VALUES (900, 'no author')");
  ExecResult g = Must(
      "SELECT author_id, COUNT(DISTINCT price) AS p FROM book GROUP BY author_id ORDER BY 1");
  ASSERT_EQ(g.rows.size(), 6u);  // 5 authors + the NULL group
  // Each author has books with 8 distinct prices? b%5 fixes author; prices
  // cycle b%8 -> per author 8 distinct.
  EXPECT_EQ(g.rows[1][1].AsInt(), 8);
}

TEST_F(SessionTest, HavingWithoutAggregationRejected) {
  auto r = session_->Execute("SELECT book_id FROM book HAVING book_id > 3");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsBindError());
}

TEST_F(SessionTest, DropTable) {
  Must("DROP TABLE author");
  EXPECT_FALSE(db_->HasTable("author"));
  EXPECT_FALSE(session_->Execute("SELECT * FROM author").ok());
  EXPECT_FALSE(session_->Execute("DROP TABLE author").ok());  // already gone
  // Re-creation under the same name works.
  Must("CREATE TABLE author (author_id BIGINT NOT NULL, PRIMARY KEY (author_id))");
  EXPECT_TRUE(db_->HasTable("author"));
}

TEST_F(SessionTest, ScalarExpressionProjection) {
  ExecResult r = Must("SELECT book_id * 10 + 1 AS x FROM book WHERE book_id = 3");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsInt(), 31);
}

// A sequential scan whose first page cannot be read fails the query with
// the read's error instead of returning no rows.
TEST(SessionFaultTest, UnreadableFirstPageFailsTheScan) {
  auto disk = std::make_unique<FaultInjectionDiskManager>(std::make_unique<InMemoryDiskManager>());
  FaultInjectionDiskManager* fault = disk.get();
  Database db(8, std::move(disk));
  Session session(&db);
  ASSERT_TRUE(
      session.Execute("CREATE TABLE t (id BIGINT NOT NULL, pad VARCHAR(64), PRIMARY KEY (id))")
          .ok());
  for (int64_t i = 0; i < 400; ++i) {
    ASSERT_TRUE(db.Insert("t", {Value::Int(i), Value::Varchar(std::string(60, 'p'))}).ok());
  }
  ASSERT_TRUE(db.pool()->EvictAll().ok());

  fault->set_read_budget(fault->reads_done());
  auto failed = session.Execute("SELECT id FROM t");
  fault->set_read_budget(FaultInjectionDiskManager::kNoLimit);
  EXPECT_EQ(failed.status().code(), StatusCode::kIOError)
      << (failed.ok() ? std::to_string(failed->rows.size()) + " rows" : failed.status().ToString());

  auto rows = session.Execute("SELECT id FROM t");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(rows->rows.size(), 400u);
}

}  // namespace
}  // namespace pse
