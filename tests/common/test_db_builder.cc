#include "tests/common/test_db_builder.h"

#include <gtest/gtest.h>

#include <algorithm>

namespace pse {
namespace testutil {

std::vector<Row> SortRows(std::vector<Row> rows) {
  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    for (size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
      int c = a[i].Compare(b[i]);
      if (c != 0) return c < 0;
    }
    return a.size() < b.size();
  });
  return rows;
}

std::vector<Row> HeapRows(Database* db, const std::string& name) {
  auto info = db->GetTable(name);
  EXPECT_TRUE(info.ok()) << info.status().ToString();
  std::vector<Row> out;
  if (!info.ok()) return out;
  auto it = (*info)->heap->Begin();
  EXPECT_TRUE(it.ok()) << name << ": " << it.status().ToString();
  while (it.ok() && !it->AtEnd()) {
    out.push_back(it->row());
    Status next = it->Next();
    EXPECT_TRUE(next.ok()) << name << ": " << next.ToString();
    if (!next.ok()) break;
  }
  return out;
}

std::vector<Row> TableRows(Database* db, const std::string& name) {
  return SortRows(HeapRows(db, name));
}

PhysicalSchema RandomCandidate(const PhysicalSchema& source, const OperatorSet& opset, Rng* rng,
                               std::vector<bool> chosen) {
  if (chosen.empty()) {
    chosen.assign(opset.size(), false);
    for (size_t i = 0; i < opset.size(); ++i) chosen[i] = rng->Bernoulli(0.5);
  }
  // Close under prerequisites.
  for (bool grew = true; grew;) {
    grew = false;
    for (size_t i = 0; i < opset.size(); ++i) {
      if (!chosen[i]) continue;
      for (int d : opset.deps[i]) {
        if (!chosen[static_cast<size_t>(d)]) chosen[static_cast<size_t>(d)] = grew = true;
      }
    }
  }
  PhysicalSchema schema = source;
  std::vector<bool> done(opset.size(), false);
  for (bool progress = true; progress;) {
    progress = false;
    std::vector<size_t> ready;
    for (size_t i = 0; i < opset.size(); ++i) {
      if (!chosen[i] || done[i]) continue;
      bool deps_done = std::all_of(opset.deps[i].begin(), opset.deps[i].end(),
                                   [&](int d) { return done[static_cast<size_t>(d)]; });
      if (deps_done) ready.push_back(i);
    }
    if (ready.empty()) break;
    const size_t pick = ready[rng->Index(ready.size())];
    EXPECT_TRUE(ApplyOperator(opset.ops[pick], &schema).ok());
    done[pick] = progress = true;
  }
  return schema;
}

bool SameRows(const std::vector<Row>& a, const std::vector<Row>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].size() != b[i].size()) return false;
    for (size_t c = 0; c < a[i].size(); ++c) {
      if (a[i][c].Compare(b[i][c]) != 0) return false;
    }
  }
  return true;
}

RandomInstance MakeInstance(Rng* rng, size_t num_rows) {
  RandomInstance inst;
  inst.db = std::make_unique<Database>(256);
  TableSchema schema("t",
                     {Column("id", TypeId::kInt64, 0, false), Column("a", TypeId::kInt64),
                      Column("b", TypeId::kInt64), Column("s", TypeId::kVarchar, 8)},
                     {"id"});
  EXPECT_TRUE(inst.db->CreateTable(schema).ok());
  for (size_t i = 0; i < num_rows; ++i) {
    Row row{Value::Int(static_cast<int64_t>(i)),
            rng->Bernoulli(0.1) ? Value::Null(TypeId::kInt64)
                                : Value::Int(rng->UniformInt(-20, 20)),
            rng->Bernoulli(0.1) ? Value::Null(TypeId::kInt64)
                                : Value::Int(rng->UniformInt(0, 5)),
            Value::Varchar(std::string(1, static_cast<char>('a' + rng->Index(4))))};
    EXPECT_TRUE(inst.db->Insert("t", row).ok());
    inst.rows.push_back(std::move(row));
  }
  EXPECT_TRUE(inst.db->AnalyzeAll().ok());
  return inst;
}

std::unique_ptr<Bookstore> Bookstore::Make() {
  auto out = std::make_unique<Bookstore>();
  Bookstore& s = *out;
  LogicalSchema& L = s.logical;
  s.author = L.AddEntity("author", "a_id");
  s.book = L.AddEntity("book", "b_id");
  s.user = L.AddEntity("user", "u_id");
  s.a_id = *L.AttrByName("a_id");
  s.b_id = *L.AttrByName("b_id");
  s.u_id = *L.AttrByName("u_id");
  s.a_name = *L.AddAttribute(s.author, "a_name", TypeId::kVarchar, 16);
  s.a_bio = *L.AddAttribute(s.author, "a_bio", TypeId::kVarchar, 40);
  s.b_title = *L.AddAttribute(s.book, "b_title", TypeId::kVarchar, 24);
  s.b_cost = *L.AddAttribute(s.book, "b_cost", TypeId::kDouble);
  s.b_a_id = *L.AddForeignKey(s.book, "b_a_id", s.author);
  s.b_abstract = *L.AddAttribute(s.book, "b_abstract", TypeId::kVarchar, 60, /*is_new=*/true);
  s.u_name = *L.AddAttribute(s.user, "u_name", TypeId::kVarchar, 16);
  s.u_bday = *L.AddAttribute(s.user, "u_bday", TypeId::kInt64);
  s.u_addr = *L.AddAttribute(s.user, "u_addr", TypeId::kVarchar, 32);

  s.source = PhysicalSchema(&L);
  (void)s.source.AddTable("author", s.author, {s.a_name, s.a_bio});
  (void)s.source.AddTable("book", s.book, {s.b_title, s.b_cost, s.b_a_id});
  (void)s.source.AddTable("user", s.user, {s.u_name, s.u_bday, s.u_addr});

  s.object = PhysicalSchema(&L);
  (void)s.object.AddTable("glossary", s.book,
                          {s.b_title, s.b_cost, s.b_a_id, s.a_name, s.a_bio, s.b_abstract});
  (void)s.object.AddTable("user_gen", s.user, {s.u_name, s.u_bday});
  (void)s.object.AddTable("user_rest", s.user, {s.u_addr});
  return out;
}

std::unique_ptr<LogicalDatabase> Bookstore::MakeData(int authors, int books_per_author,
                                                     int users) const {
  auto data = std::make_unique<LogicalDatabase>(&logical);
  for (int a = 0; a < authors; ++a) {
    // attribute order: a_id, a_name, a_bio
    (void)data->AddRow(author, {Value::Int(a), Value::Varchar("author-" + std::to_string(a)),
                                Value::Varchar("bio of author " + std::to_string(a))});
  }
  int b = 0;
  for (int a = 0; a < authors; ++a) {
    for (int k = 0; k < books_per_author; ++k, ++b) {
      // attribute order: b_id, b_title, b_cost, b_a_id, b_abstract
      (void)data->AddRow(book, {Value::Int(b), Value::Varchar("title-" + std::to_string(b)),
                                Value::Double(5.0 + b % 37), Value::Int(a),
                                Value::Varchar("abstract for book " + std::to_string(b))});
    }
  }
  for (int u = 0; u < users; ++u) {
    // attribute order: u_id, u_name, u_bday, u_addr
    (void)data->AddRow(user, {Value::Int(u), Value::Varchar("user-" + std::to_string(u)),
                              Value::Int(19600101 + u * 37),
                              Value::Varchar("street " + std::to_string(u * 7))});
  }
  return data;
}

Row FullEntityRow(const LogicalSchema& lg, EntityId e, int64_t key,
                  const std::vector<AttrId>& attrs, const std::vector<Value>& values) {
  const LogicalEntity& ent = lg.entity(e);
  Row row;
  for (AttrId a : ent.attributes) {
    if (a == ent.key) {
      row.push_back(Value::Int(key));
      continue;
    }
    Value v = Value::Null(lg.attr(a).type);
    for (size_t i = 0; i < attrs.size(); ++i) {
      if (attrs[i] == a) v = values[i];
    }
    row.push_back(std::move(v));
  }
  return row;
}

std::optional<int64_t> MirrorChainKey(const LogicalDatabase& mirror, EntityId from,
                                      int64_t from_key, EntityId to,
                                      const std::map<AttrId, Value>& overrides) {
  const LogicalSchema& lg = mirror.logical();
  if (from == to) return from_key;
  auto path = lg.FkPath(from, to);
  if (!path.ok()) return std::nullopt;
  EntityId cur = from;
  int64_t cur_key = from_key;
  for (AttrId fk : *path) {
    Value v;
    auto ov = overrides.find(fk);
    if (ov != overrides.end()) {
      v = ov->second;
    } else {
      const Row* r = mirror.FindByKey(cur, cur_key);
      if (r == nullptr) return std::nullopt;
      auto got = mirror.AttrOfRow(cur, *r, fk);
      if (!got.ok()) return std::nullopt;
      v = *got;
    }
    if (v.is_null() || v.type() != TypeId::kInt64) return std::nullopt;
    cur = *lg.attr(fk).references;
    cur_key = v.AsInt();
  }
  return cur_key;
}

void MirrorApply(LogicalDatabase* mirror, const LogicalDml& dml) {
  const LogicalSchema& lg = mirror->logical();
  EntityId anchor = dml.table.anchor;
  bool exists = mirror->FindByKey(anchor, dml.key) != nullptr;
  std::map<AttrId, Value> provided;
  for (size_t i = 0; i < dml.set_attrs.size(); ++i) provided[dml.set_attrs[i]] = dml.set_values[i];

  switch (dml.kind) {
    case DmlKind::kInsert: {
      if (exists) return;
      std::vector<EntityId> parents;
      for (AttrId a : dml.set_attrs) {
        EntityId e = lg.attr(a).entity;
        if (e == anchor) continue;
        if (std::find(parents.begin(), parents.end(), e) == parents.end()) parents.push_back(e);
      }
      for (EntityId e : parents) {
        auto pk = MirrorChainKey(*mirror, anchor, dml.key, e, provided);
        if (!pk.has_value() || mirror->FindByKey(e, *pk) != nullptr) continue;
        ASSERT_TRUE(
            mirror->AddRow(e, FullEntityRow(lg, e, *pk, dml.set_attrs, dml.set_values)).ok());
      }
      ASSERT_TRUE(
          mirror->AddRow(anchor, FullEntityRow(lg, anchor, dml.key, dml.set_attrs, dml.set_values))
              .ok());
      return;
    }
    case DmlKind::kUpdate: {
      if (!exists) return;
      std::vector<AttrId> own_attrs;
      std::vector<Value> own_values;
      std::vector<EntityId> parents;
      for (size_t i = 0; i < dml.set_attrs.size(); ++i) {
        EntityId e = lg.attr(dml.set_attrs[i]).entity;
        if (e == anchor) {
          own_attrs.push_back(dml.set_attrs[i]);
          own_values.push_back(dml.set_values[i]);
        } else if (std::find(parents.begin(), parents.end(), e) == parents.end()) {
          parents.push_back(e);
        }
      }
      // Anchor first: parent rows are located through the updated FKs.
      ASSERT_TRUE(mirror->UpdateRow(anchor, dml.key, own_attrs, own_values).ok());
      for (EntityId e : parents) {
        auto pk = MirrorChainKey(*mirror, anchor, dml.key, e, provided);
        if (!pk.has_value() || mirror->FindByKey(e, *pk) == nullptr) continue;
        std::vector<AttrId> attrs;
        std::vector<Value> values;
        for (size_t i = 0; i < dml.set_attrs.size(); ++i) {
          if (lg.attr(dml.set_attrs[i]).entity != e) continue;
          attrs.push_back(dml.set_attrs[i]);
          values.push_back(dml.set_values[i]);
        }
        ASSERT_TRUE(mirror->UpdateRow(e, *pk, attrs, values).ok());
      }
      return;
    }
    case DmlKind::kDelete: {
      if (!exists) return;
      ASSERT_TRUE(mirror->DeleteRow(anchor, dml.key).ok());
      return;
    }
    case DmlKind::kSelect:
      FAIL() << "SELECT is not DML";
  }
}

void ExpectStateMatchesMirror(Database* db, const LogicalDatabase& mirror,
                              const PhysicalSchema& schema, const std::string& where) {
  Database scratch(1024);
  ASSERT_TRUE(mirror.Materialize(&scratch, schema).ok()) << where;
  for (const PhysicalTable& t : schema.tables()) {
    std::vector<Row> got = SortRows(TableRows(db, t.name));
    std::vector<Row> want = SortRows(TableRows(&scratch, t.name));
    if (SameRows(got, want)) continue;
    auto dump = [](const std::vector<Row>& rows) {
      std::string out;
      for (const Row& r : rows) {
        out += "  [";
        for (size_t i = 0; i < r.size(); ++i) out += (i ? ", " : "") + r[i].ToString();
        out += "]\n";
      }
      return out;
    };
    ADD_FAILURE() << where << ": table '" << t.name
                  << "' diverges from the entity-level mirror\nrouter (" << got.size()
                  << " rows):\n"
                  << dump(got) << "mirror (" << want.size() << " rows):\n"
                  << dump(want);
  }
}

}  // namespace testutil
}  // namespace pse
