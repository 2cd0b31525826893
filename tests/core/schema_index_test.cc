// The LogicalSchema's name and FK-chain indexes, and PhysicalSchema::Validate
// over flat arrays, against the searches they replaced (schema_oracle.h).
//
// FkPath and Reaches must return the breadth-first search's chain for every
// entity pair — on TPC-W, the bookstore and seeded random logical schemas
// with FK cycles, self references and equally short chains — and AttrByName
// the scan's attribute for every name in any case. Validate must return the
// oracle's status code and message on every schema the TPC-W and bookstore
// operator sets reach, and on seeded schemas that break one or several
// invariants at a time.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/mapping.h"
#include "tests/common/test_db_builder.h"
#include "tests/core/schema_oracle.h"
#include "tpcw/schema.h"

namespace pse {
namespace {

using testutil::Bookstore;
using testutil::OracleAttrByName;
using testutil::OracleFkPath;
using testutil::OracleReaches;
using testutil::OracleValidate;
using testutil::RandomCandidate;

void ExpectChainsMatchOracle(const LogicalSchema& L, const std::string& where) {
  for (EntityId from = 0; from < L.num_entities(); ++from) {
    for (EntityId to = 0; to < L.num_entities(); ++to) {
      SCOPED_TRACE(where + ": " + L.entity(from).name + " -> " + L.entity(to).name);
      auto want = OracleFkPath(L, from, to);
      auto got = L.FkPath(from, to);
      ASSERT_EQ(got.ok(), want.ok());
      if (want.ok()) {
        EXPECT_EQ(std::vector<AttrId>(got->begin(), got->end()), *want);
      } else {
        EXPECT_EQ(got.status().code(), want.status().code());
        EXPECT_EQ(got.status().message(), want.status().message());
      }
      EXPECT_EQ(L.Reaches(from, to), OracleReaches(L, from, to));
    }
  }
}

std::string MixedCase(const std::string& s) {
  std::string out = s;
  for (size_t i = 0; i < out.size(); i += 2) {
    out[i] = static_cast<char>(std::toupper(static_cast<unsigned char>(out[i])));
  }
  return out;
}

std::string Upper(const std::string& s) {
  std::string out = s;
  for (char& c : out) c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  return out;
}

std::string Lower(const std::string& s) {
  std::string out = s;
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

void ExpectNamesMatchOracle(const LogicalSchema& L, const std::string& where) {
  std::vector<std::string> names;
  for (AttrId a = 0; a < L.num_attributes(); ++a) {
    const std::string& n = L.attr(a).name;
    for (const std::string& v : {n, Lower(n), Upper(n), MixedCase(Lower(n))}) {
      names.push_back(v);
    }
    names.push_back(n + "x");
    names.push_back(n.substr(0, n.size() / 2));
  }
  names.insert(names.end(), {"", "nope", "NOPE_ID", "_"});
  for (const std::string& name : names) {
    SCOPED_TRACE(where + ": '" + name + "'");
    auto want = OracleAttrByName(L, name);
    auto got = L.AttrByName(name);
    ASSERT_EQ(got.ok(), want.ok());
    if (want.ok()) {
      EXPECT_EQ(*got, *want);
    } else {
      EXPECT_EQ(got.status().code(), want.status().code());
      EXPECT_EQ(got.status().message(), want.status().message());
    }
  }
}

void ExpectValidateMatchesOracle(const PhysicalSchema& schema, const std::string& where) {
  const Status want = OracleValidate(schema);
  const Status got = schema.Validate();
  EXPECT_EQ(got.code(), want.code()) << where << "\n" << schema.ToString();
  EXPECT_EQ(got.message(), want.message()) << where << "\n" << schema.ToString();
}

/// A random logical schema: 2–9 entities whose keys, plain attributes and
/// foreign keys are added in shuffled order, so attribute ids interleave
/// across entities. FKs may form cycles, point at their own entity, or run
/// in parallel (two FKs between one pair), which yields equally short
/// chains. Names mix case, and now and then an entity's key repeats an
/// earlier attribute's name in another case, which AddEntity allows.
LogicalSchema RandomLogical(Rng* rng) {
  LogicalSchema L;
  const int entities = static_cast<int>(rng->UniformInt(2, 9));
  // Steps: 0 = add the next entity, 1 = a plain attribute, 2 = an FK.
  std::vector<int> steps(static_cast<size_t>(entities), 0);
  const int extras = static_cast<int>(rng->UniformInt(entities, 4 * entities));
  for (int i = 0; i < extras; ++i) steps.push_back(rng->Bernoulli(0.5) ? 1 : 2);
  rng->Shuffle(&steps);
  // An entity comes first, so every attribute has an owner.
  std::iter_swap(steps.begin(), std::find(steps.begin(), steps.end(), 0));
  int attrs = 0;
  for (int step : steps) {
    const size_t n = L.num_entities();
    if (step == 0) {
      const std::string name = "E" + std::to_string(n);
      std::string key = MixedCase("e" + std::to_string(n) + "_id");
      if (L.num_attributes() > 0 && rng->Bernoulli(0.15)) {
        key = Upper(L.attr(rng->Index(L.num_attributes())).name);
      }
      L.AddEntity(name, key);
      continue;
    }
    const EntityId owner = rng->Index(n);
    const std::string attr = (rng->Bernoulli(0.5) ? "A" : "a") + std::to_string(attrs++) +
                             "_" + L.entity(owner).name;
    if (step == 1) {
      EXPECT_TRUE(L.AddAttribute(owner, attr, TypeId::kInt64).ok());
    } else {
      EXPECT_TRUE(L.AddForeignKey(owner, "fk_" + attr, rng->Index(n)).ok());
    }
  }
  return L;
}

TEST(SchemaIndexTest, FkPathAndReachesMatchTheSearchOnTheFixtures) {
  auto tpcw = BuildTpcwSchema();
  ExpectChainsMatchOracle(tpcw->logical, "tpcw");
  auto bs = Bookstore::Make();
  ExpectChainsMatchOracle(bs->logical, "bookstore");
}

TEST(SchemaIndexTest, AttrByNameMatchesTheScanOnTheFixtures) {
  auto tpcw = BuildTpcwSchema();
  ExpectNamesMatchOracle(tpcw->logical, "tpcw");
  auto bs = Bookstore::Make();
  ExpectNamesMatchOracle(bs->logical, "bookstore");
}

TEST(SchemaIndexTest, EquallyShortChainsResolveInAttributeIdOrder) {
  // a -> b -> d and a -> c -> d are both two hops; a's FK to c comes first
  // in attribute-id order, so the search meets d through c.
  LogicalSchema L;
  EntityId a = L.AddEntity("a", "a_id");
  EntityId b = L.AddEntity("b", "b_id");
  EntityId c = L.AddEntity("c", "c_id");
  EntityId d = L.AddEntity("d", "d_id");
  AttrId a_c = *L.AddForeignKey(a, "a_c", c);
  AttrId a_b = *L.AddForeignKey(a, "a_b", b);
  ASSERT_TRUE(L.AddForeignKey(b, "b_d", d).ok());
  AttrId c_d = *L.AddForeignKey(c, "c_d", d);
  auto path = L.FkPath(a, d);
  ASSERT_TRUE(path.ok());
  EXPECT_EQ(std::vector<AttrId>(path->begin(), path->end()), (std::vector<AttrId>{a_c, c_d}));
  auto direct = L.FkPath(a, b);
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(std::vector<AttrId>(direct->begin(), direct->end()), std::vector<AttrId>{a_b});
  ExpectChainsMatchOracle(L, "diamond");
}

TEST(SchemaIndexTest, ChainsFollowForeignKeysAddedAfterTheirEntities) {
  // The table is rebuilt by AddForeignKey: a chain through an FK added
  // after every entity, and through a cycle, is visible at once.
  LogicalSchema L;
  EntityId x = L.AddEntity("x", "x_id");
  EntityId y = L.AddEntity("y", "y_id");
  EntityId z = L.AddEntity("z", "z_id");
  EXPECT_FALSE(L.Reaches(x, z));
  AttrId x_y = *L.AddForeignKey(x, "x_y", y);
  AttrId y_z = *L.AddForeignKey(y, "y_z", z);
  ASSERT_TRUE(L.AddForeignKey(z, "z_x", x).ok());
  ASSERT_TRUE(L.AddAttribute(z, "z_note", TypeId::kVarchar, 8).ok());
  auto path = L.FkPath(x, z);
  ASSERT_TRUE(path.ok());
  EXPECT_EQ(std::vector<AttrId>(path->begin(), path->end()), (std::vector<AttrId>{x_y, y_z}));
  EXPECT_TRUE(L.Reaches(z, y));
  ExpectChainsMatchOracle(L, "cycle");
}

TEST(SchemaIndexTest, TheFirstAttributeOfANameWins) {
  LogicalSchema L;
  EntityId a = L.AddEntity("a", "a_id");
  AttrId shared = *L.AddAttribute(a, "Shared", TypeId::kInt64);
  // AddEntity does not check its key's name, so a key may repeat one.
  EntityId b = L.AddEntity("b", "SHARED");
  EXPECT_NE(L.entity(b).key, shared);
  auto found = L.AttrByName("shared");
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(*found, shared);
  auto dup = L.AddAttribute(b, "sHaReD", TypeId::kInt64);
  EXPECT_TRUE(dup.status().IsAlreadyExists());
  EXPECT_EQ(dup.status().message(), "attribute 'sHaReD' already exists");
  ExpectNamesMatchOracle(L, "shared");
}

TEST(SchemaIndexTest, AddAttributeRejectsANameInAnyCase) {
  auto tpcw = BuildTpcwSchema();
  LogicalSchema L = tpcw->logical;
  for (AttrId a = 0; a < tpcw->logical.num_attributes(); ++a) {
    const std::string& name = tpcw->logical.attr(a).name;
    for (const std::string& v : {name, Upper(name), MixedCase(name)}) {
      auto r = L.AddAttribute(0, v, TypeId::kInt64);
      EXPECT_TRUE(r.status().IsAlreadyExists()) << v;
      EXPECT_EQ(r.status().message(), "attribute '" + v + "' already exists");
    }
  }
  EXPECT_EQ(L.num_attributes(), tpcw->logical.num_attributes());
  EXPECT_TRUE(L.AddAttribute(0, "co_flag", TypeId::kInt64).ok());
  EXPECT_TRUE(L.AttrByName("CO_FLAG").ok());
}

TEST(SchemaIndexTest, ValidateNamesTheFirstFailedCheckInItsOrder) {
  auto tpcw = BuildTpcwSchema();
  const LogicalSchema& L = tpcw->logical;
  auto id = [&](const char* name) { return *L.AttrByName(name); };
  auto first_error = [&](PhysicalTable t) {
    PhysicalSchema schema(&L);
    schema.AddRawTable(std::move(t));
    const Status got = schema.Validate();
    EXPECT_EQ(got.message(), OracleValidate(schema).message());
    return got.message();
  };
  // An unjustified key (c_id: customer is reached through the stored
  // cx_o_id and o_c_id, but none of its attributes is stored) comes before
  // a missing key of an embedded entity (o_id, with o_date stored).
  PhysicalTable payment{"order_payment", tpcw->cc_xacts,
                        {id("cx_id"), id("cx_o_id"), id("o_c_id"), id("o_date"), id("c_id")}};
  EXPECT_EQ(first_error(payment), "table 'order_payment': unjustified key attr 'c_id'");
  // Two embedded entities without their keys: the lower entity id first.
  ASSERT_LT(tpcw->item, tpcw->orders);
  PhysicalTable line{"order_line", tpcw->order_line,
                     {id("ol_id"), id("ol_o_id"), id("ol_i_id"), id("o_date"), id("i_title")}};
  EXPECT_EQ(first_error(line), "table 'order_line': missing key of embedded entity 'item'");
}

/// Every schema a dependency-closed subset of `opset` reaches from `source`,
/// one per subset, applied in topological order with each prefix checked.
void ExpectEveryReachableSchemaMatchesOracle(const PhysicalSchema& source,
                                             const OperatorSet& opset,
                                             const std::string& where) {
  auto topo = opset.TopologicalOrder();
  ASSERT_TRUE(topo.ok());
  const std::vector<bool> none(opset.size(), false);
  size_t closed = 0;
  for (uint64_t mask = 0; mask < (1ull << opset.size()); ++mask) {
    std::vector<int> subset;
    for (size_t b = 0; b < opset.size(); ++b) {
      if (mask & (1ull << b)) subset.push_back(static_cast<int>(b));
    }
    if (!opset.IsClosed(subset, none)) continue;
    ++closed;
    PhysicalSchema schema = source;
    ExpectValidateMatchesOracle(schema, where);
    for (int i : *topo) {
      if (!(mask & (1ull << i))) continue;
      ASSERT_TRUE(ApplyOperator(opset.ops[static_cast<size_t>(i)], &schema).ok());
      ExpectValidateMatchesOracle(schema, where + " mask " + std::to_string(mask));
    }
    EXPECT_TRUE(schema.Validate().ok());
  }
  EXPECT_GT(closed, opset.size());
}

TEST(SchemaIndexTest, ValidateMatchesTheOracleOnEverySchemaTheOperatorSetsReach) {
  auto tpcw = BuildTpcwSchema();
  auto tpcw_ops = ComputeOperatorSet(tpcw->source, tpcw->object);
  ASSERT_TRUE(tpcw_ops.ok());
  ExpectEveryReachableSchemaMatchesOracle(tpcw->source, *tpcw_ops, "tpcw");
  auto bs = Bookstore::Make();
  auto bs_ops = ComputeOperatorSet(bs->source, bs->object);
  ASSERT_TRUE(bs_ops.ok());
  ExpectEveryReachableSchemaMatchesOracle(bs->source, *bs_ops, "bookstore");
}

/// The kinds of break `Break` makes, each aimed at one of Validate's checks.
enum class BreakKind {
  kNameInAnotherCase,
  kMissingAnchorKey,
  kUnreachableAttr,
  kMissingChainFk,
  kUnjustifiedKey,
  kMissingEmbeddedKey,
  kStoredTwice,
};
constexpr int kBreakKinds = 7;

/// A phrase of each of Validate's messages, in its check order.
constexpr const char* kValidateMessages[] = {
    "duplicate table name",   "is missing its anchor key", "of entity unreachable from anchor",
    "missing chain FK",       "unjustified key attr",      "missing key of embedded entity",
    "stored in"};

/// Which of Validate's messages `s` is, by its wording.
std::string ErrorKind(const Status& s) {
  for (const char* kind : kValidateMessages) {
    if (s.message().find(kind) != std::string::npos) return kind;
  }
  return s.ok() ? "ok" : "other: " + s.message();
}

PhysicalSchema FromTables(const LogicalSchema* L, const std::vector<PhysicalTable>& tables) {
  PhysicalSchema out(L);
  for (const PhysicalTable& t : tables) out.AddRawTable(t);
  return out;
}

void Erase(std::vector<AttrId>* attrs, AttrId a) {
  attrs->erase(std::remove(attrs->begin(), attrs->end(), a), attrs->end());
}

/// Breaks one invariant of table `ti` of `tables` in place, when the table
/// allows that kind of break; returns whether it did.
bool Break(const LogicalSchema& L, BreakKind kind, size_t ti, std::vector<PhysicalTable>* tables,
           Rng* rng) {
  PhysicalTable& t = (*tables)[ti];
  auto entity_key = [&](EntityId e) { return L.entity(e).key; };
  switch (kind) {
    case BreakKind::kNameInAnotherCase: {
      PhysicalTable copy = t;
      copy.name = Upper(t.name);
      if (copy.name == t.name) copy.name = Lower(t.name);
      tables->insert(tables->begin() + static_cast<long>(rng->Index(tables->size() + 1)),
                     std::move(copy));
      return true;
    }
    case BreakKind::kMissingAnchorKey:
      Erase(&t.attrs, entity_key(t.anchor));
      return true;
    case BreakKind::kUnreachableAttr: {
      std::vector<AttrId> candidates;
      for (AttrId a = 0; a < L.num_attributes(); ++a) {
        if (!L.Reaches(t.anchor, L.attr(a).entity)) candidates.push_back(a);
      }
      if (candidates.empty()) return false;
      t.attrs.push_back(candidates[rng->Index(candidates.size())]);
      return true;
    }
    case BreakKind::kMissingChainFk: {
      std::vector<AttrId> fks;
      for (AttrId a : t.attrs) {
        const EntityId e = L.attr(a).entity;
        if (e == t.anchor) continue;
        auto path = L.FkPath(t.anchor, e);
        if (path.ok()) fks.insert(fks.end(), path->begin(), path->end());
      }
      if (fks.empty()) return false;
      Erase(&t.attrs, fks[rng->Index(fks.size())]);
      return true;
    }
    case BreakKind::kUnjustifiedKey: {
      // Keys of entities the table reaches through FKs it stores but embeds
      // no attribute of, so no chain check fires first.
      std::vector<AttrId> keys;
      for (EntityId e = 0; e < L.num_entities(); ++e) {
        if (e == t.anchor || !L.Reaches(t.anchor, e)) continue;
        bool embedded = false;
        for (AttrId a : t.attrs) embedded = embedded || (L.attr(a).entity == e);
        auto path = L.FkPath(t.anchor, e);
        const bool chain_stored = std::all_of(path->begin(), path->end(), [&](AttrId fk) {
          return std::find(t.attrs.begin(), t.attrs.end(), fk) != t.attrs.end();
        });
        if (!embedded && chain_stored) keys.push_back(entity_key(e));
      }
      if (keys.empty()) return false;
      t.attrs.push_back(keys[rng->Index(keys.size())]);
      return true;
    }
    case BreakKind::kMissingEmbeddedKey: {
      std::vector<AttrId> keys;
      for (AttrId a : t.attrs) {
        const LogicalAttribute& attr = L.attr(a);
        if (attr.is_key && attr.entity != t.anchor) keys.push_back(a);
      }
      if (keys.empty()) return false;
      // One embedded key, or all of them.
      if (rng->Bernoulli(0.5)) keys = {keys[rng->Index(keys.size())]};
      for (AttrId key : keys) Erase(&t.attrs, key);
      return true;
    }
    case BreakKind::kStoredTwice: {
      // One or two copies of a table under fresh names store each of its
      // non-key attributes in two or three tables.
      const int copies = static_cast<int>(rng->UniformInt(1, 2));
      for (int c = 0; c < copies; ++c) {
        PhysicalTable copy = (*tables)[ti];
        copy.name = "copy" + std::to_string(c) + "_" + copy.name;
        tables->insert(tables->begin() + static_cast<long>(rng->Index(tables->size() + 1)),
                       std::move(copy));
      }
      return true;
    }
  }
  return false;
}

class SchemaIndexProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SchemaIndexProperty, FkPathAndReachesMatchTheSearchOnRandomSchemas) {
  Rng rng(GetParam());
  for (int round = 0; round < 60; ++round) {
    LogicalSchema L = RandomLogical(&rng);
    ExpectChainsMatchOracle(L, "round " + std::to_string(round));
    ExpectNamesMatchOracle(L, "round " + std::to_string(round));
    // A copy keeps its own, equal, indexes.
    LogicalSchema copy = L;
    ExpectChainsMatchOracle(copy, "copy of round " + std::to_string(round));
  }
}

TEST_P(SchemaIndexProperty, ValidateMatchesTheOracleOnBrokenSchemas) {
  Rng rng(GetParam());
  auto tpcw = BuildTpcwSchema();
  auto tpcw_ops = ComputeOperatorSet(tpcw->source, tpcw->object);
  ASSERT_TRUE(tpcw_ops.ok());
  auto bs = Bookstore::Make();
  auto bs_ops = ComputeOperatorSet(bs->source, bs->object);
  ASSERT_TRUE(bs_ops.ok());
  std::map<std::string, int> seen;
  for (int round = 0; round < 400; ++round) {
    const bool use_tpcw = rng.Bernoulli(0.7);
    const PhysicalSchema valid = use_tpcw ? RandomCandidate(tpcw->source, *tpcw_ops, &rng)
                                          : RandomCandidate(bs->source, *bs_ops, &rng);
    const LogicalSchema& L = *valid.logical();
    std::vector<PhysicalTable> tables = valid.tables();
    // One break in most rounds, up to four in the rest, aimed at one table
    // or spread over several.
    const int breaks = rng.Bernoulli(0.6) ? 1 : static_cast<int>(rng.UniformInt(2, 4));
    const bool one_table = rng.Bernoulli(0.5);
    const size_t target = rng.Index(tables.size());
    int made = 0;
    for (int b = 0; b < breaks; ++b) {
      const auto kind = static_cast<BreakKind>(rng.Index(kBreakKinds));
      // Breaks only add tables, so `target` stays in range.
      const size_t ti = one_table ? target : rng.Index(tables.size());
      if (Break(L, kind, ti, &tables, &rng)) ++made;
    }
    const PhysicalSchema broken = FromTables(&L, tables);
    ExpectValidateMatchesOracle(broken, "round " + std::to_string(round));
    if (made > 0) ++seen[ErrorKind(broken.Validate())];
  }
  // Every check reports at least once across the seed, so each message and
  // its place in the order is compared.
  for (const char* kind : kValidateMessages) EXPECT_GT(seen[kind], 0) << kind;
}

TEST_P(SchemaIndexProperty, ValidateMatchesTheOracleOnRandomTables) {
  // Random tables over random logical schemas break the invariants in any
  // combination; only the first error in the oracle's order may be named.
  Rng rng(GetParam());
  for (int round = 0; round < 300; ++round) {
    LogicalSchema L = RandomLogical(&rng);
    std::vector<PhysicalTable> tables;
    const size_t count = rng.Index(5) + 1;
    for (size_t i = 0; i < count; ++i) {
      PhysicalTable t;
      t.anchor = rng.Index(L.num_entities());
      t.name = rng.Bernoulli(0.2) && !tables.empty() ? Upper(tables[rng.Index(tables.size())].name)
                                                     : "t" + std::to_string(i);
      std::vector<AttrId> nonkey;
      for (AttrId a = 0; a < L.num_attributes(); ++a) {
        const LogicalAttribute& attr = L.attr(a);
        if (!attr.is_key && L.Reaches(t.anchor, attr.entity) && rng.Bernoulli(0.3)) {
          nonkey.push_back(a);
        }
      }
      t.attrs = PhysicalSchema::CompleteAttrSet(L, t.anchor, nonkey);
      // Perturb: drop a few attributes, keys more often than their share,
      // and add a few, keys or not.
      const int edits = static_cast<int>(rng.UniformInt(0, 4));
      for (int e = 0; e < edits && !t.attrs.empty(); ++e) {
        switch (rng.Index(4)) {
          case 0:
            t.attrs.erase(t.attrs.begin() + static_cast<long>(rng.Index(t.attrs.size())));
            break;
          case 1: {
            std::vector<AttrId> keys;
            for (AttrId a : t.attrs) {
              if (L.attr(a).is_key) keys.push_back(a);
            }
            if (!keys.empty()) Erase(&t.attrs, keys[rng.Index(keys.size())]);
            break;
          }
          case 2:
            t.attrs.push_back(rng.Index(L.num_attributes()));
            break;
          default:
            t.attrs.push_back(L.entity(rng.Index(L.num_entities())).key);
            break;
        }
      }
      tables.push_back(std::move(t));
    }
    ExpectValidateMatchesOracle(FromTables(&L, tables), "round " + std::to_string(round));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchemaIndexProperty, ::testing::Values(7, 1009, 40961));

}  // namespace
}  // namespace pse
