// Tests for the extension features: projection push-down, GROUP BY
// aggregation, disjunctive predicates, and proactive share refresh.

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "core/outsourced_db.h"
#include "workload/generators.h"

namespace ssdb {
namespace {

std::unique_ptr<OutsourcedDatabase> MakeDb(size_t n = 4, size_t k = 2) {
  OutsourcedDbOptions options;
  options.topology = Topology(/*m=*/1, /*n_per=*/n, /*k=*/k);
  auto db = OutsourcedDatabase::Create(options);
  EXPECT_TRUE(db.ok());
  return std::move(db).value();
}

TableSchema EmployeesSchema() {
  TableSchema schema;
  schema.table_name = "Employees";
  schema.columns = {
      StringColumn("name", 8),
      IntColumn("salary", 0, 1'000'000),
      IntColumn("dept", 0, 100),
  };
  return schema;
}

void LoadEmployees(OutsourcedDatabase* db) {
  ASSERT_TRUE(db->CreateTable(EmployeesSchema()).ok());
  ASSERT_TRUE(db->Insert("Employees",
                         {
                             {Value::Str("JOHN"), Value::Int(20000), Value::Int(1)},
                             {Value::Str("ALICE"), Value::Int(35000), Value::Int(1)},
                             {Value::Str("BOB"), Value::Int(50000), Value::Int(2)},
                             {Value::Str("CAROL"), Value::Int(10000), Value::Int(2)},
                             {Value::Str("DAVE"), Value::Int(42000), Value::Int(2)},
                             {Value::Str("ERIN"), Value::Int(78000), Value::Int(3)},
                         })
                  .ok());
}

// --- Projection -----------------------------------------------------------

TEST(Projection, ReturnsOnlyRequestedColumns) {
  auto db = MakeDb();
  LoadEmployees(db.get());
  auto r = db->Execute(Query::Select("Employees")
                           .Where(Eq("dept", Value::Int(2)))
                           .Project({"salary"}));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 3u);
  std::multiset<int64_t> salaries;
  for (const auto& row : r->rows) {
    ASSERT_EQ(row.size(), 1u);
    salaries.insert(row[0].AsInt());
  }
  EXPECT_EQ(salaries, (std::multiset<int64_t>{50000, 10000, 42000}));
}

TEST(Projection, ReordersColumns) {
  auto db = MakeDb();
  LoadEmployees(db.get());
  auto r = db->Execute(Query::Select("Employees")
                           .Where(Eq("name", Value::Str("ERIN")))
                           .Project({"dept", "name"}));
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(r->rows[0][0].AsInt(), 3);
  EXPECT_EQ(r->rows[0][1].AsString(), "ERIN");
}

TEST(Projection, ReducesBytesOnTheWire) {
  auto db = MakeDb();
  LoadEmployees(db.get());
  db->ResetAllStats();
  ASSERT_TRUE(db->Execute(Query::Select("Employees")).ok());
  const uint64_t full_bytes = db->network_stats().bytes_received;
  db->ResetAllStats();
  ASSERT_TRUE(
      db->Execute(Query::Select("Employees").Project({"dept"})).ok());
  const uint64_t projected_bytes = db->network_stats().bytes_received;
  EXPECT_LT(projected_bytes * 2, full_bytes);
}

TEST(Projection, UnknownColumnRejected) {
  auto db = MakeDb();
  LoadEmployees(db.get());
  auto r = db->Execute(Query::Select("Employees").Project({"nope"}));
  EXPECT_TRUE(r.status().IsNotFound());
}

TEST(Projection, WorksWithMinAggregate) {
  auto db = MakeDb();
  LoadEmployees(db.get());
  auto r = db->Execute(Query::Select("Employees")
                           .Aggregate(AggregateOp::kMin, "salary")
                           .Project({"name", "salary"}));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(r->rows[0][0].AsString(), "CAROL");
  EXPECT_EQ(r->aggregate_int, 10000);
}

// --- GROUP BY ----------------------------------------------------------------

TEST(GroupBy, SumPerDepartment) {
  auto db = MakeDb();
  LoadEmployees(db.get());
  auto r = db->Execute(Query::Select("Employees")
                           .Aggregate(AggregateOp::kSum, "salary")
                           .GroupBy("dept"));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->groups.size(), 3u);
  std::map<int64_t, int64_t> sums;
  std::map<int64_t, uint64_t> counts;
  for (const auto& g : r->groups) {
    sums[g.key.AsInt()] = g.sum;
    counts[g.key.AsInt()] = g.count;
  }
  EXPECT_EQ(sums[1], 55000);
  EXPECT_EQ(sums[2], 102000);
  EXPECT_EQ(sums[3], 78000);
  EXPECT_EQ(counts[2], 3u);
  EXPECT_EQ(r->count, 6u);
}

TEST(GroupBy, AvgAndCountWithPredicate) {
  auto db = MakeDb();
  LoadEmployees(db.get());
  auto avg = db->Execute(Query::Select("Employees")
                             .Where(Between("salary", Value::Int(0),
                                            Value::Int(50000)))
                             .Aggregate(AggregateOp::kAvg, "salary")
                             .GroupBy("dept"));
  ASSERT_TRUE(avg.ok()) << avg.status().ToString();
  std::map<int64_t, double> avgs;
  for (const auto& g : avg->groups) avgs[g.key.AsInt()] = g.average;
  EXPECT_DOUBLE_EQ(avgs[1], 27500.0);
  EXPECT_DOUBLE_EQ(avgs[2], 34000.0);
  EXPECT_EQ(avgs.count(3), 0u);  // ERIN filtered out -> no group 3

  auto cnt = db->Execute(Query::Select("Employees")
                             .Aggregate(AggregateOp::kCount)
                             .GroupBy("name"));
  ASSERT_TRUE(cnt.ok());
  EXPECT_EQ(cnt->groups.size(), 6u);  // all names distinct
  for (const auto& g : cnt->groups) EXPECT_EQ(g.count, 1u);
}

TEST(GroupBy, StringGroupKeyReconstructs) {
  auto db = MakeDb();
  LoadEmployees(db.get());
  ASSERT_TRUE(db->Insert("Employees", {{Value::Str("JOHN"), Value::Int(1000),
                                        Value::Int(9)}})
                  .ok());
  auto r = db->Execute(Query::Select("Employees")
                           .Aggregate(AggregateOp::kSum, "salary")
                           .GroupBy("name"));
  ASSERT_TRUE(r.ok());
  std::map<std::string, int64_t> sums;
  for (const auto& g : r->groups) sums[g.key.AsString()] = g.sum;
  EXPECT_EQ(sums["JOHN"], 21000);
  EXPECT_EQ(sums["BOB"], 50000);
}

TEST(GroupBy, UnsupportedShapesRejected) {
  auto db = MakeDb();
  LoadEmployees(db.get());
  // MIN with GROUP BY is not supported.
  auto r1 = db->Execute(Query::Select("Employees")
                            .Aggregate(AggregateOp::kMin, "salary")
                            .GroupBy("dept"));
  EXPECT_TRUE(r1.status().IsNotSupported());
  // Group column must be exact-match capable.
  TableSchema schema;
  schema.table_name = "NoDet";
  schema.columns = {IntColumn("a", 0, 10, kCapRange),
                    IntColumn("b", 0, 10)};
  ASSERT_TRUE(db->CreateTable(schema).ok());
  auto r2 = db->Execute(Query::Select("NoDet")
                            .Aggregate(AggregateOp::kSum, "b")
                            .GroupBy("a"));
  EXPECT_TRUE(r2.status().IsNotSupported());
}

TEST(GroupBy, ManyGroupsMatchReference) {
  auto db = MakeDb(5, 3);
  ASSERT_TRUE(db->CreateTable(EmployeeGenerator::EmployeesSchema()).ok());
  EmployeeGenerator gen(31, Distribution::kUniform);
  const auto rows = gen.Rows(500);
  ASSERT_TRUE(db->Insert("Employees", rows).ok());
  std::map<int64_t, std::pair<int64_t, uint64_t>> ref;  // dept -> (sum, n)
  for (const auto& row : rows) {
    auto& [sum, n] = ref[row[2].AsInt()];
    sum += row[1].AsInt();
    ++n;
  }
  auto r = db->Execute(Query::Select("Employees")
                           .Aggregate(AggregateOp::kSum, "salary")
                           .GroupBy("dept"));
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->groups.size(), ref.size());
  for (const auto& g : r->groups) {
    auto it = ref.find(g.key.AsInt());
    ASSERT_NE(it, ref.end());
    EXPECT_EQ(g.sum, it->second.first);
    EXPECT_EQ(g.count, it->second.second);
  }
}

// --- Disjunctions --------------------------------------------------------------

TEST(Disjunction, UnionOfPredicates) {
  auto db = MakeDb();
  LoadEmployees(db.get());
  auto r = db->Execute(Query::Select("Employees")
                           .WhereAny({Eq("name", Value::Str("JOHN")),
                                      Between("salary", Value::Int(70000),
                                              Value::Int(99999))}));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  std::multiset<std::string> names;
  for (const auto& row : r->rows) names.insert(row[0].AsString());
  EXPECT_EQ(names, (std::multiset<std::string>{"JOHN", "ERIN"}));
}

TEST(Disjunction, OverlappingDisjunctsDeduplicated) {
  auto db = MakeDb();
  LoadEmployees(db.get());
  auto r = db->Execute(Query::Select("Employees")
                           .WhereAny({Between("salary", Value::Int(0),
                                              Value::Int(40000)),
                                      Between("salary", Value::Int(30000),
                                              Value::Int(60000))}));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows.size(), 5u);  // everything but ERIN, no duplicates
}

TEST(Disjunction, CombinesWithConjunctsAndProjection) {
  auto db = MakeDb();
  LoadEmployees(db.get());
  auto r = db->Execute(Query::Select("Employees")
                           .Where(Eq("dept", Value::Int(2)))
                           .WhereAny({Eq("name", Value::Str("BOB")),
                                      Eq("name", Value::Str("CAROL")),
                                      Eq("name", Value::Str("ERIN"))})
                           .Project({"name"}));
  ASSERT_TRUE(r.ok());
  std::multiset<std::string> names;
  for (const auto& row : r->rows) names.insert(row[0].AsString());
  // ERIN is dept 3, filtered by the conjunct.
  EXPECT_EQ(names, (std::multiset<std::string>{"BOB", "CAROL"}));
}

TEST(Disjunction, AggregateRejected) {
  auto db = MakeDb();
  LoadEmployees(db.get());
  auto r = db->Execute(Query::Select("Employees")
                           .WhereAny({Eq("dept", Value::Int(1))})
                           .Aggregate(AggregateOp::kSum, "salary"));
  EXPECT_TRUE(r.status().IsNotSupported());
}

// --- Share refresh ---------------------------------------------------------------

TEST(Refresh, SharesChangeButSecretsDoNot) {
  auto db = MakeDb(3, 2);
  LoadEmployees(db.get());

  // Capture provider 0's stored secret shares before the refresh.
  auto before_table = db->provider(0).GetTableForTest(1);
  ASSERT_TRUE(before_table.ok());
  std::map<uint64_t, uint64_t> before;
  (*before_table)->VisitAllRows([&](const ShareTable::RowRef& row) {
    before[row.row_id()] = row.secret(1);
    return Status::OK();
  });

  ASSERT_TRUE(db->RefreshTable("Employees").ok());

  auto after_table = db->provider(0).GetTableForTest(1);
  ASSERT_TRUE(after_table.ok());
  size_t changed = 0;
  (*after_table)->VisitAllRows([&](const ShareTable::RowRef& row) {
    if (before[row.row_id()] != row.secret(1)) ++changed;
    return Status::OK();
  });
  EXPECT_EQ(changed, before.size());  // every share re-randomized

  // Data still reads back exactly.
  auto r = db->Execute(Query::Select("Employees")
                           .Where(Eq("name", Value::Str("ALICE"))));
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(r->rows[0][1].AsInt(), 35000);
  auto sum = db->Execute(
      Query::Select("Employees").Aggregate(AggregateOp::kSum, "salary"));
  ASSERT_TRUE(sum.ok());
  EXPECT_EQ(sum->aggregate_int, 235000);
}

TEST(Refresh, RepeatedRefreshesStayConsistent) {
  auto db = MakeDb(5, 3);
  LoadEmployees(db.get());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(db->RefreshTable("Employees").ok());
  }
  auto r = db->Execute(Query::Select("Employees")
                           .Where(Between("salary", Value::Int(10000),
                                          Value::Int(40000))));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows.size(), 3u);
}

TEST(Refresh, RequiresAllProviders) {
  auto db = MakeDb(4, 2);
  LoadEmployees(db.get());
  db->faults().Down(3);
  EXPECT_TRUE(db->RefreshTable("Employees").IsUnavailable());
  db->faults().HealAll();
  // The failed refresh must not have desynchronized anything the read
  // path notices (deltas were rejected atomically per provider call).
  auto r = db->Execute(Query::Select("Employees"));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows.size(), 6u);
}

TEST(Refresh, UnknownTableRejected) {
  auto db = MakeDb();
  EXPECT_TRUE(db->RefreshTable("nope").IsNotFound());
}

}  // namespace
}  // namespace ssdb
