// End-to-end tests through the OutsourcedDatabase facade: the full path
// client -> network -> providers -> reconstruction for every query class
// of §V.A, plus updates, failures, and the §V.D mash-up.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "core/outsourced_db.h"

namespace ssdb {
namespace {

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

std::unique_ptr<OutsourcedDatabase> MakeDb(size_t n = 4, size_t k = 2,
                                           bool lazy = false) {
  OutsourcedDbOptions options;
  options.topology = Topology(/*m=*/1, /*n_per=*/n, /*k=*/k);
  options.client.lazy_updates = lazy;
  auto db = OutsourcedDatabase::Create(options);
  EXPECT_TRUE(db.ok()) << db.status().ToString();
  return std::move(db).value();
}

void InsertEmployees(OutsourcedDatabase* db) {
  ASSERT_TRUE(db->CreateTable(EmployeesSchema()).ok());
  const Status st = db->Insert(
      "Employees",
      {
          {Value::Str("JOHN"), Value::Int(20000), Value::Int(1)},
          {Value::Str("ALICE"), Value::Int(35000), Value::Int(1)},
          {Value::Str("BOB"), Value::Int(50000), Value::Int(2)},
          {Value::Str("CAROL"), Value::Int(10000), Value::Int(2)},
          {Value::Str("JOHN"), Value::Int(42000), Value::Int(3)},
          {Value::Str("DAVE"), Value::Int(78000), Value::Int(3)},
      });
  ASSERT_TRUE(st.ok()) << st.ToString();
}

TEST(Integration, ExactMatchQuery) {
  auto db = MakeDb();
  InsertEmployees(db.get());
  auto r = db->Execute(
      Query::Select("Employees").Where(Eq("name", Value::Str("JOHN"))));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 2u);
  std::multiset<int64_t> salaries;
  for (const auto& row : r->rows) {
    EXPECT_EQ(row[0].AsString(), "JOHN");
    salaries.insert(row[1].AsInt());
  }
  EXPECT_EQ(salaries, (std::multiset<int64_t>{20000, 42000}));
}

TEST(Integration, ExactMatchNoHits) {
  auto db = MakeDb();
  InsertEmployees(db.get());
  auto r = db->Execute(
      Query::Select("Employees").Where(Eq("name", Value::Str("NOBODY"))));
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->rows.empty());
}

TEST(Integration, RangeQueryPaperExample) {
  // "Retrieve all information about employees whose salary is between
  // 10K and 40K" (§III).
  auto db = MakeDb();
  InsertEmployees(db.get());
  auto r = db->Execute(Query::Select("Employees")
                           .Where(Between("salary", Value::Int(10000),
                                          Value::Int(40000))));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  std::multiset<int64_t> got;
  for (const auto& row : r->rows) got.insert(row[1].AsInt());
  EXPECT_EQ(got, (std::multiset<int64_t>{20000, 35000, 10000}));
}

TEST(Integration, RangeBoundsAreInclusive) {
  auto db = MakeDb();
  InsertEmployees(db.get());
  auto r = db->Execute(Query::Select("Employees")
                           .Where(Between("salary", Value::Int(10000),
                                          Value::Int(10000))));
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(r->rows[0][0].AsString(), "CAROL");
}

TEST(Integration, RangeOutsideDomainClampsOrEmpty) {
  auto db = MakeDb();
  InsertEmployees(db.get());
  // Clamped to the domain.
  auto r1 = db->Execute(Query::Select("Employees")
                            .Where(Between("salary", Value::Int(-500000),
                                           Value::Int(2'000'000))));
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(r1->rows.size(), 6u);
  // Provably empty: answered without contacting any provider.
  const uint64_t calls_before = db->network_stats().calls;
  auto r2 = db->Execute(Query::Select("Employees")
                            .Where(Between("salary", Value::Int(2'000'001),
                                           Value::Int(3'000'000))));
  ASSERT_TRUE(r2.ok());
  EXPECT_TRUE(r2->rows.empty());
  EXPECT_EQ(db->network_stats().calls, calls_before);
}

TEST(Integration, ConjunctivePredicates) {
  auto db = MakeDb();
  InsertEmployees(db.get());
  auto r = db->Execute(Query::Select("Employees")
                           .Where(Eq("dept", Value::Int(3)))
                           .Where(Between("salary", Value::Int(40000),
                                          Value::Int(50000))));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(r->rows[0][0].AsString(), "JOHN");
  EXPECT_EQ(r->rows[0][1].AsInt(), 42000);
}

TEST(Integration, AggregatesOverExactMatch) {
  // "Average of the salaries of all employees whose name is John" (§III).
  auto db = MakeDb();
  InsertEmployees(db.get());
  auto sum = db->Execute(Query::Select("Employees")
                             .Where(Eq("name", Value::Str("JOHN")))
                             .Aggregate(AggregateOp::kSum, "salary"));
  ASSERT_TRUE(sum.ok()) << sum.status().ToString();
  EXPECT_EQ(sum->aggregate_int, 62000);
  EXPECT_EQ(sum->count, 2u);

  auto avg = db->Execute(Query::Select("Employees")
                             .Where(Eq("name", Value::Str("JOHN")))
                             .Aggregate(AggregateOp::kAvg, "salary"));
  ASSERT_TRUE(avg.ok());
  EXPECT_DOUBLE_EQ(avg->aggregate_double, 31000.0);
}

TEST(Integration, AggregatesOverRanges) {
  // "Sum of the salaries of employees whose salary is between 10K and
  // 40K" (§III).
  auto db = MakeDb();
  InsertEmployees(db.get());
  auto r = db->Execute(Query::Select("Employees")
                           .Where(Between("salary", Value::Int(10000),
                                          Value::Int(40000)))
                           .Aggregate(AggregateOp::kSum, "salary"));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->aggregate_int, 10000 + 20000 + 35000);
  EXPECT_EQ(r->count, 3u);
}

TEST(Integration, MinMaxMedian) {
  auto db = MakeDb();
  InsertEmployees(db.get());
  auto mn = db->Execute(
      Query::Select("Employees").Aggregate(AggregateOp::kMin, "salary"));
  ASSERT_TRUE(mn.ok()) << mn.status().ToString();
  EXPECT_EQ(mn->aggregate_int, 10000);
  EXPECT_EQ(mn->rows[0][0].AsString(), "CAROL");

  auto mx = db->Execute(
      Query::Select("Employees").Aggregate(AggregateOp::kMax, "salary"));
  ASSERT_TRUE(mx.ok());
  EXPECT_EQ(mx->aggregate_int, 78000);

  // Salaries sorted: 10000 20000 35000 42000 50000 78000 -> lower median
  // 35000.
  auto med = db->Execute(
      Query::Select("Employees").Aggregate(AggregateOp::kMedian, "salary"));
  ASSERT_TRUE(med.ok());
  EXPECT_EQ(med->aggregate_int, 35000);

  // Min over a filtered range.
  auto mn2 = db->Execute(Query::Select("Employees")
                             .Where(Eq("dept", Value::Int(3)))
                             .Aggregate(AggregateOp::kMin, "salary"));
  ASSERT_TRUE(mn2.ok());
  EXPECT_EQ(mn2->aggregate_int, 42000);
}

TEST(Integration, CountAggregate) {
  auto db = MakeDb();
  InsertEmployees(db.get());
  auto r = db->Execute(Query::Select("Employees")
                           .Where(Eq("dept", Value::Int(2)))
                           .Aggregate(AggregateOp::kCount));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->count, 2u);
}

TEST(Integration, StringPrefixAndLexRange) {
  // §V.B: "employees whose name starts with AB" and "between Albert and
  // Jack" become range queries.
  auto db = MakeDb();
  ASSERT_TRUE(db->CreateTable(EmployeesSchema()).ok());
  ASSERT_TRUE(db->Insert("Employees",
                         {
                             {Value::Str("ALBERT"), Value::Int(100), Value::Int(1)},
                             {Value::Str("ABEL"), Value::Int(200), Value::Int(1)},
                             {Value::Str("ABRAHAM"), Value::Int(300), Value::Int(1)},
                             {Value::Str("JACK"), Value::Int(400), Value::Int(1)},
                             {Value::Str("JACKSON"), Value::Int(500), Value::Int(1)},
                             {Value::Str("ZOE"), Value::Int(600), Value::Int(1)},
                         })
                  .ok());
  auto pre = db->Execute(Query::Select("Employees").Where(Prefix("name", "AB")));
  ASSERT_TRUE(pre.ok()) << pre.status().ToString();
  std::multiset<std::string> names;
  for (const auto& row : pre->rows) names.insert(row[0].AsString());
  EXPECT_EQ(names, (std::multiset<std::string>{"ABEL", "ABRAHAM"}));

  auto lex = db->Execute(Query::Select("Employees")
                             .Where(Between("name", Value::Str("ALBERT"),
                                            Value::Str("JACK"))));
  ASSERT_TRUE(lex.ok());
  names.clear();
  for (const auto& row : lex->rows) names.insert(row[0].AsString());
  // "JACKSON" starts with "JACK" so the paper's inclusive upper prefix
  // semantics admit it.
  EXPECT_EQ(names, (std::multiset<std::string>{"ALBERT", "JACK", "JACKSON"}));
}

TEST(Integration, JoinOnSharedDomain) {
  // §V.A Join: Employees x Managers on EID.
  auto db = MakeDb();
  TableSchema employees;
  employees.table_name = "Employees";
  employees.columns = {
      IntColumn("eid", 0, 100000, kCapExactMatch | kCapRange, "eid_domain"),
      StringColumn("name", 8),
      IntColumn("salary", 0, 1'000'000),
  };
  TableSchema managers;
  managers.table_name = "Managers";
  managers.columns = {
      IntColumn("eid", 0, 100000, kCapExactMatch | kCapRange, "eid_domain"),
      IntColumn("manager_id", 0, 100000, kCapExactMatch | kCapRange,
                "eid_domain"),
  };
  ASSERT_TRUE(db->CreateTable(employees).ok());
  ASSERT_TRUE(db->CreateTable(managers).ok());
  ASSERT_TRUE(db->Insert("Employees",
                         {
                             {Value::Int(1), Value::Str("JOHN"), Value::Int(20000)},
                             {Value::Int(2), Value::Str("ALICE"), Value::Int(35000)},
                             {Value::Int(3), Value::Str("BOB"), Value::Int(50000)},
                         })
                  .ok());
  ASSERT_TRUE(db->Insert("Managers",
                         {
                             {Value::Int(1), Value::Int(3)},
                             {Value::Int(3), Value::Int(3)},
                         })
                  .ok());

  JoinQuery jq;
  jq.left_table = "Employees";
  jq.left_column = "eid";
  jq.right_table = "Managers";
  jq.right_column = "eid";
  auto r = db->Execute(jq);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 2u);
  // Unified join results: each row is left ++ right, split at
  // join_left_columns.
  ASSERT_EQ(r->join_left_columns, 3u);
  std::multiset<std::string> joined_names;
  for (const auto& row : r->rows) {
    EXPECT_EQ(row[0].AsInt(), row[r->join_left_columns].AsInt());
    joined_names.insert(row[1].AsString());
  }
  EXPECT_EQ(joined_names, (std::multiset<std::string>{"JOHN", "BOB"}));
}

TEST(Integration, CrossDomainJoinRejected) {
  // The paper: joins over attributes from different domains "cannot be
  // answered with the proposed scheme".
  auto db = MakeDb();
  TableSchema a;
  a.table_name = "A";
  a.columns = {IntColumn("x", 0, 1000, kCapExactMatch, "domain_a")};
  TableSchema b;
  b.table_name = "B";
  b.columns = {IntColumn("y", 0, 1000, kCapExactMatch, "domain_b")};
  ASSERT_TRUE(db->CreateTable(a).ok());
  ASSERT_TRUE(db->CreateTable(b).ok());
  JoinQuery jq;
  jq.left_table = "A";
  jq.left_column = "x";
  jq.right_table = "B";
  jq.right_column = "y";
  auto r = db->Execute(jq);
  EXPECT_TRUE(r.status().IsNotSupported()) << r.status().ToString();
}

TEST(Integration, UpdateEager) {
  auto db = MakeDb();
  InsertEmployees(db.get());
  auto updated = db->Update("Employees", {Eq("name", Value::Str("JOHN"))},
                            "salary", Value::Int(99000));
  ASSERT_TRUE(updated.ok()) << updated.status().ToString();
  EXPECT_EQ(updated.value(), 2u);
  auto r = db->Execute(
      Query::Select("Employees").Where(Eq("name", Value::Str("JOHN"))));
  ASSERT_TRUE(r.ok());
  for (const auto& row : r->rows) EXPECT_EQ(row[1].AsInt(), 99000);
  // Range index must reflect the update.
  auto range = db->Execute(Query::Select("Employees")
                               .Where(Between("salary", Value::Int(99000),
                                              Value::Int(99000))));
  ASSERT_TRUE(range.ok());
  EXPECT_EQ(range->rows.size(), 2u);
}

TEST(Integration, DeleteEager) {
  auto db = MakeDb();
  InsertEmployees(db.get());
  auto deleted = db->Delete("Employees", {Eq("dept", Value::Int(2))});
  ASSERT_TRUE(deleted.ok());
  EXPECT_EQ(deleted.value(), 2u);
  auto r = db->Execute(Query::Select("Employees"));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows.size(), 4u);
}

TEST(Integration, LazyUpdatesMergeAndFlush) {
  auto db = MakeDb(4, 2, /*lazy=*/true);
  ASSERT_TRUE(db->CreateTable(EmployeesSchema()).ok());
  ASSERT_TRUE(db->Insert("Employees",
                         {{Value::Str("EVE"), Value::Int(1000), Value::Int(1)}})
                  .ok());
  // Nothing shipped yet...
  EXPECT_GT(db->client().pending_lazy_ops(), 0u);
  // ...but reads see the pending insert.
  auto r = db->Execute(
      Query::Select("Employees").Where(Eq("name", Value::Str("EVE"))));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(r->rows[0][1].AsInt(), 1000);

  // Lazy update coalesces with the pending insert.
  auto updated = db->Update("Employees", {Eq("name", Value::Str("EVE"))},
                            "salary", Value::Int(2000));
  ASSERT_TRUE(updated.ok()) << updated.status().ToString();
  EXPECT_EQ(updated.value(), 1u);
  auto r2 = db->Execute(
      Query::Select("Employees").Where(Eq("name", Value::Str("EVE"))));
  ASSERT_TRUE(r2.ok());
  ASSERT_EQ(r2->rows.size(), 1u);
  EXPECT_EQ(r2->rows[0][1].AsInt(), 2000);

  // Flush and verify durable state.
  ASSERT_TRUE(db->Flush().ok());
  EXPECT_EQ(db->client().pending_lazy_ops(), 0u);
  auto r3 = db->Execute(
      Query::Select("Employees").Where(Eq("name", Value::Str("EVE"))));
  ASSERT_TRUE(r3.ok());
  ASSERT_EQ(r3->rows.size(), 1u);
  EXPECT_EQ(r3->rows[0][1].AsInt(), 2000);
}

TEST(Integration, LazyDeleteOfPendingInsertNeverShips) {
  auto db = MakeDb(3, 2, /*lazy=*/true);
  ASSERT_TRUE(db->CreateTable(EmployeesSchema()).ok());
  ASSERT_TRUE(db->Insert("Employees",
                         {{Value::Str("TMP"), Value::Int(5), Value::Int(1)}})
                  .ok());
  auto deleted = db->Delete("Employees", {Eq("name", Value::Str("TMP"))});
  ASSERT_TRUE(deleted.ok());
  EXPECT_EQ(deleted.value(), 1u);
  ASSERT_TRUE(db->Flush().ok());
  auto r = db->Execute(Query::Select("Employees"));
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->rows.empty());
}

TEST(Integration, SurvivesProviderFailuresUpToNMinusK) {
  auto db = MakeDb(5, 2);
  InsertEmployees(db.get());
  // Take down 3 of 5 providers: k=2 still reachable.
  db->faults().Down(0);
  db->faults().Down(2);
  db->faults().Down(4);
  auto r = db->Execute(
      Query::Select("Employees").Where(Eq("name", Value::Str("JOHN"))));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->rows.size(), 2u);
  // A 4th failure leaves only 1 < k providers.
  db->faults().Down(1);
  auto r2 = db->Execute(
      Query::Select("Employees").Where(Eq("name", Value::Str("JOHN"))));
  EXPECT_TRUE(r2.status().IsUnavailable());
}

TEST(Integration, RecoversFromOneCorruptProvider) {
  auto db = MakeDb(5, 2);
  InsertEmployees(db.get());
  db->faults().Corrupt(1);
  auto r = db->Execute(
      Query::Select("Employees").Where(Eq("name", Value::Str("ALICE"))));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(r->rows[0][1].AsInt(), 35000);
}

TEST(Integration, ProvidersNeverSeePlaintext) {
  // Grab a provider's stored bytes and check that no plaintext salary or
  // encoded name appears among the stored shares.
  auto db = MakeDb(3, 2);
  InsertEmployees(db.get());
  const Provider& p = db->provider(0);
  auto table = p.GetTableForTest(1);
  ASSERT_TRUE(table.ok());
  std::set<uint64_t> salaries = {20000, 35000, 50000, 10000, 42000, 78000};
  size_t plaintext_hits = 0;
  (*table)->VisitAllRows([&](const ShareTable::RowRef& ref) {
    for (const StoredCell& cell : ref.ToStoredRow().cells) {
      if (salaries.count(cell.secret) != 0) ++plaintext_hits;
      if (salaries.count(cell.det) != 0) ++plaintext_hits;
    }
    return Status::OK();
  });
  // A random share could collide with a salary by astronomical luck; all
  // 6 salaries appearing would mean plaintext storage.
  EXPECT_LT(plaintext_hits, 2u);
}

TEST(Integration, PublicPrivateMashup) {
  // §V.D: private friends table + public restaurants table; find
  // restaurants in a friend's zipcode without a plaintext query.
  auto db = MakeDb(4, 2);
  TableSchema friends;
  friends.table_name = "Friends";
  friends.columns = {
      StringColumn("name", 10),
      IntColumn("zipcode", 10000, 99999, kCapExactMatch | kCapRange, "zip"),
  };
  ASSERT_TRUE(db->CreateTable(friends).ok());
  ASSERT_TRUE(db->Insert("Friends",
                         {
                             {Value::Str("ALICE"), Value::Int(93106)},
                             {Value::Str("BOB"), Value::Int(94043)},
                         })
                  .ok());

  std::vector<ColumnSpec> restaurant_cols = {
      IntColumn("zipcode", 10000, 99999, kCapExactMatch | kCapRange, "zip"),
      StringColumn("rname", 12),
  };
  ASSERT_TRUE(db->PublishPublicTable(
                    "Restaurants", restaurant_cols,
                    {
                        {Value::Int(93106), Value::Str("CAMPUSCAFE")},
                        {Value::Int(93106), Value::Str("LAGOONGRILL")},
                        {Value::Int(94043), Value::Str("BAYVIEW")},
                        {Value::Int(10001), Value::Str("EMPIREDELI")},
                    })
                  .ok());
  ASSERT_TRUE(db->SubscribePublicColumn("Restaurants", "zipcode").ok());

  // Look up ALICE's zipcode privately, then filter the public table in
  // share space.
  auto alice = db->Execute(
      Query::Select("Friends").Where(Eq("name", Value::Str("ALICE"))));
  ASSERT_TRUE(alice.ok());
  ASSERT_EQ(alice->rows.size(), 1u);
  const int64_t zip = alice->rows[0][1].AsInt();

  auto nearby = db->QueryPublic("Restaurants", Eq("zipcode", Value::Int(zip)));
  ASSERT_TRUE(nearby.ok()) << nearby.status().ToString();
  std::multiset<std::string> names;
  for (const auto& row : nearby->rows) names.insert(row[1].AsString());
  EXPECT_EQ(names, (std::multiset<std::string>{"CAMPUSCAFE", "LAGOONGRILL"}));

  // Range filter over the public data also works (zip neighbourhood).
  auto range = db->QueryPublic(
      "Restaurants", Between("zipcode", Value::Int(93000), Value::Int(94099)));
  ASSERT_TRUE(range.ok());
  EXPECT_EQ(range->rows.size(), 3u);
}

TEST(Integration, SchemaErrors) {
  auto db = MakeDb();
  ASSERT_TRUE(db->CreateTable(EmployeesSchema()).ok());
  EXPECT_TRUE(db->CreateTable(EmployeesSchema()).IsAlreadyExists());
  EXPECT_TRUE(db->Insert("Nope", {}).IsNotFound());
  // Wrong arity.
  EXPECT_TRUE(
      db->Insert("Employees", {{Value::Str("X")}}).IsInvalidArgument());
  // Out-of-domain value.
  EXPECT_TRUE(db->Insert("Employees", {{Value::Str("X"), Value::Int(-5),
                                        Value::Int(1)}})
                  .IsOutOfRange());
  // Unknown column in a query.
  auto r = db->Execute(
      Query::Select("Employees").Where(Eq("nope", Value::Int(1))));
  EXPECT_TRUE(r.status().IsNotFound());
}

TEST(Integration, WorksAcrossThresholds) {
  for (size_t n : {2, 3, 5, 7}) {
    for (size_t k = 2; k <= n; ++k) {
      auto db = MakeDb(n, k);
      InsertEmployees(db.get());
      auto r = db->Execute(Query::Select("Employees")
                               .Where(Between("salary", Value::Int(10000),
                                              Value::Int(40000))));
      ASSERT_TRUE(r.ok()) << "n=" << n << " k=" << k << ": "
                          << r.status().ToString();
      EXPECT_EQ(r->rows.size(), 3u) << "n=" << n << " k=" << k;
      auto s = db->Execute(Query::Select("Employees")
                               .Aggregate(AggregateOp::kSum, "salary"));
      ASSERT_TRUE(s.ok());
      EXPECT_EQ(s->aggregate_int, 235000) << "n=" << n << " k=" << k;
    }
  }
}

}  // namespace
}  // namespace ssdb
