// Client-focused tests: configuration validation, quorum behaviour,
// public-data errors, lazy-mode thresholds, and protocol robustness
// against a hostile/buggy peer.

#include <gtest/gtest.h>

#include "core/outsourced_db.h"
#include "provider/provider.h"
#include "workload/generators.h"

namespace ssdb {
namespace {

TEST(ClientCreate, Validation) {
  Network net;
  std::vector<size_t> providers;
  for (int i = 0; i < 3; ++i) {
    providers.push_back(
        net.AddProvider(std::make_shared<Provider>("p" + std::to_string(i))));
  }
  ClientOptions options;
  options.k = 2;
  EXPECT_FALSE(DataSourceClient::Create(nullptr, providers, options).ok());
  options.k = 0;
  EXPECT_FALSE(DataSourceClient::Create(&net, providers, options).ok());
  options.k = 4;  // > n
  EXPECT_FALSE(DataSourceClient::Create(&net, providers, options).ok());
  options.k = 2;
  EXPECT_TRUE(DataSourceClient::Create(&net, providers, options).ok());
  // Unknown provider index.
  EXPECT_FALSE(DataSourceClient::Create(&net, {0, 1, 9}, options).ok());
}

TEST(ClientCreate, LazyZeroFlushThresholdIsRejected) {
  // Regression: lazy_updates with lazy_flush_threshold == 0 used to be
  // accepted and silently meant "never auto-flush", so buffered writes
  // only reached the providers on an explicit Flush(). The combination
  // is now rejected at Create.
  Network net;
  std::vector<size_t> providers;
  for (int i = 0; i < 3; ++i) {
    providers.push_back(
        net.AddProvider(std::make_shared<Provider>("p" + std::to_string(i))));
  }
  ClientOptions options;
  options.k = 2;
  options.lazy_updates = true;
  options.lazy_flush_threshold = 0;
  auto rejected = DataSourceClient::Create(&net, providers, options);
  ASSERT_FALSE(rejected.ok());
  EXPECT_TRUE(rejected.status().IsInvalidArgument())
      << rejected.status().ToString();
  // Eager mode never consults the threshold, so zero stays legal there.
  options.lazy_updates = false;
  EXPECT_TRUE(DataSourceClient::Create(&net, providers, options).ok());
  // And the smallest lazy threshold (flush after every op) is legal too.
  options.lazy_updates = true;
  options.lazy_flush_threshold = 1;
  EXPECT_TRUE(DataSourceClient::Create(&net, providers, options).ok());
}

TEST(ClientCreate, DistinctMasterKeysYieldDistinctShares) {
  // Two clients with different keys over the same provider fleet must
  // produce unrelated deterministic shares (no cross-tenant equality).
  OutsourcedDbOptions o1, o2;
  o1.topology = o2.topology = Topology(/*m=*/1, /*n_per=*/2, /*k=*/2);
  o1.client.master_key = "tenant-a";
  o2.client.master_key = "tenant-b";
  auto db1 = std::move(OutsourcedDatabase::Create(o1)).value();
  auto db2 = std::move(OutsourcedDatabase::Create(o2)).value();
  TableSchema schema;
  schema.table_name = "T";
  schema.columns = {IntColumn("v", 0, 1000)};
  ASSERT_TRUE(db1->CreateTable(schema).ok());
  ASSERT_TRUE(db2->CreateTable(schema).ok());
  ASSERT_TRUE(db1->Insert("T", {{Value::Int(42)}}).ok());
  ASSERT_TRUE(db2->Insert("T", {{Value::Int(42)}}).ok());
  auto t1 = db1->provider(0).GetTableForTest(1);
  auto t2 = db2->provider(0).GetTableForTest(1);
  ASSERT_TRUE(t1.ok() && t2.ok());
  uint64_t det1 = 0, det2 = 0;
  (*t1)->VisitAllRows([&](const ShareTable::RowRef& r) {
    det1 = r.det(0);
    return Status::OK();
  });
  (*t2)->VisitAllRows([&](const ShareTable::RowRef& r) {
    det2 = r.det(0);
    return Status::OK();
  });
  EXPECT_NE(det1, det2);
}

TEST(ClientQuorum, FirstProvidersDownFallsBackToOthers) {
  OutsourcedDbOptions options;
  options.topology = Topology(/*m=*/1, /*n_per=*/4, /*k=*/2);
  auto db = std::move(OutsourcedDatabase::Create(options)).value();
  ASSERT_TRUE(db->CreateTable(EmployeeGenerator::EmployeesSchema()).ok());
  EmployeeGenerator gen(1, Distribution::kUniform);
  ASSERT_TRUE(db->Insert("Employees", gen.Rows(50)).ok());
  // Kill exactly the primary quorum (providers 0 and 1).
  db->faults().Down(0);
  db->faults().Down(1);
  auto r = db->Execute(Query::Select("Employees").Aggregate(AggregateOp::kCount));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->count, 50u);
}

TEST(ClientLazy, AutoFlushAtThreshold) {
  OutsourcedDbOptions options;
  options.topology = Topology(/*m=*/1, /*n_per=*/3, /*k=*/2);
  options.client.lazy_updates = true;
  options.client.lazy_flush_threshold = 5;
  auto db = std::move(OutsourcedDatabase::Create(options)).value();
  TableSchema schema;
  schema.table_name = "T";
  schema.columns = {IntColumn("v", 0, 1000000)};
  ASSERT_TRUE(db->CreateTable(schema).ok());
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(db->Insert("T", {{Value::Int(i)}}).ok());
  }
  EXPECT_EQ(db->client().pending_lazy_ops(), 4u);
  ASSERT_TRUE(db->Insert("T", {{Value::Int(4)}}).ok());
  EXPECT_EQ(db->client().pending_lazy_ops(), 0u);  // auto-flushed at 5
  auto table = db->provider(0).GetTableForTest(1);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ((*table)->size(), 5u);
}

TEST(ClientPublic, ErrorsAndGuards) {
  OutsourcedDbOptions options;
  options.topology = Topology(/*m=*/1, /*n_per=*/2, /*k=*/2);
  auto db = std::move(OutsourcedDatabase::Create(options)).value();
  std::vector<ColumnSpec> cols = {IntColumn("v", 0, 100)};
  ASSERT_TRUE(db->PublishPublicTable("P", cols, {{Value::Int(5)}}).ok());
  EXPECT_TRUE(db->PublishPublicTable("P", cols, {}).IsAlreadyExists());
  EXPECT_TRUE(db->PublishPublicTable("Q", {}, {}).IsInvalidArgument());
  EXPECT_TRUE(db->PublishPublicTable("R", cols, {{Value::Int(1), Value::Int(2)}})
                  .IsInvalidArgument());
  // Query before subscribe.
  auto r = db->QueryPublic("P", Eq("v", Value::Int(5)));
  EXPECT_TRUE(r.status().IsNotSupported());
  EXPECT_TRUE(db->SubscribePublicColumn("P", "nope").IsNotFound());
  EXPECT_TRUE(db->SubscribePublicColumn("Nope", "v").IsNotFound());
  ASSERT_TRUE(db->SubscribePublicColumn("P", "v").ok());
  auto r2 = db->QueryPublic("P", Eq("v", Value::Int(5)));
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2->rows.size(), 1u);
  // Out-of-domain public probe: provably empty.
  auto r3 = db->QueryPublic("P", Eq("v", Value::Int(101)));
  ASSERT_TRUE(r3.ok());
  EXPECT_TRUE(r3->rows.empty());
}

TEST(ClientStats, CountersAdvance) {
  OutsourcedDbOptions options;
  options.topology = Topology(/*m=*/1, /*n_per=*/3, /*k=*/2);
  auto db = std::move(OutsourcedDatabase::Create(options)).value();
  ASSERT_TRUE(db->CreateTable(EmployeeGenerator::EmployeesSchema()).ok());
  EmployeeGenerator gen(2, Distribution::kUniform);
  ASSERT_TRUE(db->Insert("Employees", gen.Rows(10)).ok());
  ASSERT_TRUE(db->Execute(Query::Select("Employees")).ok());
  EXPECT_EQ(db->client_stats().queries, 1u);
  EXPECT_EQ(db->client_stats().rows_reconstructed, 10u);
  EXPECT_GT(db->network_stats().calls, 0u);
  EXPECT_GT(db->simulated_time_us(), 0u);
}

TEST(ClientErrors, AggregateShapeErrors) {
  OutsourcedDbOptions options;
  options.topology = Topology(/*m=*/1, /*n_per=*/3, /*k=*/2);
  auto db = std::move(OutsourcedDatabase::Create(options)).value();
  TableSchema schema;
  schema.table_name = "T";
  schema.columns = {IntColumn("a", 0, 100, kCapExactMatch),  // no range cap
                    IntColumn("b", 0, 100)};
  ASSERT_TRUE(db->CreateTable(schema).ok());
  ASSERT_TRUE(db->Insert("T", {{Value::Int(1), Value::Int(2)}}).ok());
  // MIN needs kCapRange.
  auto r = db->Execute(Query::Select("T").Aggregate(AggregateOp::kMin, "a"));
  EXPECT_TRUE(r.status().IsNotSupported());
  // Unknown aggregate column.
  auto r2 = db->Execute(Query::Select("T").Aggregate(AggregateOp::kSum, "z"));
  EXPECT_TRUE(r2.status().IsNotFound());
  // Range predicate on non-range column.
  auto r3 = db->Execute(
      Query::Select("T").Where(Between("a", Value::Int(0), Value::Int(9))));
  EXPECT_TRUE(r3.status().IsNotSupported());
  // Eq on column without exact-match (column b defaults to both caps, so
  // craft one without):
  TableSchema schema2;
  schema2.table_name = "U";
  schema2.columns = {IntColumn("c", 0, 100, kCapNone)};
  ASSERT_TRUE(db->CreateTable(schema2).ok());
  auto r4 = db->Execute(Query::Select("U").Where(Eq("c", Value::Int(1))));
  EXPECT_TRUE(r4.status().IsNotSupported());
}

TEST(ClientErrors, BetweenTypeMismatch) {
  OutsourcedDbOptions options;
  options.topology = Topology(/*m=*/1, /*n_per=*/2, /*k=*/2);
  auto db = std::move(OutsourcedDatabase::Create(options)).value();
  ASSERT_TRUE(db->CreateTable(EmployeeGenerator::EmployeesSchema()).ok());
  auto r = db->Execute(Query::Select("Employees")
                           .Where(Between("salary", Value::Str("A"),
                                          Value::Str("B"))));
  EXPECT_TRUE(r.status().IsInvalidArgument());
  auto r2 = db->Execute(Query::Select("Employees")
                            .Where(Between("name", Value::Int(1),
                                           Value::Int(2))));
  EXPECT_TRUE(r2.status().IsInvalidArgument());
}

TEST(ClientDomains, SameColumnNameDifferentDomainsDoNotCollide) {
  // Regression: two tables may both declare a "dept" column with
  // different domains; the default domain names are table-qualified so
  // their sharing schemes stay independent.
  OutsourcedDbOptions options;
  options.topology = Topology(/*m=*/1, /*n_per=*/3, /*k=*/2);
  auto db = std::move(OutsourcedDatabase::Create(options)).value();
  TableSchema a;
  a.table_name = "A";
  a.columns = {IntColumn("dept", 0, 50)};
  TableSchema b;
  b.table_name = "B";
  b.columns = {IntColumn("dept", 0, 99)};
  ASSERT_TRUE(db->CreateTable(a).ok());
  ASSERT_TRUE(db->CreateTable(b).ok());
  ASSERT_TRUE(db->Insert("A", {{Value::Int(50)}}).ok());
  ASSERT_TRUE(db->Insert("B", {{Value::Int(99)}}).ok());  // > A's domain
  auto r = db->Execute(
      Query::Select("B").Where(Between("dept", Value::Int(60), Value::Int(99))));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->rows.size(), 1u);
  // And table-qualified domains mean the two "dept" columns do NOT join.
  JoinQuery jq;
  jq.left_table = "A";
  jq.left_column = "dept";
  jq.right_table = "B";
  jq.right_column = "dept";
  EXPECT_TRUE(db->Execute(jq).status().IsNotSupported());
}

TEST(ClientDomains, ExplicitSharedDomainMustAgreeAcrossTables) {
  OutsourcedDbOptions options;
  options.topology = Topology(/*m=*/1, /*n_per=*/3, /*k=*/2);
  auto db = std::move(OutsourcedDatabase::Create(options)).value();
  TableSchema a;
  a.table_name = "A";
  a.columns = {IntColumn("x", 0, 100, kCapExactMatch, "shared")};
  ASSERT_TRUE(db->CreateTable(a).ok());
  TableSchema bad;
  bad.table_name = "B";
  bad.columns = {IntColumn("y", 0, 999, kCapExactMatch, "shared")};
  EXPECT_TRUE(db->CreateTable(bad).IsInvalidArgument());
  TableSchema good;
  good.table_name = "C";
  good.columns = {IntColumn("y", 0, 100, kCapExactMatch, "shared")};
  EXPECT_TRUE(db->CreateTable(good).ok());
}

TEST(ProtocolFuzz, RandomBytesNeverCrashAProvider) {
  // A provider must answer every byte string with a well-formed in-band
  // response (never crash, never hang, never return transport failure).
  Provider provider("fuzzed");
  Rng rng(0xF022);
  for (int trial = 0; trial < 3000; ++trial) {
    const size_t len = rng.Uniform(200);
    std::vector<uint8_t> junk(len);
    rng.FillBytes(junk.data(), junk.size());
    auto r = provider.Handle(Slice(junk));
    ASSERT_TRUE(r.ok());
    Decoder dec(r->AsSlice());
    // The response header must decode.
    (void)DecodeResponseHeader(&dec);
  }
}

TEST(ProtocolFuzz, TruncatedRealMessagesHandled) {
  // Take real messages and truncate them at every length; the provider
  // must reply with an in-band error, not crash.
  Provider provider("fuzzed");
  Buffer create;
  EncodeCreateTable(1, {{true, true}}, &create);
  ASSERT_TRUE(provider.Handle(create.AsSlice()).ok());

  StoredRow row;
  row.row_id = 1;
  row.cells.resize(1);
  row.cells[0].det = 5;
  row.cells[0].op = 500;
  Buffer insert;
  EncodeInsertRows(1, {{true, true}}, {row}, &insert);
  for (size_t cut = 0; cut < insert.size(); ++cut) {
    auto r = provider.Handle(Slice(insert.data(), cut));
    ASSERT_TRUE(r.ok()) << "cut=" << cut;
  }
  // Full message still works after all the truncated attempts.
  auto ok = provider.Handle(insert.AsSlice());
  ASSERT_TRUE(ok.ok());
  Decoder dec(ok->AsSlice());
  EXPECT_TRUE(DecodeResponseHeader(&dec).ok());
}

}  // namespace
}  // namespace ssdb
