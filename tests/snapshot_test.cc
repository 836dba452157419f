// Tests for provider snapshot persistence: a provider can serialize its
// full state, "crash", restart from the snapshot, and keep serving.

#include <gtest/gtest.h>

#include <cstdio>

#include "core/outsourced_db.h"
#include "storage/share_table.h"
#include "workload/generators.h"

namespace ssdb {
namespace {

TEST(ShareTableSnapshot, RoundTripWithIndexes) {
  std::vector<ProviderColumnLayout> layout = {{true, true}, {false, false}};
  ShareTable table(layout);
  for (uint64_t i = 1; i <= 50; ++i) {
    StoredRow row;
    row.row_id = i;
    row.tag = i * 7;
    row.cells.resize(2);
    row.cells[0].secret = i;
    row.cells[0].det = i % 5;
    row.cells[0].op = i * 100;
    row.cells[1].secret = i * 3;
    ASSERT_TRUE(table.Insert(std::move(row)).ok());
  }
  Buffer buf;
  table.SaveSnapshot(&buf);

  Decoder dec(buf.AsSlice());
  auto loaded = ShareTable::LoadSnapshot(&dec);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->size(), 50u);
  // Indexes were rebuilt.
  EXPECT_EQ(loaded->ExactMatch(0, 2)->size(), 10u);
  EXPECT_EQ(loaded->RangeScan(0, 1000, 2000)->size(), 11u);
  auto row = loaded->Get(17);
  ASSERT_TRUE(row.ok());
  EXPECT_EQ(row->tag, 17u * 7);
}

TEST(ShareTableSnapshot, CorruptSnapshotRejected) {
  ShareTable table({{false, false}});
  StoredRow row;
  row.row_id = 1;
  row.cells.resize(1);
  ASSERT_TRUE(table.Insert(std::move(row)).ok());
  Buffer buf;
  table.SaveSnapshot(&buf);

  // Bad magic.
  std::vector<uint8_t> bytes(buf.data(), buf.data() + buf.size());
  bytes[0] ^= 0xFF;
  Decoder bad_magic{Slice(bytes)};
  EXPECT_TRUE(ShareTable::LoadSnapshot(&bad_magic).status().IsCorruption());

  // Truncation.
  Decoder truncated{Slice(buf.data(), buf.size() - 2)};
  EXPECT_FALSE(ShareTable::LoadSnapshot(&truncated).ok());
}

TEST(ProviderSnapshot, CrashAndRestartKeepsServing) {
  OutsourcedDbOptions options;
  options.topology = Topology(/*m=*/1, /*n_per=*/3, /*k=*/2);
  auto db = std::move(OutsourcedDatabase::Create(options)).value();
  ASSERT_TRUE(db->CreateTable(EmployeeGenerator::EmployeesSchema()).ok());
  EmployeeGenerator gen(42, Distribution::kUniform);
  ASSERT_TRUE(db->Insert("Employees", gen.Rows(200)).ok());

  // Also exercise public tables + share index in the snapshot.
  std::vector<ColumnSpec> pub_cols = {
      IntColumn("zip", 10000, 99999, kCapExactMatch | kCapRange, "zip")};
  ASSERT_TRUE(db->PublishPublicTable("Zips", pub_cols,
                                     {{Value::Int(90210)}, {Value::Int(10001)}})
                  .ok());
  ASSERT_TRUE(db->SubscribePublicColumn("Zips", "zip").ok());

  auto before = db->Execute(Query::Select("Employees")
                                .Where(Between("salary", Value::Int(50000),
                                               Value::Int(60000))));
  ASSERT_TRUE(before.ok());

  // Snapshot provider 1, wipe it by loading the snapshot into a fresh
  // in-place state, and re-run the query.
  Buffer snapshot;
  db->provider(1).SaveSnapshot(&snapshot);
  ASSERT_TRUE(db->provider(1).LoadSnapshot(snapshot.AsSlice()).ok());

  auto after = db->Execute(Query::Select("Employees")
                               .Where(Between("salary", Value::Int(50000),
                                              Value::Int(60000))));
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(after->rows.size(), before->rows.size());

  auto pub = db->QueryPublic("Zips", Eq("zip", Value::Int(90210)));
  ASSERT_TRUE(pub.ok()) << pub.status().ToString();
  EXPECT_EQ(pub->rows.size(), 1u);
}

TEST(ProviderSnapshot, FileRoundTrip) {
  OutsourcedDbOptions options;
  options.topology = Topology(/*m=*/1, /*n_per=*/2, /*k=*/2);
  auto db = std::move(OutsourcedDatabase::Create(options)).value();
  ASSERT_TRUE(db->CreateTable(EmployeeGenerator::EmployeesSchema()).ok());
  EmployeeGenerator gen(7, Distribution::kUniform);
  ASSERT_TRUE(db->Insert("Employees", gen.Rows(50)).ok());

  const std::string path = "/tmp/ssdb_provider_snapshot_test.bin";
  ASSERT_TRUE(db->provider(0).SaveSnapshotToFile(path).ok());
  ASSERT_TRUE(db->provider(0).LoadSnapshotFromFile(path).ok());
  std::remove(path.c_str());

  auto r = db->Execute(Query::Select("Employees").Aggregate(AggregateOp::kCount));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->count, 50u);

  EXPECT_TRUE(db->provider(0)
                  .LoadSnapshotFromFile("/tmp/ssdb_no_such_snapshot.bin")
                  .IsNotFound());
}

}  // namespace
}  // namespace ssdb
