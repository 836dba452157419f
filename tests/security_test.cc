// Security-property tests: what providers and wire observers can and
// cannot see, per the leakage budget of DESIGN.md §5 / docs/PROTOCOL.md.

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "core/outsourced_db.h"
#include "workload/generators.h"

namespace ssdb {
namespace {

std::unique_ptr<OutsourcedDatabase> MakeDb(size_t n, size_t k,
                                           const std::string& key) {
  OutsourcedDbOptions options;
  options.topology = Topology(/*m=*/1, /*n_per=*/n, /*k=*/k);
  options.client.master_key = key;
  return std::move(OutsourcedDatabase::Create(options)).value();
}

TEST(Security, DeterministicSharesAreInjectivePerProvider) {
  // Distinct values must map to distinct det shares at each provider —
  // otherwise exact-match filtering would conflate values.
  auto db = MakeDb(3, 2, "inj");
  TableSchema schema;
  schema.table_name = "T";
  schema.columns = {IntColumn("v", 0, 100000)};
  ASSERT_TRUE(db->CreateTable(schema).ok());
  std::vector<std::vector<Value>> rows;
  for (int64_t v = 0; v < 2000; ++v) rows.push_back({Value::Int(v)});
  ASSERT_TRUE(db->Insert("T", rows).ok());
  for (size_t p = 0; p < 3; ++p) {
    auto table = db->provider(p).GetTableForTest(1);
    ASSERT_TRUE(table.ok());
    std::set<uint64_t> det_shares, op_lows;
    (*table)->VisitAllRows([&](const ShareTable::RowRef& row) {
      det_shares.insert(row.det(0));
      return Status::OK();
    });
    EXPECT_EQ(det_shares.size(), 2000u) << "provider " << p;
  }
}

TEST(Security, EqualityPatternIsTheOnlyDetLeak) {
  // Equal values share a det share (the leak); adjacent values give
  // unrelated shares (no structure an affine probe can exploit like the
  // straw-man's).
  auto db = MakeDb(2, 2, "pattern");
  TableSchema schema;
  schema.table_name = "T";
  schema.columns = {IntColumn("v", 0, 1000, kCapExactMatch)};
  ASSERT_TRUE(db->CreateTable(schema).ok());
  ASSERT_TRUE(db->Insert("T", {{Value::Int(7)}, {Value::Int(7)},
                               {Value::Int(8)}, {Value::Int(9)}})
                  .ok());
  auto table = db->provider(0).GetTableForTest(1);
  ASSERT_TRUE(table.ok());
  std::vector<uint64_t> dets;
  (*table)->VisitAllRows([&](const ShareTable::RowRef& row) {
    dets.push_back(row.det(0));
    return Status::OK();
  });
  ASSERT_EQ(dets.size(), 4u);
  EXPECT_EQ(dets[0], dets[1]);  // equal values -> equal shares
  EXPECT_NE(dets[1], dets[2]);
  EXPECT_NE(dets[2], dets[3]);
  // No affine relation across consecutive values (unlike the straw-man):
  // det(8) - det(7) != det(9) - det(8) with overwhelming probability.
  EXPECT_NE(dets[2] - dets[1], dets[3] - dets[2]);
}

TEST(Security, RandomSharesDifferAcrossIdenticalRows) {
  // Two identical plaintext rows must still carry different random
  // shares (fresh polynomials per row) — the information-theoretic half
  // of the scheme must not degenerate into determinism.
  auto db = MakeDb(2, 2, "fresh");
  TableSchema schema;
  schema.table_name = "T";
  schema.columns = {IntColumn("v", 0, 1000, kCapNone)};
  ASSERT_TRUE(db->CreateTable(schema).ok());
  ASSERT_TRUE(db->Insert("T", {{Value::Int(5)}, {Value::Int(5)}}).ok());
  auto table = db->provider(0).GetTableForTest(1);
  ASSERT_TRUE(table.ok());
  std::vector<uint64_t> secrets;
  (*table)->VisitAllRows([&](const ShareTable::RowRef& row) {
    secrets.push_back(row.secret(0));
    return Status::OK();
  });
  ASSERT_EQ(secrets.size(), 2u);
  EXPECT_NE(secrets[0], secrets[1]);
}

TEST(Security, SingleProviderSharesLookUniformForSecretColumns) {
  // Empirical necessary condition of the §III claim: a single provider's
  // random shares of a *constant* column are spread over the field, not
  // clustered near the constant.
  auto db = MakeDb(3, 2, "uniform");
  TableSchema schema;
  schema.table_name = "T";
  schema.columns = {IntColumn("v", 0, 10, kCapNone)};
  ASSERT_TRUE(db->CreateTable(schema).ok());
  std::vector<std::vector<Value>> rows(500, {Value::Int(5)});
  ASSERT_TRUE(db->Insert("T", rows).ok());
  auto table = db->provider(0).GetTableForTest(1);
  ASSERT_TRUE(table.ok());
  size_t in_low_half = 0;
  (*table)->VisitAllRows([&](const ShareTable::RowRef& row) {
    if (row.secret(0) < Fp61::kP / 2) ++in_low_half;
    return Status::OK();
  });
  EXPECT_GT(in_low_half, 180u);
  EXPECT_LT(in_low_half, 320u);
}

TEST(Security, RewrittenQueriesDifferPerProvider) {
  // The same plaintext query must hit every provider with different
  // bytes (each gets its own share of the constants) — a wire observer
  // comparing two legs learns shares, not values.
  auto db = MakeDb(3, 2, "wire");
  ASSERT_TRUE(db->CreateTable(EmployeeGenerator::EmployeesSchema()).ok());
  EmployeeGenerator gen(1, Distribution::kUniform);
  ASSERT_TRUE(db->Insert("Employees", gen.Rows(20)).ok());
  db->ResetAllStats();
  ASSERT_TRUE(db->Execute(Query::Select("Employees")
                              .Where(Between("salary", Value::Int(1000),
                                             Value::Int(2000))))
                  .ok());
  // Indirect check via stats: both quorum providers received the same
  // *number* of bytes (same message shape)...
  const uint64_t sent0 = db->network().stats(0).bytes_sent;
  const uint64_t sent1 = db->network().stats(1).bytes_sent;
  EXPECT_EQ(sent0, sent1);
  // ... and the direct check: the rewritten op-share bounds differ, which
  // we verify through the providers' stored state being disjoint.
  auto t0 = db->provider(0).GetTableForTest(1);
  auto t1 = db->provider(1).GetTableForTest(1);
  ASSERT_TRUE(t0.ok() && t1.ok());
  std::set<u128> ops0, ops1;
  (*t0)->VisitAllRows([&](const ShareTable::RowRef& row) {
    ops0.insert(row.op(1));
    return Status::OK();
  });
  (*t1)->VisitAllRows([&](const ShareTable::RowRef& row) {
    ops1.insert(row.op(1));
    return Status::OK();
  });
  for (u128 s : ops0) EXPECT_EQ(ops1.count(s), 0u);
}

TEST(Security, FewerThanKProvidersCannotReconstruct) {
  // Structural check: k-1 shares admit EVERY candidate secret — for any
  // guess there is a consistent polynomial. We verify by showing that a
  // single share (k=2) interpolates to different "secrets" with
  // different assumed second shares, i.e. it pins down nothing.
  Rng rng(9);
  auto ctx = SharingContext::CreateRandom(3, 2, &rng);
  ASSERT_TRUE(ctx.ok());
  const auto shares = ctx->Split(Fp61::FromU64(12345), &rng);
  // Adversary holds provider 0's share and guesses provider 1's.
  std::set<uint64_t> reachable;
  for (uint64_t guess = 0; guess < 50; ++guess) {
    auto r = ctx->Reconstruct(
        {{0, shares[0]}, {1, Fp61::FromU64(guess * 7919)}});
    ASSERT_TRUE(r.ok());
    reachable.insert(r->value());
  }
  // Every guess yields a distinct consistent secret: the share alone
  // carries no information.
  EXPECT_EQ(reachable.size(), 50u);
}

TEST(Security, TagKeySeparatesTables) {
  // The same row content in two tables gets different integrity tags
  // (table id is bound into the tag).
  auto db = MakeDb(2, 2, "tags");
  TableSchema a;
  a.table_name = "A";
  a.columns = {IntColumn("v", 0, 100)};
  TableSchema b;
  b.table_name = "B";
  b.columns = {IntColumn("v", 0, 100)};
  ASSERT_TRUE(db->CreateTable(a).ok());
  ASSERT_TRUE(db->CreateTable(b).ok());
  ASSERT_TRUE(db->Insert("A", {{Value::Int(1)}}).ok());
  ASSERT_TRUE(db->Insert("B", {{Value::Int(1)}}).ok());
  auto ta = db->provider(0).GetTableForTest(1);
  auto tb = db->provider(0).GetTableForTest(2);
  ASSERT_TRUE(ta.ok() && tb.ok());
  uint64_t tag_a = 0, tag_b = 0;
  (*ta)->VisitAllRows([&](const ShareTable::RowRef& r) {
    tag_a = r.tag();
    return Status::OK();
  });
  (*tb)->VisitAllRows([&](const ShareTable::RowRef& r) {
    tag_b = r.tag();
    return Status::OK();
  });
  EXPECT_NE(tag_a, tag_b);
}

}  // namespace
}  // namespace ssdb
