// Direct provider-protocol tests: wire-format robustness and provider
// semantics independent of the client.

#include <gtest/gtest.h>

#include "provider/protocol.h"
#include "provider/provider.h"

namespace ssdb {
namespace {

std::vector<ProviderColumnLayout> Layout2() {
  return {{true, true}, {true, false}};
}

StoredRow Row(uint64_t id, uint64_t det0, u128 op0, uint64_t det1) {
  StoredRow row;
  row.row_id = id;
  row.cells.resize(2);
  row.cells[0].det = det0;
  row.cells[0].op = op0;
  row.cells[0].secret = id + 1000;
  row.cells[1].det = det1;
  row.cells[1].secret = id + 2000;
  return row;
}

Result<Buffer> Call(Provider* p, const Buffer& req) {
  return p->Handle(req.AsSlice());
}

Status OkHeader(const Buffer& resp) {
  Decoder dec(resp.AsSlice());
  return DecodeResponseHeader(&dec);
}

void SetupTables(Provider* p) {
  Buffer create;
  EncodeCreateTable(7, Layout2(), &create);
  auto r = Call(p, create);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(OkHeader(*r).ok());
  Buffer insert;
  EncodeInsertRows(7, Layout2(),
                   {Row(1, 10, 100, 55), Row(2, 20, 200, 55),
                    Row(3, 10, 300, 66)},
                   &insert);
  r = Call(p, insert);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(OkHeader(*r).ok());
}

TEST(Provider, MalformedRequestYieldsInBandError) {
  Provider p("t");
  // Empty request.
  auto r1 = p.Handle(Slice());
  ASSERT_TRUE(r1.ok());
  EXPECT_FALSE(OkHeader(*r1).ok());
  // Unknown message type.
  Buffer junk;
  junk.PutU8(200);
  auto r2 = Call(&p, junk);
  ASSERT_TRUE(r2.ok());
  EXPECT_TRUE(OkHeader(*r2).IsInvalidArgument());
  // Truncated payload.
  Buffer trunc;
  trunc.PutU8(static_cast<uint8_t>(MsgType::kCreateTable));
  trunc.PutU8(1);  // half a table id
  auto r3 = Call(&p, trunc);
  ASSERT_TRUE(r3.ok());
  EXPECT_TRUE(OkHeader(*r3).IsCorruption());
  // Row counts come off the wire: a request claiming 2^40 ids (or rows)
  // with no payload behind them is refused, not allocated for.
  SetupTables(&p);
  Buffer huge_get;
  huge_get.PutU8(static_cast<uint8_t>(MsgType::kGetRows));
  huge_get.PutU32(7);
  huge_get.PutVarint(uint64_t{1} << 40);
  auto r4 = Call(&p, huge_get);
  ASSERT_TRUE(r4.ok());
  EXPECT_TRUE(OkHeader(*r4).IsCorruption());
  Buffer huge_insert;
  huge_insert.PutU8(static_cast<uint8_t>(MsgType::kInsertRows));
  huge_insert.PutU32(7);
  huge_insert.PutVarint(uint64_t{1} << 40);
  auto r5 = Call(&p, huge_insert);
  ASSERT_TRUE(r5.ok());
  EXPECT_TRUE(OkHeader(*r5).IsCorruption());
}

TEST(Provider, CreateInsertQueryExact) {
  Provider p("t");
  SetupTables(&p);
  QueryRequest q;
  q.table_id = 7;
  q.action = QueryAction::kFetchRows;
  SharePredicate pred;
  pred.column = 0;
  pred.kind = PredicateKind::kExactDet;
  pred.det_share = 10;
  q.predicates.push_back(pred);
  Buffer req;
  EncodeQuery(q, &req);
  auto r = Call(&p, req);
  ASSERT_TRUE(r.ok());
  Decoder dec(r->AsSlice());
  ASSERT_TRUE(DecodeResponseHeader(&dec).ok());
  std::vector<StoredRow> rows;
  ASSERT_TRUE(DecodeRowsResponse(&dec, Layout2(), &rows).ok());
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].row_id, 1u);
  EXPECT_EQ(rows[1].row_id, 3u);
}

TEST(Provider, RangePredicateUsesOpShares) {
  Provider p("t");
  SetupTables(&p);
  QueryRequest q;
  q.table_id = 7;
  q.action = QueryAction::kFetchRowIds;
  SharePredicate pred;
  pred.column = 0;
  pred.kind = PredicateKind::kRangeOp;
  pred.op_lo = 150;
  pred.op_hi = 350;
  q.predicates.push_back(pred);
  Buffer req;
  EncodeQuery(q, &req);
  auto r = Call(&p, req);
  ASSERT_TRUE(r.ok());
  Decoder dec(r->AsSlice());
  ASSERT_TRUE(DecodeResponseHeader(&dec).ok());
  std::vector<uint64_t> ids;
  ASSERT_TRUE(DecodeRowIdsResponse(&dec, &ids).ok());
  EXPECT_EQ(ids, (std::vector<uint64_t>{2, 3}));
}

TEST(Provider, RangeOnNonOpColumnRejected) {
  Provider p("t");
  SetupTables(&p);
  QueryRequest q;
  q.table_id = 7;
  q.action = QueryAction::kFetchRowIds;
  SharePredicate pred;
  pred.column = 1;  // no op shares
  pred.kind = PredicateKind::kRangeOp;
  q.predicates.push_back(pred);
  Buffer req;
  EncodeQuery(q, &req);
  auto r = Call(&p, req);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(OkHeader(*r).IsNotSupported());
}

TEST(Provider, PartialSumIsShareSum) {
  Provider p("t");
  SetupTables(&p);
  QueryRequest q;
  q.table_id = 7;
  q.action = QueryAction::kPartialSum;
  q.target_column = 1;
  SharePredicate pred;
  pred.column = 1;
  pred.kind = PredicateKind::kExactDet;
  pred.det_share = 55;
  q.predicates.push_back(pred);
  Buffer req;
  EncodeQuery(q, &req);
  auto r = Call(&p, req);
  ASSERT_TRUE(r.ok());
  Decoder dec(r->AsSlice());
  ASSERT_TRUE(DecodeResponseHeader(&dec).ok());
  PartialAggregate agg;
  ASSERT_TRUE(DecodeAggResponse(&dec, &agg).ok());
  EXPECT_EQ(agg.count, 2u);
  EXPECT_EQ(agg.sum_share, (1 + 2000) + (2 + 2000));
}

TEST(Provider, MedianPicksLowerMiddleByOpOrder) {
  Provider p("t");
  SetupTables(&p);
  QueryRequest q;
  q.table_id = 7;
  q.action = QueryAction::kMedian;
  q.target_column = 0;
  Buffer req;
  EncodeQuery(q, &req);
  auto r = Call(&p, req);
  ASSERT_TRUE(r.ok());
  Decoder dec(r->AsSlice());
  ASSERT_TRUE(DecodeResponseHeader(&dec).ok());
  std::vector<StoredRow> rows;
  ASSERT_TRUE(DecodeRowsResponse(&dec, Layout2(), &rows).ok());
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].row_id, 2u);  // op shares 100,200,300 -> middle 200
}

TEST(Provider, JoinOnDetShares) {
  Provider p("t");
  SetupTables(&p);
  // Second table joins on column 0 det shares.
  Buffer create;
  EncodeCreateTable(8, Layout2(), &create);
  ASSERT_TRUE(OkHeader(*Call(&p, create)).ok());
  Buffer insert;
  EncodeInsertRows(8, Layout2(), {Row(100, 10, 1, 0), Row(101, 99, 2, 0)},
                   &insert);
  ASSERT_TRUE(OkHeader(*Call(&p, insert)).ok());

  JoinRequest jr;
  jr.left_table = 7;
  jr.left_column = 0;
  jr.right_table = 8;
  jr.right_column = 0;
  Buffer req;
  EncodeJoin(jr, &req);
  auto r = Call(&p, req);
  ASSERT_TRUE(r.ok());
  Decoder dec(r->AsSlice());
  ASSERT_TRUE(DecodeResponseHeader(&dec).ok());
  std::vector<JoinedRowPair> pairs;
  ASSERT_TRUE(DecodeJoinResponse(&dec, Layout2(), Layout2(), &pairs).ok());
  // det share 10 appears in rows 1,3 left and row 100 right.
  ASSERT_EQ(pairs.size(), 2u);
  EXPECT_EQ(pairs[0].left.row_id, 1u);
  EXPECT_EQ(pairs[0].right.row_id, 100u);
  EXPECT_EQ(pairs[1].left.row_id, 3u);
}

TEST(Provider, TableLifecycleErrors) {
  Provider p("t");
  SetupTables(&p);
  Buffer create_dup;
  EncodeCreateTable(7, Layout2(), &create_dup);
  EXPECT_TRUE(OkHeader(*Call(&p, create_dup)).IsAlreadyExists());

  QueryRequest q;
  q.table_id = 99;
  Buffer req;
  EncodeQuery(q, &req);
  EXPECT_TRUE(OkHeader(*Call(&p, req)).IsNotFound());

  Buffer drop;
  EncodeDropTable(7, &drop);
  EXPECT_TRUE(OkHeader(*Call(&p, drop)).ok());
  EXPECT_TRUE(OkHeader(*Call(&p, drop)).IsNotFound());
}

TEST(Provider, StatsAccumulate) {
  Provider p("t");
  SetupTables(&p);
  EXPECT_GT(p.stats().requests, 0u);
  QueryRequest q;
  q.table_id = 7;
  q.action = QueryAction::kFetchRows;
  Buffer req;
  EncodeQuery(q, &req);
  ASSERT_TRUE(Call(&p, req).ok());
  EXPECT_EQ(p.stats().rows_returned, 3u);
  p.ResetStats();
  EXPECT_EQ(p.stats().requests, 0u);
}

TEST(Protocol, PredicateRoundTrip) {
  SharePredicate pred;
  pred.column = 9;
  pred.kind = PredicateKind::kRangeOp;
  pred.op_lo = MakeU128(1, 2);
  pred.op_hi = MakeU128(3, 4);
  Buffer buf;
  pred.EncodeTo(&buf);
  Decoder dec(buf.AsSlice());
  SharePredicate back;
  ASSERT_TRUE(SharePredicate::DecodeFrom(&dec, &back).ok());
  EXPECT_EQ(back.column, 9u);
  EXPECT_EQ(back.op_lo, MakeU128(1, 2));
  EXPECT_EQ(back.op_hi, MakeU128(3, 4));
}

TEST(Protocol, ResponseHeaderCarriesStatus) {
  Buffer buf;
  EncodeErrorResponse(Status::NotSupported("nope"), &buf);
  Decoder dec(buf.AsSlice());
  const Status st = DecodeResponseHeader(&dec);
  EXPECT_TRUE(st.IsNotSupported());
  EXPECT_EQ(st.message(), "nope");
}

TEST(Protocol, ImplausibleLengthRejected) {
  // A query request claiming 2^40 predicates must be rejected without
  // allocating.
  Buffer buf;
  buf.PutU8(static_cast<uint8_t>(MsgType::kQuery));
  buf.PutU32(1);
  buf.PutVarint(1ULL << 40);
  Provider p("t");
  auto r = p.Handle(buf.AsSlice());
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(OkHeader(*r).IsCorruption());
}

}  // namespace
}  // namespace ssdb
