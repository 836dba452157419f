// Unit and property tests for the provider storage: B+-tree and share
// tables.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <set>
#include <string>

#include "common/rng.h"
#include "field/fp61.h"
#include "storage/btree.h"
#include "storage/share_table.h"

namespace ssdb {
namespace {

TEST(BPlusTree, EmptyTree) {
  BPlusTree tree;
  EXPECT_TRUE(tree.empty());
  EXPECT_TRUE(tree.Range(0, ~static_cast<u128>(0)).empty());
  u128 k;
  uint64_t v;
  EXPECT_FALSE(tree.MinInRange(0, 100, &k, &v));
  EXPECT_TRUE(tree.CheckInvariants());
}

TEST(BPlusTree, InsertAndPointLookup) {
  BPlusTree tree;
  for (uint64_t i = 0; i < 500; ++i) tree.Insert(i * 3, i);
  EXPECT_EQ(tree.size(), 500u);
  EXPECT_TRUE(tree.CheckInvariants());
  EXPECT_EQ(tree.Equal(300), std::vector<uint64_t>{100});
  EXPECT_TRUE(tree.Equal(301).empty());
}

TEST(BPlusTree, RangeMatchesReferenceModel) {
  // Property test: random inserts/erases mirrored into a std::multimap,
  // then random range scans compared.
  Rng rng(21);
  BPlusTree tree;
  std::multimap<u128, uint64_t> model;
  for (int op = 0; op < 5000; ++op) {
    const u128 key = rng.Uniform(1000);
    const uint64_t value = rng.Uniform(50);
    if (rng.Bernoulli(0.7) || model.empty()) {
      tree.Insert(key, value);
      model.emplace(key, value);
    } else {
      // Erase a random existing entry.
      auto it = model.begin();
      std::advance(it, static_cast<long>(rng.Uniform(model.size())));
      EXPECT_TRUE(tree.Erase(it->first, it->second));
      model.erase(it);
    }
  }
  EXPECT_EQ(tree.size(), model.size());
  ASSERT_TRUE(tree.CheckInvariants());

  for (int q = 0; q < 200; ++q) {
    u128 lo = rng.Uniform(1000);
    u128 hi = rng.Uniform(1000);
    if (lo > hi) std::swap(lo, hi);
    std::multiset<uint64_t> expect;
    for (auto it = model.lower_bound(lo);
         it != model.end() && it->first <= hi; ++it) {
      expect.insert(it->second);
    }
    const std::vector<uint64_t> got_v = tree.Range(lo, hi);
    const std::multiset<uint64_t> got(got_v.begin(), got_v.end());
    EXPECT_EQ(got, expect) << "range [" << U128ToString(lo) << ", "
                           << U128ToString(hi) << "]";
  }
}

TEST(BPlusTree, ScanIsKeyOrdered) {
  Rng rng(22);
  BPlusTree tree;
  for (int i = 0; i < 3000; ++i) tree.Insert(rng.Next(), i);
  u128 prev = 0;
  bool first = true;
  tree.Scan(0, ~static_cast<u128>(0), [&](u128 k, uint64_t) {
    if (!first) EXPECT_GE(k, prev);
    prev = k;
    first = false;
    return true;
  });
}

TEST(BPlusTree, DuplicateKeysAllKept) {
  BPlusTree tree;
  for (uint64_t v = 0; v < 200; ++v) tree.Insert(42, v);
  EXPECT_EQ(tree.Equal(42).size(), 200u);
  EXPECT_TRUE(tree.CheckInvariants());
  // Erase specific (key, value) pairs.
  EXPECT_TRUE(tree.Erase(42, 100));
  EXPECT_FALSE(tree.Erase(42, 100));
  EXPECT_EQ(tree.Equal(42).size(), 199u);
}

TEST(BPlusTree, MinMaxCountInRange) {
  BPlusTree tree;
  for (uint64_t i = 10; i <= 100; i += 10) tree.Insert(i, i * 2);
  u128 key;
  uint64_t value;
  ASSERT_TRUE(tree.MinInRange(25, 95, &key, &value));
  EXPECT_EQ(key, static_cast<u128>(30));
  EXPECT_EQ(value, 60u);
  ASSERT_TRUE(tree.MaxInRange(25, 95, &key, &value));
  EXPECT_EQ(key, static_cast<u128>(90));
  EXPECT_EQ(tree.CountInRange(25, 95), 7u);
  EXPECT_FALSE(tree.MinInRange(41, 49, &key, &value));
}

TEST(BPlusTree, U128KeysBeyond64Bits) {
  BPlusTree tree;
  const u128 base = MakeU128(5, 0);
  for (uint64_t i = 0; i < 100; ++i) tree.Insert(base + i, i);
  EXPECT_EQ(tree.Range(base + 10, base + 19).size(), 10u);
  EXPECT_TRUE(tree.CheckInvariants());
}

TEST(BPlusTree, MoveSemantics) {
  BPlusTree a;
  a.Insert(1, 1);
  a.Insert(2, 2);
  BPlusTree b = std::move(a);
  EXPECT_EQ(b.size(), 2u);
  EXPECT_EQ(a.size(), 0u);  // NOLINT(bugprone-use-after-move): reset state
  a.Insert(9, 9);
  EXPECT_EQ(a.size(), 1u);
}

// --- ShareTable ---------------------------------------------------------

std::vector<ProviderColumnLayout> TestLayout() {
  // col0: det only; col1: op only; col2: both.
  return {{true, false}, {false, true}, {true, true}};
}

StoredRow MakeRow(uint64_t id, uint64_t det0, u128 op1, uint64_t det2,
                  u128 op2) {
  StoredRow row;
  row.row_id = id;
  row.cells.resize(3);
  row.cells[0].secret = id * 11;
  row.cells[0].det = det0;
  row.cells[1].secret = id * 13;
  row.cells[1].op = op1;
  row.cells[2].secret = id * 17;
  row.cells[2].det = det2;
  row.cells[2].op = op2;
  return row;
}

TEST(ShareTable, InsertGetDelete) {
  ShareTable table(TestLayout());
  ASSERT_TRUE(table.Insert(MakeRow(1, 100, 200, 300, 400)).ok());
  EXPECT_TRUE(table.Insert(MakeRow(1, 0, 0, 0, 0)).IsAlreadyExists());
  auto row = table.Get(1);
  ASSERT_TRUE(row.ok());
  EXPECT_EQ(row->cells[0].det, 100u);
  ASSERT_TRUE(table.Delete(1).ok());
  EXPECT_TRUE(table.Delete(1).IsNotFound());
  EXPECT_TRUE(table.Get(1).status().IsNotFound());
}

TEST(ShareTable, ExactMatchIndex) {
  ShareTable table(TestLayout());
  ASSERT_TRUE(table.Insert(MakeRow(1, 50, 0, 7, 0)).ok());
  ASSERT_TRUE(table.Insert(MakeRow(2, 50, 0, 8, 0)).ok());
  ASSERT_TRUE(table.Insert(MakeRow(3, 60, 0, 7, 0)).ok());
  auto hits = table.ExactMatch(0, 50);
  ASSERT_TRUE(hits.ok());
  EXPECT_EQ(*hits, (std::vector<uint64_t>{1, 2}));
  // Column without det shares.
  EXPECT_TRUE(table.ExactMatch(1, 50).status().IsNotSupported());
  EXPECT_TRUE(table.ExactMatch(9, 50).status().IsInvalidArgument());
}

TEST(ShareTable, RangeScanAndArgExtremes) {
  ShareTable table(TestLayout());
  for (uint64_t i = 1; i <= 10; ++i) {
    ASSERT_TRUE(table.Insert(MakeRow(i, i, i * 100, i, i * 1000)).ok());
  }
  auto hits = table.RangeScan(1, 250, 750);
  ASSERT_TRUE(hits.ok());
  EXPECT_EQ(hits->size(), 5u);  // 300..700
  auto mn = table.ArgMinInRange(1, 250, 750);
  ASSERT_TRUE(mn.ok());
  EXPECT_EQ(*mn, std::vector<uint64_t>{3});
  auto mx = table.ArgMaxInRange(1, 250, 750);
  ASSERT_TRUE(mx.ok());
  EXPECT_EQ(*mx, std::vector<uint64_t>{7});
  auto none = table.ArgMinInRange(1, 101, 199);
  ASSERT_TRUE(none.ok());
  EXPECT_TRUE(none->empty());
}

TEST(ShareTable, UpdateReindexes) {
  ShareTable table(TestLayout());
  ASSERT_TRUE(table.Insert(MakeRow(1, 5, 500, 5, 500)).ok());
  StoredRow updated = MakeRow(1, 6, 600, 6, 600);
  ASSERT_TRUE(table.Update(updated).ok());
  EXPECT_TRUE(table.ExactMatch(0, 5)->empty());
  EXPECT_EQ(table.ExactMatch(0, 6)->size(), 1u);
  EXPECT_TRUE(table.RangeScan(1, 500, 500)->empty());
  EXPECT_EQ(table.RangeScan(1, 600, 600)->size(), 1u);
  EXPECT_TRUE(table.Update(MakeRow(99, 0, 0, 0, 0)).IsNotFound());
}

TEST(ShareTable, RowSerdeRoundTrip) {
  const auto layout = TestLayout();
  StoredRow row = MakeRow(42, 1, MakeU128(2, 3), 4, MakeU128(5, 6));
  row.tag = 0xDEADBEEF;
  Buffer buf;
  EncodeStoredRow(row, layout, &buf);
  Decoder dec(buf.AsSlice());
  StoredRow back;
  ASSERT_TRUE(DecodeStoredRow(&dec, layout, &back).ok());
  EXPECT_EQ(back.row_id, 42u);
  EXPECT_EQ(back.tag, 0xDEADBEEFu);
  EXPECT_EQ(back.cells[1].op, MakeU128(2, 3));
  EXPECT_EQ(back.cells[2].det, 4u);
  EXPECT_TRUE(dec.done());
  // Truncated input fails cleanly.
  Decoder short_dec(Slice(buf.data(), buf.size() - 3));
  StoredRow bad;
  EXPECT_TRUE(DecodeStoredRow(&short_dec, layout, &bad).IsCorruption());
}

TEST(ShareTable, RowSerdeFuzzReencodeByteIdentical) {
  // The encoder stages small rows on the stack and the decoder reads one
  // zero-copy raw view; neither may change the wire bytes. Fuzz random
  // layouts (including >15 columns, which exceeds the stack stage and
  // takes the per-field fallback) and assert decode -> re-encode is
  // byte-identical.
  Rng rng(0xF022);
  for (int trial = 0; trial < 200; ++trial) {
    const size_t columns = 1 + rng.Uniform(20);
    std::vector<ProviderColumnLayout> layout(columns);
    for (auto& col : layout) {
      col.has_det = rng.Bernoulli(0.5);
      col.has_op = rng.Bernoulli(0.5);
    }
    StoredRow row;
    row.row_id = rng.Next();
    row.tag = rng.Next();
    row.cells.resize(columns);
    for (auto& cell : row.cells) {
      cell.secret = rng.Next();
      cell.det = rng.Next();
      cell.op = MakeU128(rng.Next(), rng.Next());
    }
    Buffer wire;
    EncodeStoredRow(row, layout, &wire);
    ASSERT_EQ(wire.size(), StoredRowWireSize(layout));

    Decoder dec(wire.AsSlice());
    StoredRow back;
    ASSERT_TRUE(DecodeStoredRow(&dec, layout, &back).ok());
    EXPECT_TRUE(dec.done());

    Buffer rewire;
    EncodeStoredRow(back, layout, &rewire);
    ASSERT_EQ(rewire.size(), wire.size());
    EXPECT_EQ(memcmp(rewire.data(), wire.data(), wire.size()), 0)
        << "trial " << trial << " columns " << columns;
  }
}

TEST(ShareTable, ArityMismatchRejected) {
  ShareTable table(TestLayout());
  StoredRow row;
  row.row_id = 1;
  row.cells.resize(2);  // wrong arity
  EXPECT_TRUE(table.Insert(row).IsInvalidArgument());
}

// --- ShareTable vs a std::map reference -----------------------------------

// Random shares from small domains, so exact matches, range ties and
// argmin/argmax ties all occur; shares the layout lacks stay 0.
StoredRow RandomRow(uint64_t id,
                    const std::vector<ProviderColumnLayout>& layout, Rng* rng) {
  StoredRow row;
  row.row_id = id;
  row.tag = rng->Next();
  row.cells.resize(layout.size());
  for (size_t c = 0; c < layout.size(); ++c) {
    row.cells[c].secret = rng->Uniform(Fp61::kP);
    if (layout[c].has_det) row.cells[c].det = rng->Uniform(16);
    if (layout[c].has_op) {
      row.cells[c].op = MakeU128(rng->Uniform(2), rng->Uniform(40));
    }
  }
  return row;
}

bool SameRow(const StoredRow& a, const StoredRow& b) {
  if (a.row_id != b.row_id || a.tag != b.tag ||
      a.cells.size() != b.cells.size()) {
    return false;
  }
  for (size_t c = 0; c < a.cells.size(); ++c) {
    if (a.cells[c].secret != b.cells[c].secret ||
        a.cells[c].det != b.cells[c].det || a.cells[c].op != b.cells[c].op) {
      return false;
    }
  }
  return true;
}

// The snapshot bytes of the map-based table: header, layout, row count,
// then every row in ascending id order.
Buffer ReferenceSnapshot(const std::vector<ProviderColumnLayout>& layout,
                         const std::map<uint64_t, StoredRow>& ref) {
  Buffer buf;
  buf.reserve(StoredRowWireSize(layout) * ref.size() + 64);
  buf.PutU32(0x53534442);  // "SSDB"
  buf.PutU8(1);
  buf.PutVarint(layout.size());
  for (const ProviderColumnLayout& c : layout) c.EncodeTo(&buf);
  buf.PutVarint(ref.size());
  for (const auto& [id, row] : ref) EncodeStoredRow(row, layout, &buf);
  return buf;
}

std::vector<uint64_t> Sorted(std::vector<uint64_t> v) {
  std::sort(v.begin(), v.end());
  return v;
}

uint64_t PickId(const std::map<uint64_t, StoredRow>& ref, Rng* rng) {
  auto it = ref.begin();
  std::advance(it, static_cast<long>(rng->Uniform(ref.size())));
  return it->first;
}

// Checks every read path of `table` against `ref`.
void ExpectMatchesReference(const ShareTable& table,
                            const std::map<uint64_t, StoredRow>& ref,
                            uint64_t max_id, Rng* rng) {
  const auto& layout = table.layout();
  ASSERT_EQ(table.size(), ref.size());

  // Full visit: every live row, ascending ids, same shares.
  std::vector<uint64_t> visited;
  auto ref_it = ref.begin();
  ASSERT_TRUE(table
                  .VisitAllRows([&](const ShareTable::RowRef& row) {
                    EXPECT_TRUE(ref_it != ref.end() &&
                                SameRow(row.ToStoredRow(), ref_it->second));
                    if (ref_it != ref.end()) ++ref_it;
                    visited.push_back(row.row_id());
                    return Status::OK();
                  })
                  .ok());
  std::vector<uint64_t> ref_ids;
  for (const auto& [id, row] : ref) ref_ids.push_back(id);
  ASSERT_EQ(visited, ref_ids);
  EXPECT_EQ(table.AllRowIds(), ref_ids);

  // Listed visit: ascending runs, a descending step and repeats, in list
  // order; a missing id fails the walk with NotFound.
  if (!ref.empty()) {
    std::vector<uint64_t> ids;
    for (int i = 0; i < 12; ++i) ids.push_back(PickId(ref, rng));
    std::sort(ids.begin(), ids.begin() + 8);
    std::vector<uint64_t> got;
    ASSERT_TRUE(table
                    .VisitRows(ids,
                               [&](const ShareTable::RowRef& row) {
                                 EXPECT_TRUE(SameRow(row.ToStoredRow(),
                                                     ref.at(row.row_id())));
                                 got.push_back(row.row_id());
                                 return Status::OK();
                               })
                    .ok());
    EXPECT_EQ(got, ids);
  }
  for (int i = 0; i < 4; ++i) {
    const uint64_t id = rng->Uniform(max_id + 2);
    auto row = table.Get(id);
    const auto it = ref.find(id);
    if (it == ref.end()) {
      EXPECT_TRUE(row.status().IsNotFound()) << "id " << id;
      EXPECT_TRUE(table
                      .VisitRows({id}, [](const ShareTable::RowRef&) {
                        return Status::OK();
                      })
                      .IsNotFound());
    } else {
      ASSERT_TRUE(row.ok());
      EXPECT_TRUE(SameRow(*row, it->second));
    }
  }

  // Indexes against brute force over the reference.
  for (size_t c = 0; c < layout.size(); ++c) {
    if (layout[c].has_det) {
      const uint64_t det = rng->Uniform(16);
      std::vector<uint64_t> expect;
      for (const auto& [id, row] : ref) {
        if (row.cells[c].det == det) expect.push_back(id);
      }
      auto hits = table.ExactMatch(c, det);
      ASSERT_TRUE(hits.ok());
      EXPECT_EQ(*hits, expect);
    }
    if (layout[c].has_op) {
      u128 lo = MakeU128(rng->Uniform(2), rng->Uniform(40));
      u128 hi = MakeU128(rng->Uniform(2), rng->Uniform(40));
      if (lo > hi) std::swap(lo, hi);
      std::vector<uint64_t> expect, expect_min, expect_max;
      for (const auto& [id, row] : ref) {
        const u128 op = row.cells[c].op;
        if (op < lo || op > hi) continue;
        expect.push_back(id);
        if (expect_min.empty() || op < ref.at(expect_min[0]).cells[c].op) {
          expect_min.clear();
        }
        if (expect_min.empty() || op == ref.at(expect_min[0]).cells[c].op) {
          expect_min.push_back(id);
        }
        if (expect_max.empty() || op > ref.at(expect_max[0]).cells[c].op) {
          expect_max.clear();
        }
        if (expect_max.empty() || op == ref.at(expect_max[0]).cells[c].op) {
          expect_max.push_back(id);
        }
      }
      auto range = table.RangeScan(c, lo, hi);
      ASSERT_TRUE(range.ok());
      EXPECT_EQ(Sorted(*range), expect);
      auto mn = table.ArgMinInRange(c, lo, hi);
      ASSERT_TRUE(mn.ok());
      EXPECT_EQ(Sorted(*mn), expect_min);
      auto mx = table.ArgMaxInRange(c, lo, hi);
      ASSERT_TRUE(mx.ok());
      EXPECT_EQ(Sorted(*mx), expect_max);
    }
  }

  // Snapshot bytes equal the map encoding, and survive a round trip.
  Buffer snap;
  table.SaveSnapshot(&snap);
  const Buffer expect_snap = ReferenceSnapshot(layout, ref);
  ASSERT_EQ(snap.size(), expect_snap.size());
  EXPECT_EQ(memcmp(snap.data(), expect_snap.data(), snap.size()), 0);
  Decoder dec(snap.AsSlice());
  auto loaded = ShareTable::LoadSnapshot(&dec);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  Buffer resnap;
  loaded->SaveSnapshot(&resnap);
  ASSERT_EQ(resnap.size(), snap.size());
  EXPECT_EQ(memcmp(resnap.data(), snap.data(), snap.size()), 0);
}

TEST(ShareTable, DifferentialAgainstMapReference) {
  // Seeded random Insert (appends, out-of-order ids, duplicates, revived
  // deleted ids), Update, Delete and AddSecretDeltas, checked after every
  // step. Phases alternate insert-heavy and delete-heavy so dead slots
  // outnumber live ones, and the table compacts, several times.
  Rng rng(0xC0FFEE);
  const std::vector<ProviderColumnLayout> layout = TestLayout();
  ShareTable table(layout);
  std::map<uint64_t, StoredRow> ref;
  std::vector<uint64_t> deleted;
  uint64_t next_id = 1;
  // Slot model: a dead id occupies a slot until the next compaction.
  std::set<uint64_t> dead_slots;
  size_t slots = 0, compactions = 0;

  for (int step = 0; step < 2400; ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    const bool grow_phase = (step / 200) % 2 == 0;
    const uint64_t roll = rng.Uniform(100);
    const uint64_t insert_pct = grow_phase ? 70 : 15;
    const uint64_t delete_pct = grow_phase ? 10 : 70;
    if (roll < insert_pct) {
      uint64_t id;
      const uint64_t how = rng.Uniform(10);
      if (how < 6 || next_id < 3) {
        id = next_id++;  // the client's rising ids
      } else if (how < 8 && !deleted.empty()) {
        id = deleted[rng.Uniform(deleted.size())];  // re-insert a dead id
      } else {
        id = rng.Uniform(next_id);  // out of order, maybe a duplicate
      }
      StoredRow row = RandomRow(id, layout, &rng);
      const Status st = table.Insert(row);
      if (ref.count(id) != 0) {
        EXPECT_TRUE(st.IsAlreadyExists());
      } else {
        ASSERT_TRUE(st.ok()) << st.ToString();
        ref.emplace(id, std::move(row));
        if (dead_slots.erase(id) == 0) ++slots;
      }
    } else if (roll < insert_pct + delete_pct) {
      if (ref.empty() || rng.Bernoulli(0.05)) {
        EXPECT_TRUE(table.Delete(next_id + 7).IsNotFound());
      } else {
        const uint64_t id = PickId(ref, &rng);
        ASSERT_TRUE(table.Delete(id).ok());
        EXPECT_TRUE(table.Delete(id).IsNotFound());
        ref.erase(id);
        deleted.push_back(id);
        dead_slots.insert(id);
        if (dead_slots.size() > slots - dead_slots.size()) {
          ++compactions;
          slots -= dead_slots.size();
          dead_slots.clear();
        }
      }
    } else if (roll < insert_pct + delete_pct + 10) {
      const uint64_t id = ref.empty() ? next_id : PickId(ref, &rng);
      StoredRow row = RandomRow(id, layout, &rng);
      const Status st = table.Update(row);
      if (ref.count(id) == 0) {
        EXPECT_TRUE(st.IsNotFound());
      } else {
        ASSERT_TRUE(st.ok());
        ref[id] = std::move(row);
      }
    } else {
      const uint64_t id = ref.empty() ? next_id : PickId(ref, &rng);
      std::vector<uint64_t> deltas(layout.size());
      for (auto& d : deltas) d = rng.Uniform(Fp61::kP);
      const Status st = table.AddSecretDeltas(id, deltas);
      if (ref.count(id) == 0) {
        EXPECT_TRUE(st.IsNotFound());
      } else {
        ASSERT_TRUE(st.ok());
        for (size_t c = 0; c < deltas.size(); ++c) {
          uint64_t& secret = ref[id].cells[c].secret;
          secret = (Fp61::FromCanonical(secret) +
                    Fp61::FromCanonical(deltas[c]))
                       .value();
        }
      }
    }
    ExpectMatchesReference(table, ref, next_id, &rng);
    if (HasFatalFailure()) return;
  }
  EXPECT_GE(compactions, 4u);
}

}  // namespace
}  // namespace ssdb
