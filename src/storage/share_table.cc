#include "storage/share_table.h"

#include <algorithm>
#include <mutex>
#include <shared_mutex>
#include <type_traits>
#include <utility>

#include "field/fp61.h"

namespace ssdb {

namespace {

// Rows are staged in a stack buffer and appended with one insert, so each
// row pays one Buffer grow check instead of one per field. Rows wider than
// the stage (16-byte header + at most 32 bytes per column) fall back to
// field-at-a-time Puts with identical output bytes.
constexpr size_t kRowStageBytes = 512;

inline bool RowFitsStage(size_t columns) {
  return 16 + 32 * columns <= kRowStageBytes;
}

// Encodes `row` (anything with row_id()/tag()/secret(c)/det(c)/op(c)),
// reading source column column_at(c) for output column c.
template <typename Row, typename ColumnAt>
inline void EncodeRowCells(const Row& row,
                           const std::vector<ProviderColumnLayout>& layout,
                           const ColumnAt& column_at, Buffer* buf) {
  if (RowFitsStage(layout.size())) {
    uint8_t stage[kRowStageBytes];
    uint8_t* p = StoreU64LE(stage, row.row_id());
    p = StoreU64LE(p, row.tag());
    for (size_t c = 0; c < layout.size(); ++c) {
      const size_t src = column_at(c);
      p = StoreU64LE(p, row.secret(src));
      if (layout[c].has_det) p = StoreU64LE(p, row.det(src));
      if (layout[c].has_op) {
        const u128 op = row.op(src);
        p = StoreU64LE(p, U128Lo(op));
        p = StoreU64LE(p, U128Hi(op));
      }
    }
    buf->Append(Slice(stage, static_cast<size_t>(p - stage)));
    return;
  }
  buf->PutU64(row.row_id());
  buf->PutU64(row.tag());
  for (size_t c = 0; c < layout.size(); ++c) {
    const size_t src = column_at(c);
    buf->PutU64(row.secret(src));
    if (layout[c].has_det) buf->PutU64(row.det(src));
    if (layout[c].has_op) buf->PutU128(row.op(src));
  }
}

// StoredRow behind the accessor interface EncodeRowCells reads.
struct StoredRowAccess {
  const StoredRow& r;
  uint64_t row_id() const { return r.row_id; }
  uint64_t tag() const { return r.tag; }
  uint64_t secret(size_t c) const { return r.cells[c].secret; }
  uint64_t det(size_t c) const { return r.cells[c].det; }
  u128 op(size_t c) const { return r.cells[c].op; }
};

inline size_t SameColumn(size_t c) { return c; }

}  // namespace

void EncodeStoredRow(const StoredRow& row,
                     const std::vector<ProviderColumnLayout>& layout,
                     Buffer* buf) {
  EncodeRowCells(StoredRowAccess{row}, layout, SameColumn, buf);
}

void EncodeStoredRowProjected(const StoredRow& row,
                              const std::vector<ProviderColumnLayout>& layout,
                              const std::vector<uint32_t>& columns,
                              Buffer* buf) {
  EncodeRowCells(StoredRowAccess{row}, layout,
                 [&](size_t c) -> size_t { return columns[c]; }, buf);
}

void EncodeStoredRow(const ShareTable::RowRef& row,
                     const std::vector<ProviderColumnLayout>& layout,
                     Buffer* buf) {
  EncodeRowCells(row, layout, SameColumn, buf);
}

void EncodeStoredRowProjected(const ShareTable::RowRef& row,
                              const std::vector<ProviderColumnLayout>& layout,
                              const std::vector<uint32_t>& columns,
                              Buffer* buf) {
  EncodeRowCells(row, layout,
                 [&](size_t c) -> size_t { return columns[c]; }, buf);
}

size_t StoredRowWireSize(const std::vector<ProviderColumnLayout>& layout) {
  size_t bytes = 8 + 8;  // row_id + tag
  for (const ProviderColumnLayout& c : layout) {
    bytes += 8;                    // secret share
    if (c.has_det) bytes += 8;     // deterministic share
    if (c.has_op) bytes += 16;     // order-preserving share
  }
  return bytes;
}

Status DecodeStoredRow(Decoder* dec,
                       const std::vector<ProviderColumnLayout>& layout,
                       StoredRow* out) {
  // Rows are fixed-width under a layout: one bounds check for the whole
  // row, then unaligned loads straight off the wire view.
  Slice raw;
  SSDB_RETURN_IF_ERROR(dec->GetRaw(StoredRowWireSize(layout), &raw));
  const uint8_t* p = raw.data();
  out->row_id = LoadU64LE(p);
  out->tag = LoadU64LE(p + 8);
  p += 16;
  out->cells.assign(layout.size(), StoredCell());
  for (size_t c = 0; c < layout.size(); ++c) {
    StoredCell& cell = out->cells[c];
    cell.secret = LoadU64LE(p);
    p += 8;
    if (layout[c].has_det) {
      cell.det = LoadU64LE(p);
      p += 8;
    }
    if (layout[c].has_op) {
      cell.op = MakeU128(LoadU64LE(p + 8), LoadU64LE(p));
      p += 16;
    }
  }
  return Status::OK();
}

StoredRow ShareTable::RowRef::ToStoredRow() const {
  StoredRow row;
  row.row_id = row_id();
  row.tag = tag();
  row.cells.resize(t_->layout_.size());
  for (size_t c = 0; c < row.cells.size(); ++c) {
    row.cells[c].secret = secret(c);
    if (t_->layout_[c].has_det) row.cells[c].det = det(c);
    if (t_->layout_[c].has_op) row.cells[c].op = op(c);
  }
  return row;
}

ShareTable::ShareTable(std::vector<ProviderColumnLayout> layout)
    : layout_(std::move(layout)),
      columns_(layout_.size()),
      det_index_(layout_.size()),
      op_index_(layout_.size()) {}

// Moves transfer the data but not the lock; callers must ensure no thread
// touches either side during the move (providers only move tables while
// holding their own exclusive state lock).
ShareTable::ShareTable(ShareTable&& o) noexcept
    : layout_(std::move(o.layout_)),
      row_ids_(std::move(o.row_ids_)),
      tags_(std::move(o.tags_)),
      live_(std::move(o.live_)),
      columns_(std::move(o.columns_)),
      dead_(std::exchange(o.dead_, 0)),
      det_index_(std::move(o.det_index_)),
      op_index_(std::move(o.op_index_)) {}

ShareTable& ShareTable::operator=(ShareTable&& o) noexcept {
  if (this != &o) {
    layout_ = std::move(o.layout_);
    row_ids_ = std::move(o.row_ids_);
    tags_ = std::move(o.tags_);
    live_ = std::move(o.live_);
    columns_ = std::move(o.columns_);
    dead_ = std::exchange(o.dead_, 0);
    det_index_ = std::move(o.det_index_);
    op_index_ = std::move(o.op_index_);
  }
  return *this;
}

size_t ShareTable::FindSlot(uint64_t row_id, size_t from) const {
  const auto it =
      std::lower_bound(row_ids_.begin() + static_cast<ptrdiff_t>(from),
                       row_ids_.end(), row_id);
  if (it == row_ids_.end() || *it != row_id) return kNoSlot;
  const size_t slot = static_cast<size_t>(it - row_ids_.begin());
  return live_[slot] ? slot : kNoSlot;
}

Status ShareTable::CheckRowShape(const StoredRow& row) const {
  if (row.cells.size() != layout_.size()) {
    return Status::InvalidArgument("share row arity mismatch");
  }
  return Status::OK();
}

void ShareTable::WriteSlot(size_t slot, const StoredRow& row) {
  tags_[slot] = row.tag;
  for (size_t c = 0; c < layout_.size(); ++c) {
    columns_[c].secret[slot] = row.cells[c].secret;
    if (layout_[c].has_det) columns_[c].det[slot] = row.cells[c].det;
    if (layout_[c].has_op) columns_[c].op[slot] = row.cells[c].op;
  }
}

void ShareTable::IndexSlot(size_t slot) {
  for (size_t c = 0; c < layout_.size(); ++c) {
    if (layout_[c].has_det) {
      det_index_[c].emplace(columns_[c].det[slot], row_ids_[slot]);
    }
    if (layout_[c].has_op) {
      op_index_[c].Insert(columns_[c].op[slot], row_ids_[slot]);
    }
  }
}

void ShareTable::UnindexSlot(size_t slot) {
  const uint64_t row_id = row_ids_[slot];
  for (size_t c = 0; c < layout_.size(); ++c) {
    if (layout_[c].has_det) {
      auto range = det_index_[c].equal_range(columns_[c].det[slot]);
      for (auto it = range.first; it != range.second; ++it) {
        if (it->second == row_id) {
          det_index_[c].erase(it);
          break;
        }
      }
    }
    if (layout_[c].has_op) {
      op_index_[c].Erase(columns_[c].op[slot], row_id);
    }
  }
}

template <typename Fn>
void ShareTable::ForEachArray(const Fn& fn) {
  fn(row_ids_);
  fn(tags_);
  for (size_t c = 0; c < layout_.size(); ++c) {
    fn(columns_[c].secret);
    if (layout_[c].has_det) fn(columns_[c].det);
    if (layout_[c].has_op) fn(columns_[c].op);
  }
  fn(live_);  // last: Compact reads it while moving the others
}

void ShareTable::Compact() {
  ForEachArray([this](auto& v) {
    size_t out = 0;
    for (size_t slot = 0; slot < v.size(); ++slot) {
      if (live_[slot]) v[out++] = v[slot];
    }
    v.resize(out);
  });
  dead_ = 0;
}

void ShareTable::Reserve(size_t rows) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  // Grow at least geometrically: a run of small chunked inserts must not
  // reallocate on every chunk.
  const size_t needed = row_ids_.size() + rows;
  if (needed <= row_ids_.capacity()) return;
  const size_t want = std::max(needed, 2 * row_ids_.capacity());
  ForEachArray([want](auto& v) { v.reserve(want); });
}

Status ShareTable::Insert(StoredRow row) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  SSDB_RETURN_IF_ERROR(CheckRowShape(row));
  const auto it =
      std::lower_bound(row_ids_.begin(), row_ids_.end(), row.row_id);
  const size_t slot = static_cast<size_t>(it - row_ids_.begin());
  if (it != row_ids_.end() && *it == row.row_id) {
    if (live_[slot]) {
      return Status::AlreadyExists("share row id already stored");
    }
    // Re-inserting a deleted id revives its slot in place.
    --dead_;
  } else {
    // Client row ids rise per table, so this is nearly always an append;
    // a lower id shifts the tail to keep the slots in id order.
    ForEachArray([slot](auto& v) {
      using T = typename std::decay_t<decltype(v)>::value_type;
      v.insert(v.begin() + static_cast<ptrdiff_t>(slot), T());
    });
    row_ids_[slot] = row.row_id;
  }
  live_[slot] = 1;
  WriteSlot(slot, row);
  IndexSlot(slot);
  return Status::OK();
}

Status ShareTable::Delete(uint64_t row_id) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  const size_t slot = FindSlot(row_id);
  if (slot == kNoSlot) {
    return Status::NotFound("share row id not stored");
  }
  UnindexSlot(slot);
  live_[slot] = 0;
  ++dead_;
  if (dead_ > row_ids_.size() - dead_) Compact();
  return Status::OK();
}

Status ShareTable::Update(StoredRow row) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  SSDB_RETURN_IF_ERROR(CheckRowShape(row));
  const size_t slot = FindSlot(row.row_id);
  if (slot == kNoSlot) {
    return Status::NotFound("share row id not stored");
  }
  UnindexSlot(slot);
  WriteSlot(slot, row);
  IndexSlot(slot);
  return Status::OK();
}

Status ShareTable::AddSecretDeltas(uint64_t row_id,
                                   const std::vector<uint64_t>& deltas) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  const size_t slot = FindSlot(row_id);
  if (slot == kNoSlot) {
    return Status::NotFound("share row id not stored");
  }
  if (deltas.size() != layout_.size()) {
    return Status::InvalidArgument("refresh delta arity mismatch");
  }
  for (size_t c = 0; c < deltas.size(); ++c) {
    if (deltas[c] >= Fp61::kP) {
      return Status::InvalidArgument("refresh delta not a field element");
    }
    uint64_t& secret = columns_[c].secret[slot];
    secret = (Fp61::FromCanonical(secret) + Fp61::FromCanonical(deltas[c]))
                 .value();
  }
  return Status::OK();
}

Result<StoredRow> ShareTable::Get(uint64_t row_id) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  const size_t slot = FindSlot(row_id);
  if (slot == kNoSlot) {
    return Status::NotFound("share row id not stored");
  }
  return RowRef(this, slot).ToStoredRow();
}

Result<std::vector<uint64_t>> ShareTable::ExactMatch(size_t column,
                                                     uint64_t det_share) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  if (column >= layout_.size()) {
    return Status::InvalidArgument("exact match: bad column index");
  }
  if (!layout_[column].has_det) {
    return Status::NotSupported(
        "exact match: column has no deterministic shares");
  }
  std::vector<uint64_t> out;
  auto range = det_index_[column].equal_range(det_share);
  for (auto it = range.first; it != range.second; ++it) {
    out.push_back(it->second);
  }
  std::sort(out.begin(), out.end());
  return out;
}

Result<std::vector<uint64_t>> ShareTable::RangeScan(size_t column, u128 op_lo,
                                                    u128 op_hi) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  if (column >= layout_.size()) {
    return Status::InvalidArgument("range scan: bad column index");
  }
  if (!layout_[column].has_op) {
    return Status::NotSupported(
        "range scan: column has no order-preserving shares");
  }
  return op_index_[column].Range(op_lo, op_hi);
}

Result<std::vector<uint64_t>> ShareTable::ArgMinInRange(size_t column,
                                                        u128 op_lo,
                                                        u128 op_hi) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  if (column >= layout_.size() || !layout_[column].has_op) {
    return Status::NotSupported("argmin: column has no order-preserving shares");
  }
  u128 key = 0;
  uint64_t value = 0;
  if (!op_index_[column].MinInRange(op_lo, op_hi, &key, &value)) {
    return std::vector<uint64_t>();
  }
  return op_index_[column].Equal(key);
}

Result<std::vector<uint64_t>> ShareTable::ArgMaxInRange(size_t column,
                                                        u128 op_lo,
                                                        u128 op_hi) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  if (column >= layout_.size() || !layout_[column].has_op) {
    return Status::NotSupported("argmax: column has no order-preserving shares");
  }
  u128 key = 0;
  uint64_t value = 0;
  if (!op_index_[column].MaxInRange(op_lo, op_hi, &key, &value)) {
    return std::vector<uint64_t>();
  }
  return op_index_[column].Equal(key);
}

std::vector<uint64_t> ShareTable::AllRowIds() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  std::vector<uint64_t> out;
  out.reserve(row_ids_.size() - dead_);
  for (size_t slot = 0; slot < row_ids_.size(); ++slot) {
    if (live_[slot]) out.push_back(row_ids_[slot]);
  }
  return out;
}

namespace {
constexpr uint32_t kSnapshotMagic = 0x53534442;  // "SSDB"
constexpr uint8_t kSnapshotVersion = 1;
}  // namespace

void ShareTable::SaveSnapshot(Buffer* out) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  out->PutU32(kSnapshotMagic);
  out->PutU8(kSnapshotVersion);
  out->PutVarint(layout_.size());
  for (const ProviderColumnLayout& c : layout_) c.EncodeTo(out);
  out->PutVarint(row_ids_.size() - dead_);
  for (size_t slot = 0; slot < row_ids_.size(); ++slot) {
    if (live_[slot]) EncodeStoredRow(RowRef(this, slot), layout_, out);
  }
}

Result<ShareTable> ShareTable::LoadSnapshot(Decoder* dec) {
  uint32_t magic = 0;
  SSDB_RETURN_IF_ERROR(dec->GetU32(&magic));
  if (magic != kSnapshotMagic) {
    return Status::Corruption("share table snapshot: bad magic");
  }
  uint8_t version = 0;
  SSDB_RETURN_IF_ERROR(dec->GetU8(&version));
  if (version != kSnapshotVersion) {
    return Status::NotSupported("share table snapshot: unknown version");
  }
  uint64_t cols = 0;
  SSDB_RETURN_IF_ERROR(dec->GetVarint(&cols));
  if (cols == 0 || cols > 4096) {
    return Status::Corruption("share table snapshot: implausible column count");
  }
  std::vector<ProviderColumnLayout> layout(cols);
  for (auto& c : layout) {
    SSDB_RETURN_IF_ERROR(ProviderColumnLayout::DecodeFrom(dec, &c));
  }
  ShareTable table(std::move(layout));
  uint64_t n = 0;
  SSDB_RETURN_IF_ERROR(dec->GetVarint(&n));
  table.Reserve(static_cast<size_t>(std::min<uint64_t>(
      n, dec->remaining() / StoredRowWireSize(table.layout()))));
  for (uint64_t i = 0; i < n; ++i) {
    StoredRow row;
    SSDB_RETURN_IF_ERROR(DecodeStoredRow(dec, table.layout(), &row));
    SSDB_RETURN_IF_ERROR(table.Insert(std::move(row)));
  }
  return table;
}

}  // namespace ssdb
