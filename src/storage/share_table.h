// Provider-side storage of share rows.
//
// A provider never sees plaintext. For every client row it stores, per
// column, up to three share representations (see codec/schema.h):
//   secret : uint64  — random Shamir share (always present),
//   det    : uint64  — deterministic Shamir share (exact-match columns),
//   op     : u128    — order-preserving share (range columns).
// Rows carry the client-assigned row id (shared across providers so
// responses can be joined back together) and an optional client-computed
// integrity tag.
//
// Layout: struct-of-arrays kept in ascending row-id order — one row-id
// array, one tag array and, per column, a secret array plus det / op
// arrays only where the layout has those shares. A full scan reads only
// the arrays it needs, sequentially. Delete marks a slot dead; the table
// compacts once dead slots outnumber live ones (amortized O(1)).
//
// Indexes: a hash index per exact-match column (det share -> row ids) and
// a B+-tree per range column (op share -> row ids).
//
// Thread-safety: each table owns a reader/writer lock — mutators take it
// exclusively, read paths take it shared — so concurrent fan-out legs can
// read one table while another is being written. A RowRef (handed to
// visitors) is valid until the next mutation of its table; the provider
// serializes mutating messages against reads, which upholds that. Visits
// run in ascending row-id order. Move construction/assignment are NOT
// synchronized against concurrent use.

#ifndef SSDB_STORAGE_SHARE_TABLE_H_
#define SSDB_STORAGE_SHARE_TABLE_H_

#include <cstdint>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "codec/schema.h"
#include "common/buffer.h"
#include "common/status.h"
#include "storage/btree.h"

namespace ssdb {

/// One column's stored shares within a row.
struct StoredCell {
  uint64_t secret = 0;  ///< Random Shamir share (Fp61 canonical value).
  uint64_t det = 0;     ///< Deterministic share; valid iff layout.has_det.
  u128 op = 0;          ///< Order-preserving share; valid iff layout.has_op.
};

/// One stored row of shares.
struct StoredRow {
  uint64_t row_id = 0;
  std::vector<StoredCell> cells;
  uint64_t tag = 0;  ///< Client integrity tag (HMAC truncation); 0 if unused.
};

/// Wire encoding of rows (used in updates and query responses).
void EncodeStoredRow(const StoredRow& row,
                     const std::vector<ProviderColumnLayout>& layout,
                     Buffer* buf);
/// Encodes the projection `columns` of `row`: byte-identical to projecting
/// the row into a temporary and encoding that with the projected layout,
/// without materializing the copy. `layout[c]` describes `columns[c]`.
void EncodeStoredRowProjected(const StoredRow& row,
                              const std::vector<ProviderColumnLayout>& layout,
                              const std::vector<uint32_t>& columns,
                              Buffer* buf);
/// Exact wire size of EncodeStoredRow output for one row under `layout`
/// (rows are fixed-width per layout), for reserve-exact encoding.
size_t StoredRowWireSize(const std::vector<ProviderColumnLayout>& layout);
Status DecodeStoredRow(Decoder* dec,
                       const std::vector<ProviderColumnLayout>& layout,
                       StoredRow* out);

/// \brief One table's share storage plus its indexes at a single provider.
class ShareTable {
 public:
  /// Borrowed view of one stored row, valid until the next mutation of the
  /// table it came from. det(c) / op(c) are valid iff layout()[c] has them.
  class RowRef {
   public:
    uint64_t row_id() const { return t_->row_ids_[slot_]; }
    uint64_t tag() const { return t_->tags_[slot_]; }
    uint64_t secret(size_t c) const { return t_->columns_[c].secret[slot_]; }
    uint64_t det(size_t c) const { return t_->columns_[c].det[slot_]; }
    u128 op(size_t c) const { return t_->columns_[c].op[slot_]; }
    /// Copies the row out (absent det/op shares read as 0).
    StoredRow ToStoredRow() const;

   private:
    friend class ShareTable;
    RowRef(const ShareTable* t, size_t slot) : t_(t), slot_(slot) {}
    const ShareTable* t_;
    size_t slot_;
  };

  explicit ShareTable(std::vector<ProviderColumnLayout> layout);

  ShareTable(const ShareTable&) = delete;
  ShareTable& operator=(const ShareTable&) = delete;
  ShareTable(ShareTable&&) noexcept;
  ShareTable& operator=(ShareTable&&) noexcept;

  const std::vector<ProviderColumnLayout>& layout() const { return layout_; }
  size_t num_columns() const { return layout_.size(); }
  size_t size() const {
    std::shared_lock<std::shared_mutex> lock(mu_);
    return row_ids_.size() - dead_;
  }

  /// Makes room for `rows` more rows, so a bulk insert grows each array
  /// once instead of doubling through it.
  void Reserve(size_t rows);

  /// Inserts a row (row_id must be new); maintains all indexes. Ids above
  /// every stored id append; lower ids are placed in order.
  Status Insert(StoredRow row);

  /// Removes a row by id.
  Status Delete(uint64_t row_id);

  /// Replaces an existing row (same row_id) with new shares.
  Status Update(StoredRow row);

  /// Adds `deltas[c]` (mod p) to every column's random secret share of the
  /// row. Deterministic and order-preserving shares are untouched, so no
  /// index maintenance is needed — this is the proactive-refresh path.
  Status AddSecretDeltas(uint64_t row_id, const std::vector<uint64_t>& deltas);

  /// Point read by row id (a copy).
  Result<StoredRow> Get(uint64_t row_id) const;

  /// Visits the listed rows, in list order, under ONE shared-lock
  /// acquisition — the batched form of Get for handlers that touch many
  /// rows per request. Ascending runs of ids are found by a forward
  /// search from the previous hit. Fails with Get's NotFound on the first
  /// missing id; a non-OK status from `visit` aborts the walk and is
  /// returned as-is.
  template <typename Fn>
  Status VisitRows(const std::vector<uint64_t>& ids, Fn&& visit) const {
    std::shared_lock<std::shared_mutex> lock(mu_);
    size_t from = 0;
    uint64_t prev = 0;
    for (uint64_t id : ids) {
      if (id < prev) from = 0;
      const size_t slot = FindSlot(id, from);
      if (slot == kNoSlot) {
        return Status::NotFound("share row id not stored");
      }
      Status st = visit(RowRef(this, slot));
      if (!st.ok()) return st;
      from = slot;
      prev = id;
    }
    return Status::OK();
  }

  /// Visits every live row in ascending row-id order under one shared-lock
  /// acquisition. Byte-for-byte equivalent to VisitRows(AllRowIds(), fn)
  /// without materializing the id list or searching per row.
  template <typename Fn>
  Status VisitAllRows(Fn&& visit) const {
    std::shared_lock<std::shared_mutex> lock(mu_);
    for (size_t slot = 0; slot < row_ids_.size(); ++slot) {
      if (dead_ != 0 && !live_[slot]) continue;
      Status st = visit(RowRef(this, slot));
      if (!st.ok()) return st;
    }
    return Status::OK();
  }

  /// Row ids whose deterministic share in `column` equals `det_share`.
  Result<std::vector<uint64_t>> ExactMatch(size_t column,
                                           uint64_t det_share) const;

  /// Row ids whose order-preserving share in `column` is within
  /// [op_lo, op_hi], in ascending share order.
  Result<std::vector<uint64_t>> RangeScan(size_t column, u128 op_lo,
                                          u128 op_hi) const;

  /// Row ids of the minimal / maximal order-preserving share within
  /// [op_lo, op_hi] (all ties). Empty if no row qualifies.
  Result<std::vector<uint64_t>> ArgMinInRange(size_t column, u128 op_lo,
                                              u128 op_hi) const;
  Result<std::vector<uint64_t>> ArgMaxInRange(size_t column, u128 op_lo,
                                              u128 op_hi) const;

  /// All row ids (ascending).
  std::vector<uint64_t> AllRowIds() const;

  /// Serializes layout + all rows (snapshot format, versioned).
  void SaveSnapshot(Buffer* out) const;
  /// Rebuilds a table (including its indexes) from a snapshot.
  static Result<ShareTable> LoadSnapshot(Decoder* dec);

 private:
  /// One column's share arrays, parallel to row_ids_; det / op stay empty
  /// for columns whose layout lacks them.
  struct ColumnShares {
    std::vector<uint64_t> secret;
    std::vector<uint64_t> det;
    std::vector<u128> op;
  };

  static constexpr size_t kNoSlot = ~static_cast<size_t>(0);

  /// Slot of live row `row_id`, searching [from, end); kNoSlot if absent
  /// or dead.
  size_t FindSlot(uint64_t row_id, size_t from = 0) const;
  Status CheckRowShape(const StoredRow& row) const;
  void WriteSlot(size_t slot, const StoredRow& row);
  void IndexSlot(size_t slot);
  void UnindexSlot(size_t slot);
  /// Applies `fn` to every slot-parallel array (the ids, tags, present
  /// share arrays and live flags).
  template <typename Fn>
  void ForEachArray(const Fn& fn);
  void Compact();

  mutable std::shared_mutex mu_;
  std::vector<ProviderColumnLayout> layout_;
  // Slots in ascending row-id order; a deleted slot keeps its id (so the
  // order holds) and is skipped until Compact drops it.
  std::vector<uint64_t> row_ids_;
  std::vector<uint64_t> tags_;
  std::vector<uint8_t> live_;
  std::vector<ColumnShares> columns_;
  size_t dead_ = 0;
  // Per-column indexes (empty containers for columns without the share).
  std::vector<std::unordered_multimap<uint64_t, uint64_t>> det_index_;
  std::vector<BPlusTree> op_index_;
};

/// Row-reference forms of the encoders above: the same bytes as encoding
/// ref.ToStoredRow(), straight from the table's arrays.
void EncodeStoredRow(const ShareTable::RowRef& row,
                     const std::vector<ProviderColumnLayout>& layout,
                     Buffer* buf);
void EncodeStoredRowProjected(const ShareTable::RowRef& row,
                              const std::vector<ProviderColumnLayout>& layout,
                              const std::vector<uint32_t>& columns,
                              Buffer* buf);

}  // namespace ssdb

#endif  // SSDB_STORAGE_SHARE_TABLE_H_
