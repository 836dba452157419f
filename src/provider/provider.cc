#include "provider/provider.h"

#include <algorithm>
#include <mutex>
#include <shared_mutex>

#include "field/fp61.h"

namespace ssdb {

namespace {
using RowRef = ShareTable::RowRef;
}  // namespace

void Provider::AttachMetrics(MetricsRegistry* registry,
                             const std::string& label) {
  const MetricLabels labels = {{"provider", label}};
  metric_requests_ = registry->GetCounter("ssdb_provider_requests_total", labels);
  metric_rows_examined_ =
      registry->GetCounter("ssdb_provider_rows_examined_total", labels);
  metric_rows_returned_ =
      registry->GetCounter("ssdb_provider_rows_returned_total", labels);
  metric_index_lookups_ =
      registry->GetCounter("ssdb_provider_index_lookups_total", labels);
}

Result<Buffer> Provider::Handle(Slice request) {
  // A batch envelope counts as ONE request, mirroring the network's
  // one-call-per-envelope accounting.
  BumpRequests();
  Decoder dec(request);
  uint8_t type = 0;
  Buffer out;
  Status st = dec.GetU8(&type);
  if (st.ok()) {
    if (static_cast<MsgType>(type) == MsgType::kBatch) {
      st = HandleBatch(&dec, &out);
    } else {
      std::shared_lock<std::shared_mutex> read_lock(state_mu_,
                                                    std::defer_lock);
      std::unique_lock<std::shared_mutex> write_lock(state_mu_,
                                                     std::defer_lock);
      const bool mutating = IsMutatingMessage(static_cast<MsgType>(type));
      if (mutating) {
        write_lock.lock();
      } else {
        read_lock.lock();
      }
      st = Dispatch(static_cast<MsgType>(type), &dec, &out);
      if (mutating) {
        // WAL-log every dispatched mutating message, successful or not:
        // handlers are deterministic, so replaying a partially-applied
        // message reproduces the partial application exactly. Logged
        // under the exclusive lock — log order equals apply order.
        Status log_st = engine_->LogMutation(request);
        if (st.ok() && !log_st.ok()) st = log_st;
      }
    }
  }
  if (!st.ok()) {
    // Errors travel inside a well-formed response, never as a transport
    // failure (a malformed request must not crash or wedge a provider).
    Buffer err;
    EncodeErrorResponse(st, &err);
    return err;
  }
  return out;
}

Status Provider::Dispatch(MsgType type, Decoder* dec, Buffer* out) {
  switch (type) {
    case MsgType::kCreateTable:
      return HandleCreateTable(dec, out);
    case MsgType::kDropTable:
      return HandleDropTable(dec, out);
    case MsgType::kInsertRows:
      return HandleInsertRows(dec, out);
    case MsgType::kDeleteRows:
      return HandleDeleteRows(dec, out);
    case MsgType::kUpdateRows:
      return HandleUpdateRows(dec, out);
    case MsgType::kGetRows:
      return HandleGetRows(dec, out);
    case MsgType::kQuery:
      return HandleQuery(dec, out);
    case MsgType::kJoin:
      return HandleJoin(dec, out);
    case MsgType::kCreatePublicTable:
      return HandleCreatePublicTable(dec, out);
    case MsgType::kInsertPublicRows:
      return HandleInsertPublicRows(dec, out);
    case MsgType::kFetchPublicColumn:
      return HandleFetchPublicColumn(dec, out);
    case MsgType::kAttachShareIndex:
      return HandleAttachShareIndex(dec, out);
    case MsgType::kPublicFilter:
      return HandlePublicFilter(dec, out);
    case MsgType::kTableStats:
      return HandleTableStats(dec, out);
    case MsgType::kRefreshRows:
      return HandleRefreshRows(dec, out);
    case MsgType::kBatch:
      return Status::InvalidArgument("provider: nested batch envelope");
  }
  return Status::InvalidArgument("provider: unknown message type");
}

Status Provider::HandleBatch(Decoder* dec, Buffer* out) {
  std::vector<Slice> ops;
  SSDB_RETURN_IF_ERROR(DecodeBatchRequestPayload(dec, &ops));

  // One lock acquisition covers the whole envelope, exclusive iff any
  // sub-op mutates: a batch executes atomically with respect to other
  // messages, in sub-op order.
  std::shared_lock<std::shared_mutex> read_lock(state_mu_, std::defer_lock);
  std::unique_lock<std::shared_mutex> write_lock(state_mu_, std::defer_lock);
  bool mutating = false;
  for (const Slice& op : ops) {
    if (!op.empty() && IsMutatingMessage(static_cast<MsgType>(op.data()[0]))) {
      mutating = true;
      break;
    }
  }
  if (mutating) {
    write_lock.lock();
  } else {
    read_lock.lock();
  }

  // Per-op errors are embedded as error sub-responses inside an OK outer
  // envelope, so one malformed op can never mask its siblings' results.
  std::vector<Buffer> responses(ops.size());
  for (size_t i = 0; i < ops.size(); ++i) {
    Decoder op_dec(ops[i]);
    uint8_t sub_type = 0;
    Status st = op_dec.GetU8(&sub_type);
    if (st.ok()) {
      st = Dispatch(static_cast<MsgType>(sub_type), &op_dec, &responses[i]);
      // Mutating sub-ops are WAL-logged individually, in envelope order,
      // successful or not (see Handle) — replay re-applies the envelope's
      // effects op for op.
      if (IsMutatingMessage(static_cast<MsgType>(sub_type))) {
        SSDB_RETURN_IF_ERROR(engine_->LogMutation(ops[i]));
      }
    }
    if (!st.ok()) {
      responses[i].clear();
      EncodeErrorResponse(st, &responses[i]);
    }
  }
  EncodeOkHeader(out);
  EncodeBatchResponsePayload(responses, out);
  return Status::OK();
}

Result<ShareTable*> Provider::FindTable(uint32_t table_id) {
  auto& tables = engine_->state().tables;
  auto it = tables.find(table_id);
  if (it == tables.end()) {
    return Status::NotFound("provider: unknown table id");
  }
  return &it->second;
}

Result<PublicTable*> Provider::FindPublicTable(uint32_t table_id) {
  auto& public_tables = engine_->state().public_tables;
  auto it = public_tables.find(table_id);
  if (it == public_tables.end()) {
    return Status::NotFound("provider: unknown public table id");
  }
  return &it->second;
}

Result<const ShareTable*> Provider::GetTableForTest(uint32_t table_id) const {
  std::shared_lock<std::shared_mutex> lock(state_mu_);
  const auto& tables = engine_->state().tables;
  auto it = tables.find(table_id);
  if (it == tables.end()) {
    return Status::NotFound("provider: unknown table id");
  }
  return &it->second;
}

Status Provider::HandleCreateTable(Decoder* dec, Buffer* out) {
  uint32_t table_id = 0;
  SSDB_RETURN_IF_ERROR(dec->GetU32(&table_id));
  uint64_t n = 0;
  SSDB_RETURN_IF_ERROR(dec->GetVarint(&n));
  if (n == 0 || n > 4096) {
    return Status::InvalidArgument("provider: implausible column count");
  }
  std::vector<ProviderColumnLayout> layout(n);
  for (auto& c : layout) {
    SSDB_RETURN_IF_ERROR(ProviderColumnLayout::DecodeFrom(dec, &c));
  }
  auto& tables = engine_->state().tables;
  if (tables.count(table_id) != 0) {
    return Status::AlreadyExists("provider: table id already exists");
  }
  tables.emplace(table_id, ShareTable(std::move(layout)));
  EncodeOkHeader(out);
  return Status::OK();
}

Status Provider::HandleDropTable(Decoder* dec, Buffer* out) {
  uint32_t table_id = 0;
  SSDB_RETURN_IF_ERROR(dec->GetU32(&table_id));
  if (engine_->state().tables.erase(table_id) == 0) {
    return Status::NotFound("provider: unknown table id");
  }
  EncodeOkHeader(out);
  return Status::OK();
}

Status Provider::HandleInsertRows(Decoder* dec, Buffer* out) {
  uint32_t table_id = 0;
  SSDB_RETURN_IF_ERROR(dec->GetU32(&table_id));
  SSDB_ASSIGN_OR_RETURN(ShareTable * table, FindTable(table_id));
  uint64_t n = 0;
  SSDB_RETURN_IF_ERROR(dec->GetVarint(&n));
  // Size the arrays once for the rows the payload can actually hold (n
  // comes off the wire and is not trusted).
  table->Reserve(static_cast<size_t>(std::min<uint64_t>(
      n, dec->remaining() / StoredRowWireSize(table->layout()))));
  for (uint64_t i = 0; i < n; ++i) {
    StoredRow row;
    SSDB_RETURN_IF_ERROR(DecodeStoredRow(dec, table->layout(), &row));
    SSDB_RETURN_IF_ERROR(table->Insert(std::move(row)));
  }
  EncodeOkHeader(out);
  return Status::OK();
}

Status Provider::HandleDeleteRows(Decoder* dec, Buffer* out) {
  uint32_t table_id = 0;
  SSDB_RETURN_IF_ERROR(dec->GetU32(&table_id));
  SSDB_ASSIGN_OR_RETURN(ShareTable * table, FindTable(table_id));
  uint64_t n = 0;
  SSDB_RETURN_IF_ERROR(dec->GetVarint(&n));
  for (uint64_t i = 0; i < n; ++i) {
    uint64_t id = 0;
    SSDB_RETURN_IF_ERROR(dec->GetU64(&id));
    SSDB_RETURN_IF_ERROR(table->Delete(id));
  }
  EncodeOkHeader(out);
  return Status::OK();
}

Status Provider::HandleUpdateRows(Decoder* dec, Buffer* out) {
  uint32_t table_id = 0;
  SSDB_RETURN_IF_ERROR(dec->GetU32(&table_id));
  SSDB_ASSIGN_OR_RETURN(ShareTable * table, FindTable(table_id));
  uint64_t n = 0;
  SSDB_RETURN_IF_ERROR(dec->GetVarint(&n));
  for (uint64_t i = 0; i < n; ++i) {
    StoredRow row;
    SSDB_RETURN_IF_ERROR(DecodeStoredRow(dec, table->layout(), &row));
    SSDB_RETURN_IF_ERROR(table->Update(std::move(row)));
  }
  EncodeOkHeader(out);
  return Status::OK();
}

Status Provider::HandleGetRows(Decoder* dec, Buffer* out) {
  uint32_t table_id = 0;
  SSDB_RETURN_IF_ERROR(dec->GetU32(&table_id));
  SSDB_ASSIGN_OR_RETURN(ShareTable * table, FindTable(table_id));
  uint64_t n = 0;
  SSDB_RETURN_IF_ERROR(dec->GetVarint(&n));
  // n comes off the wire: refuse a count the payload cannot hold before
  // allocating for it.
  if (n > dec->remaining() / 8) {
    return Status::Corruption("provider: row id count exceeds payload");
  }
  std::vector<uint64_t> ids(n);
  for (uint64_t i = 0; i < n; ++i) {
    SSDB_RETURN_IF_ERROR(dec->GetU64(&ids[i]));
  }
  // Stream rows straight into the response under one table lock: on any
  // error the caller discards `out`, so the partial encode never leaks.
  EncodeOkHeader(out);
  out->PutVarint(ids.size());
  out->reserve(out->size() + ids.size() * StoredRowWireSize(table->layout()));
  SSDB_RETURN_IF_ERROR(table->VisitRows(ids, [&](const RowRef& row) {
    EncodeStoredRow(row, table->layout(), out);
    return Status::OK();
  }));
  BumpRowsReturned(ids.size());
  return Status::OK();
}

Result<bool> Provider::RowMatches(const ShareTable& table,
                                  const RowRef& row,
                                  const SharePredicate& pred) {
  if (pred.column >= table.num_columns()) {
    return Status::InvalidArgument("provider: predicate column out of range");
  }
  if (pred.kind == PredicateKind::kExactDet) {
    if (!table.layout()[pred.column].has_det) {
      return Status::NotSupported(
          "provider: exact predicate on column without deterministic shares");
    }
    return row.det(pred.column) == pred.det_share;
  }
  if (!table.layout()[pred.column].has_op) {
    return Status::NotSupported(
        "provider: range predicate on column without order-preserving shares");
  }
  const u128 op = row.op(pred.column);
  return op >= pred.op_lo && op <= pred.op_hi;
}

Result<std::vector<uint64_t>> Provider::EvaluatePredicates(
    const ShareTable& table, const std::vector<SharePredicate>& preds) {
  std::vector<uint64_t> candidates;
  if (preds.empty()) {
    candidates = table.AllRowIds();
    BumpRowsExamined(candidates.size());
    return candidates;
  }
  // The first predicate is the index access path; the rest are filtered.
  const SharePredicate& p = preds[0];
  BumpIndexLookups();
  if (p.kind == PredicateKind::kExactDet) {
    SSDB_ASSIGN_OR_RETURN(candidates, table.ExactMatch(p.column, p.det_share));
  } else {
    SSDB_ASSIGN_OR_RETURN(candidates,
                          table.RangeScan(p.column, p.op_lo, p.op_hi));
    std::sort(candidates.begin(), candidates.end());
  }
  BumpRowsExamined(candidates.size());
  if (preds.size() == 1) return candidates;

  std::vector<uint64_t> out;
  SSDB_RETURN_IF_ERROR(
      table.VisitRows(candidates, [&](const RowRef& row) -> Status {
        bool all = true;
        for (size_t i = 1; i < preds.size(); ++i) {
          SSDB_ASSIGN_OR_RETURN(bool m, RowMatches(table, row, preds[i]));
          if (!m) {
            all = false;
            break;
          }
        }
        if (all) out.push_back(row.row_id());
        return Status::OK();
      }));
  return out;
}

namespace {

/// Builds the projected layout and a projector for rows; an empty
/// projection keeps every column.
Status MakeProjection(const ShareTable& table,
                      const std::vector<uint32_t>& projection,
                      std::vector<ProviderColumnLayout>* layout_out,
                      std::vector<uint32_t>* columns_out) {
  if (projection.empty()) {
    *layout_out = table.layout();
    columns_out->resize(table.num_columns());
    for (uint32_t c = 0; c < table.num_columns(); ++c) (*columns_out)[c] = c;
    return Status::OK();
  }
  layout_out->clear();
  columns_out->clear();
  for (uint32_t c : projection) {
    if (c >= table.num_columns()) {
      return Status::InvalidArgument("provider: projection column out of range");
    }
    layout_out->push_back(table.layout()[c]);
    columns_out->push_back(c);
  }
  return Status::OK();
}

}  // namespace

Status Provider::HandleQuery(Decoder* dec, Buffer* out) {
  QueryRequest q;
  SSDB_RETURN_IF_ERROR(QueryRequest::DecodeFrom(dec, &q));
  SSDB_ASSIGN_OR_RETURN(ShareTable * table, FindTable(q.table_id));

  // A query with no predicates matches every row; visiting the table
  // directly (ascending row-id order, same as VisitRows over AllRowIds)
  // skips materializing the id list and one id search per row, and reads
  // each share array sequentially.
  const bool full_scan = q.predicates.empty();
  std::vector<uint64_t> ids;
  size_t matched = 0;
  if (full_scan) {
    matched = table->size();
    BumpRowsExamined(matched);
    if (q.action == QueryAction::kFetchRowIds) ids = table->AllRowIds();
  } else {
    SSDB_ASSIGN_OR_RETURN(ids, EvaluatePredicates(*table, q.predicates));
    matched = ids.size();
  }
  const auto visit_matched = [&](const auto& fn) -> Status {
    if (full_scan) return table->VisitAllRows(fn);
    return table->VisitRows(ids, fn);
  };

  std::vector<ProviderColumnLayout> proj_layout;
  std::vector<uint32_t> proj_columns;
  SSDB_RETURN_IF_ERROR(
      MakeProjection(*table, q.projection, &proj_layout, &proj_columns));

  switch (q.action) {
    case QueryAction::kFetchRows: {
      // One lock for the whole result, no intermediate row copies: each
      // matched row is projected straight into the response buffer.
      EncodeOkHeader(out);
      out->PutVarint(matched);
      out->reserve(out->size() + matched * StoredRowWireSize(proj_layout));
      SSDB_RETURN_IF_ERROR(visit_matched([&](const RowRef& row) {
        EncodeStoredRowProjected(row, proj_layout, proj_columns, out);
        return Status::OK();
      }));
      BumpRowsReturned(matched);
      return Status::OK();
    }
    case QueryAction::kGroupedSum: {
      if (q.target_column >= table->num_columns() ||
          q.group_column >= table->num_columns()) {
        return Status::InvalidArgument("provider: bad grouped-sum columns");
      }
      if (!table->layout()[q.group_column].has_det) {
        return Status::NotSupported(
            "provider: GROUP BY needs deterministic shares on the group "
            "column");
      }
      // Group matched rows by the group column's det share; groups are
      // identified across providers by their minimal row id.
      std::unordered_map<uint64_t, GroupPartial> groups;
      SSDB_RETURN_IF_ERROR(visit_matched([&](const RowRef& row) {
        auto [it, inserted] = groups.try_emplace(row.det(q.group_column));
        GroupPartial& g = it->second;
        if (inserted || row.row_id() < g.rep_row_id) {
          g.rep_row_id = row.row_id();
          g.key_share = row.secret(q.group_column);
        }
        g.sum_share = (Fp61::FromCanonical(g.sum_share) +
                       Fp61::FromCanonical(row.secret(q.target_column)))
                          .value();
        g.count++;
        return Status::OK();
      }));
      std::vector<GroupPartial> ordered;
      ordered.reserve(groups.size());
      for (auto& [det, g] : groups) ordered.push_back(g);
      std::sort(ordered.begin(), ordered.end(),
                [](const GroupPartial& a, const GroupPartial& b) {
                  return a.rep_row_id < b.rep_row_id;
                });
      EncodeOkHeader(out);
      EncodeGroupedAggResponse(ordered, out);
      return Status::OK();
    }
    case QueryAction::kFetchRowIds: {
      EncodeOkHeader(out);
      EncodeRowIdsResponse(ids, out);
      return Status::OK();
    }
    case QueryAction::kCount: {
      EncodeOkHeader(out);
      EncodeCountResponse(matched, out);
      return Status::OK();
    }
    case QueryAction::kPartialSum: {
      if (q.target_column >= table->num_columns()) {
        return Status::InvalidArgument("provider: bad aggregate target");
      }
      // Additive homomorphism: the sum of secret shares is a share of the
      // sum (all polynomials are evaluated at this provider's x_i).
      Fp61 sum;
      SSDB_RETURN_IF_ERROR(visit_matched([&](const RowRef& row) {
        sum += Fp61::FromCanonical(row.secret(q.target_column));
        return Status::OK();
      }));
      EncodeOkHeader(out);
      EncodeAggResponse(PartialAggregate{sum.value(), matched}, out);
      return Status::OK();
    }
    case QueryAction::kArgMin:
    case QueryAction::kArgMax:
    case QueryAction::kMedian: {
      if (q.target_column >= table->num_columns()) {
        return Status::InvalidArgument("provider: bad aggregate target");
      }
      if (!table->layout()[q.target_column].has_op) {
        return Status::NotSupported(
            "provider: MIN/MAX/MEDIAN need order-preserving shares on the "
            "target column");
      }
      if (matched == 0) {
        EncodeOkHeader(out);
        EncodeRowsResponse({}, proj_layout, out);
        return Status::OK();
      }
      // Rank matching rows by (op share, row id): identical at every
      // provider since op order mirrors value order. Pairs are distinct
      // (row ids are unique), so the order statistics below select exactly
      // the element a full sort would put at that rank — without the
      // O(n log n) sort.
      std::vector<std::pair<u128, uint64_t>> ordered;
      ordered.reserve(matched);
      SSDB_RETURN_IF_ERROR(visit_matched([&](const RowRef& row) {
        ordered.emplace_back(row.op(q.target_column), row.row_id());
        return Status::OK();
      }));
      std::vector<uint64_t> picked;
      if (q.action == QueryAction::kMedian) {
        const size_t mid = (ordered.size() - 1) / 2;
        std::nth_element(ordered.begin(),
                         ordered.begin() + static_cast<ptrdiff_t>(mid),
                         ordered.end());
        picked.push_back(ordered[mid].second);
      } else {
        u128 extreme = ordered.front().first;
        for (const auto& [op, id] : ordered) {
          if (q.action == QueryAction::kArgMin ? op < extreme : op > extreme) {
            extreme = op;
          }
        }
        for (const auto& [op, id] : ordered) {
          if (op == extreme) picked.push_back(id);
        }
        // Ties come out in visit order; sorted ids match the sorted-pairs
        // order the full sort produced.
        std::sort(picked.begin(), picked.end());
      }
      BumpRowsReturned(picked.size());
      EncodeOkHeader(out);
      out->PutVarint(picked.size());
      SSDB_RETURN_IF_ERROR(table->VisitRows(picked, [&](const RowRef& row) {
        EncodeStoredRowProjected(row, proj_layout, proj_columns, out);
        return Status::OK();
      }));
      return Status::OK();
    }
  }
  return Status::Internal("provider: unhandled query action");
}

Status Provider::HandleJoin(Decoder* dec, Buffer* out) {
  JoinRequest j;
  SSDB_RETURN_IF_ERROR(JoinRequest::DecodeFrom(dec, &j));
  SSDB_ASSIGN_OR_RETURN(ShareTable * left, FindTable(j.left_table));
  SSDB_ASSIGN_OR_RETURN(ShareTable * right, FindTable(j.right_table));
  if (j.left_column >= left->num_columns() ||
      j.right_column >= right->num_columns()) {
    return Status::InvalidArgument("provider: join column out of range");
  }
  if (!left->layout()[j.left_column].has_det ||
      !right->layout()[j.right_column].has_det) {
    return Status::NotSupported(
        "provider: join requires deterministic shares on both sides");
  }
  SSDB_ASSIGN_OR_RETURN(std::vector<uint64_t> left_ids,
                        EvaluatePredicates(*left, j.left_predicates));
  SSDB_ASSIGN_OR_RETURN(std::vector<uint64_t> right_ids,
                        EvaluatePredicates(*right, j.right_predicates));

  // Hash join on deterministic shares (equal shares <=> equal values for
  // same-domain attributes).
  std::unordered_multimap<uint64_t, uint64_t> build;
  build.reserve(right_ids.size());
  SSDB_RETURN_IF_ERROR(right->VisitRows(right_ids, [&](const RowRef& row) {
    build.emplace(row.det(j.right_column), row.row_id());
    return Status::OK();
  }));
  BumpRowsExamined(left_ids.size() + right_ids.size());

  // Two flat passes instead of per-pair point reads: pass 1 pins each
  // matching left row and lists its right row ids (sorted for
  // determinism); pass 2 pins the right rows in that order. Row refs stay
  // valid after the table locks drop because the provider's state lock
  // keeps mutators out for the whole request. Locks are never nested, so
  // self-joins (left == right) cannot re-enter one shared_mutex.
  std::vector<RowRef> lefts;
  std::vector<uint64_t> rid_seq;
  std::vector<uint64_t> rids;
  SSDB_RETURN_IF_ERROR(
      left->VisitRows(left_ids, [&](const RowRef& lrow) -> Status {
        auto range = build.equal_range(lrow.det(j.left_column));
        rids.clear();
        for (auto it = range.first; it != range.second; ++it) {
          rids.push_back(it->second);
        }
        std::sort(rids.begin(), rids.end());
        for (uint64_t rid : rids) {
          lefts.push_back(lrow);
          rid_seq.push_back(rid);
        }
        return Status::OK();
      }));
  std::vector<RowRef> rights;
  rights.reserve(rid_seq.size());
  SSDB_RETURN_IF_ERROR(right->VisitRows(rid_seq, [&](const RowRef& rrow) {
    rights.push_back(rrow);
    return Status::OK();
  }));
  BumpRowsReturned(2 * lefts.size());
  EncodeOkHeader(out);
  out->PutVarint(lefts.size());
  out->reserve(out->size() +
               lefts.size() * (StoredRowWireSize(left->layout()) +
                               StoredRowWireSize(right->layout())));
  for (size_t i = 0; i < lefts.size(); ++i) {
    EncodeStoredRow(lefts[i], left->layout(), out);
    EncodeStoredRow(rights[i], right->layout(), out);
  }
  return Status::OK();
}

Status Provider::HandleCreatePublicTable(Decoder* dec, Buffer* out) {
  uint32_t table_id = 0, num_columns = 0;
  SSDB_RETURN_IF_ERROR(dec->GetU32(&table_id));
  SSDB_RETURN_IF_ERROR(dec->GetU32(&num_columns));
  if (num_columns == 0 || num_columns > 4096) {
    return Status::InvalidArgument("provider: implausible public column count");
  }
  auto& public_tables = engine_->state().public_tables;
  if (public_tables.count(table_id) != 0) {
    return Status::AlreadyExists("provider: public table id already exists");
  }
  PublicTable t;
  t.num_columns = num_columns;
  public_tables.emplace(table_id, std::move(t));
  EncodeOkHeader(out);
  return Status::OK();
}

Status Provider::HandleInsertPublicRows(Decoder* dec, Buffer* out) {
  uint32_t table_id = 0;
  SSDB_RETURN_IF_ERROR(dec->GetU32(&table_id));
  SSDB_ASSIGN_OR_RETURN(PublicTable * table, FindPublicTable(table_id));
  uint64_t n = 0;
  SSDB_RETURN_IF_ERROR(dec->GetVarint(&n));
  for (uint64_t i = 0; i < n; ++i) {
    uint64_t cols = 0;
    SSDB_RETURN_IF_ERROR(dec->GetVarint(&cols));
    if (cols != table->num_columns) {
      return Status::InvalidArgument("provider: public row arity mismatch");
    }
    std::vector<Value> row(cols);
    for (auto& v : row) SSDB_RETURN_IF_ERROR(Value::DecodeFrom(dec, &v));
    table->rows.push_back(std::move(row));
  }
  EncodeOkHeader(out);
  return Status::OK();
}

Status Provider::HandleFetchPublicColumn(Decoder* dec, Buffer* out) {
  uint32_t table_id = 0, column = 0;
  SSDB_RETURN_IF_ERROR(dec->GetU32(&table_id));
  SSDB_RETURN_IF_ERROR(dec->GetU32(&column));
  SSDB_ASSIGN_OR_RETURN(PublicTable * table, FindPublicTable(table_id));
  if (column >= table->num_columns) {
    return Status::InvalidArgument("provider: public column out of range");
  }
  std::vector<std::vector<Value>> rows;
  std::vector<uint64_t> ids;
  for (size_t i = 0; i < table->rows.size(); ++i) {
    rows.push_back({table->rows[i][column]});
    ids.push_back(i);
  }
  BumpRowsReturned(rows.size());
  EncodeOkHeader(out);
  EncodePublicRowsResponse(rows, ids, out);
  return Status::OK();
}

Status Provider::HandleAttachShareIndex(Decoder* dec, Buffer* out) {
  uint32_t table_id = 0, column = 0;
  SSDB_RETURN_IF_ERROR(dec->GetU32(&table_id));
  SSDB_RETURN_IF_ERROR(dec->GetU32(&column));
  SSDB_ASSIGN_OR_RETURN(PublicTable * table, FindPublicTable(table_id));
  if (column >= table->num_columns) {
    return Status::InvalidArgument("provider: public column out of range");
  }
  uint64_t n = 0;
  SSDB_RETURN_IF_ERROR(dec->GetVarint(&n));
  PublicColumnIndex& idx = table->share_index[column];
  idx.det.clear();
  idx.op = BPlusTree();
  for (uint64_t i = 0; i < n; ++i) {
    ShareIndexEntry e;
    SSDB_RETURN_IF_ERROR(dec->GetU64(&e.row_id));
    SSDB_RETURN_IF_ERROR(dec->GetU64(&e.det_share));
    SSDB_RETURN_IF_ERROR(dec->GetU128(&e.op_share));
    if (e.row_id >= table->rows.size()) {
      return Status::InvalidArgument("provider: share index row out of range");
    }
    idx.det.emplace(e.det_share, e.row_id);
    idx.op.Insert(e.op_share, e.row_id);
  }
  EncodeOkHeader(out);
  return Status::OK();
}

Status Provider::HandlePublicFilter(Decoder* dec, Buffer* out) {
  uint32_t table_id = 0, column = 0;
  SSDB_RETURN_IF_ERROR(dec->GetU32(&table_id));
  SSDB_RETURN_IF_ERROR(dec->GetU32(&column));
  SharePredicate pred;
  SSDB_RETURN_IF_ERROR(SharePredicate::DecodeFrom(dec, &pred));
  SSDB_ASSIGN_OR_RETURN(PublicTable * table, FindPublicTable(table_id));
  auto idx_it = table->share_index.find(column);
  if (idx_it == table->share_index.end()) {
    return Status::NotSupported(
        "provider: no share index attached to this public column");
  }
  BumpIndexLookups();
  std::vector<uint64_t> ids;
  if (pred.kind == PredicateKind::kExactDet) {
    auto range = idx_it->second.det.equal_range(pred.det_share);
    for (auto it = range.first; it != range.second; ++it) {
      ids.push_back(it->second);
    }
    std::sort(ids.begin(), ids.end());
  } else {
    ids = idx_it->second.op.Range(pred.op_lo, pred.op_hi);
    std::sort(ids.begin(), ids.end());
  }
  std::vector<std::vector<Value>> rows;
  for (uint64_t id : ids) rows.push_back(table->rows[id]);
  BumpRowsReturned(rows.size());
  EncodeOkHeader(out);
  EncodePublicRowsResponse(rows, ids, out);
  return Status::OK();
}

Status Provider::HandleRefreshRows(Decoder* dec, Buffer* out) {
  uint32_t table_id = 0;
  SSDB_RETURN_IF_ERROR(dec->GetU32(&table_id));
  SSDB_ASSIGN_OR_RETURN(ShareTable * table, FindTable(table_id));
  uint64_t n = 0;
  SSDB_RETURN_IF_ERROR(dec->GetVarint(&n));
  for (uint64_t i = 0; i < n; ++i) {
    uint64_t row_id = 0;
    SSDB_RETURN_IF_ERROR(dec->GetU64(&row_id));
    uint64_t cols = 0;
    SSDB_RETURN_IF_ERROR(dec->GetVarint(&cols));
    if (cols != table->num_columns()) {
      return Status::InvalidArgument("provider: refresh delta arity mismatch");
    }
    std::vector<uint64_t> deltas(cols);
    for (auto& d : deltas) SSDB_RETURN_IF_ERROR(dec->GetU64(&d));
    SSDB_RETURN_IF_ERROR(table->AddSecretDeltas(row_id, deltas));
  }
  EncodeOkHeader(out);
  return Status::OK();
}

Status Provider::HandleTableStats(Decoder* dec, Buffer* out) {
  uint32_t table_id = 0;
  SSDB_RETURN_IF_ERROR(dec->GetU32(&table_id));
  SSDB_ASSIGN_OR_RETURN(ShareTable * table, FindTable(table_id));
  EncodeOkHeader(out);
  EncodeCountResponse(table->size(), out);
  return Status::OK();
}

// --- Durability & lifecycle ---------------------------------------------------

Status Provider::OpenStorage() {
  std::unique_lock<std::shared_mutex> lock(state_mu_);
  // Replay re-dispatches each logged wire message through the live
  // handlers (the lock is already held; Dispatch never takes it). The
  // mutating handlers bump no work counters, so recovery leaves
  // ProviderStats and the ssdb_provider_* series untouched.
  return engine_->Open(name_, [this](Slice record) {
    Decoder dec(record);
    uint8_t type = 0;
    SSDB_RETURN_IF_ERROR(dec.GetU8(&type));
    Buffer scratch;
    return Dispatch(static_cast<MsgType>(type), &dec, &scratch);
  });
}

void Provider::Crash() {
  std::unique_lock<std::shared_mutex> lock(state_mu_);
  engine_->Crash();
}

// --- Snapshots ---------------------------------------------------------------

void Provider::SaveSnapshot(Buffer* out) const {
  std::shared_lock<std::shared_mutex> lock(state_mu_);
  EncodeProviderState(engine_->state(), name_, out);
}

Status Provider::LoadSnapshot(Slice snapshot) {
  std::unique_lock<std::shared_mutex> lock(state_mu_);
  std::string name;
  ProviderState state;
  SSDB_RETURN_IF_ERROR(DecodeProviderState(snapshot, &name, &state));
  name_ = std::move(name);
  engine_->state() = std::move(state);
  return Status::OK();
}

Status Provider::SaveSnapshotToFile(const std::string& path) const {
  Buffer buf;
  SaveSnapshot(&buf);
  FILE* f = fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return Status::Internal("provider snapshot: cannot open " + path);
  }
  const size_t written = fwrite(buf.data(), 1, buf.size(), f);
  const int close_rc = fclose(f);
  if (written != buf.size() || close_rc != 0) {
    return Status::Internal("provider snapshot: short write to " + path);
  }
  return Status::OK();
}

Status Provider::LoadSnapshotFromFile(const std::string& path) {
  FILE* f = fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::NotFound("provider snapshot: cannot open " + path);
  }
  std::vector<uint8_t> bytes;
  uint8_t chunk[4096];
  size_t got = 0;
  while ((got = fread(chunk, 1, sizeof(chunk), f)) > 0) {
    bytes.insert(bytes.end(), chunk, chunk + got);
  }
  fclose(f);
  return LoadSnapshot(Slice(bytes));
}

}  // namespace ssdb
