// The Database Service Provider (DAS_i).
//
// A Provider is one of the n independent services the data source
// outsources to. It stores share rows (storage/share_table.h) and answers
// the share-space protocol of provider/protocol.h. It never holds
// plaintext, the sharing polynomials, or the secret evaluation points —
// everything it can compute is computable from the shares alone, which is
// the Section III security argument.
//
// Providers may additionally host *public* plaintext tables (restaurant
// directories, watch lists — §V.D). A client can attach a private share
// index over a public column, after which it can filter public data with
// share-space predicates without revealing which rows it cares about on a
// per-query basis.

#ifndef SSDB_PROVIDER_PROVIDER_H_
#define SSDB_PROVIDER_PROVIDER_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/network.h"
#include "provider/protocol.h"
#include "storage/btree.h"
#include "storage/engine.h"
#include "storage/share_table.h"

namespace ssdb {

/// Provider-side work counters (for the benchmarks' cost accounting).
/// Fields are atomic so concurrent fan-out legs can bump them racelessly;
/// they read as plain uint64_t.
struct ProviderStats {
  std::atomic<uint64_t> requests{0};
  std::atomic<uint64_t> rows_examined{0};  ///< Rows touched by filters/joins.
  std::atomic<uint64_t> rows_returned{0};  ///< Share rows shipped back.
  std::atomic<uint64_t> index_lookups{0};
};

/// \brief One database service provider.
///
/// The Provider owns the protocol: request decoding, locking, handler
/// dispatch and response encoding. All stored state — share tables and
/// hosted public tables — lives in a pluggable StorageEngine
/// (storage/engine.h): MemoryEngine (the default; the seed system's
/// RAM-only behavior) or DurableEngine (per-provider WAL + snapshots,
/// surviving Crash()/Restart()).
class Provider : public ProviderEndpoint {
 public:
  /// A null `engine` means MemoryEngine (the seed system's provider).
  explicit Provider(std::string name,
                    std::unique_ptr<StorageEngine> engine = nullptr)
      : name_(std::move(name)),
        engine_(engine != nullptr ? std::move(engine)
                                  : std::make_unique<MemoryEngine>()) {}

  // ProviderEndpoint:
  Result<Buffer> Handle(Slice request) override;
  std::string name() const override { return name_; }

  const ProviderStats& stats() const { return stats_; }
  void ResetStats() {
    stats_.requests = 0;
    stats_.rows_examined = 0;
    stats_.rows_returned = 0;
    stats_.index_lookups = 0;
  }

  /// Mirrors every ProviderStats bump into `registry` under the
  /// `ssdb_provider_*` series, labelled {provider: `label`}. Handles are
  /// cached, so each bump is one extra relaxed atomic add; registry
  /// totals track stats() exactly from any common reset point.
  void AttachMetrics(MetricsRegistry* registry, const std::string& label);

  /// Number of share tables currently hosted.
  size_t num_tables() const {
    std::shared_lock<std::shared_mutex> lock(state_mu_);
    return engine_->state().tables.size();
  }

  /// Total share rows hosted across all tables. Under a multi-shard
  /// topology this is the provider's partition of the row space, so the
  /// per-group sums expose the partitioner's balance (sql_shell TOPOLOGY).
  size_t num_rows() const {
    std::shared_lock<std::shared_mutex> lock(state_mu_);
    size_t total = 0;
    for (const auto& [id, table] : engine_->state().tables) {
      total += table.size();
    }
    return total;
  }

  /// Direct (test-only) access to a hosted table.
  Result<const ShareTable*> GetTableForTest(uint32_t table_id) const;

  // --- Durability & lifecycle -------------------------------------------

  /// The storage engine backing this provider's state.
  StorageEngine& engine() { return *engine_; }
  const StorageEngine& engine() const { return *engine_; }

  /// Opens the storage engine: for a DurableEngine this loads the last
  /// snapshot and redo-replays the WAL through the provider's own
  /// handlers; for MemoryEngine it is a no-op. Called once after
  /// construction (OutsourcedDatabase::Create) and again by Restart().
  Status OpenStorage();

  /// Simulates process death: all in-memory state is dropped without any
  /// flush. Combine with FailureMode::kKill on the network link so
  /// in-flight and subsequent calls fail Unavailable.
  void Crash();

  /// Restarts a crashed provider from durable storage: snapshot load +
  /// WAL replay (MemoryEngine restarts empty). The caller resyncs missed
  /// writes afterwards (DataSourceClient::ResyncProvider).
  Status Restart() { return OpenStorage(); }

  /// Mirrors the engine's `ssdb_wal_*` / `ssdb_recovery_*` counters into
  /// `registry`. Only durable deployments attach this, so MemoryEngine
  /// telemetry exports stay byte-identical to the seed.
  void AttachDurabilityMetrics(MetricsRegistry* registry,
                               const std::string& label) {
    engine_->AttachMetrics(registry, label);
  }

  /// Serializes the provider's entire state — share tables, public tables
  /// and attached share indexes — so a provider process can restart from
  /// durable storage (the paper's "reliable data storage" promise).
  void SaveSnapshot(Buffer* out) const;
  /// Replaces the provider's state with a snapshot's.
  Status LoadSnapshot(Slice snapshot);
  /// File-based convenience wrappers.
  Status SaveSnapshotToFile(const std::string& path) const;
  Status LoadSnapshotFromFile(const std::string& path);

 private:
  /// Runs one already-typed message under the caller-held state lock and
  /// appends its full response. Rejects kBatch (no nested envelopes).
  Status Dispatch(MsgType type, Decoder* dec, Buffer* out);
  /// Executes a batch envelope: every sub-op runs in order under one lock
  /// acquisition, per-op errors are embedded as error sub-responses inside
  /// an OK outer response (net/batch.h).
  Status HandleBatch(Decoder* dec, Buffer* out);

  // Dispatch helpers; each appends its full response (header + payload).
  Status HandleCreateTable(Decoder* dec, Buffer* out);
  Status HandleDropTable(Decoder* dec, Buffer* out);
  Status HandleInsertRows(Decoder* dec, Buffer* out);
  Status HandleDeleteRows(Decoder* dec, Buffer* out);
  Status HandleUpdateRows(Decoder* dec, Buffer* out);
  Status HandleGetRows(Decoder* dec, Buffer* out);
  Status HandleQuery(Decoder* dec, Buffer* out);
  Status HandleJoin(Decoder* dec, Buffer* out);
  Status HandleCreatePublicTable(Decoder* dec, Buffer* out);
  Status HandleInsertPublicRows(Decoder* dec, Buffer* out);
  Status HandleFetchPublicColumn(Decoder* dec, Buffer* out);
  Status HandleAttachShareIndex(Decoder* dec, Buffer* out);
  Status HandlePublicFilter(Decoder* dec, Buffer* out);
  Status HandleTableStats(Decoder* dec, Buffer* out);
  Status HandleRefreshRows(Decoder* dec, Buffer* out);

  Result<ShareTable*> FindTable(uint32_t table_id);
  Result<PublicTable*> FindPublicTable(uint32_t table_id);

  /// Row ids satisfying all predicates (ascending); uses the first
  /// indexable predicate as the access path and filters the rest.
  Result<std::vector<uint64_t>> EvaluatePredicates(
      const ShareTable& table, const std::vector<SharePredicate>& preds);

  /// True iff `row` satisfies `pred`.
  static Result<bool> RowMatches(const ShareTable& table,
                                 const ShareTable::RowRef& row,
                                 const SharePredicate& pred);

  // Stats bumps route through these so the registry mirror stays exact.
  void BumpRequests() {
    ++stats_.requests;
    if (metric_requests_ != nullptr) metric_requests_->Inc();
  }
  void BumpRowsExamined(uint64_t n) {
    stats_.rows_examined += n;
    if (metric_rows_examined_ != nullptr && n) metric_rows_examined_->Inc(n);
  }
  void BumpRowsReturned(uint64_t n) {
    stats_.rows_returned += n;
    if (metric_rows_returned_ != nullptr && n) metric_rows_returned_->Inc(n);
  }
  void BumpIndexLookups() {
    ++stats_.index_lookups;
    if (metric_index_lookups_ != nullptr) metric_index_lookups_->Inc();
  }

  std::string name_;
  ProviderStats stats_;
  MetricCounter* metric_requests_ = nullptr;
  MetricCounter* metric_rows_examined_ = nullptr;
  MetricCounter* metric_rows_returned_ = nullptr;
  MetricCounter* metric_index_lookups_ = nullptr;
  /// Guards the engine's table maps (not the tables' contents — each
  /// ShareTable has its own lock). Handle takes it exclusively for
  /// messages that create, drop or rewrite tables, shared otherwise, so
  /// read-only fan-out legs proceed in parallel while DDL/DML serializes
  /// against them. WAL appends happen under the exclusive lock, so each
  /// provider's log order equals its apply order.
  mutable std::shared_mutex state_mu_;
  std::unique_ptr<StorageEngine> engine_;
};

}  // namespace ssdb

#endif  // SSDB_PROVIDER_PROVIDER_H_
