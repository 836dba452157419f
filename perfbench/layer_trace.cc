#include "layer_trace.h"

#include <algorithm>
#include <chrono>
#include <iterator>
#include <unordered_map>

namespace perfbench {

namespace {

// The leg span the calling thread is inside, so a WAL append finds its
// parent. Provider::Handle runs LogMutation on the thread that called it.
thread_local uint64_t t_current_leg = 0;

double Us(int64_t ns) { return static_cast<double>(ns) / 1e3; }

}  // namespace

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

ssdb::Result<ssdb::Buffer> TracedEndpoint::Handle(ssdb::Slice request) {
  LegSpan span;
  span.id = recorder_->NextLegId();
  span.op = recorder_->current_op();
  span.msg_type = request.size() > 0 ? request.data()[0] : 0;
  const uint64_t outer = t_current_leg;
  t_current_leg = span.id;
  span.start_ns = NowNs();
  ssdb::Result<ssdb::Buffer> response = provider_->Handle(request);
  span.end_ns = NowNs();
  t_current_leg = outer;
  recorder_->AddLeg(span);
  return response;
}

ssdb::Status TimedDurableEngine::LogMutation(ssdb::Slice request) {
  WalSpan span;
  span.leg = t_current_leg;
  span.bytes = request.size();
  const uint64_t checkpoints_before = checkpoints();
  span.start_ns = NowNs();
  ssdb::Status status = DurableEngine::LogMutation(request);
  span.end_ns = NowNs();
  span.checkpoint = checkpoints() > checkpoints_before;
  recorder_->AddWal(span);
  return status;
}

ssdb::Result<std::unique_ptr<TracedDeployment>> BuildTracedDeployment(
    const ssdb::OutsourcedDbOptions& options, SpanRecorder* recorder) {
  using ssdb::StorageOptions;
  const ssdb::Topology& topo = options.topology;
  const bool durable =
      options.storage.backend == StorageOptions::Backend::kDurable;
  auto d = std::make_unique<TracedDeployment>();
  d->network = std::make_unique<ssdb::Network>(
      options.network, /*failure_seed=*/0xFA11, options.fanout_threads);
  std::vector<size_t> indices;
  for (size_t i = 0; i < topo.total_providers(); ++i) {
    const std::string name =
        topo.shards <= 1
            ? "DAS" + std::to_string(i + 1)
            : "S" + std::to_string(i / topo.providers_per_shard + 1) +
                  "-DAS" + std::to_string(i % topo.providers_per_shard + 1);
    std::unique_ptr<ssdb::StorageEngine> engine;
    if (durable) {
      ssdb::DurableEngineOptions eng;
      eng.dir = options.storage.dir + "/" + name;
      eng.snapshot_every = options.storage.wal_snapshot_every;
      engine = std::make_unique<TimedDurableEngine>(std::move(eng), recorder);
    }
    auto provider = std::make_shared<ssdb::Provider>(name, std::move(engine));
    SSDB_RETURN_IF_ERROR(provider->OpenStorage());
    indices.push_back(d->network->AddProvider(
        std::make_shared<TracedEndpoint>(provider, recorder)));
    d->providers.push_back(std::move(provider));
  }
  ssdb::ClientOptions client_options = options.client;
  client_options.topology = topo;
  SSDB_ASSIGN_OR_RETURN(
      d->client, ssdb::DataSourceClient::Create(d->network.get(), indices,
                                                client_options));
  ssdb::MetricsRegistry* registry = d->client->metrics();
  d->network->AttachMetrics(registry);
  if (d->client->shards() > 1) {
    std::vector<size_t> shard_of(d->network->num_providers(), 0);
    for (size_t i = 0; i < indices.size(); ++i) {
      shard_of[indices[i]] = i / d->client->providers_per_shard();
    }
    d->network->AttachShardMetrics(registry, shard_of);
  }
  for (size_t i = 0; i < d->providers.size(); ++i) {
    d->providers[i]->AttachMetrics(registry, std::to_string(indices[i]));
    if (durable) {
      d->providers[i]->AttachDurabilityMetrics(registry,
                                               std::to_string(indices[i]));
    }
  }
  d->faults = std::make_unique<ssdb::FaultController>(d->network.get());
  d->faults->AttachScoreboard(d->client->scoreboard());
  TracedDeployment* raw = d.get();
  d->faults->AttachLifecycle(
      [raw](size_t i) {
        raw->providers[i]->Crash();
        raw->client->BeginProviderOutage(i);
      },
      [raw](size_t i) {
        SSDB_RETURN_IF_ERROR(raw->providers[i]->Restart());
        return raw->client->ResyncProvider(i);
      });
  return d;
}

std::string MsgTypeName(uint8_t type) {
  static const char* const kNames[] = {
      "unknown",      "create_table",   "drop_table",
      "insert_rows",  "delete_rows",    "update_rows",
      "get_rows",     "query",          "join",
      "create_public_table", "insert_public_rows", "fetch_public_column",
      "attach_share_index",  "public_filter",      "table_stats",
      "refresh_rows", "batch"};
  return type < std::size(kNames) ? kNames[type] : "unknown";
}

SpanSummary Summarize(const SpanRecorder& recorder) {
  SpanSummary out;
  std::unordered_map<uint64_t, const OpSpan*> ops;
  for (const OpSpan& op : recorder.ops()) {
    ops.emplace(op.id, &op);
    out.queries += op.weight;
    out.op_us += Us(op.end_ns - op.start_ns);
  }

  // WAL time inside each leg (appends on one leg run sequentially on its
  // thread, so their durations add without overlap).
  std::unordered_map<uint64_t, int64_t> wal_ns_of_leg;
  std::unordered_map<uint64_t, uint64_t> op_of_leg;
  for (const LegSpan& leg : recorder.legs()) op_of_leg[leg.id] = leg.op;
  for (const WalSpan& wal : recorder.wal()) {
    auto leg = op_of_leg.find(wal.leg);
    if (leg == op_of_leg.end() || ops.count(leg->second) == 0) continue;
    wal_ns_of_leg[wal.leg] += wal.end_ns - wal.start_ns;
    out.wal_bytes += wal.bytes;
    if (wal.checkpoint) {
      out.checkpoint_ms.push_back(Us(wal.end_ns - wal.start_ns) / 1e3);
    } else {
      out.wal_append_us.push_back(Us(wal.end_ns - wal.start_ns));
    }
  }

  // Legs grouped by op: busy = sum, critical = union clipped to the op.
  std::unordered_map<uint64_t, std::vector<std::pair<int64_t, int64_t>>>
      intervals;
  for (const LegSpan& leg : recorder.legs()) {
    auto op = ops.find(leg.op);
    if (op == ops.end()) continue;
    const int64_t dur = leg.end_ns - leg.start_ns;
    out.provider_busy_us += Us(dur);
    SpanSummary::PerType& type = out.per_type[MsgTypeName(leg.msg_type)];
    ++type.calls;
    auto wal = wal_ns_of_leg.find(leg.id);
    type.self_us += Us(dur - (wal == wal_ns_of_leg.end() ? 0 : wal->second));
    intervals[leg.op].emplace_back(std::max(leg.start_ns, op->second->start_ns),
                                   std::min(leg.end_ns, op->second->end_ns));
  }
  double covered_us = 0;
  for (auto& [op, spans] : intervals) {
    std::sort(spans.begin(), spans.end());
    int64_t union_ns = 0;
    int64_t lo = spans.front().first;
    int64_t hi = spans.front().second;
    for (const auto& [start, end] : spans) {
      if (start > hi) {
        union_ns += std::max<int64_t>(hi - lo, 0);
        lo = start;
        hi = end;
      } else {
        hi = std::max(hi, end);
      }
    }
    union_ns += std::max<int64_t>(hi - lo, 0);
    covered_us += Us(union_ns);
  }
  out.provider_critical_us = covered_us;
  out.client_self_us = out.op_us - covered_us;
  return out;
}

}  // namespace perfbench
