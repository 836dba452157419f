// End-to-end benchmark of ShamirDB: one client thread drives a closed
// loop of calls through the public API, every answer is checked against
// a plaintext model, and the run prints its metrics by name and unit.
//
//   shamirdb_bench --workload olap_scan --seed 1 --seconds 10 --trace 0
//
// --trace 0 measures the end-to-end metrics on OutsourcedDatabase.
// --trace 1 runs the same op stream twice: first untraced, then on a
// hand-assembled deployment with span wrappers (layer_trace.h), checks
// that both runs produced the same deterministic counts, and reports the
// per-layer metrics. The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// The exit code is 0 only when every answer matched the model.

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/outsourced_db.h"
#include "layer_trace.h"
#include "workload/generators.h"
#include "workloads.h"

namespace perfbench {
namespace {

using ssdb::OutsourcedDatabase;
using ssdb::Value;

// Fan-out pool size, fixed so results compare across hosts.
constexpr size_t kFanoutThreads = 4;
// Deployments built per --trace 0 run: setup_s is their median, and each
// runs one segment of the loop.
constexpr int kSetups = 5;
// Write probe of the read-only workloads: after each throughput window
// the loop makes single-row updates, timed apart from the reads, until
// they have taken this share of the window's time; their latency is
// write_p50/p99_us. Spreading them over the run lets them see the same
// host conditions as the reads.
constexpr double kProbeShare = 0.1;
// ops_per_s is the median throughput over windows of at least this much
// in-call time, each closed at the end of an op-mix cycle so it holds the
// workload's exact mix; a burst of load from outside the process then
// moves few windows.
constexpr int64_t kWindowNs = 250'000'000;
// Checkpoint cadence of oltp_durable (see DeploymentOptions).
constexpr size_t kWalSnapshotEvery = 2048;
// Calls per op shape when timing Explain.
constexpr int kExplainReps = 200;

// The metrics the final JSON line carries, in BENCHMARK.json order. The
// p99 latencies stay in the report and the capture: on a shared host they
// follow its stalls (ten-seed quartile spreads of 0.1 to 3x the median),
// too wide for a regression bound. The per-layer list holds what every
// workload measures: times of work that only some workloads do
// (per-message-type leg times, WAL appends, checkpoints, recovery) are in
// the report and the capture only, so no time in the result line reads a
// constant 0.
const char* const kEndToEnd[] = {
    "ops_per_s",     "read_p50_us",       "write_p50_us",
    "sim_us_per_op", "wire_bytes_per_op", "stored_bytes_per_user_byte",
    "setup_s",       "peak_rss_mib"};
const char* const kPerLayer[] = {
    "client.self_us_per_op",
    "client.rows_reconstructed_per_op",
    "plan.explain_us",
    "plan.legs_per_op",
    "plan.nodes_per_op",
    "net.calls_per_op",
    "net.bytes_sent_per_op",
    "net.bytes_received_per_op",
    "net.ops_per_envelope",
    "net.failures",
    "provider.busy_us_per_op",
    "provider.critical_us_per_op",
    "provider.parallelism",
    "provider.rows_examined_per_op",
    "provider.rows_returned_per_op",
    "provider.index_lookups_per_op",
    "provider.returned_per_examined",
    "storage.snapshot_ms",
    "storage.checkpoints",
    "storage.wal_bytes_per_user_byte",
    "core.shard_requests_per_op",
    "core.shard_row_balance",
    "trace.untraced_ops_per_s",
    "trace.traced_ops_per_s",
    "trace.overhead_pct"};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string workdir = ".bench_build/run";
  std::string capture;
  std::string commit = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args->trace = std::atoi(value.c_str());
    } else if (key == "--workdir") {
      args->workdir = value;
    } else if (key == "--capture") {
      args->capture = value;
    } else if (key == "--commit") {
      args->commit = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0 &&
         (args->trace == 0 || args->trace == 1);
}

// --- Results ---------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string tag;  ///< wall (measured), virtual (modelled) or count.
  std::string note;
};

class Report {
 public:
  void Add(std::string name, double value, std::string unit, std::string tag,
           std::string note = "") {
    metrics_.push_back({std::move(name), value, std::move(unit),
                        std::move(tag), std::move(note)});
  }
  const Metric* Find(const std::string& name) const {
    for (const Metric& m : metrics_) {
      if (m.name == name) return &m;
    }
    return nullptr;
  }
  const std::vector<Metric>& metrics() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

std::string Num(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// Nearest-rank percentile of `values` (q in [0, 1]); 0 when empty.
double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(std::ceil(q * values.size()));
  rank = std::clamp<size_t>(rank, 1, values.size());
  return values[rank - 1];
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

double PeakRssMib() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// --- Deployments -----------------------------------------------------------

// What the measurements read from a deployment, whichever way it was
// assembled.
struct View {
  ssdb::Network* network = nullptr;
  std::vector<ssdb::Provider*> providers;
  ssdb::DataSourceClient* client = nullptr;
  ssdb::FaultController* faults = nullptr;
};

View ViewOf(OutsourcedDatabase& db) {
  View v{&db.network(), {}, &db.client(), &db.faults()};
  for (size_t i = 0; i < db.topology().total_providers(); ++i) {
    v.providers.push_back(&db.provider(i));
  }
  return v;
}

View ViewOf(TracedDeployment& d) {
  View v{d.network.get(), {}, d.client.get(), d.faults.get()};
  for (auto& p : d.providers) v.providers.push_back(p.get());
  return v;
}

// The deterministic counts of a deployment: equal for equal op streams,
// whatever the thread timing.
enum Counter : size_t {
  kCalls,
  kFailures,
  kBytesSent,
  kBytesReceived,
  kSimUs,
  kRowsExamined,
  kRowsReturned,
  kIndexLookups,
  kRowsReconstructed,
  kProviderLegs,
  kPlanNodes,
  kBatchOps,
  kBatchEnvelopes,
  kShardRequests,
  kNumCounters,
};
const char* const kCounterNames[kNumCounters] = {
    "calls",         "failures",           "bytes_sent",    "bytes_received",
    "sim_us",        "rows_examined",      "rows_returned", "index_lookups",
    "rows_reconstructed", "provider_legs", "plan_nodes",    "batch_ops",
    "batch_envelopes", "shard_requests"};
using Counters = std::array<uint64_t, kNumCounters>;

Counters Snapshot(const View& v) {
  Counters c{};
  const ssdb::ChannelStats net = v.network->TotalStats();
  c[kCalls] = net.calls;
  c[kFailures] = net.failures;
  c[kBytesSent] = net.bytes_sent;
  c[kBytesReceived] = net.bytes_received;
  c[kSimUs] = v.network->clock().now_us();
  for (const ssdb::Provider* p : v.providers) {
    c[kRowsExamined] += p->stats().rows_examined;
    c[kRowsReturned] += p->stats().rows_returned;
    c[kIndexLookups] += p->stats().index_lookups;
  }
  const ssdb::ClientStats cs = v.client->stats();
  c[kRowsReconstructed] = cs.rows_reconstructed;
  c[kProviderLegs] = cs.provider_legs;
  c[kPlanNodes] = cs.plan_nodes_executed;
  const ssdb::MetricsRegistry* reg = v.client->metrics();
  c[kBatchOps] = reg->CounterValue("ssdb_net_batch_ops_total");
  c[kBatchEnvelopes] = reg->CounterValue("ssdb_net_batch_envelopes_total");
  c[kShardRequests] = reg->CounterTotal("ssdb_shard_requests_total");
  return c;
}

// a - b + c, element-wise.
Counters Delta(const Counters& a, const Counters& b, const Counters& c = {}) {
  Counters d{};
  for (size_t i = 0; i < kNumCounters; ++i) d[i] = a[i] - b[i] + c[i];
  return d;
}

ssdb::OutsourcedDbOptions DeploymentOptions(const WorkloadSpec& spec,
                                            const std::string& dir) {
  ssdb::OutsourcedDbOptions options;
  options.topology = spec.topology;
  options.fanout_threads = kFanoutThreads;
  if (spec.durable) {
    options.storage.backend = ssdb::StorageOptions::Backend::kDurable;
    options.storage.dir = dir;
    // Checkpoint every 2048 logged mutations instead of the default 256:
    // each checkpoint rewrites a provider's whole state (~5 MB here), and
    // ext4 starts writeback of every snapshot renamed into place, so at
    // 256 one 20 s run wrote ~4.5 GB and its tails followed the disk
    // backlog of earlier runs. 2048 keeps periodic checkpoints in every
    // run at ~0.7 GB.
    options.storage.wal_snapshot_every = kWalSnapshotEvery;
  }
  return options;
}

using Rows = std::vector<std::vector<Value>>;

Rows ValueRows(const std::vector<Row>& rows) {
  Rows out;
  out.reserve(rows.size());
  for (const Row& row : rows) out.push_back(row.ToValues());
  return out;
}

template <class Db>
ssdb::Status LoadTable(Db& db, const Rows& rows) {
  SSDB_RETURN_IF_ERROR(
      db.CreateTable(ssdb::EmployeeGenerator::EmployeesSchema(kTable)));
  return db.BulkLoad(kTable, rows);
}

// --- The closed loop ---------------------------------------------------------

struct LoopStats {
  std::vector<double> read_us;
  std::vector<double> write_us;
  std::vector<double> probe_us;  ///< Write-probe updates (not in ops).
  Counters probe_counts{};       ///< Deterministic counts of the probes.
  /// Queries per second of in-call time, per window of kWindowNs.
  std::vector<double> window_qps;
  uint64_t ops = 0;        ///< Calls made.
  uint64_t queries = 0;    ///< Calls weighted by queries per call.
  uint64_t failed = 0;     ///< Errors + model mismatches, in queries.
  double busy_s = 0;       ///< Time spent inside the calls.
  std::string first_failure;

  void Append(const LoopStats& o) {
    read_us.insert(read_us.end(), o.read_us.begin(), o.read_us.end());
    write_us.insert(write_us.end(), o.write_us.begin(), o.write_us.end());
    probe_us.insert(probe_us.end(), o.probe_us.begin(), o.probe_us.end());
    window_qps.insert(window_qps.end(), o.window_qps.begin(),
                      o.window_qps.end());
    ops += o.ops;
    queries += o.queries;
    failed += o.failed;
    busy_s += o.busy_s;
    if (first_failure.empty()) first_failure = o.first_failure;
  }
};

void NoteFailure(std::string* first, const std::string& why) {
  if (first->empty()) *first = why;
}

// Runs one op; [*start, *end] brackets exactly the call into the system.
// Returns the number of its queries that failed or mismatched the model.
template <class Db>
uint64_t RunOp(Db& db, Workload& wl, const Op& op, int64_t* start,
               int64_t* end, std::string* why) {
  using ssdb::Eq;
  uint64_t bad = 0;
  switch (op.kind) {
    case Op::Kind::kRead: {
      *start = NowNs();
      auto r = db.Execute(op.queries[0]);
      *end = NowNs();
      if (!r.ok()) {
        ++bad;
        NoteFailure(why, r.status().ToString());
      } else if (!wl.CheckQuery(op.queries[0], r.value())) {
        ++bad;
        NoteFailure(why, "read answer differs from the model");
      }
      break;
    }
    case Op::Kind::kWave: {
      *start = NowNs();
      auto rs = db.ExecuteBatch(op.queries);
      *end = NowNs();
      for (size_t i = 0; i < op.queries.size(); ++i) {
        if (i >= rs.size() || !rs[i].ok()) {
          ++bad;
          NoteFailure(why, i < rs.size() ? rs[i].status().ToString()
                                         : "missing batch slot");
        } else if (!wl.CheckQuery(op.queries[i], rs[i].value())) {
          ++bad;
          NoteFailure(why, "batched answer differs from the model");
        }
      }
      break;
    }
    case Op::Kind::kInsert: {
      const std::vector<std::vector<Value>> rows{op.row.ToValues()};
      *start = NowNs();
      const ssdb::Status s = db.Insert(kTable, rows);
      *end = NowNs();
      if (!s.ok()) {
        ++bad;
        NoteFailure(why, s.ToString());
      } else if (!wl.ApplyWrite(op, 1)) {
        ++bad;
        NoteFailure(why, "insert differs from the model");
      }
      break;
    }
    case Op::Kind::kUpdate:
    case Op::Kind::kDelete: {
      const std::vector<ssdb::Predicate> where{
          Eq("name", Value::Str(op.row.name))};
      const Value salary = Value::Int(op.row.salary);
      *start = NowNs();
      auto r = op.kind == Op::Kind::kUpdate
                   ? db.Update(kTable, where, "salary", salary)
                   : db.Delete(kTable, where);
      *end = NowNs();
      if (!r.ok()) {
        ++bad;
        NoteFailure(why, r.status().ToString());
      } else if (!wl.ApplyWrite(op, r.value())) {
        ++bad;
        NoteFailure(why, "write count differs from the model");
      }
      break;
    }
  }
  return bad;
}

// Runs ops until `seconds` of in-system time are spent and the op-mix
// cycle is complete, so the per-query ratios see the workload's exact
// mix; or exactly `max_ops` ops when it is non-zero. With a recorder, each op is an op
// span and the legs it causes are attributed to it. With `probe_view`,
// write-probe updates follow each throughput window, and their counts on
// that deployment are kept apart in `probe_counts`.
template <class Db>
LoopStats RunLoop(Db& db, Workload& wl, double seconds, uint64_t max_ops,
                  SpanRecorder* recorder, const View* probe_view = nullptr) {
  LoopStats st;
  const int64_t budget_ns = static_cast<int64_t>(seconds * 1e9);
  const int64_t wall_start = NowNs();
  const int64_t wall_cap = 3 * budget_ns + static_cast<int64_t>(30e9);
  int64_t busy_ns = 0;
  int64_t window_ns = 0;
  uint64_t window_queries = 0;
  while (max_ops != 0 ? st.ops < max_ops
                      : busy_ns < budget_ns ||
                            st.ops % wl.cycle_length() != 0) {
    if (NowNs() - wall_start > wall_cap) {
      NoteFailure(&st.first_failure, "loop overran its wall-clock cap");
      ++st.failed;
      break;
    }
    const Op op = wl.Next();
    const uint64_t id = st.ops + 1;
    if (recorder != nullptr) recorder->set_current_op(id);
    int64_t start = 0;
    int64_t end = 0;
    st.failed += RunOp(db, wl, op, &start, &end, &st.first_failure);
    if (recorder != nullptr) {
      recorder->set_current_op(0);
      recorder->AddOp({id, start, end, static_cast<uint32_t>(op.weight())});
    }
    busy_ns += end - start;
    window_ns += end - start;
    window_queries += op.weight();
    if (window_ns >= kWindowNs && (st.ops + 1) % wl.cycle_length() == 0) {
      st.window_qps.push_back(static_cast<double>(window_queries) * 1e9 /
                              static_cast<double>(window_ns));
      if (probe_view != nullptr) {
        const Counters before = Snapshot(*probe_view);
        int64_t probe_ns = 0;
        while (probe_ns < kProbeShare * window_ns) {
          int64_t probe_start = 0;
          int64_t probe_end = 0;
          st.failed += RunOp(db, wl, wl.ProbeWrite(), &probe_start,
                             &probe_end, &st.first_failure);
          probe_ns += probe_end - probe_start;
          st.probe_us.push_back(
              static_cast<double>(probe_end - probe_start) / 1e3);
        }
        st.probe_counts = Delta(Snapshot(*probe_view), before, st.probe_counts);
      }
      window_ns = 0;
      window_queries = 0;
    }
    const double us = static_cast<double>(end - start) / 1e3;
    (op.is_write() ? st.write_us : st.read_us).push_back(us);
    ++st.ops;
    st.queries += op.weight();
  }
  st.busy_s = static_cast<double>(busy_ns) / 1e9;
  return st;
}

// oltp_durable: kill provider 0, restart it from its WAL and snapshot,
// then read the whole table through a quorum that must include it.
template <class Db>
bool CheckDurability(Db& db, const View& view, const Workload& wl,
                     double* recovery_ms, std::string* why) {
  view.faults->Kill(0);
  const int64_t start = NowNs();
  const ssdb::Status restarted = view.faults->Restart(0);
  *recovery_ms = static_cast<double>(NowNs() - start) / 1e6;
  if (!restarted.ok()) {
    NoteFailure(why, "restart: " + restarted.ToString());
    return false;
  }
  // With k = 2 of 4, downing providers 2 and 3 leaves {0, 1} as the only
  // quorum, so every row is reconstructed from the recovered shares.
  view.faults->Down(2);
  view.faults->Down(3);
  auto scan = db.Execute(ssdb::Query::Select(kTable));
  view.faults->HealAll();
  if (!scan.ok()) {
    NoteFailure(why, "post-restart scan: " + scan.status().ToString());
    return false;
  }
  if (!wl.CheckFullScan(scan.value())) {
    NoteFailure(why, "acknowledged writes lost across kill/restart");
    return false;
  }
  return true;
}

// Sum of every provider's snapshot size, and the median time of one
// provider's snapshot encode.
void MeasureSnapshots(const View& view, uint64_t* bytes, double* median_ms) {
  std::vector<double> ms;
  *bytes = 0;
  for (const ssdb::Provider* p : view.providers) {
    ssdb::Buffer buf;
    const int64_t start = NowNs();
    p->SaveSnapshot(&buf);
    ms.push_back(static_cast<double>(NowNs() - start) / 1e6);
    *bytes += buf.size();
  }
  *median_ms = Percentile(ms, 0.5);
}

// --- Runs --------------------------------------------------------------------

struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string why;
};

std::string FreshDir(const std::string& root, const std::string& leaf) {
  const std::string dir = root + "/" + leaf;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

// Percentile `q` of each build's segment, then the median over the
// segments: host load that slows up to two of the five segments does not
// move it.
double SegmentPercentile(const std::vector<LoopStats>& segments,
                         std::vector<double> LoopStats::*samples, double q) {
  std::vector<double> per_segment;
  for (const LoopStats& seg : segments) {
    per_segment.push_back(Percentile(seg.*samples, q));
  }
  return Percentile(per_segment, 0.5);
}

void AddEndToEnd(const std::vector<LoopStats>& segments, const LoopStats& st,
                 const Counters& loop, const std::vector<double>& setup_s,
                 uint64_t stored_bytes, const Workload& wl, Report* rep) {
  const double q = static_cast<double>(st.queries);
  rep->Add("ops_per_s", Percentile(st.window_qps, 0.5), "1/s", "wall",
           "median of " + std::to_string(st.window_qps.size()) +
               " windows; mean " + Num(std::round(Ratio(q, st.busy_s))));
  const std::string segs = "; median over " +
                           std::to_string(segments.size()) + " segments";
  const std::string reads = std::to_string(st.read_us.size()) + " samples";
  rep->Add("read_p50_us", SegmentPercentile(segments, &LoopStats::read_us, 0.5),
           "us", "wall", reads + segs);
  rep->Add("read_p99_us",
           SegmentPercentile(segments, &LoopStats::read_us, 0.99), "us",
           "wall", reads + segs);
  // Read-only workloads time their write probe instead.
  const bool loop_writes = !st.write_us.empty();
  auto write_samples = loop_writes ? &LoopStats::write_us : &LoopStats::probe_us;
  const std::string wnote =
      std::to_string((st.*write_samples).size()) +
      (loop_writes ? " mutations" : " write-probe updates");
  rep->Add("write_p50_us", SegmentPercentile(segments, write_samples, 0.5),
           "us", "wall", wnote + segs);
  rep->Add("write_p99_us", SegmentPercentile(segments, write_samples, 0.99),
           "us", "wall", wnote + segs);
  rep->Add("sim_us_per_op", Ratio(static_cast<double>(loop[kSimUs]), q), "us",
           "virtual");
  rep->Add("wire_bytes_per_op",
           Ratio(static_cast<double>(loop[kBytesSent] + loop[kBytesReceived]), q),
           "B", "count");
  rep->Add("stored_bytes_per_user_byte",
           Ratio(static_cast<double>(stored_bytes),
                 static_cast<double>(wl.live_plain_bytes())),
           "B/B", "count");
  rep->Add("setup_s", Percentile(setup_s, 0.5), "s", "wall",
           "median of " + std::to_string(setup_s.size()) + " set-ups");
  rep->Add("peak_rss_mib", PeakRssMib(), "MiB", "wall");
  rep->Add("failed_op_ratio",
           Ratio(static_cast<double>(st.failed), q), "ratio", "count",
           "reported by correct/attempted/failed in the result line");
}

// --trace 0: set up kSetups deployments one after another and run an
// equal share of the loop on each, replaying the same op stream from the
// initial table. Pooling the segments averages out what one deployment's
// memory layout does to its timings. Storage and (oltp_durable)
// durability are checked on the last deployment.
RunResult RunMeasured(const Args& args, Workload& wl, Report* rep) {
  RunResult res;
  const Rows rows = ValueRows(wl.initial_rows());
  std::vector<double> setup_s;
  std::vector<LoopStats> segments;
  LoopStats st;
  Counters loop{};
  std::unique_ptr<OutsourcedDatabase> db;
  for (int k = 0; k < kSetups; ++k) {
    db.reset();
    wl.Reset();
    const std::string dir = FreshDir(args.workdir, "setup" + std::to_string(k));
    const int64_t start = NowNs();
    auto created = OutsourcedDatabase::Create(DeploymentOptions(wl.spec(), dir));
    if (!created.ok()) {
      res.why = "create: " + created.status().ToString();
      res.correct = false;
      return res;
    }
    db = std::move(created).value();
    const ssdb::Status loaded = LoadTable(*db, rows);
    setup_s.push_back(static_cast<double>(NowNs() - start) / 1e9);
    if (!loaded.ok()) {
      res.why = "load: " + loaded.ToString();
      res.correct = false;
      return res;
    }
    const View view = ViewOf(*db);
    const Counters before = Snapshot(view);
    const LoopStats seg =
        RunLoop(*db, wl, args.seconds / kSetups, 0, nullptr,
                wl.read_only() ? &view : nullptr);
    loop = Delta(Delta(Snapshot(view), before, loop), seg.probe_counts);
    st.Append(seg);
    segments.push_back(seg);
  }
  const View view = ViewOf(*db);
  uint64_t stored = 0;
  double snapshot_ms = 0;
  MeasureSnapshots(view, &stored, &snapshot_ms);
  if (wl.spec().durable) {
    double recovery_ms = 0;
    if (!CheckDurability(*db, view, wl, &recovery_ms, &st.first_failure)) {
      ++st.failed;
    }
  }
  AddEndToEnd(segments, st, loop, setup_s, stored, wl, rep);
  res.attempted = st.queries + st.probe_us.size();
  res.failed = st.failed;
  res.correct = st.failed == 0;
  res.why = st.first_failure;
  return res;
}

// --trace 1: untraced loop for half the time, then the same op stream on
// the traced deployment; deterministic counts must match exactly.
RunResult RunTraced(const Args& args, Workload& wl, Report* rep) {
  RunResult res;
  const Rows rows = ValueRows(wl.initial_rows());
  Counters untraced;
  LoopStats plain;
  {
    auto created = OutsourcedDatabase::Create(
        DeploymentOptions(wl.spec(), FreshDir(args.workdir, "untraced")));
    if (!created.ok()) {
      res.correct = false;
      res.why = "create: " + created.status().ToString();
      return res;
    }
    auto db = std::move(created).value();
    const ssdb::Status loaded = LoadTable(*db, rows);
    if (!loaded.ok()) {
      res.correct = false;
      res.why = "load: " + loaded.ToString();
      return res;
    }
    plain = RunLoop(*db, wl, args.seconds / 2, 0, nullptr);
    untraced = Snapshot(ViewOf(*db));
  }

  wl.Reset();
  SpanRecorder recorder;
  auto built = BuildTracedDeployment(
      DeploymentOptions(wl.spec(), FreshDir(args.workdir, "traced")),
      &recorder);
  if (!built.ok()) {
    res.correct = false;
    res.why = "traced assembly: " + built.status().ToString();
    return res;
  }
  std::unique_ptr<TracedDeployment> d = std::move(built).value();
  const View view = ViewOf(*d);
  const ssdb::Status loaded = LoadTable(*d->client, rows);
  if (!loaded.ok()) {
    res.correct = false;
    res.why = "traced load: " + loaded.ToString();
    return res;
  }
  const Counters before = Snapshot(view);
  LoopStats st = RunLoop(*d->client, wl, args.seconds, plain.ops, &recorder);
  const Counters traced = Snapshot(view);
  const Counters loop = Delta(traced, before);
  st.failed += plain.failed;
  NoteFailure(&st.first_failure, plain.first_failure);

  // Self-check: the hand-assembled deployment is the same program.
  for (size_t i = 0; i < kNumCounters; ++i) {
    if (untraced[i] != traced[i]) {
      ++st.failed;
      NoteFailure(&st.first_failure,
                  std::string("traced run differs from untraced run in ") +
                      kCounterNames[i] + ": " + std::to_string(untraced[i]) +
                      " vs " + std::to_string(traced[i]));
    }
  }

  // Explain of every op shape, timed on the traced client.
  std::vector<double> explain_us;
  for (const ssdb::Query& shape : wl.Shapes()) {
    const int64_t start = NowNs();
    for (int i = 0; i < kExplainReps; ++i) {
      if (!d->client->Explain(shape).ok()) {
        ++st.failed;
        NoteFailure(&st.first_failure, "explain failed");
      }
    }
    explain_us.push_back(static_cast<double>(NowNs() - start) / 1e3 /
                         kExplainReps);
  }

  uint64_t stored = 0;
  double snapshot_ms = 0;
  MeasureSnapshots(view, &stored, &snapshot_ms);
  double recovery_ms = 0;
  if (wl.spec().durable &&
      !CheckDurability(*d->client, view, wl, &recovery_ms,
                       &st.first_failure)) {
    ++st.failed;
  }

  const SpanSummary sum = Summarize(recorder);
  const double q = static_cast<double>(sum.queries);
  auto per_op = [q](double v) { return Ratio(v, q); };
  rep->Add("client.self_us_per_op", per_op(sum.client_self_us), "us", "wall",
           "op span minus the union of its provider legs");
  rep->Add("client.rows_reconstructed_per_op",
           per_op(static_cast<double>(loop[kRowsReconstructed])), "rows",
           "count");
  double explain_sum = 0;
  for (double v : explain_us) explain_sum += v;
  rep->Add("plan.explain_us", Ratio(explain_sum, explain_us.size()), "us",
           "wall",
           "mean over " + std::to_string(explain_us.size()) + " op shapes");
  rep->Add("plan.legs_per_op", per_op(static_cast<double>(loop[kProviderLegs])),
           "legs", "count");
  rep->Add("plan.nodes_per_op", per_op(static_cast<double>(loop[kPlanNodes])),
           "nodes", "count");
  rep->Add("net.calls_per_op", per_op(static_cast<double>(loop[kCalls])),
           "calls", "count");
  rep->Add("net.bytes_sent_per_op", per_op(static_cast<double>(loop[kBytesSent])),
           "B", "count");
  rep->Add("net.bytes_received_per_op",
           per_op(static_cast<double>(loop[kBytesReceived])), "B", "count");
  rep->Add("net.ops_per_envelope",
           Ratio(static_cast<double>(loop[kBatchOps]),
                 static_cast<double>(loop[kBatchEnvelopes])),
           "ops", "count", "0 when the loop sends no envelopes");
  rep->Add("net.failures", static_cast<double>(loop[kFailures]), "calls",
           "count");
  rep->Add("provider.busy_us_per_op", per_op(sum.provider_busy_us), "us",
           "wall", "sum of leg durations");
  rep->Add("provider.critical_us_per_op", per_op(sum.provider_critical_us),
           "us", "wall", "union of each op's legs");
  rep->Add("provider.parallelism",
           Ratio(sum.provider_busy_us, sum.provider_critical_us), "x", "wall");
  rep->Add("provider.rows_examined_per_op",
           per_op(static_cast<double>(loop[kRowsExamined])), "rows", "count");
  rep->Add("provider.rows_returned_per_op",
           per_op(static_cast<double>(loop[kRowsReturned])), "rows", "count");
  rep->Add("provider.index_lookups_per_op",
           per_op(static_cast<double>(loop[kIndexLookups])), "lookups",
           "count");
  rep->Add("provider.returned_per_examined",
           Ratio(static_cast<double>(loop[kRowsReturned]),
                 static_cast<double>(loop[kRowsExamined])),
           "ratio", "count");
  for (const auto& [type, t] : sum.per_type) {
    rep->Add("provider." + type + ".us_per_call", Ratio(t.self_us, t.calls),
             "us", "wall", "leg time minus WAL appends");
    rep->Add("provider." + type + ".calls", static_cast<double>(t.calls),
             "calls", "count");
  }
  rep->Add("storage.snapshot_ms", snapshot_ms, "ms", "wall",
           "median SaveSnapshot of one provider at the end of the run");
  rep->Add("storage.checkpoints", static_cast<double>(sum.checkpoint_ms.size()),
           "count", "count");
  rep->Add("storage.wal_bytes_per_user_byte",
           Ratio(static_cast<double>(sum.wal_bytes),
                 static_cast<double>(wl.loop_write_bytes())),
           "B/B", "count", "WAL bytes over plaintext bytes the loop wrote");
  // Times of work only the durable backend does; the capture and the
  // report carry them, the result line does not (see kPerLayer).
  if (wl.spec().durable) {
    rep->Add("storage.wal_append_p50_us", Percentile(sum.wal_append_us, 0.5),
             "us", "wall",
             std::to_string(sum.wal_append_us.size()) +
                 " appends without a checkpoint");
    rep->Add("storage.wal_append_p99_us", Percentile(sum.wal_append_us, 0.99),
             "us", "wall");
    double cp = 0;
    for (double v : sum.checkpoint_ms) cp += v;
    rep->Add("storage.checkpoint_ms", Ratio(cp, sum.checkpoint_ms.size()),
             "ms", "wall", "mean LogMutation call that checkpointed");
    rep->Add("storage.recovery_ms", recovery_ms, "ms", "wall",
             "Restart(0): snapshot load, WAL replay and catch-up");
  }
  rep->Add("core.shard_requests_per_op",
           per_op(static_cast<double>(loop[kShardRequests])), "requests",
           "count", "0 on one shard (series attached only for m > 1)");
  std::vector<double> group_rows(wl.spec().topology.shards, 0);
  const size_t per = wl.spec().topology.providers_per_shard;
  for (size_t i = 0; i < view.providers.size(); i += per) {
    group_rows[i / per] = static_cast<double>(view.providers[i]->num_rows());
  }
  rep->Add("core.shard_row_balance",
           Ratio(*std::max_element(group_rows.begin(), group_rows.end()),
                 *std::min_element(group_rows.begin(), group_rows.end())),
           "x", "count", "max/min rows per shard group");
  const double plain_ops = Ratio(static_cast<double>(plain.queries),
                                 plain.busy_s);
  const double traced_ops = Ratio(static_cast<double>(st.queries), st.busy_s);
  rep->Add("trace.untraced_ops_per_s", plain_ops, "1/s", "wall",
           "same op stream, OutsourcedDatabase");
  rep->Add("trace.traced_ops_per_s", traced_ops, "1/s", "wall",
           "same op stream, traced assembly");
  rep->Add("trace.overhead_pct", 100 * Ratio(plain_ops - traced_ops, plain_ops),
           "%", "wall");
  for (size_t i = 0; i < kNumCounters; ++i) {
    rep->Add(std::string("count.") + kCounterNames[i],
             static_cast<double>(loop[i]), "count", "count",
             "traced loop delta");
  }

  res.attempted = st.queries;
  res.failed = st.failed;
  res.correct = st.failed == 0;
  res.why = st.first_failure;
  return res;
}

// --- Output ------------------------------------------------------------------

std::string TopologyText(const ssdb::Topology& t) {
  return "m" + std::to_string(t.shards) + ".n" +
         std::to_string(t.providers_per_shard) + ".k" +
         std::to_string(t.threshold) + "." + ssdb::PartitionerName(t.partitioner);
}

std::vector<std::pair<std::string, std::string>> Meta(const Args& args,
                                                      const Workload& wl) {
  return {{"workload", args.workload},
          {"seed", std::to_string(args.seed)},
          {"seconds", Num(args.seconds)},
          {"trace", std::to_string(args.trace)},
          {"commit", args.commit},
          {"compiler", SSDB_BENCH_COMPILER},
          {"build_type", SSDB_BENCH_BUILD_TYPE},
          {"nproc", std::to_string(std::thread::hardware_concurrency())},
          {"fanout_threads", std::to_string(kFanoutThreads)},
          {"rows", std::to_string(wl.spec().rows)},
          {"topology", TopologyText(wl.spec().topology)},
          {"backend", wl.spec().durable ? "durable" : "memory"},
          {"setups", std::to_string(args.trace == 0 ? kSetups : 1)},
          {"load", "closed loop, 1 client thread"}};
}

void WriteCapture(const std::string& path, const Args& args,
                  const Workload& wl, const Report& rep,
                  const RunResult& res) {
  if (path.empty()) return;
  std::filesystem::path p(path);
  if (p.has_parent_path()) std::filesystem::create_directories(p.parent_path());
  std::ofstream out(path);
  out << "{\n  \"meta\": {";
  const auto meta = Meta(args, wl);
  for (size_t i = 0; i < meta.size(); ++i) {
    out << (i ? ", " : "") << "\"" << meta[i].first << "\": \""
        << meta[i].second << "\"";
  }
  out << "},\n  \"correct\": " << (res.correct ? "true" : "false")
      << ",\n  \"metrics\": {";
  for (size_t i = 0; i < rep.metrics().size(); ++i) {
    const Metric& m = rep.metrics()[i];
    out << (i ? ",\n" : "\n") << "    \"" << m.name
        << "\": {\"value\": " << Num(m.value) << ", \"unit\": \"" << m.unit
        << "\", \"tag\": \"" << m.tag << "\"}";
  }
  out << "\n  }\n}\n";
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: shamirdb_bench --workload <olap_scan|point_batched|"
                 "oltp_durable> --seed N --seconds S --trace 0|1 "
                 "[--workdir DIR] [--capture FILE] "
                 "[--commit ID]\n");
    return 2;
  }
  WorkloadSpec spec = FindWorkload(args.workload);
  if (spec.name.empty()) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  Workload wl(std::move(spec), args.seed);
  Report rep;
  const RunResult res =
      args.trace == 0 ? RunMeasured(args, wl, &rep) : RunTraced(args, wl, &rep);
  std::filesystem::remove_all(args.workdir);

  std::printf("# perfbench");
  for (const auto& [k, v] : Meta(args, wl)) {
    std::printf(" %s=%s", k.c_str(), v.c_str());
  }
  std::printf("\n");
  for (const Metric& m : rep.metrics()) {
    std::printf("%-36s %16.4f %-6s [%s]%s%s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.tag.c_str(), m.note.empty() ? "" : "  ",
                m.note.c_str());
  }
  if (!res.correct) std::printf("# FAILED: %s\n", res.why.c_str());
  WriteCapture(args.capture, args, wl, rep, res);

  std::ostringstream line;
  line << "{\"correct\": " << (res.correct ? "true" : "false")
       << ", \"attempted\": " << res.attempted
       << ", \"failed\": " << res.failed << ", \"metrics\": {";
  bool first = true;
  bool complete = true;
  auto emit = [&](const char* name) {
    const Metric* m = rep.Find(name);
    if (m == nullptr) {
      complete = false;
      return;
    }
    line << (first ? "" : ", ") << "\"" << m->name
         << "\": {\"value\": " << Num(m->value) << ", \"unit\": \"" << m->unit
         << "\"}";
    first = false;
  };
  if (args.trace == 0) {
    for (const char* name : kEndToEnd) emit(name);
  } else {
    for (const char* name : kPerLayer) emit(name);
  }
  line << "}}";
  if (!complete) {
    std::fprintf(stderr, "perfbench: run ended before every metric was "
                         "measured: %s\n", res.why.c_str());
    return 1;
  }
  std::printf("%s\n", line.str().c_str());
  std::fflush(stdout);
  return res.correct ? 0 : 1;
}
