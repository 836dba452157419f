// Span tracing for the benchmark's traced run.
//
// The traced run assembles the same deployment OutsourcedDatabase::Create
// builds, from the same public parts, and puts two wrappers in front of
// the real code:
//   * TracedEndpoint wraps each Provider as the network's endpoint and
//     records one leg span per Handle call, labelled by the request's
//     first byte (its MsgType);
//   * TimedDurableEngine subclasses DurableEngine and records one WAL
//     span per LogMutation, flagged when the call ran a checkpoint.
// The benchmark records an op span around each call it makes into the
// client. Spans nest op > leg > WAL; they are kept in memory and reduced
// to per-layer figures when the run ends.

#ifndef PERFBENCH_LAYER_TRACE_H_
#define PERFBENCH_LAYER_TRACE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "client/client.h"
#include "core/outsourced_db.h"
#include "net/fault_controller.h"
#include "net/network.h"
#include "provider/provider.h"
#include "storage/engine.h"

namespace perfbench {

/// Monotonic wall time in nanoseconds.
int64_t NowNs();

/// One closed-loop call into the client.
struct OpSpan {
  uint64_t id = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint32_t weight = 1;  ///< Queries the op counts for.
};

/// One provider Handle call.
struct LegSpan {
  uint64_t id = 0;
  uint64_t op = 0;  ///< Enclosing op span; 0 outside any op (set-up).
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint8_t msg_type = 0;
};

/// One StorageEngine::LogMutation call.
struct WalSpan {
  uint64_t leg = 0;  ///< Enclosing leg span; 0 when called outside one.
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t bytes = 0;       ///< Logged request size.
  bool checkpoint = false;  ///< The call ran a checkpoint.
};

/// \brief In-memory span store shared by the wrappers (thread-safe).
class SpanRecorder {
 public:
  /// Marks the op the client thread is about to run (0 = none).
  void set_current_op(uint64_t op) {
    current_op_.store(op, std::memory_order_relaxed);
  }
  uint64_t current_op() const {
    return current_op_.load(std::memory_order_relaxed);
  }
  uint64_t NextLegId() { return next_leg_.fetch_add(1) + 1; }

  void AddOp(const OpSpan& span) { ops_.push_back(span); }  // client thread
  void AddLeg(const LegSpan& span) {
    std::lock_guard<std::mutex> lock(mu_);
    legs_.push_back(span);
  }
  void AddWal(const WalSpan& span) {
    std::lock_guard<std::mutex> lock(mu_);
    wal_.push_back(span);
  }

  const std::vector<OpSpan>& ops() const { return ops_; }
  const std::vector<LegSpan>& legs() const { return legs_; }
  const std::vector<WalSpan>& wal() const { return wal_; }

 private:
  std::atomic<uint64_t> current_op_{0};
  std::atomic<uint64_t> next_leg_{0};
  std::vector<OpSpan> ops_;
  std::mutex mu_;  ///< Guards legs_ and wal_.
  std::vector<LegSpan> legs_;
  std::vector<WalSpan> wal_;
};

/// \brief A provider endpoint that records a leg span per request.
class TracedEndpoint : public ssdb::ProviderEndpoint {
 public:
  TracedEndpoint(std::shared_ptr<ssdb::Provider> provider,
                 SpanRecorder* recorder)
      : provider_(std::move(provider)), recorder_(recorder) {}

  ssdb::Result<ssdb::Buffer> Handle(ssdb::Slice request) override;
  std::string name() const override { return provider_->name(); }

 private:
  std::shared_ptr<ssdb::Provider> provider_;
  SpanRecorder* recorder_;
};

/// \brief A DurableEngine whose LogMutation calls are timed.
class TimedDurableEngine : public ssdb::DurableEngine {
 public:
  TimedDurableEngine(ssdb::DurableEngineOptions options,
                     SpanRecorder* recorder)
      : DurableEngine(std::move(options)), recorder_(recorder) {}

  ssdb::Status LogMutation(ssdb::Slice request) override;

 private:
  SpanRecorder* recorder_;
};

/// \brief The traced deployment: the parts OutsourcedDatabase owns,
/// assembled by hand with the wrappers in place.
struct TracedDeployment {
  TracedDeployment() = default;
  TracedDeployment(const TracedDeployment&) = delete;
  TracedDeployment& operator=(const TracedDeployment&) = delete;

  std::unique_ptr<ssdb::Network> network;
  std::vector<std::shared_ptr<ssdb::Provider>> providers;
  std::unique_ptr<ssdb::DataSourceClient> client;
  std::unique_ptr<ssdb::FaultController> faults;
};

/// Builds the deployment OutsourcedDatabase::Create(options) builds for
/// an explicit `options.topology`, with every provider behind a
/// TracedEndpoint and, for the durable backend, a TimedDurableEngine.
ssdb::Result<std::unique_ptr<TracedDeployment>> BuildTracedDeployment(
    const ssdb::OutsourcedDbOptions& options, SpanRecorder* recorder);

/// Stable lower-case name of a request's MsgType byte ("query", "batch").
std::string MsgTypeName(uint8_t type);

/// Per-layer figures reduced from the spans of every recorded op.
struct SpanSummary {
  uint64_t queries = 0;         ///< Sum of op weights.
  double op_us = 0;             ///< Sum of op span durations.
  double client_self_us = 0;    ///< Op time not covered by any leg.
  double provider_busy_us = 0;  ///< Sum of leg durations.
  double provider_critical_us = 0;  ///< Union of each op's legs.
  struct PerType {
    uint64_t calls = 0;
    double self_us = 0;  ///< Leg time minus its WAL spans.
  };
  std::map<std::string, PerType> per_type;
  std::vector<double> wal_append_us;  ///< Calls that did not checkpoint.
  std::vector<double> checkpoint_ms;  ///< Calls that checkpointed.
  uint64_t wal_bytes = 0;
};

/// Reduces the legs and WAL appends issued inside recorded ops.
SpanSummary Summarize(const SpanRecorder& recorder);

}  // namespace perfbench

#endif  // PERFBENCH_LAYER_TRACE_H_
