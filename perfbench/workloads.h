// Workloads of the end-to-end benchmark: the initial table, the op
// stream, and the plaintext model every answer is checked against.
//
// Everything here is a pure function of (workload, seed): the same seed
// gives the same rows, the same op stream and the same expected answers.
// The op stream depends on the model's state (updates and deletes pick a
// live key), so Reset() rewinds both together.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "client/query.h"
#include "common/rng.h"
#include "core/topology.h"
#include "workload/generators.h"

namespace perfbench {

/// Table name every workload uses (the paper's §III Employees table).
inline constexpr const char* kTable = "Employees";

/// One plaintext Employees row.
struct Row {
  std::string name;
  int64_t salary = 0;
  int64_t dept = 0;

  bool operator==(const Row& o) const {
    return name == o.name && salary == o.salary && dept == o.dept;
  }
  /// Plaintext bytes a user stores for this row: the name's characters
  /// plus two 8-byte integers. The base of every *_per_user_byte ratio.
  size_t plain_bytes() const { return name.size() + 16; }
  std::vector<ssdb::Value> ToValues() const;
};

/// The fixed shape of a workload.
struct WorkloadSpec {
  std::string name;
  size_t rows = 0;
  ssdb::Topology topology;
  bool durable = false;
};

/// The three workloads; an unknown name yields an empty `name`.
WorkloadSpec FindWorkload(const std::string& name);

/// One closed-loop operation. A read carries one query, a wave
/// (point_batched) carries several that go through ExecuteBatch, and the
/// writes carry their key and new values.
struct Op {
  enum class Kind : uint8_t {
    kRead,    ///< Execute(queries[0])
    kWave,    ///< ExecuteBatch(queries)
    kUpdate,  ///< Update(name = row.name) SET salary = row.salary
    kInsert,  ///< Insert(row)
    kDelete,  ///< Delete(name = row.name)
  };
  Kind kind = Kind::kRead;
  std::vector<ssdb::Query> queries;
  Row row;

  bool is_write() const {
    return kind == Kind::kUpdate || kind == Kind::kInsert ||
           kind == Kind::kDelete;
  }
  /// Queries this op counts for in ops_per_s and the per-op ratios.
  size_t weight() const { return kind == Kind::kWave ? queries.size() : 1; }
};

/// \brief The op generator plus the plaintext model it is checked against.
class Workload {
 public:
  Workload(WorkloadSpec spec, uint64_t seed);

  const WorkloadSpec& spec() const { return spec_; }
  /// The rows every deployment of this run is loaded with.
  const std::vector<Row>& initial_rows() const { return initial_; }

  /// Rewinds the op stream and the model to the initial table.
  void Reset();
  /// The next op of the stream.
  Op Next();
  /// An update that rewrites a random live row's salary with its current
  /// value (from a stream of its own, so it never shifts Next()). The
  /// table, and with it the model, stays as it was.
  Op ProbeWrite();
  /// True when the op stream makes no writes (the write probe times the
  /// write path instead).
  bool read_only() const { return !spec_.durable; }

  /// Checks the answer to `query` (a query this workload generated)
  /// against the model; true when it matches.
  bool CheckQuery(const ssdb::Query& query,
                  const ssdb::QueryResult& result) const;
  /// Checks a write's reported effect and applies it to the model:
  /// `affected` is the row count Update/Delete reported (ignored for
  /// inserts). Returns true when the report matches the model.
  bool ApplyWrite(const Op& op, uint64_t affected);
  /// Checks a full-table scan against every live row of the model.
  bool CheckFullScan(const ssdb::QueryResult& result) const;

  /// Plaintext bytes of the model's live rows.
  uint64_t live_plain_bytes() const { return live_bytes_; }
  /// Plaintext bytes written by the writes applied since Reset(): whole
  /// rows for inserts and updates (an update reshares the row), the key
  /// for deletes.
  uint64_t loop_write_bytes() const { return write_bytes_; }

  /// Ops per shuffled cycle of the stream: any run of whole cycles holds
  /// the workload's exact op mix.
  size_t cycle_length() const;

  /// One query of each shape the op stream issues (for timed Explain).
  std::vector<ssdb::Query> Shapes() const;

 private:
  Op NextOlap();
  Op NextPointWave();
  Op NextOltp();
  std::string FreshName();
  /// Rows with salary in [lo, hi], from the sorted static index.
  std::vector<Row> RowsInSalaryRange(int64_t lo, int64_t hi) const;

  WorkloadSpec spec_;
  uint64_t seed_;
  std::vector<Row> initial_;
  std::vector<std::string> miss_names_;  ///< Names never in the table.

  // Op stream state.
  ssdb::Rng rng_;
  ssdb::Rng probe_rng_;
  std::optional<ssdb::NameGenerator> fresh_names_;  ///< Insert keys.
  std::vector<uint8_t> cycle_;  ///< Shuffled op kinds of the current cycle.
  size_t cycle_pos_ = 0;
  std::optional<ssdb::Zipf> zipf_;
  std::vector<size_t> zipf_order_;  ///< Zipf rank -> initial row index.

  // Model. `live_` maps a name to its row; `keys_` lists the live names
  // for uniform picks (swap-remove on delete).
  std::unordered_map<std::string, Row> live_;
  std::vector<std::string> keys_;
  std::unordered_map<std::string, size_t> key_pos_;
  std::unordered_set<std::string> used_names_;  ///< Ever inserted.
  uint64_t live_bytes_ = 0;
  uint64_t write_bytes_ = 0;
  // Static aggregates (read-only workloads never mutate the table).
  std::array<int64_t, 100> dept_sum_{};
  std::array<uint64_t, 100> dept_count_{};
  std::vector<int64_t> sorted_salaries_;
  std::vector<size_t> by_salary_;  ///< Initial row indexes sorted by salary.
};

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
