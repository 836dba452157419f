#include "workloads.h"

#include <algorithm>

namespace perfbench {

using ssdb::AggregateOp;
using ssdb::Between;
using ssdb::Eq;
using ssdb::Predicate;
using ssdb::Query;
using ssdb::QueryResult;
using ssdb::Value;

namespace {

constexpr int64_t kSalaryHi = ssdb::EmployeeGenerator::kSalaryHi;
constexpr int64_t kMaxDept = ssdb::EmployeeGenerator::kMaxDept;

// Sub-streams of the workload seed. Data and op stream never share one,
// so the table a seed builds does not depend on how many ops a run makes.
enum Stream : uint64_t {
  kNames = 1,
  kValues,
  kMisses,
  kOps,
  kInserts,
  kZipf,
  kProbe,
};

// Op kinds of the shuffled cycles. A cycle holds every kind in its exact
// share, so a run of any length sees the mix the workload defines.
enum OlapKind : uint8_t { kMedian, kGroupBy, kDeptSum, kDeptCount, kRange };
constexpr uint8_t kOlapShare[] = {1, 15, 9, 10, 15};  // of 50
enum OltpKind : uint8_t { kPointRead, kUpdateOp, kInsertOp, kDeleteOp };
constexpr uint8_t kOltpShare[] = {10, 5, 3, 2};  // of 20

template <size_t N>
constexpr size_t CycleLength(const uint8_t (&share)[N]) {
  size_t n = 0;
  for (uint8_t k : share) n += k;
  return n;
}

// point_batched: a wave of 16 independent queries, 13 name lookups (10%
// of them misses) and 3 narrow salary ranges of ~5 rows each. oltp_durable
// point reads miss at the same rate.
constexpr size_t kWavePoints = 13;
constexpr size_t kWaveRanges = 3;
constexpr double kMissRate = 0.1;
constexpr int64_t kNarrowWidth = 5;
constexpr double kZipfTheta = 0.99;
// olap_scan ranges cover 1% of the salary domain.
constexpr int64_t kWideWidth = (kSalaryHi + 1) / 100;

template <typename T>
void Shuffle(std::vector<T>* v, ssdb::Rng* rng) {
  for (size_t i = v->size(); i > 1; --i) {
    std::swap((*v)[i - 1], (*v)[rng->Uniform(i)]);
  }
}

Query PointQuery(const std::string& name) {
  return Query::Select(kTable).Where(Eq("name", Value::Str(name)));
}

Query SalaryRange(int64_t lo, int64_t hi) {
  return Query::Select(kTable).Where(
      Between("salary", Value::Int(lo), Value::Int(hi)));
}

Query DeptAggregate(AggregateOp op, int64_t dept) {
  return Query::Select(kTable)
      .Where(Eq("dept", Value::Int(dept)))
      .Aggregate(op, op == AggregateOp::kSum ? "salary" : "");
}

Query GroupBySum() {
  return Query::Select(kTable)
      .Aggregate(AggregateOp::kSum, "salary")
      .GroupBy("dept");
}

Query Median() {
  return Query::Select(kTable).Aggregate(AggregateOp::kMedian, "salary");
}

bool ToRow(const std::vector<Value>& values, Row* row) {
  if (values.size() != 3) return false;
  row->name = values[0].AsString();
  row->salary = values[1].AsInt();
  row->dept = values[2].AsInt();
  return true;
}

bool SameRows(std::vector<Row> expected,
              const std::vector<std::vector<Value>>& got) {
  if (expected.size() != got.size()) return false;
  std::vector<Row> actual(got.size());
  for (size_t i = 0; i < got.size(); ++i) {
    if (!ToRow(got[i], &actual[i])) return false;
  }
  auto by_name = [](const Row& a, const Row& b) { return a.name < b.name; };
  std::sort(expected.begin(), expected.end(), by_name);
  std::sort(actual.begin(), actual.end(), by_name);
  return expected == actual;
}

}  // namespace

std::vector<Value> Row::ToValues() const {
  return {Value::Str(name), Value::Int(salary), Value::Int(dept)};
}

WorkloadSpec FindWorkload(const std::string& name) {
  using ssdb::Partitioner;
  using ssdb::Topology;
  if (name == "olap_scan") {
    return {name, 100000, Topology(2, 3, 2, Partitioner::kHash), false};
  }
  if (name == "point_batched") {
    return {name, 200000, Topology(1, 4, 2), false};
  }
  if (name == "oltp_durable") {
    return {name, 50000, Topology(1, 4, 2), true};
  }
  return {};
}

Workload::Workload(WorkloadSpec spec, uint64_t seed)
    : spec_(std::move(spec)), seed_(seed) {
  const ssdb::Rng base(seed_);
  ssdb::NameGenerator names(base.ForkSeed(kNames));
  ssdb::Rng values(base.ForkSeed(kValues));
  std::unordered_set<std::string> seen;
  initial_.reserve(spec_.rows);
  while (initial_.size() < spec_.rows) {
    std::string name = names.Next(8);
    if (!seen.insert(name).second) continue;
    Row row;
    row.name = std::move(name);
    row.salary = values.UniformInt(0, kSalaryHi);
    row.dept = values.UniformInt(0, kMaxDept);
    initial_.push_back(std::move(row));
  }
  ssdb::NameGenerator misses(base.ForkSeed(kMisses));
  while (miss_names_.size() < 4096) {
    std::string name = misses.Next(8);
    if (seen.insert(name).second) miss_names_.push_back(std::move(name));
  }

  for (const Row& row : initial_) {
    dept_sum_[row.dept] += row.salary;
    ++dept_count_[row.dept];
    sorted_salaries_.push_back(row.salary);
  }
  std::sort(sorted_salaries_.begin(), sorted_salaries_.end());
  by_salary_.resize(initial_.size());
  for (size_t i = 0; i < by_salary_.size(); ++i) by_salary_[i] = i;
  std::sort(by_salary_.begin(), by_salary_.end(), [this](size_t a, size_t b) {
    return initial_[a].salary < initial_[b].salary;
  });

  if (spec_.name == "point_batched") {
    ssdb::Rng perm(base.ForkSeed(kZipf));
    zipf_order_ = std::vector<size_t>(initial_.size());
    for (size_t i = 0; i < zipf_order_.size(); ++i) zipf_order_[i] = i;
    Shuffle(&zipf_order_, &perm);
    zipf_.emplace(initial_.size(), kZipfTheta);
  }
  Reset();
}

void Workload::Reset() {
  const ssdb::Rng base(seed_);
  rng_ = ssdb::Rng(base.ForkSeed(kOps));
  probe_rng_ = ssdb::Rng(base.ForkSeed(kProbe));
  fresh_names_.emplace(base.ForkSeed(kInserts));
  cycle_.clear();
  cycle_pos_ = 0;
  write_bytes_ = 0;
  // The read-only workloads' writes (the probe) leave the table as
  // loaded, so their model is built once.
  if (read_only() && !live_.empty()) return;
  live_.clear();
  keys_.clear();
  key_pos_.clear();
  used_names_.clear();
  live_bytes_ = 0;
  // Inserts never take a name that reads use as a miss.
  used_names_.insert(miss_names_.begin(), miss_names_.end());
  for (const Row& row : initial_) {
    key_pos_[row.name] = keys_.size();
    keys_.push_back(row.name);
    used_names_.insert(row.name);
    live_bytes_ += row.plain_bytes();
    live_.emplace(row.name, row);
  }
}

Op Workload::Next() {
  if (spec_.name == "olap_scan") return NextOlap();
  if (spec_.name == "point_batched") return NextPointWave();
  return NextOltp();
}

namespace {

// The next kind from a cycle that holds each kind `share[k]` times.
template <size_t N>
uint8_t NextOfCycle(const uint8_t (&share)[N], std::vector<uint8_t>* cycle,
                    size_t* pos, ssdb::Rng* rng) {
  if (*pos == cycle->size()) {
    cycle->clear();
    for (uint8_t k = 0; k < N; ++k) cycle->insert(cycle->end(), share[k], k);
    Shuffle(cycle, rng);
    *pos = 0;
  }
  return (*cycle)[(*pos)++];
}

}  // namespace

Op Workload::NextOlap() {
  Op op;
  switch (NextOfCycle(kOlapShare, &cycle_, &cycle_pos_, &rng_)) {
    case kMedian:
      op.queries.push_back(Median());
      break;
    case kGroupBy:
      op.queries.push_back(GroupBySum());
      break;
    case kDeptSum:
      op.queries.push_back(
          DeptAggregate(AggregateOp::kSum, rng_.UniformInt(0, kMaxDept)));
      break;
    case kDeptCount:
      op.queries.push_back(
          DeptAggregate(AggregateOp::kCount, rng_.UniformInt(0, kMaxDept)));
      break;
    default: {
      const int64_t lo = rng_.UniformInt(0, kSalaryHi + 1 - kWideWidth);
      op.queries.push_back(SalaryRange(lo, lo + kWideWidth - 1));
      break;
    }
  }
  return op;
}

Op Workload::NextPointWave() {
  Op op;
  op.kind = Op::Kind::kWave;
  for (size_t i = 0; i < kWavePoints; ++i) {
    if (rng_.Bernoulli(kMissRate)) {
      op.queries.push_back(
          PointQuery(miss_names_[rng_.Uniform(miss_names_.size())]));
    } else {
      const size_t row = zipf_order_[zipf_->Sample(&rng_)];
      op.queries.push_back(PointQuery(initial_[row].name));
    }
  }
  for (size_t i = 0; i < kWaveRanges; ++i) {
    const int64_t lo = rng_.UniformInt(0, kSalaryHi + 1 - kNarrowWidth);
    op.queries.push_back(SalaryRange(lo, lo + kNarrowWidth - 1));
  }
  Shuffle(&op.queries, &rng_);
  return op;
}

Op Workload::NextOltp() {
  Op op;
  const uint8_t kind = NextOfCycle(kOltpShare, &cycle_, &cycle_pos_, &rng_);
  if (kind == kInsertOp || keys_.empty()) {
    op.kind = Op::Kind::kInsert;
    op.row.name = FreshName();
    op.row.salary = rng_.UniformInt(0, kSalaryHi);
    op.row.dept = rng_.UniformInt(0, kMaxDept);
    return op;
  }
  const std::string& key = keys_[rng_.Uniform(keys_.size())];
  op.row = live_.at(key);
  switch (kind) {
    case kPointRead:
      op.queries.push_back(PointQuery(
          rng_.Bernoulli(kMissRate)
              ? miss_names_[rng_.Uniform(miss_names_.size())]
              : key));
      break;
    case kUpdateOp:
      op.kind = Op::Kind::kUpdate;
      op.row.salary = rng_.UniformInt(0, kSalaryHi);
      break;
    default:
      op.kind = Op::Kind::kDelete;
      break;
  }
  return op;
}

Op Workload::ProbeWrite() {
  Op op;
  op.kind = Op::Kind::kUpdate;
  op.row = live_.at(keys_[probe_rng_.Uniform(keys_.size())]);
  return op;
}

std::string Workload::FreshName() {
  for (;;) {
    std::string name = fresh_names_->Next(8);
    if (used_names_.insert(name).second) return name;
  }
}

std::vector<Row> Workload::RowsInSalaryRange(int64_t lo, int64_t hi) const {
  auto first = std::lower_bound(
      by_salary_.begin(), by_salary_.end(), lo,
      [this](size_t i, int64_t v) { return initial_[i].salary < v; });
  std::vector<Row> rows;
  for (auto it = first; it != by_salary_.end(); ++it) {
    if (initial_[*it].salary > hi) break;
    rows.push_back(initial_[*it]);
  }
  return rows;
}

bool Workload::CheckQuery(const Query& query, const QueryResult& result) const {
  const std::vector<Predicate>& preds = query.predicates();
  switch (query.aggregate()) {
    case AggregateOp::kNone: {
      if (preds.size() != 1) return false;
      if (preds[0].kind == Predicate::Kind::kBetween) {
        return SameRows(
            RowsInSalaryRange(preds[0].lo.AsInt(), preds[0].hi.AsInt()),
            result.rows);
      }
      std::vector<Row> expected;
      auto it = live_.find(preds[0].eq.AsString());
      if (it != live_.end()) expected.push_back(it->second);
      return SameRows(std::move(expected), result.rows);
    }
    case AggregateOp::kMedian: {
      Row row;
      return !result.rows.empty() && ToRow(result.rows.front(), &row) &&
             row.salary == sorted_salaries_[(sorted_salaries_.size() - 1) / 2];
    }
    case AggregateOp::kSum:
      if (!query.group_by().empty()) {
        std::array<bool, kMaxDept + 1> seen{};
        size_t expected_groups = 0;
        for (uint64_t c : dept_count_) expected_groups += c != 0;
        if (result.groups.size() != expected_groups) return false;
        for (const ssdb::GroupResult& g : result.groups) {
          const int64_t d = g.key.AsInt();
          if (d < 0 || d > kMaxDept || seen[d] || g.sum != dept_sum_[d] ||
              g.count != dept_count_[d]) {
            return false;
          }
          seen[d] = true;
        }
        return true;
      }
      return preds.size() == 1 &&
             result.aggregate_int == dept_sum_[preds[0].eq.AsInt()] &&
             result.count == dept_count_[preds[0].eq.AsInt()];
    case AggregateOp::kCount:
      return preds.size() == 1 &&
             result.count == dept_count_[preds[0].eq.AsInt()];
    default:
      return false;
  }
}

bool Workload::ApplyWrite(const Op& op, uint64_t affected) {
  switch (op.kind) {
    case Op::Kind::kInsert:
      key_pos_[op.row.name] = keys_.size();
      keys_.push_back(op.row.name);
      live_.emplace(op.row.name, op.row);
      live_bytes_ += op.row.plain_bytes();
      write_bytes_ += op.row.plain_bytes();
      return true;
    case Op::Kind::kUpdate: {
      auto it = live_.find(op.row.name);
      if (it == live_.end()) return affected == 0;
      it->second.salary = op.row.salary;
      write_bytes_ += it->second.plain_bytes();
      return affected == 1;
    }
    case Op::Kind::kDelete: {
      auto it = live_.find(op.row.name);
      if (it == live_.end()) return affected == 0;
      live_bytes_ -= it->second.plain_bytes();
      write_bytes_ += op.row.name.size();
      live_.erase(it);
      const size_t pos = key_pos_.at(op.row.name);
      key_pos_[keys_.back()] = pos;
      std::swap(keys_[pos], keys_.back());
      keys_.pop_back();
      key_pos_.erase(op.row.name);
      return affected == 1;
    }
    default:
      return false;
  }
}

bool Workload::CheckFullScan(const QueryResult& result) const {
  if (result.rows.size() != live_.size()) return false;
  std::unordered_set<std::string> seen;
  for (const std::vector<Value>& values : result.rows) {
    Row row;
    if (!ToRow(values, &row)) return false;
    auto it = live_.find(row.name);
    if (it == live_.end() || !(it->second == row)) return false;
    if (!seen.insert(row.name).second) return false;
  }
  return true;
}

size_t Workload::cycle_length() const {
  if (spec_.name == "olap_scan") return CycleLength(kOlapShare);
  if (spec_.name == "oltp_durable") return CycleLength(kOltpShare);
  return 1;
}

std::vector<Query> Workload::Shapes() const {
  const std::string& name = initial_.front().name;
  if (spec_.name == "olap_scan") {
    return {Median(), GroupBySum(), DeptAggregate(AggregateOp::kSum, 7),
            DeptAggregate(AggregateOp::kCount, 7),
            SalaryRange(1000, 1000 + kWideWidth - 1)};
  }
  if (spec_.name == "point_batched") {
    return {PointQuery(name), SalaryRange(1000, 1000 + kNarrowWidth - 1)};
  }
  return {PointQuery(name)};
}

}  // namespace perfbench
