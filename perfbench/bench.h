// Shared declarations of the serving benchmark (see README.md): the
// generated inputs of each workload, the output oracle, and the span
// recorder of the traced replay. Everything here lives on the benchmark's
// side of the boundary; the program under test only ever sees the
// generated tables, the query log and the SQL request stream.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "serve/cache.h"
#include "serve/service.h"
#include "simgen/geo.h"
#include "storage/table.h"
#include "workload/workload.h"

namespace perfbench {

using autocat::Result;
using autocat::Status;

class OracleTable;

inline double NowS() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Split-point intervals of the paper (price 5000, square footage 100,
// year built 5, counts 1). The service is configured with these, and the
// oracle snaps query bounds to the same grid on its own.
const std::map<std::string, double>& SplitIntervals();

// ---------------------------------------------------------------------------
// Inputs

struct Inputs {
  std::string workload;
  uint64_t seed = 0;
  // The ListProperty table: rows and generator seed. `store` writes it
  // with StoreWriter sorted on `sort_by` and maps it with SegmentStore.
  size_t table_rows = 0;
  uint64_t table_seed = 0;
  bool store = false;
  std::string sort_by;
  // The query log the service preprocesses (WorkloadGenerator).
  size_t log_queries = 0;
  uint64_t log_seed = 0;
  // Closed-loop clients; request i of `stream` belongs to client
  // i % clients. Client 0 calls PutTable with a fresh copy of the table
  // after every `refresh_every` of its own requests (0 = never).
  size_t clients = 1;
  size_t refresh_every = 0;
  // Requests per stratified round (the tree-cost mean covers whole
  // rounds only).
  size_t round = 1;
  // True: every request has its own canonical signature and the stream
  // is consumed once. False: clients cycle through their share.
  bool distinct = false;
  std::vector<std::string> stream;
};

// The fixed parameters of workload `name` ("sessions", "cold-strata",
// "store-selective") with seeds derived from `seed`; the stream is empty.
Result<Inputs> DefineWorkload(const std::string& name, uint64_t seed);
// Fills `in->stream` (and `in->round`) from the seed. The stratified
// workloads calibrate result sizes against the oracle's copy of the rows.
Status GenerateStream(Inputs* in, const OracleTable& table,
                      const autocat::Geography& geo);

// The record/replay file: the parameters above, then one SQL per line.
Status WriteInputs(const Inputs& inputs, const std::string& path);
Result<Inputs> ReadInputs(const std::string& path);

// ---------------------------------------------------------------------------
// Oracle

// The benchmark's own copy of the base rows, made before the program sees
// them: numeric cells as doubles, strings dictionary-coded.
class OracleTable {
 public:
  OracleTable();
  void Append(const autocat::Row& row);
  // Builds the neighborhood and price indexes; call after the last Append.
  void Finish();

  size_t num_rows() const { return rows_; }
  int ColumnOf(const std::string& name) const;
  bool IsString(int col) const { return is_string_[col]; }
  double Num(int col, size_t row) const { return num_[col][row]; }
  uint32_t Code(int col, size_t row) const { return code_[col][row]; }
  const std::string& Str(int col, size_t row) const {
    return dict_[col][code_[col][row]];
  }
  // Code of `s` in column `col`, or -1 when no row holds it.
  int64_t Lookup(int col, const std::string& s) const;
  const std::vector<uint32_t>& RowsOfNeighborhood(uint32_t code) const {
    return by_neighborhood_[code];
  }
  // Row ids ordered by price, and the matching sorted prices.
  const std::vector<uint32_t>& RowsByPrice() const { return by_price_; }
  const std::vector<double>& SortedPrices() const { return sorted_prices_; }
  uint64_t RowFingerprint(size_t row) const;

 private:
  size_t rows_ = 0;
  std::vector<std::string> names_;
  std::vector<bool> is_string_;
  std::vector<std::vector<double>> num_;
  std::vector<std::vector<uint32_t>> code_;
  std::vector<std::vector<std::string>> dict_;
  std::vector<std::unordered_map<std::string, uint32_t>> lookup_;
  std::vector<std::vector<uint32_t>> by_neighborhood_;
  std::vector<uint32_t> by_price_;
  std::vector<double> sorted_prices_;
};

// One conjunct of a query as the benchmark reads it from the SQL text.
struct Condition {
  std::string attribute;
  bool is_set = false;
  std::vector<std::string> strings;  // IN / = on a string column
  double lo = -std::numeric_limits<double>::infinity();
  double hi = std::numeric_limits<double>::infinity();
  bool lo_inclusive = true;
  bool hi_inclusive = true;
};

struct QuerySpec {
  std::vector<Condition> conditions;
};

// Parses the SELECT * ... WHERE <conjunction> subset the generators emit
// (=, IN, BETWEEN, <, <=, >, >=). Independent of the program's parser.
autocat::Result<QuerySpec> ParseSpec(const std::string& sql);
// Outward snap of every range bound to the split grid (inclusive), as the
// canonical signature does.
QuerySpec Snapped(const QuerySpec& spec);
// A canonical text of the snapped query, for de-duplicating signatures.
std::string SpecKey(const QuerySpec& snapped);
std::string RenderSql(const QuerySpec& spec);

// Base rows matching `spec`, in ascending row order.
std::vector<uint32_t> MatchingRows(const OracleTable& table,
                                   const QuerySpec& spec);
size_t CountMatching(const OracleTable& table, const QuerySpec& spec);

// Attributes of the query log used by at least `threshold` of its
// queries: the paper's candidate set (Section 5.1.1), counted from the
// SQL text.
std::vector<std::string> CandidateAttributes(
    const std::vector<std::string>& log_sql, double threshold);

// Full check of one answer: row count against the snapped predicate,
// every result row satisfies it, every row of the unsnapped predicate is
// present, and the tree has the Section 3.1 properties. Returns "" when
// the answer passes, else the first violation.
std::string CheckAnswer(const OracleTable& table, const QuerySpec& spec,
                        const autocat::CachedCategorization& answer,
                        size_t max_leaf_rows,
                        const std::vector<std::string>& candidates);
std::string CheckTree(const autocat::CategoryTree& tree, size_t max_leaf_rows,
                      const std::vector<std::string>& candidates);
// Structural fingerprint of result rows (in order) and tree.
uint64_t AnswerFingerprint(const autocat::CachedCategorization& answer);

// Shows the oracle rejects a corrupted result and a corrupted tree.
// Returns 0 on success.
int OracleSelfTest();

// ---------------------------------------------------------------------------
// Spans

struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;
  uint32_t request = 0;
};

// Single-threaded in-memory span log. Spans nest by call order.
class Tracer {
 public:
  int32_t Begin(const char* name, uint32_t request);
  void End(int32_t id);
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  int32_t open_ = -1;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, uint32_t request)
      : tracer_(tracer), id_(tracer->Begin(name, request)) {}
  ~ScopedSpan() { tracer_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int32_t id_;
};

// What one answer looked like: enough to tell that two answers for the
// same signature differ, cheap enough to take inside the timed loop.
struct Digest {
  uint32_t rows = 0;
  uint32_t nodes = 0;
  bool seen = false;
};

struct ReplayStats {
  std::vector<double> request_ms;
  std::vector<Digest> digests;  // by stream index
  size_t pipelines = 0;
  size_t morsels = 0;
  size_t pruned = 0;
  size_t all_pass = 0;
  size_t simd = 0;
  double rows_scanned = 0;
  double filter_ms = 0;
  double gather_ms = 0;
  double attr_index_ms = 0;
  double result_rows = 0;
  double tree_nodes = 0;
  double entry_bytes = 0;
};

// Replays the first `requests` requests of the stream in order (client
// assignment merged, refreshes at the same points) through each layer's
// entry point, recording spans into `tracer`.
Status TracedReplay(const Inputs& in, const autocat::Table& table,
                    const autocat::Workload& log,
                    const autocat::ServiceOptions& options, size_t requests,
                    Tracer* tracer, ReplayStats* stats);

struct SpanTotals {
  size_t count = 0;
  double self_ns = 0;
  double total_ns = 0;
};
// Per span name: calls, self time (duration minus the part its children
// cover) and total time.
std::map<std::string, SpanTotals> Aggregate(const std::vector<Span>& spans);
Status WriteSpans(const std::vector<Span>& spans, const std::string& path);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
