#ifndef AUTOCAT_EXEC_PIPELINE_COLD_PATH_H_
#define AUTOCAT_EXEC_PIPELINE_COLD_PATH_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/thread_pool.h"
#include "exec/kernels.h"
#include "exec/pipeline/operator.h"
#include "storage/attr_index.h"
#include "storage/table.h"

namespace autocat {

struct ColdPipelineOptions {
  /// Threads for the morsel scheduler (output is identical at any count).
  ParallelOptions parallel;
  /// Result columns the StatsAccumulate sink should index, by name
  /// (null = every supported column). Borrowed; must outlive the call.
  const std::vector<std::string>* stats_attributes = nullptr;
};

/// Cumulative per-operator wall time (summed across workers) and the
/// morsel counts — the serving layer exports these as the per-operator
/// metrics histograms and the zone-pruning counters.
struct ColdPipelineTimings {
  size_t morsels = 0;
  /// Morsels the zone prover ruled all-fail: never dispatched, no cell
  /// touched.
  size_t morsels_pruned = 0;
  /// Morsels the zone prover ruled all-pass: dispatched with dense
  /// survivors, no per-row evaluation.
  size_t morsels_all_pass = 0;
  /// Mixed morsels whose leaf masks went through the SIMD kernels (zero
  /// when the predicate has no vectorizable leaf or AVX2 is unavailable).
  size_t simd_morsels = 0;
  double filter_ms = 0;
  double project_ms = 0;
  double stats_ms = 0;
};

/// Everything the cold serve path needs from one pass over the base
/// relation. `result` row i is selection position i, exactly as
/// `TableView::Materialize` over `selection` would produce, and
/// `result_bytes` equals the cache's byte accounting over `result`.
struct ColdPipelineResult {
  std::vector<uint32_t> selection;
  Table result;
  size_t result_bytes = 0;
  ResultAttributeIndex attr_index;
  ColdPipelineTimings timings;
};

/// Runs the push pipeline for one cold request: each morsel is filtered
/// through the compiled WHERE kernels and its survivors pushed straight
/// into the Selection / Project / StatsAccumulate sinks, so the
/// selection, the materialized projected result, its byte accounting, and
/// the per-attribute index come out of a single scan with no inter-stage
/// barrier or full-selection materialization in between. Sinks key their
/// partials by morsel index and merge in index order, so every output is
/// bit-identical to the legacy Filter -> Materialize -> rescan chain at
/// any thread count.
///
/// `columns` is the projection (empty = all base columns); errors mirror
/// `TableView::Create` (unknown projection column).
Result<ColdPipelineResult> RunColdPipeline(const CompiledPredicate& predicate,
                                           const Table& base,
                                           const ColumnarTable* columnar,
                                           const std::vector<std::string>& columns,
                                           const ColdPipelineOptions& options);

}  // namespace autocat

#endif  // AUTOCAT_EXEC_PIPELINE_COLD_PATH_H_
