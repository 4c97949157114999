#include "exec/pipeline/cold_path.h"

#include <atomic>
#include <chrono>
#include <numeric>
#include <utility>

#include "exec/pipeline/scheduler.h"
#include "exec/simd_kernels.h"
#include "storage/schema.h"

namespace autocat {

namespace {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

Result<ColdPipelineResult> RunColdPipeline(
    const CompiledPredicate& predicate, const Table& base,
    const ColumnarTable* columnar, const std::vector<std::string>& columns,
    const ColdPipelineOptions& options) {
  // Resolve the projection exactly as TableView::Create does.
  PipelineInput input;
  input.base = &base;
  input.columnar = columnar;
  std::vector<size_t> projection;
  Schema schema;
  if (columns.empty()) {
    projection.resize(base.num_columns());
    std::iota(projection.begin(), projection.end(), size_t{0});
    schema = base.schema();
  } else {
    std::vector<ColumnDef> defs;
    defs.reserve(columns.size());
    projection.reserve(columns.size());
    for (const std::string& name : columns) {
      AUTOCAT_ASSIGN_OR_RETURN(const size_t idx,
                               base.schema().ColumnIndex(name));
      defs.push_back(base.schema().column(idx));
      projection.push_back(idx);
    }
    AUTOCAT_ASSIGN_OR_RETURN(schema, Schema::Create(std::move(defs)));
  }
  input.schema = &schema;
  input.projection = &projection;
  input.stats_attributes = options.stats_attributes;
  input.num_morsels = predicate.num_morsels();

  SelectionSink selection_sink;
  ProjectSink project_sink;
  StatsAccumulateSink stats_sink;
  // The sinks' Open returns void. autocat-lint: allow(dropped-status)
  selection_sink.Open(input);  // autocat-lint: allow(dropped-status)
  project_sink.Open(input);    // autocat-lint: allow(dropped-status)
  stats_sink.Open(input);      // autocat-lint: allow(dropped-status)

  const size_t n = predicate.num_rows();

  // Zone-prove every morsel up front. All-fail morsels are never
  // dispatched at all — the sinks tolerate un-pushed morsels (zero
  // survivors), so pruning drops both the kernel work and the scheduling
  // overhead. All-pass morsels still dispatch (their dense survivors must
  // flow into the sinks) but skip per-row evaluation inside
  // AppendMorselSurvivors; only the mixed remainder does real work.
  std::vector<size_t> worklist;
  worklist.reserve(input.num_morsels);
  size_t all_pass_morsels = 0;
  for (size_t m = 0; m < input.num_morsels; ++m) {
    const auto verdict = predicate.MorselVerdict(m);
    if (verdict == CompiledPredicate::ZoneVerdict::kAllFail) {
      continue;
    }
    if (verdict == CompiledPredicate::ZoneVerdict::kAllPass) {
      ++all_pass_morsels;
    }
    worklist.push_back(m);
  }

  std::vector<size_t> counts(input.num_morsels, 0);
  // atomic-order: relaxed — pure accumulators; MorselScheduler::Run's
  // join is the synchronization point before they are read.
  std::atomic<uint64_t> filter_ns{0};   // atomic-order: relaxed (above)
  std::atomic<uint64_t> project_ns{0};  // atomic-order: relaxed (above)
  std::atomic<uint64_t> stats_ns{0};    // atomic-order: relaxed (above)
  AUTOCAT_RETURN_IF_ERROR(MorselScheduler::Run(
      options.parallel, worklist.size(), [&](size_t w) -> Status {
        const size_t m = worklist[w];
        const Morsel morsel = MorselAt(m, n);
        std::vector<uint32_t> survivors;
        uint64_t t0 = NowNs();
        predicate.AppendMorselSurvivors(m, &survivors);
        const uint64_t t1 = NowNs();
        filter_ns.fetch_add(t1 - t0, std::memory_order_relaxed);
        counts[m] = survivors.size();
        selection_sink.Push(morsel, survivors.data(), survivors.size());
        project_sink.Push(morsel, survivors.data(), survivors.size());
        const uint64_t t2 = NowNs();
        project_ns.fetch_add(t2 - t1, std::memory_order_relaxed);
        stats_sink.Push(morsel, survivors.data(), survivors.size());
        stats_ns.fetch_add(NowNs() - t2, std::memory_order_relaxed);
        return Status::OK();
      }));

  std::vector<size_t> offsets(input.num_morsels + 1, 0);
  for (size_t m = 0; m < input.num_morsels; ++m) {
    offsets[m + 1] = offsets[m] + counts[m];
  }

  ColdPipelineResult out;
  uint64_t t0 = NowNs();
  AUTOCAT_RETURN_IF_ERROR(selection_sink.Finish(offsets));
  AUTOCAT_RETURN_IF_ERROR(project_sink.Finish(offsets));
  const uint64_t t1 = NowNs();
  project_ns.fetch_add(t1 - t0, std::memory_order_relaxed);
  AUTOCAT_RETURN_IF_ERROR(stats_sink.Finish(offsets));
  stats_ns.fetch_add(NowNs() - t1, std::memory_order_relaxed);
  out.attr_index = std::move(stats_sink.index());

  out.selection = std::move(selection_sink.selection());
  out.result = std::move(project_sink.result());
  out.result_bytes = project_sink.result_bytes();
  out.timings.morsels = input.num_morsels;
  out.timings.morsels_pruned = input.num_morsels - worklist.size();
  out.timings.morsels_all_pass = all_pass_morsels;
  if (predicate.uses_simd() && simd::Enabled()) {
    // Mixed morsels are the ones whose leaf masks actually ran; with a
    // vectorizable predicate and AVX2 live, those went through the SIMD
    // kernels.
    out.timings.simd_morsels = worklist.size() - all_pass_morsels;
  }
  out.timings.filter_ms =
      static_cast<double>(filter_ns.load(std::memory_order_relaxed)) / 1e6;
  out.timings.project_ms =
      static_cast<double>(project_ns.load(std::memory_order_relaxed)) / 1e6;
  out.timings.stats_ms =
      static_cast<double>(stats_ns.load(std::memory_order_relaxed)) / 1e6;
  return out;
}

}  // namespace autocat
