// The traced replay (README.md, "Traced mode"): one client replays the
// request stream through the public entry point of each layer, in the
// order CategorizationService::AttemptServe calls them, with a span
// around every call. The spans are recorded here, outside the program.

#include <algorithm>
#include <fstream>

#include "bench.h"
#include "core/categorizer.h"
#include "exec/executor.h"
#include "exec/kernels.h"
#include "exec/pipeline/cold_path.h"
#include "serve/signature.h"
#include "sql/parser.h"
#include "storage/columnar.h"
#include "workload/counts.h"

namespace perfbench {

using autocat::Result;
using autocat::Status;

int32_t Tracer::Begin(const char* name, uint32_t request) {
  Span span;
  span.name = name;
  span.parent = open_;
  span.request = request;
  span.start_ns = NowNs();
  spans_.push_back(span);
  open_ = static_cast<int32_t>(spans_.size() - 1);
  return open_;
}

void Tracer::End(int32_t id) {
  spans_[id].end_ns = NowNs();
  open_ = spans_[id].parent;
}

std::map<std::string, SpanTotals> Aggregate(const std::vector<Span>& spans) {
  std::vector<double> child_ns(spans.size(), 0);
  for (const Span& span : spans) {
    if (span.parent >= 0) {
      child_ns[span.parent] += static_cast<double>(span.end_ns - span.start_ns);
    }
  }
  std::map<std::string, SpanTotals> out;
  for (size_t i = 0; i < spans.size(); ++i) {
    const double total = static_cast<double>(spans[i].end_ns - spans[i].start_ns);
    SpanTotals& t = out[spans[i].name];
    ++t.count;
    t.total_ns += total;
    t.self_ns += total - child_ns[i];
  }
  return out;
}

Status WriteSpans(const std::vector<Span>& spans, const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot write " + path);
  out << "id\tparent\trequest\tname\tstart_ns\tend_ns\n";
  const int64_t base = spans.empty() ? 0 : spans.front().start_ns;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << i << '\t' << s.parent << '\t' << s.request << '\t' << s.name
        << '\t' << (s.start_ns - base) << '\t' << (s.end_ns - base) << '\n';
  }
  out.flush();
  return out ? Status::OK() : Status::IOError("short write to " + path);
}

Status TracedReplay(const Inputs& in, const autocat::Table& table,
                    const autocat::Workload& log,
                    const autocat::ServiceOptions& options, size_t requests,
                    Tracer* tracer, ReplayStats* stats) {
  using namespace autocat;  // NOLINT: the replay names every layer
  Database db;
  AUTOCAT_RETURN_IF_ERROR(db.RegisterTable("ListProperty", table));
  SignatureOptions signature = options.signature;
  if (signature.bucket_widths.empty()) {
    signature.bucket_widths = options.stats.split_intervals;
  }
  CategorizerOptions categorizer_options = options.categorizer;
  categorizer_options.parallel.threads = 1;
  SignatureCache cache(options.cache);
  ParallelOptions sequential;
  sequential.threads = 1;
  std::shared_ptr<const WorkloadStats> workload_stats;
  bool shadow_built = false;
  const size_t refresh_period = in.refresh_every * in.clients;

  stats->digests.assign(in.stream.size(), Digest{});
  for (size_t i = 0; i < requests; ++i) {
    if (in.distinct && i >= in.stream.size()) break;
    if (refresh_period > 0 && i > 0 && i % refresh_period == 0) {
      Table copy = table;
      ScopedSpan span(tracer, "serve.put_table", static_cast<uint32_t>(i));
      db.PutTable("ListProperty", std::move(copy));
      cache.BumpEpoch();
      workload_stats.reset();
      shadow_built = false;
    }
    const size_t index = i % in.stream.size();
    const uint32_t rid = static_cast<uint32_t>(i);
    const int64_t start = NowNs();
    {
      ScopedSpan request_span(tracer, "request", rid);
      Result<SelectQuery> query = [&] {
        ScopedSpan span(tracer, "sql.parse", rid);
        return ParseQuery(in.stream[index]);
      }();
      AUTOCAT_RETURN_IF_ERROR(query.status());
      AUTOCAT_ASSIGN_OR_RETURN(const Table* base, db.GetTable("listproperty"));
      Result<CanonicalQuery> canonical = [&] {
        ScopedSpan span(tracer, "signature.canonicalize", rid);
        return CanonicalizeQuery(query.value(), base->schema(), signature);
      }();
      AUTOCAT_RETURN_IF_ERROR(canonical.status());
      std::shared_ptr<const CachedCategorization> payload;
      {
        ScopedSpan span(tracer, "cache.probe", rid);
        payload = cache.Get(canonical->key, canonical->hash);
      }
      if (!payload) {
        if (!workload_stats) {
          ScopedSpan span(tracer, "workload.stats_build", rid);
          AUTOCAT_ASSIGN_OR_RETURN(
              WorkloadStats built,
              WorkloadStats::Build(log, base->schema(), options.stats,
                                   sequential));
          workload_stats = std::make_shared<const WorkloadStats>(
              std::move(built));
        }
        const uint64_t epoch = cache.epoch();
        const CostBasedCategorizer categorizer(workload_stats.get(),
                                               categorizer_options);
        Result<std::shared_ptr<const ColumnarTable>> shadow = [&] {
          ScopedSpan span(tracer,
                          shadow_built || !base->has_rows()
                              ? "columnar.lookup"
                              : "columnar.shadow_build",
                          rid);
          return db.ColumnarFor("ListProperty");
        }();
        AUTOCAT_RETURN_IF_ERROR(shadow.status());
        shadow_built = true;
        Result<CompiledPredicate> compiled = [&] {
          ScopedSpan span(tracer, "exec.compile", rid);
          return CompiledPredicate::CompileProfile(canonical->profile,
                                                   base->schema(), *shadow);
        }();
        AUTOCAT_RETURN_IF_ERROR(compiled.status());
        std::vector<std::string> retained;
        {
          ScopedSpan span(tracer, "core.retained_attributes", rid);
          retained = categorizer.RetainedAttributes(base->schema());
        }
        ColdPipelineOptions pipe_options;
        pipe_options.parallel = sequential;
        pipe_options.stats_attributes = &retained;
        Result<ColdPipelineResult> piped = [&] {
          ScopedSpan span(tracer, "exec.pipeline", rid);
          return RunColdPipeline(compiled.value(), *base, shadow->get(),
                                 canonical->columns, pipe_options);
        }();
        AUTOCAT_RETURN_IF_ERROR(piped.status());
        const ColdPipelineTimings& timings = piped->timings;
        ++stats->pipelines;
        stats->morsels += timings.morsels;
        stats->pruned += timings.morsels_pruned;
        stats->all_pass += timings.morsels_all_pass;
        stats->simd += timings.simd_morsels;
        stats->filter_ms += timings.filter_ms;
        stats->gather_ms += timings.project_ms;
        stats->attr_index_ms += timings.stats_ms;
        stats->rows_scanned += static_cast<double>(std::min(
            (timings.morsels - timings.morsels_pruned) * kZoneRows,
            base->num_rows()));
        Result<TableView> view = [&] {
          ScopedSpan span(tracer, "exec.view", rid);
          return TableView::Create(*base, *shadow,
                                   std::move(piped->selection),
                                   canonical->columns);
        }();
        AUTOCAT_RETURN_IF_ERROR(view.status());
        const ResultAttributeIndex attr_index = std::move(piped->attr_index);
        Result<std::shared_ptr<const CachedCategorization>> built = [&] {
          ScopedSpan span(tracer, "core.build", rid);
          return CachedCategorization::Build(
              std::move(piped->result), piped->result_bytes,
              [&](const Table& owned) -> Result<CategoryTree> {
                ScopedSpan categorize(tracer, "core.categorize", rid);
                return categorizer.Categorize(view.value(), owned,
                                              &canonical->profile,
                                              &attr_index);
              });
        }();
        AUTOCAT_RETURN_IF_ERROR(built.status());
        payload = std::move(built).value();
        stats->result_rows += static_cast<double>(payload->result_rows());
        stats->tree_nodes += static_cast<double>(payload->tree().num_nodes());
        stats->entry_bytes += static_cast<double>(payload->approx_bytes());
        {
          ScopedSpan span(tracer, "cache.insert", rid);
          cache.Insert(canonical->key, canonical->hash, payload, epoch);
        }
      }
      Digest& digest = stats->digests[index];
      digest.rows = static_cast<uint32_t>(payload->result_rows());
      digest.nodes = static_cast<uint32_t>(payload->tree().num_nodes());
      digest.seen = true;
    }
    stats->request_ms.push_back(static_cast<double>(NowNs() - start) / 1e6);
  }
  return Status::OK();
}

}  // namespace perfbench
