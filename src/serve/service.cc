#include "serve/service.h"

#include <chrono>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "exec/kernels.h"
#include "exec/pipeline/cold_path.h"
#include "sql/parser.h"
#include "storage/columnar.h"

namespace autocat {

namespace {

// Releases the admission slot on every exit path.
class AdmissionSlot {
 public:
  explicit AdmissionSlot(AdmissionController* admission)
      : admission_(admission) {}
  ~AdmissionSlot() { admission_->Release(); }
  AdmissionSlot(const AdmissionSlot&) = delete;
  AdmissionSlot& operator=(const AdmissionSlot&) = delete;

 private:
  AdmissionController* admission_;
};

double WallMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

CacheOptions WithServiceClock(CacheOptions cache,
                              const std::function<int64_t()>& now_ms) {
  if (!cache.now_ms && now_ms) {
    cache.now_ms = now_ms;
  }
  return cache;
}

SignatureOptions WithDefaultBuckets(SignatureOptions signature,
                                    const WorkloadStatsOptions& stats) {
  if (signature.bucket_widths.empty()) {
    signature.bucket_widths = stats.split_intervals;
  }
  return signature;
}

}  // namespace

CategorizationService::CategorizationService(Database db, Workload workload,
                                             ServiceOptions options)
    : options_(std::move(options)),
      db_(std::move(db)),
      workload_(std::move(workload)),
      adaptive_(options_.adaptive, options_.cache.ttl_ms,
                options_.cache.capacity_bytes),
      cache_(WithServiceClock(options_.cache, options_.now_ms)),
      admission_(options_.max_concurrent, options_.max_queue,
                 options_.now_ms),
      traffic_(options_.adaptive.max_tracked_endpoints) {
  options_.signature =
      WithDefaultBuckets(std::move(options_.signature), options_.stats);
  base_signature_ = options_.signature;
  {
    WriterLock lock(state_mu_);
    signature_ = base_signature_;
  }
  // The serving layer takes its parallelism across requests; an
  // unconfigured categorizer (threads = 0 elsewhere means "hardware")
  // builds each tree sequentially so concurrent requests don't oversubscribe.
  if (options_.categorizer.parallel.threads == 0) {
    options_.categorizer.parallel.threads = 1;
  }
}

int64_t CategorizationService::NowMs() const {
  if (options_.now_ms) {
    return options_.now_ms();
  }
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Result<ServeResponse> CategorizationService::Handle(
    const ServeRequest& request) {
  const double wall_start = WallMs();
  const int64_t now = NowMs();
  Deadline deadline = Deadline::Never();
  if (request.deadline_ms > 0) {
    deadline = Deadline::At(now + request.deadline_ms);
  } else if (options_.default_deadline_ms > 0) {
    deadline = Deadline::At(now + options_.default_deadline_ms);
  }

  const Status admitted = admission_.Admit(deadline);
  if (!admitted.ok()) {
    const ServeOutcome outcome =
        admitted.code() == StatusCode::kOverloaded
            ? ServeOutcome::kOverloaded
            : ServeOutcome::kDeadlineExceeded;
    metrics_.Record(outcome, WallMs() - wall_start);
    return admitted;
  }
  AdmissionSlot slot(&admission_);

  ServeOutcome outcome = ServeOutcome::kError;
  auto response = HandleAdmitted(request, deadline, &outcome);
  const double latency = WallMs() - wall_start;
  metrics_.Record(outcome, latency);
  if (response.ok()) {
    response.value().latency_ms = latency;
  }
  return response;
}

Result<ServeResponse> CategorizationService::HandleAdmitted(
    const ServeRequest& request, const Deadline& deadline,
    ServeOutcome* outcome) {
  *outcome = ServeOutcome::kError;
  const double parse_start = WallMs();
  AUTOCAT_ASSIGN_OR_RETURN(const SelectQuery query,
                           ParseQuery(request.sql));
  metrics_.RecordOperator(ServeOperator::kParse, WallMs() - parse_start);
  const std::string table_key = ToLower(query.table_name);

  bool allow_follow = options_.coalesce_inflight && !request.bypass_cache;
  // Up to four passes: a pass may be spent building missing per-table
  // WorkloadStats, another following a flight that fails or races a
  // PutTable (retried solo), with slack for one more stats rebuild after
  // a concurrent table swap. Everything that reads table contents stays
  // inside one shared-lock section, paired with the cache epoch observed
  // in that same section, so a concurrent PutTable can never leak
  // mixed-state entries into the cache or across a coalesced flight.
  for (int attempt = 0; attempt < 4; ++attempt) {
    CoalesceTicket ticket;
    std::string probe_key;
    SelectionProfile probe_profile;
    bool need_stats = false;
    if (allow_follow) {
      // Probe pass: resolve the canonical signature and the cache under
      // the shared lock, then take or join the coalescing slot for the
      // cold execution. The slot is keyed on the epoch observed in this
      // same section (serve/coalesce.h explains why).
      ReaderLock lock(state_mu_);
      AUTOCAT_ASSIGN_OR_RETURN(const Table* table,
                               db_.GetTable(table_key));
      AUTOCAT_ASSIGN_OR_RETURN(
          CanonicalQuery canonical,
          CanonicalizeQuery(query, table->schema(), signature_));
      if (auto payload = cache_.Get(canonical.key, canonical.hash)) {
        *outcome = ServeOutcome::kHit;
        traffic_.Record(true, canonical.profile);
        ServeResponse response;
        response.payload = std::move(payload);
        response.cache_hit = true;
        response.signature = std::move(canonical.key);
        return response;
      }
      if (deadline.ExpiredAt(NowMs())) {
        *outcome = ServeOutcome::kDeadlineExceeded;
        return Status::DeadlineExceeded(
            "deadline passed before query execution");
      }
      // as_const: the const overload of find() — under a shared (reader)
      // lock the analysis only permits const access to guarded members.
      if (std::as_const(stats_by_table_).find(table_key) ==
          stats_by_table_.cend()) {
        need_stats = true;
      } else {
        ticket = coalescing_.JoinOrLead(canonical.key, cache_.epoch());
        probe_key = std::move(canonical.key);
        probe_profile = canonical.profile;
      }
    }
    if (need_stats) {
      AUTOCAT_RETURN_IF_ERROR(StatsFor(table_key).status());
      continue;
    }

    if (ticket.kind == CoalesceTicket::Kind::kFollower) {
      const int64_t timeout_ms =
          deadline.is_unbounded() ? -1 : deadline.RemainingMs(NowMs());
      const AwaitOutcome awaited =
          coalescing_.Await(*ticket.flight, timeout_ms);
      if (awaited.completed && awaited.status.ok() && awaited.payload &&
          awaited.computed_epoch == ticket.flight->epoch) {
        metrics_.RecordCoalescedHit();
        // No execution happened on our behalf; the adaptive controller
        // should see this as hit-shaped traffic.
        traffic_.Record(true, probe_profile);
        *outcome = ServeOutcome::kMiss;
        ServeResponse response;
        response.payload = awaited.payload;
        response.cache_hit = false;
        response.signature = std::move(probe_key);
        return response;
      }
      if (!awaited.completed && deadline.ExpiredAt(NowMs())) {
        *outcome = ServeOutcome::kDeadlineExceeded;
        return Status::DeadlineExceeded(
            "deadline passed waiting on a coalesced execution");
      }
      // The leader failed, raced a PutTable (computed epoch moved), or
      // outlived our budget; run the cold path ourselves, uncoalesced.
      allow_follow = false;
      continue;
    }

    // Leader or solo: run the cold path. The guard publishes a failure
    // from its destructor on every non-publishing exit, so followers
    // never block on a leader that errored out or went back for stats.
    std::optional<PublishGuard> guard;
    if (ticket.kind == CoalesceTicket::Kind::kLeader) {
      metrics_.RecordCoalescedLeader();
      guard.emplace(&coalescing_, probe_key, ticket.flight);
    }
    if (options_.on_cold_execute) {
      options_.on_cold_execute(probe_key);
    }
    AUTOCAT_ASSIGN_OR_RETURN(
        ColdAttempt served,
        AttemptServe(query, table_key, request, deadline, outcome));
    if (served.need_stats) {
      AUTOCAT_RETURN_IF_ERROR(StatsFor(table_key).status());
      continue;
    }
    // A signature drift between the probe and the attempt (Adapt resnapped
    // the widths) means the flight's key no longer describes what ran;
    // let the guard publish the failure so followers retry solo.
    if (guard && served.key == probe_key) {
      guard->Publish(Status::OK(), served.payload, served.epoch);
    }
    return std::move(served.response);
  }
  return Status::Internal("workload stats kept disappearing for table '" +
                          table_key + "'");
}

Result<CategorizationService::ColdAttempt>
CategorizationService::AttemptServe(const SelectQuery& query,
                                    const std::string& table_key,
                                    const ServeRequest& request,
                                    const Deadline& deadline,
                                    ServeOutcome* outcome) {
  ColdAttempt served;
  ReaderLock lock(state_mu_);
  AUTOCAT_ASSIGN_OR_RETURN(const Table* table, db_.GetTable(table_key));
  AUTOCAT_ASSIGN_OR_RETURN(
      CanonicalQuery canonical,
      CanonicalizeQuery(query, table->schema(), signature_));

  if (!request.bypass_cache) {
    if (auto payload = cache_.Get(canonical.key, canonical.hash)) {
      *outcome = ServeOutcome::kHit;
      traffic_.Record(true, canonical.profile);
      served.response.payload = payload;
      served.response.cache_hit = true;
      served.response.signature = canonical.key;
      served.payload = std::move(payload);
      served.epoch = cache_.epoch();
      served.key = std::move(canonical.key);
      return served;
    }
  }

  if (deadline.ExpiredAt(NowMs())) {
    *outcome = ServeOutcome::kDeadlineExceeded;
    return Status::DeadlineExceeded(
        "deadline passed before query execution");
  }

  // as_const: the const overload of find() — under a shared (reader)
  // lock the analysis only permits const access to guarded members.
  const auto stats_it = std::as_const(stats_by_table_).find(table_key);
  if (stats_it == stats_by_table_.cend()) {
    served.need_stats = true;
    return served;
  }
  const std::shared_ptr<const WorkloadStats> stats = stats_it->second;
  const uint64_t observed_epoch = cache_.epoch();
  const CostBasedCategorizer categorizer(stats.get(),
                                         options_.categorizer);

  // Columnar fast path: compile the canonical profile against the
  // table's columnar shadow. Every refusal is kNotSupported and falls
  // back to the row path below, which is bit-identical by the kernels'
  // refuse-or-exact contract; any other status is a real error. With the
  // pipeline on, filtering, gathering, byte accounting, and the
  // attribute index come out of one morsel-driven scan (DESIGN.md §14);
  // off, the pre-pipeline filter-then-materialize chain runs instead.
  const double filter_start = WallMs();
  TableView view;
  bool columnar_ok = false;
  Table result;
  size_t result_bytes = 0;
  bool have_result_bytes = false;
  ResultAttributeIndex attr_index;
  bool have_attr_index = false;
  {
    const auto attempt = [&]() -> Result<TableView> {
      AUTOCAT_ASSIGN_OR_RETURN(
          std::shared_ptr<const ColumnarTable> shadow,
          db_.ColumnarFor(table_key));
      AUTOCAT_ASSIGN_OR_RETURN(
          const CompiledPredicate compiled,
          CompiledPredicate::CompileProfile(canonical.profile,
                                            table->schema(), shadow));
      // Request tasks stay sequential (same policy as StatsFor); the
      // pipeline's output is identical at any thread count.
      ParallelOptions sequential;
      sequential.threads = 1;
      if (options_.use_pipeline) {
        ColdPipelineOptions pipe_options;
        pipe_options.parallel = sequential;
        // Only the categorizer's retained candidates get index entries:
        // candidate elimination is per-attribute, so the base schema's
        // retained set intersected with the projection (which the sink
        // does by name) equals the result schema's retained set.
        const std::vector<std::string> retained =
            categorizer.RetainedAttributes(table->schema());
        pipe_options.stats_attributes = &retained;
        AUTOCAT_ASSIGN_OR_RETURN(
            ColdPipelineResult piped,
            RunColdPipeline(compiled, *table, shadow.get(),
                            canonical.columns, pipe_options));
        metrics_.RecordOperator(ServeOperator::kFilter,
                                piped.timings.filter_ms);
        metrics_.RecordOperator(ServeOperator::kGather,
                                piped.timings.project_ms);
        metrics_.RecordOperator(ServeOperator::kAttrIndex,
                                piped.timings.stats_ms);
        metrics_.RecordPipeline(piped.timings.morsels,
                                piped.timings.morsels_pruned,
                                piped.timings.morsels_all_pass,
                                piped.timings.simd_morsels);
        result = std::move(piped.result);
        result_bytes = piped.result_bytes;
        have_result_bytes = true;
        attr_index = std::move(piped.attr_index);
        have_attr_index = true;
        return TableView::Create(*table, std::move(shadow),
                                 std::move(piped.selection),
                                 canonical.columns);
      }
      AUTOCAT_ASSIGN_OR_RETURN(std::vector<uint32_t> selection,
                               compiled.Filter(sequential));
      return TableView::Create(*table, std::move(shadow),
                               std::move(selection), canonical.columns);
    };
    Result<TableView> attempted = attempt();
    if (attempted.ok()) {
      view = std::move(attempted).value();
      columnar_ok = true;
    } else if (attempted.status().code() != StatusCode::kNotSupported) {
      return attempted.status();
    }
  }

  if (columnar_ok) {
    if (!have_result_bytes) {
      metrics_.RecordOperator(ServeOperator::kFilter,
                              WallMs() - filter_start);
      const double mat_start = WallMs();
      result = view.Materialize();
      metrics_.RecordOperator(ServeOperator::kGather,
                              WallMs() - mat_start);
    }
  } else {
    // Row fallback keeps size_t indices, so a table too large for a
    // columnar shadow is still servable.
    have_result_bytes = false;
    have_attr_index = false;
    const Schema& schema = table->schema();
    const SelectionProfile& profile = canonical.profile;
    const std::vector<size_t> indices = table->FilterIndices(
        [&](const Row& row) { return profile.MatchesRow(row, schema); });
    metrics_.RecordOperator(ServeOperator::kFilter,
                            WallMs() - filter_start);
    const double mat_start = WallMs();
    AUTOCAT_ASSIGN_OR_RETURN(result, table->SelectRows(indices));
    if (!canonical.columns.empty()) {
      AUTOCAT_ASSIGN_OR_RETURN(result, result.Project(canonical.columns));
    }
    metrics_.RecordOperator(ServeOperator::kGather, WallMs() - mat_start);
  }

  if (deadline.ExpiredAt(NowMs())) {
    *outcome = ServeOutcome::kDeadlineExceeded;
    return Status::DeadlineExceeded(
        "deadline passed before categorization");
  }

  // The view borrows the database's base table and shadow (not
  // `result`), so it stays valid across the move into the payload.
  const double categorize_start = WallMs();
  const auto build_tree = [&](const Table& owned) -> Result<CategoryTree> {
    if (columnar_ok) {
      return categorizer.Categorize(
          view, owned, &canonical.profile,
          have_attr_index ? &attr_index : nullptr);
    }
    return categorizer.Categorize(owned, &canonical.profile);
  };
  Result<std::shared_ptr<const CachedCategorization>> built =
      have_result_bytes
          ? CachedCategorization::Build(std::move(result), result_bytes,
                                        build_tree)
          : CachedCategorization::Build(std::move(result), build_tree);
  AUTOCAT_ASSIGN_OR_RETURN(auto payload, std::move(built));
  metrics_.RecordOperator(ServeOperator::kCategorize,
                          WallMs() - categorize_start);
  if (!request.bypass_cache) {
    cache_.Insert(canonical.key, canonical.hash, payload, observed_epoch);
    traffic_.Record(false, canonical.profile);
  }
  *outcome = ServeOutcome::kMiss;
  served.response.payload = payload;
  served.response.cache_hit = false;
  served.response.signature = canonical.key;
  served.payload = std::move(payload);
  served.epoch = observed_epoch;
  served.key = std::move(canonical.key);
  return served;
}

Result<std::shared_ptr<const WorkloadStats>> CategorizationService::StatsFor(
    const std::string& table_key) {
  WriterLock lock(state_mu_);
  return StatsForLocked(table_key);
}

Result<std::shared_ptr<const WorkloadStats>>
CategorizationService::StatsForLocked(const std::string& table_key)
    AUTOCAT_REQUIRES(state_mu_) {
  const auto it = stats_by_table_.find(table_key);
  if (it != stats_by_table_.end()) {
    return it->second;
  }
  AUTOCAT_ASSIGN_OR_RETURN(const Table* table, db_.GetTable(table_key));
  // Sequential build: serving-path determinism and no pool interaction
  // from inside request tasks; this is a once-per-table warmup cost.
  ParallelOptions sequential;
  sequential.threads = 1;
  const double stats_start = WallMs();
  AUTOCAT_ASSIGN_OR_RETURN(
      WorkloadStats built,
      WorkloadStats::Build(workload_, table->schema(), options_.stats,
                           sequential));
  metrics_.RecordOperator(ServeOperator::kStatsBuild,
                          WallMs() - stats_start);
  auto stats = std::make_shared<const WorkloadStats>(std::move(built));
  stats_by_table_[table_key] = stats;
  return stats;
}

void CategorizationService::PutTable(std::string_view name, Table table) {
  {
    WriterLock lock(state_mu_);
    // WorkloadStats::Build reads only the workload and the schema, so a
    // same-schema replace keeps them; a schema change (hence the stats'
    // numeric/categorical view) rebuilds them lazily on next use.
    const Result<const Table*> old = db_.GetTable(name);
    const bool same_schema =
        old.ok() && old.value()->schema() == table.schema();
    db_.PutTable(name, std::move(table));
    if (!same_schema) {
      stats_by_table_.erase(ToLower(name));
    }
  }
  cache_.BumpEpoch();
}

Status CategorizationService::RegisterTable(std::string_view name,
                                            Table table) {
  WriterLock lock(state_mu_);
  // A brand-new table cannot be referenced by any cached entry, so the
  // epoch is deliberately kept.
  return db_.RegisterTable(name, std::move(table));
}

void CategorizationService::RebuildWorkload(Workload workload) {
  {
    WriterLock lock(state_mu_);
    workload_ = std::move(workload);
    stats_by_table_.clear();
  }
  cache_.BumpEpoch();
}

AdaptiveAction CategorizationService::Adapt() {
  const TrafficWindowSnapshot window = traffic_.SnapshotAndReset();
  const CacheStats cache_stats = cache_.Stats();
  AdaptiveAction action;
  if (!options_.adaptive.enabled) {
    return action;
  }
  {
    WriterLock lock(state_mu_);
    action = adaptive_.Plan(window, cache_stats);
    if (action.widths_changed) {
      // Rebuild from the base so multipliers stay absolute (no
      // compounding drift from repeated in-place scaling).
      signature_ = base_signature_;
      for (auto& [attribute, width] : signature_.bucket_widths) {
        const auto it = action.width_multipliers.find(attribute);
        if (it != action.width_multipliers.end()) {
          width *= it->second;
        }
      }
    }
  }
  // Wider signatures make the old, narrower keys unreachable — they are
  // still correct for their keys, so no epoch bump; LRU ages them out.
  if (action.ttl_changed) {
    cache_.SetTtlMs(action.ttl_ms);
  }
  if (action.capacity_changed) {
    cache_.SetCapacityBytes(action.capacity_bytes);
  }
  if (action.any_change()) {
    adaptive_actions_.fetch_add(1, std::memory_order_relaxed);
  }
  return action;
}

SignatureOptions CategorizationService::CurrentSignatureOptions() const {
  ReaderLock lock(state_mu_);
  return signature_;
}

ServiceMetricsSnapshot CategorizationService::SnapshotMetrics() const {
  ServiceMetricsSnapshot snapshot;
  metrics_.FillSnapshot(&snapshot);
  snapshot.cache = cache_.Stats();
  snapshot.coalescing_waiting = coalescing_.waiting();
  snapshot.queue_depth_high_water = admission_.queue_high_water();
  snapshot.adaptive_observed_requests = traffic_.total_requests();
  snapshot.adaptive_actions =
      adaptive_actions_.load(std::memory_order_relaxed);
  return snapshot;
}

std::string CategorizationService::MetricsJson() const {
  return SnapshotMetrics().ToJson();
}

}  // namespace autocat
