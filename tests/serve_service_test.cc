// End-to-end tests for the categorization service: cache hit/miss flow,
// signature sharing, invalidation on PutTable/RebuildWorkload, deadline
// and overload handling, and deterministic metrics export.

#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <cstdint>
#include <fstream>
#include <future>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "serve/admission.h"
#include "serve/metrics.h"
#include "serve/service.h"

namespace autocat {
namespace {

Schema HomesSchema() {
  auto schema = Schema::Create({
      ColumnDef("neighborhood", ValueType::kString,
                ColumnKind::kCategorical),
      ColumnDef("price", ValueType::kInt64, ColumnKind::kNumeric),
      ColumnDef("bedroomcount", ValueType::kInt64, ColumnKind::kNumeric),
  });
  EXPECT_TRUE(schema.ok());
  return std::move(schema).value();
}

Table HomesTable(size_t rows = 40) {
  const char* kNeighborhoods[] = {"Redmond", "Bellevue", "Seattle",
                                  "Issaquah"};
  Table table(HomesSchema());
  for (size_t i = 0; i < rows; ++i) {
    EXPECT_TRUE(table
                    .AppendRow({Value(kNeighborhoods[i % 4]),
                                Value(static_cast<int64_t>(
                                    150000 + 5000 * (i % 37))),
                                Value(static_cast<int64_t>(1 + i % 5))})
                    .ok());
  }
  return table;
}

Workload HomesWorkload() {
  const std::vector<std::string> sqls = {
      "SELECT * FROM Homes WHERE neighborhood = 'Redmond'",
      "SELECT * FROM Homes WHERE neighborhood IN ('Redmond', 'Bellevue')",
      "SELECT * FROM Homes WHERE price BETWEEN 150000 AND 250000",
      "SELECT * FROM Homes WHERE price <= 300000 AND bedroomcount >= 2",
      "SELECT * FROM Homes WHERE neighborhood = 'Seattle' AND price >= "
      "200000",
  };
  WorkloadParseReport report;
  Workload workload = Workload::Parse(sqls, HomesSchema(), &report);
  EXPECT_EQ(report.parsed, sqls.size());
  return workload;
}

std::unique_ptr<CategorizationService> MakeService(
    ServiceOptions options = {}) {
  Database db;
  EXPECT_TRUE(db.RegisterTable("Homes", HomesTable()).ok());
  if (options.stats.split_intervals.empty()) {
    options.stats.split_intervals["price"] = 5000;
  }
  return std::make_unique<CategorizationService>(
      std::move(db), HomesWorkload(), std::move(options));
}

TEST(ServiceTest, MissThenHitSharesOnePayload) {
  auto service = MakeService();
  ServeRequest request;
  request.sql = "SELECT * FROM Homes WHERE price <= 300000";

  auto miss = service->Handle(request);
  ASSERT_TRUE(miss.ok()) << miss.status().ToString();
  EXPECT_FALSE(miss->cache_hit);
  EXPECT_GT(miss->payload->result_rows(), 0u);

  auto hit = service->Handle(request);
  ASSERT_TRUE(hit.ok());
  EXPECT_TRUE(hit->cache_hit);
  EXPECT_EQ(hit->payload.get(), miss->payload.get());
  EXPECT_EQ(hit->signature, miss->signature);

  const ServiceMetricsSnapshot snapshot = service->SnapshotMetrics();
  EXPECT_EQ(snapshot.requests_total, 2u);
  EXPECT_EQ(snapshot.by_outcome[static_cast<size_t>(ServeOutcome::kHit)],
            1u);
  EXPECT_EQ(snapshot.by_outcome[static_cast<size_t>(ServeOutcome::kMiss)],
            1u);
}

TEST(ServiceTest, EquivalentSqlFormsHitTheSameEntry) {
  auto service = MakeService();
  ServeRequest a;
  a.sql = "SELECT * FROM Homes WHERE price BETWEEN 200000 AND 300000";
  ServeRequest b;
  b.sql =
      "select * from HOMES where Price >= 200000 and Price <= 300000";
  ASSERT_TRUE(service->Handle(a).ok());
  auto second = service->Handle(b);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->cache_hit);
}

TEST(ServiceTest, BucketSnappedConstantsShareAnEntry) {
  // price splits every 5000 (seeded from stats.split_intervals), so both
  // constants canonicalize to price <= 205000 — and the miss executes the
  // snapped query, making hit and miss responses agree.
  auto service = MakeService();
  ServeRequest a;
  a.sql = "SELECT * FROM Homes WHERE price <= 201000";
  ServeRequest b;
  b.sql = "SELECT * FROM Homes WHERE price <= 204999";
  auto miss = service->Handle(a);
  ASSERT_TRUE(miss.ok());
  auto hit = service->Handle(b);
  ASSERT_TRUE(hit.ok());
  EXPECT_TRUE(hit->cache_hit);
  EXPECT_EQ(hit->payload->result_rows(), miss->payload->result_rows());
}

TEST(ServiceTest, BypassCacheAlwaysRunsCold) {
  auto service = MakeService();
  ServeRequest request;
  request.sql = "SELECT * FROM Homes WHERE price <= 300000";
  request.bypass_cache = true;
  ASSERT_TRUE(service->Handle(request).ok());
  auto second = service->Handle(request);
  ASSERT_TRUE(second.ok());
  EXPECT_FALSE(second->cache_hit);
  EXPECT_EQ(service->SnapshotMetrics().cache.entries, 0u);
}

TEST(ServiceTest, PutTableInvalidatesCachedEntries) {
  auto service = MakeService();
  ServeRequest request;
  request.sql = "SELECT * FROM Homes WHERE price <= 300000";
  auto before = service->Handle(request);
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE(service->Handle(request)->cache_hit);

  service->PutTable("Homes", HomesTable(80));

  auto after = service->Handle(request);
  ASSERT_TRUE(after.ok());
  EXPECT_FALSE(after->cache_hit);
  // The rebuilt entry reflects the replaced table's contents.
  EXPECT_GT(after->payload->result_rows(), before->payload->result_rows());
  EXPECT_GE(service->SnapshotMetrics().cache.epoch, 1u);
}

TEST(ServiceTest, PutTableKeepsStatsUnlessTheSchemaChanges) {
  auto service = MakeService();
  ServeRequest request;
  request.sql = "SELECT * FROM Homes WHERE price <= 300000";
  const auto stats_builds = [&service] {
    return service->SnapshotMetrics()
        .operator_ms[static_cast<size_t>(ServeOperator::kStatsBuild)]
        .count();
  };
  ASSERT_TRUE(service->Handle(request).ok());
  EXPECT_EQ(stats_builds(), 1u);

  // Same schema: the stats depend only on the workload and the schema.
  service->PutTable("Homes", HomesTable(80));
  auto same = service->Handle(request);
  ASSERT_TRUE(same.ok()) << same.status().ToString();
  EXPECT_FALSE(same->cache_hit);
  EXPECT_EQ(stats_builds(), 1u);

  // A changed schema (one more column) rebuilds them.
  auto wider = Schema::Create({
      ColumnDef("neighborhood", ValueType::kString,
                ColumnKind::kCategorical),
      ColumnDef("price", ValueType::kInt64, ColumnKind::kNumeric),
      ColumnDef("bedroomcount", ValueType::kInt64, ColumnKind::kNumeric),
      ColumnDef("bathcount", ValueType::kInt64, ColumnKind::kNumeric),
  });
  ASSERT_TRUE(wider.ok());
  Table table(std::move(wider).value());
  for (int64_t i = 0; i < 30; ++i) {
    ASSERT_TRUE(table
                    .AppendRow({Value("Redmond"), Value(150000 + 5000 * i),
                                Value(1 + i % 4), Value(1 + i % 3)})
                    .ok());
  }
  service->PutTable("Homes", std::move(table));
  auto changed = service->Handle(request);
  ASSERT_TRUE(changed.ok()) << changed.status().ToString();
  EXPECT_EQ(stats_builds(), 2u);
}

TEST(ServiceTest, RebuildWorkloadInvalidatesCachedEntries) {
  auto service = MakeService();
  ServeRequest request;
  request.sql = "SELECT * FROM Homes WHERE price <= 300000";
  ASSERT_TRUE(service->Handle(request).ok());
  ASSERT_TRUE(service->Handle(request)->cache_hit);

  service->RebuildWorkload(HomesWorkload());

  auto after = service->Handle(request);
  ASSERT_TRUE(after.ok());
  EXPECT_FALSE(after->cache_hit);
}

TEST(ServiceTest, RegisterTableRejectsDuplicatesAndKeepsCache) {
  auto service = MakeService();
  ServeRequest request;
  request.sql = "SELECT * FROM Homes WHERE price <= 300000";
  ASSERT_TRUE(service->Handle(request).ok());

  EXPECT_EQ(service->RegisterTable("Homes", HomesTable()).code(),
            StatusCode::kAlreadyExists);
  EXPECT_TRUE(service->RegisterTable("Condos", HomesTable()).ok());

  // Registering a brand-new table does not invalidate existing entries.
  auto hit = service->Handle(request);
  ASSERT_TRUE(hit.ok());
  EXPECT_TRUE(hit->cache_hit);

  ServeRequest condos;
  condos.sql = "SELECT * FROM Condos WHERE price <= 300000";
  auto response = service->Handle(condos);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_FALSE(response->cache_hit);
}

TEST(ServiceTest, DeadlineExceededWithInjectedClock) {
  // Every clock read advances 100 ms, so a 50 ms budget expires between
  // admission and execution.
  int64_t now = 0;
  ServiceOptions options;
  options.now_ms = [&now]() {
    now += 100;
    return now;
  };
  auto service = MakeService(std::move(options));
  ServeRequest request;
  request.sql = "SELECT * FROM Homes WHERE price <= 300000";
  request.deadline_ms = 50;
  auto response = service->Handle(request);
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kDeadlineExceeded);
  const ServiceMetricsSnapshot snapshot = service->SnapshotMetrics();
  EXPECT_EQ(snapshot.by_outcome[static_cast<size_t>(
                ServeOutcome::kDeadlineExceeded)],
            1u);
}

TEST(ServiceTest, DefaultDeadlineAppliesWhenRequestHasNone) {
  int64_t now = 0;
  ServiceOptions options;
  options.default_deadline_ms = 50;
  options.now_ms = [&now]() {
    now += 100;
    return now;
  };
  auto service = MakeService(std::move(options));
  ServeRequest request;
  request.sql = "SELECT * FROM Homes WHERE price <= 300000";
  auto response = service->Handle(request);
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kDeadlineExceeded);
}

TEST(ServiceTest, BadRequestsMapToErrorOutcomes) {
  auto service = MakeService();

  ServeRequest malformed;
  malformed.sql = "SELEC * FRM Homes";
  EXPECT_FALSE(service->Handle(malformed).ok());

  ServeRequest unknown_table;
  unknown_table.sql = "SELECT * FROM Castles";
  EXPECT_EQ(service->Handle(unknown_table).status().code(),
            StatusCode::kNotFound);

  ServeRequest unsupported;
  unsupported.sql =
      "SELECT * FROM Homes WHERE price > 100000 OR neighborhood = "
      "'Redmond'";
  EXPECT_EQ(service->Handle(unsupported).status().code(),
            StatusCode::kNotSupported);

  const ServiceMetricsSnapshot snapshot = service->SnapshotMetrics();
  EXPECT_EQ(snapshot.by_outcome[static_cast<size_t>(ServeOutcome::kError)],
            3u);
  EXPECT_EQ(snapshot.requests_total, 3u);
}

TEST(ServiceTest, MetricsJsonIsDeterministic) {
  auto service = MakeService();
  ServeRequest request;
  request.sql = "SELECT * FROM Homes WHERE price <= 300000";
  ASSERT_TRUE(service->Handle(request).ok());
  ASSERT_TRUE(service->Handle(request).ok());

  const std::string a = service->MetricsJson();
  const std::string b = service->MetricsJson();
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find("\"requests\":{\"total\":2,\"hit\":1,\"miss\":1"),
            std::string::npos);
  EXPECT_NE(a.find("\"cache\":{"), std::string::npos);
  EXPECT_NE(a.find("\"latency_ms\":{"), std::string::npos);
  EXPECT_NE(a.find("\"queue\":{"), std::string::npos);
}

TEST(ServiceTest, ConcurrentRequestsThroughThreadPool) {
  auto service = MakeService();
  const std::vector<std::string> sqls = {
      "SELECT * FROM Homes WHERE price <= 300000",
      "SELECT * FROM Homes WHERE neighborhood = 'Redmond'",
      "SELECT * FROM Homes WHERE bedroomcount >= 2",
  };
  constexpr size_t kRequests = 48;
  ThreadPool pool(4);
  std::vector<std::future<Status>> done;
  for (size_t i = 0; i < kRequests; ++i) {
    done.push_back(pool.Submit([&service, &sqls, i]() {
      ServeRequest request;
      request.sql = sqls[i % sqls.size()];
      return service->Handle(request).status();
    }));
  }
  for (auto& f : done) {
    EXPECT_TRUE(f.get().ok());
  }
  const ServiceMetricsSnapshot snapshot = service->SnapshotMetrics();
  EXPECT_EQ(snapshot.requests_total, kRequests);
  const uint64_t hits =
      snapshot.by_outcome[static_cast<size_t>(ServeOutcome::kHit)];
  const uint64_t misses =
      snapshot.by_outcome[static_cast<size_t>(ServeOutcome::kMiss)];
  EXPECT_EQ(hits + misses, kRequests);
  // Each distinct signature is categorized at least once; concurrent
  // first requests may race to build the same entry, but steady state is
  // all hits.
  EXPECT_GE(misses, sqls.size());
  EXPECT_GT(hits, 0u);
}

TEST(AdmissionTest, RejectsWhenQueueIsFull) {
  AdmissionController admission(1, 0);
  ASSERT_TRUE(admission.Admit(Deadline::Never()).ok());
  const Status second = admission.Admit(Deadline::Never());
  EXPECT_EQ(second.code(), StatusCode::kOverloaded);
  EXPECT_EQ(admission.rejected(), 1u);
  admission.Release();
  ASSERT_TRUE(admission.Admit(Deadline::Never()).ok());
  admission.Release();
}

TEST(AdmissionTest, QueuedRequestGivesUpAtDeadline) {
  int64_t now = 0;
  AdmissionController admission(1, 4, [&now]() { return now; });
  ASSERT_TRUE(admission.Admit(Deadline::Never()).ok());
  now = 10;
  const Status timed_out = admission.Admit(Deadline::At(10));
  EXPECT_EQ(timed_out.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(admission.queue_high_water(), 1u);
  admission.Release();
}

TEST(AdmissionTest, WaiterProceedsWhenSlotFrees) {
  AdmissionController admission(1, 4);
  ASSERT_TRUE(admission.Admit(Deadline::Never()).ok());
  ThreadPool pool(2);
  auto waiter = pool.Submit([&admission]() {
    AUTOCAT_RETURN_IF_ERROR(admission.Admit(Deadline::Never()));
    admission.Release();
    return Status::OK();
  });
  SleepForMillis(20);
  admission.Release();
  EXPECT_TRUE(waiter.get().ok());
}

// Scripted burst against one execution slot and a two-deep queue, on an
// injected clock: every outcome count is exact, not a range. Runs under
// TSan in the CI matrix (tools/ci.sh --workload), so the queue-waiter
// interleaving is also race-checked.
TEST(AdmissionTest, BurstSettlesToExactCounts) {
  std::atomic<int64_t> now{0};
  AdmissionController admission(
      1, 2, [&now]() { return now.load(std::memory_order_relaxed); });

  // t=0: one request holds the only slot.
  ASSERT_TRUE(admission.Admit(Deadline::Never()).ok());

  // Two requests with a t=50 deadline queue up behind it. ThreadPool(n)
  // keeps n-1 dedicated workers (the caller is the nth), so size 3 gives
  // the two waiters a thread each.
  ThreadPool pool(3);
  std::vector<std::future<Status>> waiters;
  for (int i = 0; i < 2; ++i) {
    waiters.push_back(pool.Submit(
        [&admission]() { return admission.Admit(Deadline::At(50)); }));
  }
  for (int spins = 0; admission.queued() < 2 && spins < 5000; ++spins) {
    SleepForMillis(1);
  }
  ASSERT_EQ(admission.queued(), 2u);

  // The burst overflows: with the queue full, three more are shed
  // immediately with kOverloaded.
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(admission.Admit(Deadline::At(50)).code(),
              StatusCode::kOverloaded);
  }

  // The clock jumps past the waiters' deadline; both give up. (Queued
  // waiters re-check the injected clock at least every 100ms of wall
  // time, so no notification is needed.)
  now.store(100, std::memory_order_relaxed);
  for (auto& waiter : waiters) {
    EXPECT_EQ(waiter.get().code(), StatusCode::kDeadlineExceeded);
  }
  EXPECT_EQ(admission.queued(), 0u);

  // The slot frees and a late request sails through.
  admission.Release();
  ASSERT_TRUE(admission.Admit(Deadline::At(200)).ok());
  admission.Release();

  EXPECT_EQ(admission.admitted(), 2u);
  EXPECT_EQ(admission.rejected(), 3u);
  EXPECT_EQ(admission.deadline_exceeded(), 2u);
  EXPECT_EQ(admission.queue_high_water(), 2u);
}

// Replaces every numeric literal outside of strings with 0, leaving the
// key structure: two metrics exports with different counters canonicalize
// to the same schema string.
std::string CanonicalizeMetricsJson(const std::string& json) {
  std::string out;
  bool in_string = false;
  for (size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (c == '"') {
      in_string = !in_string;
      out += c;
      continue;
    }
    if (!in_string &&
        (std::isdigit(static_cast<unsigned char>(c)) || c == '-')) {
      while (i + 1 < json.size() &&
             (std::isdigit(static_cast<unsigned char>(json[i + 1])) ||
              json[i + 1] == '.' || json[i + 1] == 'e' ||
              json[i + 1] == 'E' || json[i + 1] == '+' ||
              json[i + 1] == '-')) {
        ++i;
      }
      out += '0';
      continue;
    }
    out += c;
  }
  return out;
}

// Golden-file pin of the MetricsJson schema: dashboards and the workload
// harness parse these keys, so adding a section is a conscious golden
// update, and renaming or dropping one is a test failure.
TEST(ServiceTest, MetricsJsonMatchesGoldenSchema) {
  auto service = MakeService();
  ServeRequest request;
  request.sql = "SELECT * FROM Homes WHERE price <= 300000";
  ASSERT_TRUE(service->Handle(request).ok());
  ASSERT_TRUE(service->Handle(request).ok());

  const std::string canonical =
      CanonicalizeMetricsJson(service->MetricsJson());

  const std::string golden_path =
      std::string(AUTOCAT_GOLDEN_DIR) + "/metrics_schema.json";
  std::ifstream in(golden_path);
  ASSERT_TRUE(in.good()) << "missing golden file " << golden_path
                         << "; expected contents:\n"
                         << canonical;
  std::ostringstream golden;
  golden << in.rdbuf();
  std::string want = golden.str();
  // The checked-in golden ends with a trailing newline; the export is a
  // single line.
  while (!want.empty() && (want.back() == '\n' || want.back() == '\r')) {
    want.pop_back();
  }
  EXPECT_EQ(canonical, want)
      << "MetricsJson schema changed; update tests/golden/"
         "metrics_schema.json if intentional. Actual canonical form:\n"
      << canonical;

  // Canonicalization must be counter-independent: more traffic, same
  // schema.
  ASSERT_TRUE(service->Handle(request).ok());
  EXPECT_EQ(CanonicalizeMetricsJson(service->MetricsJson()), canonical);
}

TEST(ServiceMetricsTest, RecordAndSnapshot) {
  ServiceMetrics metrics;
  metrics.Record(ServeOutcome::kHit, 0.5);
  metrics.Record(ServeOutcome::kMiss, 5.0);
  metrics.Record(ServeOutcome::kError, 0.1);
  ServiceMetricsSnapshot snapshot;
  metrics.FillSnapshot(&snapshot);
  EXPECT_EQ(snapshot.requests_total, 3u);
  EXPECT_EQ(snapshot.latency_all.count(), 3u);
  EXPECT_EQ(snapshot.latency_hit.count(), 1u);
  EXPECT_EQ(snapshot.latency_miss.count(), 1u);
  EXPECT_DOUBLE_EQ(snapshot.latency_hit.max(), 0.5);
}

}  // namespace
}  // namespace autocat
