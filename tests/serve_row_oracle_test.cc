// Row-oracle differential gate for the service's one miss path
// (DESIGN.md §9, §14). Every cold request is answered from a uint32
// selection over the table's columnar snapshot; this gate pins each
// answer to the row evaluator over the same canonical profile:
// FilterIndices(MatchesRow) -> SelectRows -> Project -> Categorize. The
// result tables must be bit-identical, the trees equal node for node, and
// the cache byte estimates equal. Requests that fail must fail with the
// oracle's Status. The queries are the checked-in SQL fuzz corpus plus
// randomized conjunctions, served at categorizer threads {1, 2, 4, 7},
// over a row-backed table and over its segment-store-opened twin.

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/string_util.h"
#include "core/categorizer.h"
#include "serve/cache.h"
#include "serve/service.h"
#include "serve/signature.h"
#include "sql/parser.h"
#include "store/store.h"
#include "store/writer.h"
#include "workload/counts.h"
#include "workload/workload.h"

#include "equivalence_fixture.h"

namespace autocat {
namespace {

using namespace equiv;  // NOLINT

namespace fs = std::filesystem;

const size_t kThreadCounts[] = {1, 2, 4, 7};

WorkloadStatsOptions StatsOptions() {
  WorkloadStatsOptions options;
  options.split_intervals = {{"price", 5000},
                             {"squarefootage", 100},
                             {"yearbuilt", 5},
                             {"bedroomcount", 1},
                             {"bathcount", 1}};
  return options;
}

// The query log the workload statistics come from: randomized queries
// (those the workload parser refuses are skipped).
Workload MakeWorkload(const Schema& schema) {
  std::vector<std::string> sqls;
  Random rng(4242);
  for (int i = 0; i < 150; ++i) {
    sqls.push_back(RandomQuery(rng, schema));
  }
  return Workload::Parse(sqls, schema, nullptr);
}

// The requests: the fuzz corpus, then 400 randomized queries, three in
// ten with an explicit projection.
std::vector<std::string> MakeRequests(const Schema& schema) {
  std::vector<std::string> sqls;
  const fs::path corpus(AUTOCAT_FUZZ_CORPUS_DIR);
  EXPECT_TRUE(fs::is_directory(corpus));
  for (const auto& entry : fs::directory_iterator(corpus)) {
    if (!entry.is_regular_file()) {
      continue;
    }
    std::ifstream in(entry.path(), std::ios::binary);
    sqls.emplace_back(std::istreambuf_iterator<char>(in),
                      std::istreambuf_iterator<char>());
  }
  EXPECT_GE(sqls.size(), 22u) << "corpus directory looks truncated";
  Random rng(8181);
  for (int i = 0; i < 400; ++i) {
    std::string sql = RandomQuery(rng, schema);
    if (rng.Bernoulli(0.3)) {
      std::string cols;
      for (size_t c = 0; c < schema.num_columns(); ++c) {
        if (rng.Bernoulli(0.5)) {
          cols += (cols.empty() ? "" : ", ") + schema.column(c).name;
        }
      }
      if (!cols.empty()) {
        sql = "SELECT " + cols + sql.substr(sql.find(" FROM "));
      }
    }
    sqls.push_back(std::move(sql));
  }
  return sqls;
}

// The row oracle: the same parse and canonicalization as the service,
// then the row evaluator, a row gather and the Table entry point of the
// categorizer.
Result<std::shared_ptr<const CachedCategorization>> RowOracle(
    const std::string& sql, const Database& db,
    const SignatureOptions& signature, const CostBasedCategorizer& oracle) {
  AUTOCAT_ASSIGN_OR_RETURN(const SelectQuery query, ParseQuery(sql));
  AUTOCAT_ASSIGN_OR_RETURN(const Table* table,
                           db.GetTable(ToLower(query.table_name)));
  AUTOCAT_ASSIGN_OR_RETURN(
      const CanonicalQuery canonical,
      CanonicalizeQuery(query, table->schema(), signature));
  const SelectionProfile& profile = canonical.profile;
  const Schema& schema = table->schema();
  const std::vector<size_t> indices = table->FilterIndices(
      [&](const Row& row) { return profile.MatchesRow(row, schema); });
  AUTOCAT_ASSIGN_OR_RETURN(Table result, table->SelectRows(indices));
  if (!canonical.columns.empty()) {
    AUTOCAT_ASSIGN_OR_RETURN(result, result.Project(canonical.columns));
  }
  return CachedCategorization::Build(
      std::move(result), [&](const Table& owned) -> Result<CategoryTree> {
        return oracle.Categorize(owned, &profile);
      });
}

void ExpectSameAnswer(const CachedCategorization& want,
                      const CachedCategorization& got,
                      const std::string& context) {
  ExpectTablesBitIdentical(want.result(), got.result(), context);
  EXPECT_EQ(want.tree().Render(1000, 0), got.tree().Render(1000, 0))
      << context;
  ASSERT_EQ(want.tree().num_nodes(), got.tree().num_nodes()) << context;
  for (size_t id = 0; id < want.tree().num_nodes(); ++id) {
    EXPECT_EQ(want.tree().node(static_cast<NodeId>(id)).tuples,
              got.tree().node(static_cast<NodeId>(id)).tuples)
        << context << " node " << id;
  }
  EXPECT_EQ(want.approx_bytes(), got.approx_bytes()) << context;
}

// Serves every request cold on one service per thread count, each over a
// copy of `db`'s homes table, and compares each answer with the row
// oracle over that same table.
void ExpectServiceMatchesRowOracle(const Database& db,
                                   const std::string& mode) {
  const Schema schema = FuzzSchema();
  const Workload workload = MakeWorkload(schema);
  ASSERT_GT(workload.size(), 20u);
  const std::vector<std::string> sqls = MakeRequests(schema);

  ParallelOptions sequential;
  sequential.threads = 1;
  AUTOCAT_ASSERT_OK_AND_MOVE(
      const WorkloadStats stats,
      WorkloadStats::Build(workload, schema, StatsOptions(), sequential));
  // Every attribute stays a candidate: the randomized log spreads its
  // conditions too thinly for the paper's x = 0.4 to keep any.
  CategorizerOptions oracle_options;
  oracle_options.attribute_usage_threshold = 0.0;
  oracle_options.parallel.threads = 1;
  const CostBasedCategorizer oracle(&stats, oracle_options);

  const Table& table = **db.GetTable("homes");
  std::vector<std::unique_ptr<CategorizationService>> services;
  for (const size_t threads : kThreadCounts) {
    Database copy;
    // A store-opened table shares its mapping; a row table is copied.
    ASSERT_TRUE(copy.RegisterTable(
                        "homes", table.has_rows()
                                     ? Table(table)
                                     : Table::FromColumnar(
                                           schema, table.columnar_backing()))
                    .ok());
    ServiceOptions options;
    options.stats = StatsOptions();
    options.categorizer = oracle_options;
    options.categorizer.parallel.threads = threads;
    services.push_back(std::make_unique<CategorizationService>(
        std::move(copy), Workload(workload), std::move(options)));
  }
  const SignatureOptions signature =
      services.front()->CurrentSignatureOptions();

  size_t answered = 0;
  size_t multi_level = 0;
  for (const std::string& sql : sqls) {
    const Result<std::shared_ptr<const CachedCategorization>> want =
        RowOracle(sql, db, signature, oracle);
    if (want.ok()) {
      ++answered;
      multi_level += want.value()->tree().num_nodes() > 1 ? 1 : 0;
    }
    for (size_t i = 0; i < services.size(); ++i) {
      const std::string context = mode + ", threads=" +
                                  std::to_string(kThreadCounts[i]) + ": " +
                                  sql;
      ServeRequest request;
      request.sql = sql;
      request.bypass_cache = true;  // every request takes the miss path
      const Result<ServeResponse> got = services[i]->Handle(request);
      ASSERT_EQ(want.ok(), got.ok())
          << context << ": "
          << (want.ok() ? got.status() : want.status()).ToString();
      if (!want.ok()) {
        EXPECT_EQ(want.status().ToString(), got.status().ToString())
            << context;
        continue;
      }
      ExpectSameAnswer(*want.value(), *got.value().payload, context);
    }
  }
  // Randomized OR / NOT / <> queries fall outside the profile grammar and
  // fail on both sides; enough conjunctions remain for a meaningful gate.
  EXPECT_GE(answered, 60u) << mode;
  EXPECT_GE(multi_level, 25u) << mode;
  for (const auto& service : services) {
    EXPECT_EQ(service->SnapshotMetrics().pipeline_requests, answered)
        << mode;
  }
}

TEST(ServeRowOracleTest, RowBackedTable) {
  Database db;
  ASSERT_TRUE(
      db.RegisterTable("homes", MakeHomes(2000, 5150, 0.05, false)).ok());
  ExpectServiceMatchesRowOracle(db, "row-backed");
}

TEST(ServeRowOracleTest, StoreOpenedTable) {
  const std::string path =
      (fs::temp_directory_path() /
       ("autocat_serve_row_oracle_" + std::to_string(::getpid()) + ".store"))
          .string();
  const Table rows = MakeHomes(2000, 5150, 0.05, false);
  {
    StoreWriterOptions options;
    options.memory_budget_bytes = 32 << 10;  // force spill runs
    AUTOCAT_ASSERT_OK_AND_MOVE(std::unique_ptr<StoreWriter> writer,
                               StoreWriter::Create(path, options));
    ASSERT_TRUE(writer->BeginTable("homes", rows.schema()).ok());
    for (size_t r = 0; r < rows.num_rows(); ++r) {
      ASSERT_TRUE(writer->Append(rows.row(r)).ok());
    }
    ASSERT_TRUE(writer->FinishTable().ok());
    ASSERT_TRUE(writer->Finish().ok());
  }
  Database db;
  ASSERT_TRUE(AttachStoreTables(path, &db).ok());
  ASSERT_FALSE((*db.GetTable("homes"))->has_rows());
  ExpectServiceMatchesRowOracle(db, "store-opened");
  std::error_code ec;
  fs::remove(path, ec);
}

}  // namespace
}  // namespace autocat
