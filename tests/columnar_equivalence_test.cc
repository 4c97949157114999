// Row-vs-columnar equivalence gate for the columnar execution engine.
//
// The columnar kernels promise *refuse-or-exact* compilation: whatever
// `ExecuteQuery` / `CompiledPredicate::Filter` produce must be
// bit-identical to the row-at-a-time path — same cells (doubles compared
// by bit pattern), same row order, same error Status — at every tested
// thread count. These tests replay the checked-in SQL fuzz corpus, sweep
// randomized queries over a deterministic table seeded with edge values
// (NaN, -0.0, 2^53+1, INT64_MIN/MAX, NULLs), and pin the partitioners
// and categorizers reading a view with a columnar shadow (typed arrays,
// dictionary codes) to the same calls over a shadowless view of the
// materialized result, whose generic per-Value walk is the oracle.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/categorizer.h"
#include "core/partition.h"
#include "exec/executor.h"
#include "exec/kernels.h"
#include "sql/parser.h"
#include "sql/selection.h"
#include "storage/columnar.h"
#include "storage/table.h"
#include "workload/counts.h"
#include "workload/workload.h"

#include "equivalence_fixture.h"

namespace autocat {
namespace {

// Schema, table builder, bit-exact comparison, and the randomized
// query generator live in the shared fixture (also used by the
// legacy-vs-pipeline gate in pipeline_test.cc).
using namespace equiv;  // NOLINT

// Runs `sql` through the row path and through the columnar path at the
// given thread count; success results must be bit-identical tables and
// failures must carry the same Status.
void ExpectSqlEquivalent(const Database& db, const std::string& sql,
                         size_t threads) {
  ExecOptions row_opts;
  row_opts.use_columnar = false;
  ExecOptions col_opts;
  col_opts.use_columnar = true;
  col_opts.parallel.threads = threads;

  const Result<Table> row_result = ExecuteSql(sql, db, row_opts);
  const Result<Table> col_result = ExecuteSql(sql, db, col_opts);
  ASSERT_EQ(row_result.ok(), col_result.ok())
      << sql << " (threads=" << threads
      << "): " << (row_result.ok() ? col_result : row_result)
                      .status()
                      .ToString();
  if (!row_result.ok()) {
    EXPECT_EQ(row_result.status().ToString(), col_result.status().ToString())
        << sql;
    return;
  }
  ExpectTablesBitIdentical(row_result.value(), col_result.value(),
                           sql + " (threads=" + std::to_string(threads) +
                               ")");
}

Database HomesDb(Table table) {
  Database db;
  EXPECT_TRUE(db.RegisterTable("homes", std::move(table)).ok());
  return db;
}

// ----------------------------------------------------------- corpus replay

TEST(ColumnarEquivalenceTest, FuzzCorpusRowVsColumnar) {
  const Database db = HomesDb(MakeHomes(500, 101, 0.08, true));
  const std::filesystem::path corpus(AUTOCAT_FUZZ_CORPUS_DIR);
  ASSERT_TRUE(std::filesystem::is_directory(corpus));
  size_t replayed = 0;
  for (const auto& entry : std::filesystem::directory_iterator(corpus)) {
    if (!entry.is_regular_file()) {
      continue;
    }
    std::ifstream in(entry.path(), std::ios::binary);
    std::string sql((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
    for (const size_t threads : {size_t{1}, size_t{7}}) {
      ExpectSqlEquivalent(db, sql, threads);
    }
    ++replayed;
  }
  EXPECT_GE(replayed, 10u) << "corpus directory looks truncated";
}

// ------------------------------------------------------ randomized queries

TEST(ColumnarEquivalenceTest, RandomizedQueriesRowVsColumnar) {
  const Schema schema = FuzzSchema();
  const Database db = HomesDb(MakeHomes(600, 202, 0.1, true));
  Random rng(777);
  for (int i = 0; i < 250; ++i) {
    const std::string sql = RandomQuery(rng, schema);
    for (const size_t threads : {size_t{1}, size_t{7}}) {
      ExpectSqlEquivalent(db, sql, threads);
    }
  }
}

TEST(ColumnarEquivalenceTest, EdgeCaseQueries) {
  const Database db = HomesDb(MakeHomes(300, 303, 0.12, true));
  const std::vector<std::string> queries = {
      // NaN cells meet every comparison shape.
      "SELECT * FROM homes WHERE price > 0",
      "SELECT * FROM homes WHERE price = 100000",
      "SELECT * FROM homes WHERE price <> 100000",
      "SELECT * FROM homes WHERE price BETWEEN 0 AND 1000000",
      "SELECT * FROM homes WHERE price IN (100000, 200000)",
      "SELECT * FROM homes WHERE price NOT IN (100000)",
      // Signed zero: -0.0 == 0.0 numerically on both paths.
      "SELECT * FROM homes WHERE price = 0",
      "SELECT * FROM homes WHERE price < 0",
      // 2^53 + 1: exact on the int64 path, rounds on the double path.
      "SELECT * FROM homes WHERE yearbuilt = 9007199254740993",
      "SELECT * FROM homes WHERE yearbuilt = 9007199254740992",
      "SELECT * FROM homes WHERE bedroomcount = 9223372036854775807",
      "SELECT * FROM homes WHERE bedroomcount >= -9223372036854775807",
      // NULL handling.
      "SELECT * FROM homes WHERE price IS NULL",
      "SELECT * FROM homes WHERE price IS NOT NULL",
      "SELECT * FROM homes WHERE neighborhood IS NULL OR price > 500000",
      // String-vs-numeric class mismatches: the row path errors on the
      // first matching row; the columnar path must refuse and fall back.
      "SELECT * FROM homes WHERE price = 'expensive'",
      "SELECT * FROM homes WHERE neighborhood < 5",
      "SELECT * FROM homes WHERE neighborhood IN (1, 2)",
      "SELECT * FROM homes WHERE bedroomcount BETWEEN 'a' AND 'b'",
      // Unknown column errors identically.
      "SELECT * FROM homes WHERE bogus = 1",
      // Projection through the zero-copy view.
      "SELECT neighborhood, price FROM homes WHERE bedroomcount >= 3",
      "SELECT price FROM homes WHERE neighborhood = 'Redmond'",
  };
  for (const std::string& sql : queries) {
    for (const size_t threads : {size_t{1}, size_t{7}}) {
      ExpectSqlEquivalent(db, sql, threads);
    }
  }
}

TEST(ColumnarEquivalenceTest, EmptyTableAndAllNullColumn) {
  // Empty table: every query returns an empty result on both paths (the
  // row path does not even surface type errors — no rows to evaluate).
  {
    const Database db = HomesDb(Table(FuzzSchema()));
    for (const std::string sql :
         {"SELECT * FROM homes WHERE price > 0",
          "SELECT * FROM homes WHERE price = 'expensive'",
          "SELECT * FROM homes WHERE bogus = 1"}) {
      ExpectSqlEquivalent(db, sql, 1);
    }
  }
  // All-NULL column: comparisons never match, IS NULL matches everything,
  // and even class-mismatched literals cannot error on the row path.
  {
    Table table(FuzzSchema());
    Random rng(9);
    for (int i = 0; i < 64; ++i) {
      ASSERT_TRUE(table
                      .AppendRow({Value(kNeighborhoods[i % 6]), Value(),
                                  Value(kTypes[i % 3]), Value(),
                                  Value(rng.Uniform(0, 8)), Value(1.5),
                                  Value(rng.UniformReal(300, 5000)),
                                  Value(rng.Uniform(1900, 2026))})
                      .ok());
    }
    const Database db = HomesDb(std::move(table));
    for (const std::string sql :
         {"SELECT * FROM homes WHERE price > 0",
          "SELECT * FROM homes WHERE price = 'expensive'",
          "SELECT * FROM homes WHERE price IS NULL",
          "SELECT * FROM homes WHERE city IS NOT NULL",
          "SELECT * FROM homes WHERE city = 'Seattle'"}) {
      ExpectSqlEquivalent(db, sql, 1);
    }
  }
}

TEST(ColumnarEquivalenceTest, PutTableInvalidatesShadow) {
  Database db = HomesDb(MakeHomes(50, 11, 0.0, false));
  ExecOptions opts;  // columnar on
  const std::string sql = "SELECT * FROM homes WHERE bedroomcount >= 0";
  AUTOCAT_ASSERT_OK_AND_MOVE(Table before, ExecuteSql(sql, db, opts));
  EXPECT_EQ(before.num_rows(), 50u);
  db.PutTable("homes", MakeHomes(20, 12, 0.0, false));
  AUTOCAT_ASSERT_OK_AND_MOVE(Table after, ExecuteSql(sql, db, opts));
  EXPECT_EQ(after.num_rows(), 20u);
}

// -------------------------------------------- profile (serving-path) filter

TEST(ColumnarEquivalenceTest, CompiledProfileMatchesRowSemantics) {
  const Schema schema = FuzzSchema();
  const Table table = MakeHomes(400, 404, 0.1, true);
  Database db;
  ASSERT_TRUE(db.RegisterTable("homes", Table(table)).ok());
  AUTOCAT_ASSERT_OK_AND_MOVE(std::shared_ptr<const ColumnarTable> shadow,
                             db.ColumnarFor("homes"));

  Random rng(555);
  size_t compiled_profiles = 0;
  for (int i = 0; i < 500; ++i) {
    const std::string sql = RandomQuery(rng, schema);
    auto query = ParseQuery(sql);
    if (!query.ok()) {
      continue;
    }
    auto profile = SelectionProfile::FromQuery(query.value(), schema);
    if (!profile.ok()) {
      continue;
    }
    auto compiled =
        CompiledPredicate::CompileProfile(profile.value(), schema, shadow);
    if (!compiled.ok()) {
      ASSERT_EQ(compiled.status().code(), StatusCode::kNotSupported) << sql;
      continue;
    }
    ++compiled_profiles;
    std::vector<uint32_t> expected;
    for (size_t r = 0; r < table.num_rows(); ++r) {
      if (profile.value().MatchesRow(table.row(r), schema)) {
        expected.push_back(static_cast<uint32_t>(r));
      }
    }
    for (const size_t threads : {size_t{1}, size_t{7}}) {
      ParallelOptions parallel;
      parallel.threads = threads;
      AUTOCAT_ASSERT_OK_AND_MOVE(std::vector<uint32_t> got,
                                 compiled.value().Filter(parallel));
      EXPECT_EQ(got, expected) << sql << " (threads=" << threads << ")";
    }
  }
  EXPECT_GE(compiled_profiles, 50u)
      << "profile compiler refused too often to be a meaningful gate";
}

// ------------------------------------------------- view-based consumers

struct ViewFixture {
  Table table;
  Database db;
  std::shared_ptr<const ColumnarTable> shadow;
  TableView view;       // filtered + projected
  Table materialized;   // view.Materialize()
  std::vector<size_t> all_tuples;

  explicit ViewFixture(bool projected) : table(MakeHomes(350, 42, 0.07,
                                                         false)) {
    EXPECT_TRUE(db.RegisterTable("homes", Table(table)).ok());
    auto shadow_or = db.ColumnarFor("homes");
    EXPECT_TRUE(shadow_or.ok());
    shadow = std::move(shadow_or).value();
    std::vector<uint32_t> rows;
    for (uint32_t r = 0; r < table.num_rows(); r += 2) {
      rows.push_back(r);  // every other row, ascending
    }
    const std::vector<std::string> columns =
        projected ? std::vector<std::string>{"neighborhood", "price",
                                             "bedroomcount", "yearbuilt"}
                  : std::vector<std::string>{};
    auto view_or =
        TableView::Create(*db.GetTable("homes").value(), shadow,
                          std::move(rows), columns);
    EXPECT_TRUE(view_or.ok());
    view = std::move(view_or).value();
    materialized = view.Materialize();
    for (size_t i = 0; i < view.num_rows(); ++i) {
      all_tuples.push_back(i);
    }
  }
};

TEST(ColumnarEquivalenceTest, ViewMaterializeMatchesSelectRowsProject) {
  const ViewFixture f(true);
  std::vector<size_t> rows;
  for (size_t r = 0; r < f.table.num_rows(); r += 2) {
    rows.push_back(r);
  }
  AUTOCAT_ASSERT_OK_AND_MOVE(Table selected, f.table.SelectRows(rows));
  AUTOCAT_ASSERT_OK_AND_MOVE(
      Table expected,
      selected.Project({"neighborhood", "price", "bedroomcount",
                        "yearbuilt"}));
  ExpectTablesBitIdentical(expected, f.materialized,
                           "view materialization");
  // ValueAt through the view reads the same cells without materializing.
  for (size_t r = 0; r < f.view.num_rows(); ++r) {
    for (size_t c = 0; c < f.view.num_columns(); ++c) {
      EXPECT_TRUE(BitIdentical(f.view.ValueAt(r, c), expected.ValueAt(r, c)))
          << "view cell " << r << "," << c;
    }
  }
}

WorkloadStats FuzzStats() {
  const std::vector<std::string> sqls = {
      "SELECT * FROM homes WHERE price BETWEEN 100000 AND 200000",
      "SELECT * FROM homes WHERE price <= 300000 AND neighborhood IN "
      "('Redmond', 'Bellevue')",
      "SELECT * FROM homes WHERE bedroomcount >= 3",
      "SELECT * FROM homes WHERE propertytype = 'Condo' AND price <= "
      "250000",
      "SELECT * FROM homes WHERE yearbuilt >= 1990 AND squarefootage "
      "BETWEEN 1000 AND 3000",
      "SELECT * FROM homes WHERE neighborhood = 'Seattle' AND "
      "bedroomcount BETWEEN 2 AND 4",
  };
  const Schema schema = FuzzSchema();
  const Workload workload = Workload::Parse(sqls, schema, nullptr);
  EXPECT_EQ(workload.size(), sqls.size());
  WorkloadStatsOptions options;
  options.split_intervals = {{"price", 5000},
                             {"squarefootage", 100},
                             {"yearbuilt", 5},
                             {"bedroomcount", 1},
                             {"bathcount", 1}};
  auto stats = WorkloadStats::Build(workload, schema, options);
  EXPECT_TRUE(stats.ok());
  return std::move(stats).value();
}

void ExpectLabelsIdentical(const CategoryLabel& a, const CategoryLabel& b,
                           const std::string& context) {
  EXPECT_EQ(a.attribute(), b.attribute()) << context;
  ASSERT_EQ(a.is_categorical(), b.is_categorical()) << context;
  if (a.is_categorical()) {
    ASSERT_EQ(a.values().size(), b.values().size()) << context;
    for (size_t v = 0; v < a.values().size(); ++v) {
      EXPECT_TRUE(BitIdentical(a.values()[v], b.values()[v])) << context;
    }
  } else {
    EXPECT_TRUE(BitIdentical(Value(a.lo()), Value(b.lo()))) << context;
    EXPECT_TRUE(BitIdentical(Value(a.hi()), Value(b.hi()))) << context;
    EXPECT_EQ(a.hi_inclusive(), b.hi_inclusive()) << context;
  }
}

void ExpectPartitionsIdentical(
    const std::vector<PartitionCategory>& oracle,
    const std::vector<PartitionCategory>& typed, const std::string& context) {
  ASSERT_EQ(oracle.size(), typed.size()) << context;
  for (size_t i = 0; i < oracle.size(); ++i) {
    ExpectLabelsIdentical(oracle[i].label, typed[i].label, context);
    EXPECT_EQ(oracle[i].tuples, typed[i].tuples)
        << context << " category " << i;
  }
}

void ExpectSummariesIdentical(const std::vector<PartitionSummary>& oracle,
                              const std::vector<PartitionSummary>& typed,
                              const std::string& context) {
  ASSERT_EQ(oracle.size(), typed.size()) << context;
  for (size_t i = 0; i < oracle.size(); ++i) {
    ExpectLabelsIdentical(oracle[i].label, typed[i].label, context);
    EXPECT_EQ(oracle[i].size, typed[i].size) << context << " category " << i;
  }
}

// Every partitioner over the shadowed view (typed arrays, dictionary
// codes) against the same call over a shadowless view of the
// materialized result (generic per-Value walk), on the root tset and on
// a strided subset.
TEST(ColumnarEquivalenceTest, PartitionersViewVsTable) {
  const WorkloadStats stats = FuzzStats();
  for (const bool projected : {false, true}) {
    const ViewFixture f(projected);
    const TableView oracle = TableView::All(f.materialized, nullptr);
    std::vector<size_t> strided;
    for (size_t i = 0; i < f.view.num_rows(); i += 3) {
      strided.push_back(i);
    }
    const std::vector<const std::vector<size_t>*> tuple_sets = {
        &f.all_tuples, &strided};
    for (const std::vector<size_t>* tuples : tuple_sets) {
      const std::string tag =
          std::string(projected ? " (projected" : " (all columns") +
          (tuples == &strided ? ", strided)" : ")");
      for (const std::string attr :
           {"neighborhood", "price", "bedroomcount", "yearbuilt"}) {
        const std::string context = attr + tag;
        // The categorical partitioners group any column type, which
        // covers the string, int64 and double grouping paths.
        {
          AUTOCAT_ASSERT_OK_AND_MOVE(
              auto want, PartitionCategorical(oracle, *tuples, attr, stats));
          AUTOCAT_ASSERT_OK_AND_MOVE(
              auto got, PartitionCategorical(f.view, *tuples, attr, stats));
          ExpectPartitionsIdentical(want, got,
                                    "PartitionCategorical " + context);

          AUTOCAT_ASSERT_OK_AND_MOVE(
              auto want_sum,
              SummarizePartitionCategorical(oracle, *tuples, attr, stats));
          AUTOCAT_ASSERT_OK_AND_MOVE(
              auto got_sum,
              SummarizePartitionCategorical(f.view, *tuples, attr, stats));
          ExpectSummariesIdentical(want_sum, got_sum,
                                   "SummarizePartitionCategorical " +
                                       context);

          // Same seed on both sides: the shuffle order must match too.
          Random rng_oracle(7);
          Random rng_typed(7);
          AUTOCAT_ASSERT_OK_AND_MOVE(
              auto want_arb, PartitionCategoricalArbitrary(
                                 oracle, *tuples, attr, &rng_oracle));
          AUTOCAT_ASSERT_OK_AND_MOVE(
              auto got_arb, PartitionCategoricalArbitrary(
                                f.view, *tuples, attr, &rng_typed));
          ExpectPartitionsIdentical(want_arb, got_arb,
                                    "PartitionCategoricalArbitrary " +
                                        context);
        }
        if (f.view.schema()
                .column(f.view.schema().ColumnIndex(attr).value())
                .kind != ColumnKind::kNumeric) {
          continue;
        }
        NumericPartitionOptions options;
        AUTOCAT_ASSERT_OK_AND_MOVE(
            auto want, PartitionNumeric(oracle, *tuples, attr, stats,
                                        options, nullptr));
        AUTOCAT_ASSERT_OK_AND_MOVE(
            auto got, PartitionNumeric(f.view, *tuples, attr, stats,
                                       options, nullptr));
        ExpectPartitionsIdentical(want, got, "PartitionNumeric " + context);

        AUTOCAT_ASSERT_OK_AND_MOVE(
            auto want_sum, SummarizePartitionNumeric(oracle, *tuples, attr,
                                                     stats, options,
                                                     nullptr));
        AUTOCAT_ASSERT_OK_AND_MOVE(
            auto got_sum, SummarizePartitionNumeric(f.view, *tuples, attr,
                                                    stats, options,
                                                    nullptr));
        ExpectSummariesIdentical(want_sum, got_sum,
                                 "SummarizePartitionNumeric " + context);

        AUTOCAT_ASSERT_OK_AND_MOVE(
            auto want_ew, PartitionNumericEquiWidth(oracle, *tuples, attr,
                                                    25000, nullptr));
        AUTOCAT_ASSERT_OK_AND_MOVE(
            auto got_ew, PartitionNumericEquiWidth(f.view, *tuples, attr,
                                                   25000, nullptr));
        ExpectPartitionsIdentical(want_ew, got_ew,
                                  "PartitionNumericEquiWidth " + context);
      }
    }
  }
}

void ExpectTreesIdentical(const CategoryTree& a, const CategoryTree& b,
                          const std::string& context) {
  EXPECT_EQ(a.level_attributes(), b.level_attributes()) << context;
  ASSERT_EQ(a.num_nodes(), b.num_nodes()) << context;
  for (size_t id = 0; id < a.num_nodes(); ++id) {
    const CategoryNode& x = a.node(static_cast<NodeId>(id));
    const CategoryNode& y = b.node(static_cast<NodeId>(id));
    EXPECT_EQ(x.parent, y.parent) << context << " node " << id;
    EXPECT_EQ(x.children, y.children) << context << " node " << id;
    EXPECT_EQ(x.tuples, y.tuples) << context << " node " << id;
    EXPECT_EQ(x.label.ToString(), y.label.ToString())
        << context << " node " << id;
  }
}

// All three techniques: the Table entry point (a shadowless view of the
// materialized result) against the shadowed view over the same rows.
TEST(ColumnarEquivalenceTest, CostBasedCategorizerViewVsTable) {
  const WorkloadStats stats = FuzzStats();
  const ViewFixture f(false);
  CategorizerOptions options;
  options.candidate_attributes = {"neighborhood", "propertytype", "price",
                                  "bedroomcount"};
  options.attribute_usage_threshold = 0.0;
  const CostBasedCategorizer cost_based(&stats, options);
  const AttrCostCategorizer attr_cost(&stats, options);
  const NoCostCategorizer no_cost(&stats, options);

  auto query = ParseQuery("SELECT * FROM homes WHERE price <= 900000");
  ASSERT_TRUE(query.ok());
  auto profile = SelectionProfile::FromQuery(query.value(), FuzzSchema());
  ASSERT_TRUE(profile.ok());

  const ViewFixture other(true);
  for (const Categorizer* categorizer :
       std::vector<const Categorizer*>{&cost_based, &attr_cost, &no_cost}) {
    AUTOCAT_ASSERT_OK_AND_MOVE(
        const CategoryTree from_table,
        categorizer->Categorize(f.materialized, &profile.value()));
    AUTOCAT_ASSERT_OK_AND_MOVE(
        const CategoryTree from_view,
        categorizer->Categorize(f.view, f.materialized, &profile.value()));
    EXPECT_GT(from_table.num_nodes(), 1u) << categorizer->name();
    ExpectTreesIdentical(from_table, from_view, categorizer->name());

    // A mismatched view is rejected rather than silently miscombined.
    EXPECT_FALSE(categorizer
                     ->Categorize(other.view, f.materialized,
                                  &profile.value())
                     .ok())
        << categorizer->name();
  }
}

}  // namespace
}  // namespace autocat
