// Store-vs-memory equivalence gate: a table served zero-copy out of a
// mapped segment store must behave bit-identically to its in-memory twin
// — same result cells (doubles by bit pattern), same row order, same
// error Statuses — through every execution path: the row-at-a-time
// interpreter, the columnar kernels at threads 1 and 7, every partitioner,
// categorizer and the leaf ranking, and a cold CategorizationService
// request. Replays the checked-in SQL fuzz corpus plus randomized queries
// over a table seeded with hostile cells.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/categorizer.h"
#include "core/enumerate.h"
#include "core/partition.h"
#include "core/ranking.h"
#include "exec/executor.h"
#include "serve/service.h"
#include "sql/parser.h"
#include "sql/selection.h"
#include "storage/table.h"
#include "store/store.h"
#include "store/writer.h"
#include "workload/workload.h"

#include "equivalence_fixture.h"

namespace autocat {
namespace {

namespace fs = std::filesystem;

// The homes schema of the SQL fuzz harness: corpus queries reference
// exactly these columns and types.
Schema FuzzSchema() {
  auto schema = Schema::Create({
      ColumnDef("neighborhood", ValueType::kString,
                ColumnKind::kCategorical),
      ColumnDef("city", ValueType::kString, ColumnKind::kCategorical),
      ColumnDef("propertytype", ValueType::kString,
                ColumnKind::kCategorical),
      ColumnDef("price", ValueType::kDouble, ColumnKind::kNumeric),
      ColumnDef("bedroomcount", ValueType::kInt64, ColumnKind::kNumeric),
      ColumnDef("bathcount", ValueType::kDouble, ColumnKind::kNumeric),
      ColumnDef("squarefootage", ValueType::kDouble, ColumnKind::kNumeric),
      ColumnDef("yearbuilt", ValueType::kInt64, ColumnKind::kNumeric),
  });
  EXPECT_TRUE(schema.ok());
  return std::move(schema).value();
}

const char* const kNeighborhoods[] = {"Redmond",  "Bellevue", "Seattle",
                                      "Kirkland", "Ballard",  "Queen Anne"};
const char* const kCities[] = {"Seattle", "Bellevue", "Redmond"};
const char* const kTypes[] = {"Single Family", "Condo", "Townhome"};

// Deterministic rows over FuzzSchema with NULLs and hostile cells (NaN,
// signed zeros, int64 extremes, 2^53 + 1) — the same value population as
// the columnar equivalence gate.
std::vector<Row> MakeHomesRows(size_t n, uint64_t seed, double null_p,
                               bool with_hostile_cells) {
  Random rng(seed);
  std::vector<Row> rows;
  rows.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    Row row;
    auto cell = [&](Value v) {
      row.push_back(rng.Bernoulli(null_p) ? Value() : std::move(v));
    };
    cell(Value(kNeighborhoods[rng.Uniform(0, 5)]));
    cell(Value(kCities[rng.Uniform(0, 2)]));
    cell(Value(kTypes[rng.Uniform(0, 2)]));
    double price = rng.UniformReal(50000, 900000);
    if (rng.Bernoulli(0.2)) {
      price = 25000.0 * rng.Uniform(2, 30);
    }
    cell(Value(price));
    cell(Value(rng.Uniform(0, 8)));
    cell(Value(0.25 * rng.Uniform(4, 20)));
    cell(Value(rng.UniformReal(300, 8000)));
    cell(Value(rng.Uniform(1900, 2026)));
    if (with_hostile_cells && i % 17 == 0) {
      switch (i / 17 % 6) {
        case 0:
          row[3] = Value(std::numeric_limits<double>::quiet_NaN());
          break;
        case 1:
          row[3] = Value(-0.0);
          break;
        case 2:
          row[3] = Value(0.0);
          break;
        case 3:
          row[4] = Value(std::numeric_limits<int64_t>::max());
          break;
        case 4:
          row[4] = Value(std::numeric_limits<int64_t>::min());
          break;
        default:
          row[7] = Value(int64_t{9007199254740993});  // 2^53 + 1
          break;
      }
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

bool BitIdentical(const Value& a, const Value& b) {
  if (a.type() != b.type()) {
    return false;
  }
  switch (a.type()) {
    case ValueType::kNull:
      return true;
    case ValueType::kInt64:
      return a.int64_value() == b.int64_value();
    case ValueType::kDouble: {
      uint64_t ba = 0;
      uint64_t bb = 0;
      const double da = a.double_value();
      const double db = b.double_value();
      std::memcpy(&ba, &da, sizeof(ba));
      std::memcpy(&bb, &db, sizeof(bb));
      return ba == bb;
    }
    case ValueType::kString:
      return a.string_value() == b.string_value();
  }
  return false;
}

void ExpectTablesBitIdentical(const Table& expected, const Table& got,
                              const std::string& context) {
  ASSERT_EQ(expected.num_rows(), got.num_rows()) << context;
  ASSERT_EQ(expected.schema().num_columns(), got.schema().num_columns())
      << context;
  for (size_t r = 0; r < expected.num_rows(); ++r) {
    for (size_t c = 0; c < expected.schema().num_columns(); ++c) {
      ASSERT_TRUE(
          BitIdentical(expected.CellValue(r, c), got.CellValue(r, c)))
          << context << " differs at row " << r << " col " << c << ": "
          << expected.CellValue(r, c).ToString() << " vs "
          << got.CellValue(r, c).ToString();
    }
  }
}

void ExpectTreesIdentical(const CategoryTree& a, const CategoryTree& b,
                          const std::string& context) {
  ASSERT_EQ(a.num_nodes(), b.num_nodes()) << context;
  EXPECT_EQ(a.level_attributes(), b.level_attributes()) << context;
  for (size_t id = 0; id < a.num_nodes(); ++id) {
    const CategoryNode& na = a.node(static_cast<NodeId>(id));
    const CategoryNode& nb = b.node(static_cast<NodeId>(id));
    EXPECT_EQ(na.parent, nb.parent) << context << " node " << id;
    EXPECT_EQ(na.children, nb.children) << context << " node " << id;
    EXPECT_EQ(na.tuples, nb.tuples) << context << " node " << id;
    EXPECT_EQ(na.label.ToString(), nb.label.ToString())
        << context << " node " << id;
  }
}

void ExpectPartitionsIdentical(const std::vector<PartitionCategory>& a,
                               const std::vector<PartitionCategory>& b,
                               const std::string& context) {
  ASSERT_EQ(a.size(), b.size()) << context;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].label.ToString(), b[i].label.ToString()) << context;
    EXPECT_EQ(a[i].tuples, b[i].tuples) << context << " category " << i;
  }
}

void ExpectSummariesIdentical(const std::vector<PartitionSummary>& a,
                              const std::vector<PartitionSummary>& b,
                              const std::string& context) {
  ASSERT_EQ(a.size(), b.size()) << context;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].label.ToString(), b[i].label.ToString()) << context;
    EXPECT_EQ(a[i].size, b[i].size) << context << " category " << i;
  }
}

// Shared fixture: the same rows registered twice — once as an in-memory
// row table, once round-tripped through a store file and mapped back.
class StoreEquivalenceFixture {
 public:
  StoreEquivalenceFixture(size_t n, uint64_t seed, double null_p,
                          bool hostile, const std::string& tag) {
    store_path_ = (fs::temp_directory_path() /
                   ("autocat_store_equiv_" + tag + "_" +
                    std::to_string(::getpid()) + ".store"))
                      .string();
    const Schema schema = FuzzSchema();
    const std::vector<Row> rows = MakeHomesRows(n, seed, null_p, hostile);

    Table mem(schema);
    for (const Row& row : rows) {
      EXPECT_TRUE(mem.AppendRow(row).ok());
    }
    EXPECT_TRUE(mem_db_.RegisterTable("homes", std::move(mem)).ok());

    StoreWriterOptions options;
    options.memory_budget_bytes = 32 << 10;  // force spill runs
    auto writer = StoreWriter::Create(store_path_, options);
    EXPECT_TRUE(writer.ok()) << writer.status().ToString();
    EXPECT_TRUE(writer.value()->BeginTable("homes", schema).ok());
    for (const Row& row : rows) {
      EXPECT_TRUE(writer.value()->Append(row).ok());
    }
    EXPECT_TRUE(writer.value()->FinishTable().ok());
    EXPECT_TRUE(writer.value()->Finish().ok());
    EXPECT_TRUE(AttachStoreTables(store_path_, &store_db_).ok());
  }

  ~StoreEquivalenceFixture() {
    std::error_code ec;
    fs::remove(store_path_, ec);
  }

  // Runs `sql` through four paths — memory/store x row-interpreter/
  // columnar kernels — and requires one shared outcome.
  void ExpectEquivalent(const std::string& sql, size_t threads) const {
    ExecOptions row_opts;
    row_opts.use_columnar = false;
    ExecOptions col_opts;
    col_opts.use_columnar = true;
    col_opts.parallel.threads = threads;

    const Result<Table> baseline = ExecuteSql(sql, mem_db_, row_opts);
    const Result<Table> candidates[] = {
        ExecuteSql(sql, mem_db_, col_opts),
        ExecuteSql(sql, store_db_, row_opts),
        ExecuteSql(sql, store_db_, col_opts),
    };
    const char* const names[] = {"mem-columnar", "store-row",
                                 "store-columnar"};
    for (size_t i = 0; i < 3; ++i) {
      const std::string context = sql + " [" + names[i] +
                                  ", threads=" + std::to_string(threads) +
                                  "]";
      ASSERT_EQ(baseline.ok(), candidates[i].ok())
          << context << ": "
          << (baseline.ok() ? candidates[i] : baseline)
                 .status()
                 .ToString();
      if (!baseline.ok()) {
        EXPECT_EQ(baseline.status().ToString(),
                  candidates[i].status().ToString())
            << context;
        continue;
      }
      ExpectTablesBitIdentical(baseline.value(), candidates[i].value(),
                               context);
    }
  }

  const Database& mem_db() const { return mem_db_; }
  const Database& store_db() const { return store_db_; }
  const std::string& store_path() const { return store_path_; }

 private:
  std::string store_path_;
  Database mem_db_;
  Database store_db_;
};

TEST(StoreEquivalenceTest, FuzzCorpusStoreVsMemory) {
  const StoreEquivalenceFixture f(500, 101, 0.08, true, "corpus");
  const fs::path corpus(AUTOCAT_FUZZ_CORPUS_DIR);
  ASSERT_TRUE(fs::is_directory(corpus));
  size_t replayed = 0;
  for (const auto& entry : fs::directory_iterator(corpus)) {
    if (!entry.is_regular_file()) {
      continue;
    }
    std::ifstream in(entry.path(), std::ios::binary);
    std::string sql((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
    for (const size_t threads : {size_t{1}, size_t{7}}) {
      f.ExpectEquivalent(sql, threads);
    }
    ++replayed;
  }
  EXPECT_GE(replayed, 10u) << "corpus directory looks truncated";
}

std::string RandomLiteral(Random& rng, size_t col) {
  if (col <= 2) {
    const char* const* vocab =
        col == 0 ? kNeighborhoods : (col == 1 ? kCities : kTypes);
    const int64_t hi = col == 0 ? 5 : 2;
    return std::string("'") + vocab[rng.Uniform(0, hi)] + "'";
  }
  switch (rng.Uniform(0, 3)) {
    case 0:
      return std::to_string(rng.Uniform(-5, 1000000));
    case 1:
      return std::to_string(25000.0 * rng.Uniform(0, 30));
    case 2:
      return "9007199254740993";  // 2^53 + 1
    default:
      return std::to_string(rng.UniformReal(0, 900000));
  }
}

std::string RandomCondition(Random& rng, const Schema& schema) {
  const bool hostile = rng.Bernoulli(0.15);
  const size_t col = static_cast<size_t>(rng.Uniform(0, 7));
  std::string name =
      hostile && rng.Bernoulli(0.3) ? "bogus" : schema.column(col).name;
  const size_t lit_col =
      hostile ? static_cast<size_t>(rng.Uniform(0, 7)) : col;
  switch (rng.Uniform(0, 6)) {
    case 0:
      return name + " = " + RandomLiteral(rng, lit_col);
    case 1:
      return name + " <> " + RandomLiteral(rng, lit_col);
    case 2: {
      const char* const ops[] = {"<", "<=", ">", ">="};
      return name + " " + ops[rng.Uniform(0, 3)] + " " +
             RandomLiteral(rng, lit_col);
    }
    case 3:
      return name + (rng.Bernoulli(0.3) ? " NOT BETWEEN " : " BETWEEN ") +
             RandomLiteral(rng, lit_col) + " AND " +
             RandomLiteral(rng, lit_col);
    case 4: {
      std::string list = RandomLiteral(rng, lit_col);
      const int64_t extra = rng.Uniform(0, 3);
      for (int64_t i = 0; i < extra; ++i) {
        list += ", " + RandomLiteral(rng, lit_col);
      }
      return name + (rng.Bernoulli(0.3) ? " NOT IN (" : " IN (") + list +
             ")";
    }
    default:
      return name + (rng.Bernoulli(0.5) ? " IS NULL" : " IS NOT NULL");
  }
}

TEST(StoreEquivalenceTest, RandomizedQueriesStoreVsMemory) {
  const StoreEquivalenceFixture f(600, 202, 0.1, true, "random");
  const Schema schema = FuzzSchema();
  Random rng(778);
  for (int i = 0; i < 150; ++i) {
    std::string sql = "SELECT * FROM homes WHERE ";
    const int64_t conds = rng.Uniform(1, 3);
    for (int64_t c = 0; c < conds; ++c) {
      if (c > 0) {
        sql += rng.Bernoulli(0.5) ? " AND " : " OR ";
      }
      sql += RandomCondition(rng, schema);
    }
    for (const size_t threads : {size_t{1}, size_t{7}}) {
      f.ExpectEquivalent(sql, threads);
    }
  }
}

TEST(StoreEquivalenceTest, TableOperatorsStoreVsMemory) {
  const StoreEquivalenceFixture f(400, 303, 0.1, false, "ops");
  const Table& mem = **f.mem_db().GetTable("homes");
  const Table& mapped = **f.store_db().GetTable("homes");
  ASSERT_TRUE(mem.has_rows());
  ASSERT_FALSE(mapped.has_rows());

  // Whole-table scan equivalence.
  ExpectTablesBitIdentical(mem, mapped, "identity");

  // Projection.
  auto p_mem = mem.Project({"price", "neighborhood"});
  auto p_map = mapped.Project({"price", "neighborhood"});
  ASSERT_TRUE(p_mem.ok() && p_map.ok());
  ExpectTablesBitIdentical(p_mem.value(), p_map.value(), "project");

  // Row selection.
  std::vector<size_t> picks;
  for (size_t r = 0; r < mem.num_rows(); r += 3) {
    picks.push_back(r);
  }
  auto s_mem = mem.SelectRows(picks);
  auto s_map = mapped.SelectRows(picks);
  ASSERT_TRUE(s_mem.ok() && s_map.ok());
  ExpectTablesBitIdentical(s_mem.value(), s_map.value(), "select");

  // Distinct values and min/max per column.
  for (size_t c = 0; c < mem.num_columns(); ++c) {
    auto d_mem = mem.DistinctValues(c);
    auto d_map = mapped.DistinctValues(c);
    ASSERT_TRUE(d_mem.ok() && d_map.ok());
    ASSERT_EQ(d_mem.value().size(), d_map.value().size()) << "col " << c;
    for (size_t i = 0; i < d_mem.value().size(); ++i) {
      EXPECT_TRUE(BitIdentical(d_mem.value()[i], d_map.value()[i]))
          << "col " << c << " distinct " << i;
    }
    auto m_mem = mem.MinMax(c);
    auto m_map = mapped.MinMax(c);
    ASSERT_EQ(m_mem.ok(), m_map.ok()) << "col " << c;
    if (m_mem.ok()) {
      EXPECT_TRUE(
          BitIdentical(m_mem.value().first, m_map.value().first));
      EXPECT_TRUE(
          BitIdentical(m_mem.value().second, m_map.value().second));
    }
  }

  // Appends are refused on the mapped table.
  Table& mutable_mapped = const_cast<Table&>(mapped);
  EXPECT_FALSE(mutable_mapped.AppendRow(mem.CopyRow(0)).ok());
}

// Offline categorization of a store-opened (column-backed) table: every
// partitioner, all three categorizers, the enumerative optimizers and the
// leaf ranking read its cells through a view (or Table::CellValue) and
// must build exactly the partitions and trees they build over the same
// rows held in a row-backed table.
TEST(StoreEquivalenceTest, CategorizeStoreOpenedTableVsMemory) {
  const StoreEquivalenceFixture f(500, 505, 0.05, false, "categorize");
  const Table& mem = **f.mem_db().GetTable("homes");
  const Table& mapped = **f.store_db().GetTable("homes");
  ASSERT_TRUE(mem.has_rows());
  ASSERT_FALSE(mapped.has_rows());

  const Schema schema = FuzzSchema();
  const std::vector<std::string> sqls = {
      "SELECT * FROM homes WHERE price BETWEEN 100000 AND 200000",
      "SELECT * FROM homes WHERE price <= 300000 AND neighborhood IN "
      "('Redmond', 'Bellevue')",
      "SELECT * FROM homes WHERE bedroomcount >= 3",
      "SELECT * FROM homes WHERE propertytype = 'Condo' AND price <= "
      "250000",
      "SELECT * FROM homes WHERE neighborhood = 'Seattle' AND "
      "bedroomcount BETWEEN 2 AND 4",
  };
  const Workload workload = Workload::Parse(sqls, schema, nullptr);
  ASSERT_EQ(workload.size(), sqls.size());
  WorkloadStatsOptions stats_options;
  stats_options.split_intervals = {{"price", 5000},
                                   {"squarefootage", 100},
                                   {"yearbuilt", 5},
                                   {"bedroomcount", 1},
                                   {"bathcount", 1}};
  AUTOCAT_ASSERT_OK_AND_MOVE(
      const WorkloadStats stats,
      WorkloadStats::Build(workload, schema, stats_options));

  // Every partitioner: the shadowless view of the mapped table (cells
  // synthesized from the columns) and its shadowed view (typed arrays)
  // against the shadowless view of the row table.
  const TableView mem_view = TableView::All(mem, nullptr);
  const TableView mapped_views[] = {
      TableView::All(mapped, nullptr),
      TableView::All(mapped, mapped.columnar_backing())};
  std::vector<size_t> all(mem.num_rows());
  for (size_t i = 0; i < all.size(); ++i) {
    all[i] = i;
  }
  const NumericPartitionOptions numeric;
  for (const TableView& view : mapped_views) {
    const std::string tag =
        view.columnar() == nullptr ? " (shadowless)" : " (shadowed)";
    for (const std::string attr : {"neighborhood", "propertytype"}) {
      AUTOCAT_ASSERT_OK_AND_MOVE(
          auto want, PartitionCategorical(mem_view, all, attr, stats));
      AUTOCAT_ASSERT_OK_AND_MOVE(
          auto got, PartitionCategorical(view, all, attr, stats));
      ExpectPartitionsIdentical(want, got, "categorical " + attr + tag);
      AUTOCAT_ASSERT_OK_AND_MOVE(
          auto want_sum,
          SummarizePartitionCategorical(mem_view, all, attr, stats));
      AUTOCAT_ASSERT_OK_AND_MOVE(
          auto got_sum,
          SummarizePartitionCategorical(view, all, attr, stats));
      ExpectSummariesIdentical(want_sum, got_sum,
                               "categorical summary " + attr + tag);
      Random rng_mem(11);
      Random rng_mapped(11);
      AUTOCAT_ASSERT_OK_AND_MOVE(
          auto want_arb,
          PartitionCategoricalArbitrary(mem_view, all, attr, &rng_mem));
      AUTOCAT_ASSERT_OK_AND_MOVE(
          auto got_arb,
          PartitionCategoricalArbitrary(view, all, attr, &rng_mapped));
      ExpectPartitionsIdentical(want_arb, got_arb, "arbitrary " + attr + tag);
    }
    for (const std::string attr : {"price", "bedroomcount"}) {
      AUTOCAT_ASSERT_OK_AND_MOVE(
          auto want,
          PartitionNumeric(mem_view, all, attr, stats, numeric, nullptr));
      AUTOCAT_ASSERT_OK_AND_MOVE(
          auto got,
          PartitionNumeric(view, all, attr, stats, numeric, nullptr));
      ExpectPartitionsIdentical(want, got, "numeric " + attr + tag);
      AUTOCAT_ASSERT_OK_AND_MOVE(
          auto want_sum, SummarizePartitionNumeric(mem_view, all, attr,
                                                   stats, numeric, nullptr));
      AUTOCAT_ASSERT_OK_AND_MOVE(
          auto got_sum, SummarizePartitionNumeric(view, all, attr, stats,
                                                  numeric, nullptr));
      ExpectSummariesIdentical(want_sum, got_sum,
                               "numeric summary " + attr + tag);
      AUTOCAT_ASSERT_OK_AND_MOVE(
          auto want_ew,
          PartitionNumericEquiWidth(mem_view, all, attr, 50000, nullptr));
      AUTOCAT_ASSERT_OK_AND_MOVE(
          auto got_ew,
          PartitionNumericEquiWidth(view, all, attr, 50000, nullptr));
      ExpectPartitionsIdentical(want_ew, got_ew, "equi-width " + attr + tag);
    }
  }

  // All three categorizers through the Table entry point, then the leaf
  // ranking over each tree.
  AUTOCAT_ASSERT_OK_AND_MOVE(
      const SelectQuery query,
      ParseQuery("SELECT * FROM homes WHERE price <= 800000"));
  AUTOCAT_ASSERT_OK_AND_MOVE(const SelectionProfile profile,
                             SelectionProfile::FromQuery(query, schema));
  CategorizerOptions options;
  options.candidate_attributes = {"neighborhood", "propertytype", "price",
                                  "bedroomcount"};
  options.attribute_usage_threshold = 0.0;
  const CostBasedCategorizer cost_based(&stats, options);
  const AttrCostCategorizer attr_cost(&stats, options);
  const NoCostCategorizer no_cost(&stats, options);
  for (const Categorizer* categorizer :
       std::vector<const Categorizer*>{&cost_based, &attr_cost, &no_cost}) {
    AUTOCAT_ASSERT_OK_AND_MOVE(CategoryTree want,
                               categorizer->Categorize(mem, &profile));
    AUTOCAT_ASSERT_OK_AND_MOVE(CategoryTree got,
                               categorizer->Categorize(mapped, &profile));
    EXPECT_GT(want.num_nodes(), 1u) << categorizer->name();
    ExpectTreesIdentical(want, got, categorizer->name());

    ASSERT_TRUE(ApplyLeafRanking(want, {}, stats).ok());
    ASSERT_TRUE(ApplyLeafRanking(got, {}, stats).ok());
    ExpectTreesIdentical(want, got, categorizer->name() + " ranked");
  }

  // The enumerative optimizers (categorical groups and numeric buckets).
  const std::vector<std::string> candidates = {"neighborhood",
                                               "bedroomcount"};
  AUTOCAT_ASSERT_OK_AND_MOVE(
      const EnumerationResult want_one,
      EnumerateBestOneLevel(mem, candidates, &stats, options, &profile));
  AUTOCAT_ASSERT_OK_AND_MOVE(
      const EnumerationResult got_one,
      EnumerateBestOneLevel(mapped, candidates, &stats, options, &profile));
  ExpectTreesIdentical(want_one.tree, got_one.tree, "one-level");
  AUTOCAT_ASSERT_OK_AND_MOVE(
      const EnumerationResult want_order,
      EnumerateBestAttributeOrder(mem, candidates, &stats, options,
                                  &profile));
  AUTOCAT_ASSERT_OK_AND_MOVE(
      const EnumerationResult got_order,
      EnumerateBestAttributeOrder(mapped, candidates, &stats, options,
                                  &profile));
  ExpectTreesIdentical(want_order.tree, got_order.tree, "attribute order");
}

// Cold-serve equivalence: two services over the same workload — one with
// the in-memory table, one with the mapped store — must produce
// bit-identical result tables and category trees for cache-miss
// requests.
TEST(StoreEquivalenceTest, ColdServeStoreVsMemory) {
  const StoreEquivalenceFixture f(500, 404, 0.05, false, "serve");
  const Schema schema = FuzzSchema();
  const std::vector<std::string> sqls = {
      "SELECT * FROM homes WHERE price BETWEEN 100000 AND 400000",
      "SELECT * FROM homes WHERE neighborhood IN ('Redmond', 'Bellevue') "
      "AND bedroomcount >= 2",
      "SELECT * FROM homes WHERE propertytype = 'Condo'",
      "SELECT * FROM homes WHERE yearbuilt >= 1990 AND squarefootage "
      "BETWEEN 1000 AND 3000",
  };
  const Workload workload = Workload::Parse(sqls, schema, nullptr);
  ASSERT_EQ(workload.size(), sqls.size());

  auto make_service = [&](const Database& source) {
    Database db;
    const Result<const Table*> table = source.GetTable("homes");
    EXPECT_TRUE(table.ok());
    // Column-backed tables share the mapping; row tables are copied.
    if (table.value()->has_rows()) {
      EXPECT_TRUE(db.RegisterTable("homes", Table(*table.value())).ok());
    } else {
      EXPECT_TRUE(
          db.RegisterTable(
                "homes",
                Table::FromColumnar(table.value()->schema(),
                                    table.value()->columnar_backing()))
              .ok());
    }
    ServiceOptions options;
    options.stats.split_intervals = {{"price", 5000},
                                     {"squarefootage", 100},
                                     {"yearbuilt", 5},
                                     {"bedroomcount", 1},
                                     {"bathcount", 1}};
    return std::make_unique<CategorizationService>(
        std::move(db), Workload(workload), std::move(options));
  };
  auto mem_service = make_service(f.mem_db());
  auto store_service = make_service(f.store_db());

  for (const std::string& sql : sqls) {
    ServeRequest request;
    request.sql = sql;
    request.bypass_cache = true;  // always the cold path
    const Result<ServeResponse> mem_r = mem_service->Handle(request);
    const Result<ServeResponse> store_r = store_service->Handle(request);
    ASSERT_EQ(mem_r.ok(), store_r.ok()) << sql;
    if (!mem_r.ok()) {
      continue;
    }
    const CachedCategorization& a = *mem_r.value().payload;
    const CachedCategorization& b = *store_r.value().payload;
    ExpectTablesBitIdentical(a.result(), b.result(), "serve: " + sql);
    ExpectTreesIdentical(a.tree(), b.tree(), sql);
  }
}

}  // namespace
}  // namespace autocat
