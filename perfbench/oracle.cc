// The output oracle (README.md, "Oracle"). It reads the program's answer
// only through the result table's cells and the tree's nodes and labels;
// every comparison, count and property check is the benchmark's own.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "bench.h"

namespace perfbench {

using autocat::CachedCategorization;
using autocat::CategoryLabel;
using autocat::CategoryNode;
using autocat::CategoryTree;
using autocat::NodeId;
using autocat::Value;

namespace {

struct OracleColumn {
  const char* name;
  bool is_string;
};

// ListProperty in generator column order.
constexpr OracleColumn kColumns[] = {
    {"neighborhood", true},  {"city", true},       {"state", true},
    {"zipcode", true},       {"price", false},     {"bedroomcount", false},
    {"bathcount", false},    {"yearbuilt", false}, {"propertytype", true},
    {"squarefootage", false},
};

uint64_t Fnv(uint64_t h, const void* data, size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

constexpr uint64_t kFnvBasis = 14695981039346656037ULL;

uint64_t HashString(uint64_t h, const std::string& s) {
  h = Fnv(h, s.data(), s.size());
  return Fnv(h, "\x1f", 1);
}

uint64_t HashDouble(uint64_t h, double v) {
  uint64_t bits = 0;
  if (v == 0) v = 0;  // -0 and +0 hash alike
  std::memcpy(&bits, &v, sizeof(bits));
  return Fnv(h, &bits, sizeof(bits));
}

uint64_t HashCell(uint64_t h, const Value& v) {
  if (v.is_null()) return Fnv(h, "\x00N", 2);
  if (v.is_string()) return HashString(h, v.string_value());
  return HashDouble(h, v.AsDouble());
}

// A condition resolved against the oracle table: set conditions become
// dictionary codes, ranges stay as bounds.
struct Resolved {
  int col = -1;
  bool is_set = false;
  std::vector<uint32_t> codes;  // sorted
  double lo = 0, hi = 0;
  bool lo_inclusive = true, hi_inclusive = true;
};

bool InRange(double v, const Resolved& c) {
  if (c.lo_inclusive ? v < c.lo : v <= c.lo) return false;
  if (c.hi_inclusive ? v > c.hi : v >= c.hi) return false;
  return true;
}

std::vector<Resolved> Resolve(const OracleTable& table,
                              const QuerySpec& spec, bool* impossible) {
  std::vector<Resolved> out;
  *impossible = false;
  for (const Condition& c : spec.conditions) {
    Resolved r;
    r.col = table.ColumnOf(c.attribute);
    if (r.col < 0) {
      *impossible = true;  // an unknown attribute matches no row
      continue;
    }
    r.is_set = c.is_set;
    if (c.is_set) {
      if (!table.IsString(r.col)) {
        *impossible = true;
        continue;
      }
      for (const std::string& s : c.strings) {
        const int64_t code = table.Lookup(r.col, s);
        if (code >= 0) r.codes.push_back(static_cast<uint32_t>(code));
      }
      std::sort(r.codes.begin(), r.codes.end());
    } else {
      if (table.IsString(r.col)) {
        *impossible = true;
        continue;
      }
      r.lo = c.lo;
      r.hi = c.hi;
      r.lo_inclusive = c.lo_inclusive;
      r.hi_inclusive = c.hi_inclusive;
    }
    out.push_back(std::move(r));
  }
  return out;
}

bool RowMatches(const OracleTable& table, const std::vector<Resolved>& conds,
                size_t row) {
  for (const Resolved& c : conds) {
    if (c.is_set) {
      if (!std::binary_search(c.codes.begin(), c.codes.end(),
                              table.Code(c.col, row))) {
        return false;
      }
    } else if (!InRange(table.Num(c.col, row), c)) {
      return false;
    }
  }
  return true;
}

// Visits every base row that can match: the rows of the named
// neighborhoods, else the rows inside the price bounds, else all rows.
template <typename Fn>
void ForEachCandidate(const OracleTable& table,
                      const std::vector<Resolved>& conds, Fn&& fn) {
  const int nb_col = table.ColumnOf("neighborhood");
  const int price_col = table.ColumnOf("price");
  for (const Resolved& c : conds) {
    if (c.is_set && c.col == nb_col) {
      for (const uint32_t code : c.codes) {
        for (const uint32_t row : table.RowsOfNeighborhood(code)) fn(row);
      }
      return;
    }
  }
  for (const Resolved& c : conds) {
    if (!c.is_set && c.col == price_col) {
      const std::vector<double>& prices = table.SortedPrices();
      const auto begin = std::lower_bound(prices.begin(), prices.end(), c.lo);
      const auto end = std::upper_bound(prices.begin(), prices.end(), c.hi);
      for (auto it = begin; it < end; ++it) {
        fn(table.RowsByPrice()[static_cast<size_t>(it - prices.begin())]);
      }
      return;
    }
  }
  for (size_t row = 0; row < table.num_rows(); ++row) {
    fn(static_cast<uint32_t>(row));
  }
}

// The cell as the oracle compares it: a string, or a number.
struct Cell {
  bool is_null = false;
  bool is_string = false;
  std::string s;
  double d = 0;
};

Cell ReadCell(const autocat::Table& t, size_t row, size_t col) {
  const Value v = t.CellValue(row, col);
  Cell c;
  if (v.is_null()) {
    c.is_null = true;
  } else if (v.is_string()) {
    c.is_string = true;
    c.s = v.string_value();
  } else {
    c.d = v.AsDouble();
  }
  return c;
}

bool LabelHolds(const CategoryLabel& label, const Cell& cell) {
  if (cell.is_null) return false;
  if (label.is_categorical()) {
    for (const Value& v : label.values()) {
      if (cell.is_string && v.is_string() && v.string_value() == cell.s) {
        return true;
      }
      if (!cell.is_string && !v.is_string() && !v.is_null() &&
          v.AsDouble() == cell.d) {
        return true;
      }
    }
    return false;
  }
  if (cell.is_string) return false;
  if (cell.d < label.lo()) return false;
  return label.hi_inclusive() ? cell.d <= label.hi() : cell.d < label.hi();
}

std::string Describe(NodeId id, const std::string& what) {
  return "tree node " + std::to_string(id) + ": " + what;
}

}  // namespace

// ---------------------------------------------------------------------------
// OracleTable

OracleTable::OracleTable() {
  for (const OracleColumn& c : kColumns) {
    names_.push_back(c.name);
    is_string_.push_back(c.is_string);
  }
  num_.resize(names_.size());
  code_.resize(names_.size());
  dict_.resize(names_.size());
  lookup_.resize(names_.size());
}

int OracleTable::ColumnOf(const std::string& name) const {
  for (size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<int>(i);
  }
  return -1;
}

int64_t OracleTable::Lookup(int col, const std::string& s) const {
  const auto it = lookup_[col].find(s);
  return it == lookup_[col].end() ? -1 : static_cast<int64_t>(it->second);
}

void OracleTable::Append(const autocat::Row& row) {
  for (size_t c = 0; c < names_.size(); ++c) {
    const Value& v = row[c];
    if (is_string_[c]) {
      const std::string& s = v.string_value();
      auto [it, inserted] = lookup_[c].try_emplace(
          s, static_cast<uint32_t>(dict_[c].size()));
      if (inserted) dict_[c].push_back(s);
      code_[c].push_back(it->second);
    } else {
      num_[c].push_back(v.AsDouble());
    }
  }
  ++rows_;
}

void OracleTable::Finish() {
  const int nb = ColumnOf("neighborhood");
  by_neighborhood_.assign(dict_[nb].size(), {});
  for (size_t r = 0; r < rows_; ++r) {
    by_neighborhood_[code_[nb][r]].push_back(static_cast<uint32_t>(r));
  }
  const int price = ColumnOf("price");
  by_price_.resize(rows_);
  for (size_t r = 0; r < rows_; ++r) by_price_[r] = static_cast<uint32_t>(r);
  std::stable_sort(by_price_.begin(), by_price_.end(),
                   [&](uint32_t a, uint32_t b) {
                     return num_[price][a] < num_[price][b];
                   });
  sorted_prices_.resize(rows_);
  for (size_t i = 0; i < rows_; ++i) {
    sorted_prices_[i] = num_[price][by_price_[i]];
  }
}

uint64_t OracleTable::RowFingerprint(size_t row) const {
  uint64_t h = kFnvBasis;
  for (size_t c = 0; c < names_.size(); ++c) {
    h = is_string_[c] ? HashString(h, Str(static_cast<int>(c), row))
                      : HashDouble(h, num_[c][row]);
  }
  return h;
}

// ---------------------------------------------------------------------------
// Counting

std::vector<uint32_t> MatchingRows(const OracleTable& table,
                                   const QuerySpec& spec) {
  bool impossible = false;
  const std::vector<Resolved> conds = Resolve(table, spec, &impossible);
  std::vector<uint32_t> out;
  if (impossible) return out;
  ForEachCandidate(table, conds, [&](uint32_t row) {
    if (RowMatches(table, conds, row)) out.push_back(row);
  });
  std::sort(out.begin(), out.end());
  return out;
}

size_t CountMatching(const OracleTable& table, const QuerySpec& spec) {
  bool impossible = false;
  const std::vector<Resolved> conds = Resolve(table, spec, &impossible);
  if (impossible) return 0;
  size_t n = 0;
  ForEachCandidate(table, conds, [&](uint32_t row) {
    n += RowMatches(table, conds, row) ? 1 : 0;
  });
  return n;
}

// ---------------------------------------------------------------------------
// Answer checks

std::string CheckTree(const CategoryTree& tree, size_t max_leaf_rows,
                      const std::vector<std::string>& candidates) {
  const autocat::Table& result = tree.result();
  const size_t n = result.num_rows();
  if (tree.num_nodes() == 0) return "tree has no root";
  const CategoryNode& root = tree.node(tree.root());
  if (root.tuples.size() != n) {
    return "root holds " + std::to_string(root.tuples.size()) + " of " +
           std::to_string(n) + " result rows";
  }
  std::vector<uint32_t> stamp(n, 0);
  for (const size_t t : root.tuples) {
    if (t >= n || stamp[t] != 0) return "root tuples are not the result rows";
    stamp[t] = 1;
  }
  // Depth-first over the tree, carrying the attributes on the path.
  uint32_t next_stamp = 2;
  std::vector<std::pair<NodeId, std::vector<std::string>>> stack;
  stack.push_back({tree.root(), {}});
  size_t visited = 0;
  while (!stack.empty()) {
    auto [id, path] = std::move(stack.back());
    stack.pop_back();
    ++visited;
    const CategoryNode& node = tree.node(id);
    if (!node.is_root()) {
      const CategoryLabel& label = node.label;
      const auto col = result.schema().ColumnIndex(label.attribute());
      if (!col.ok()) return Describe(id, "label on unknown attribute");
      for (const size_t t : node.tuples) {
        if (t >= n) return Describe(id, "tuple index out of range");
        if (!LabelHolds(label, ReadCell(result, t, col.value()))) {
          return Describe(id, "row " + std::to_string(t) +
                                  " does not satisfy label " +
                                  label.ToString());
        }
      }
    }
    if (node.children.empty()) {
      if (node.tuples.size() > max_leaf_rows) {
        for (const std::string& a : candidates) {
          if (std::find(path.begin(), path.end(), a) == path.end()) {
            return Describe(id, "leaf of " +
                                    std::to_string(node.tuples.size()) +
                                    " rows with candidate '" + a + "' unused");
          }
        }
      }
      continue;
    }
    const std::string& attribute = tree.node(node.children[0]).label.attribute();
    if (std::find(path.begin(), path.end(), attribute) != path.end()) {
      return Describe(id, "attribute '" + attribute + "' repeats on a path");
    }
    // Mark the parent's rows, then each child's: a child row must be a
    // parent row not claimed by an earlier sibling.
    const uint32_t parent_mark = next_stamp++;
    for (const size_t t : node.tuples) stamp[t] = parent_mark;
    const uint32_t taken = next_stamp++;
    size_t covered = 0;
    for (const NodeId child : node.children) {
      const CategoryNode& c = tree.node(child);
      if (c.parent != id) return Describe(child, "wrong parent link");
      if (c.label.attribute() != attribute) {
        return Describe(child, "siblings use different attributes");
      }
      for (const size_t t : c.tuples) {
        if (t >= n) return Describe(child, "tuple index out of range");
        if (stamp[t] == taken) return Describe(child, "siblings overlap");
        if (stamp[t] != parent_mark) {
          return Describe(child, "row outside its parent");
        }
        stamp[t] = taken;
        ++covered;
      }
      std::vector<std::string> child_path = path;
      child_path.push_back(attribute);
      stack.push_back({child, std::move(child_path)});
    }
    if (covered != node.tuples.size()) {
      const auto col = result.schema().ColumnIndex(attribute);
      if (!col.ok()) return Describe(id, "unknown subcategorizing attribute");
      for (const size_t t : node.tuples) {
        if (stamp[t] == parent_mark &&
            !ReadCell(result, t, col.value()).is_null) {
          return Describe(id, "children leave out non-NULL row " +
                                  std::to_string(t));
        }
      }
    }
  }
  if (visited != tree.num_nodes()) return "tree has unreachable nodes";
  return "";
}

std::string CheckAnswer(const OracleTable& table, const QuerySpec& spec,
                        const CachedCategorization& answer,
                        size_t max_leaf_rows,
                        const std::vector<std::string>& candidates) {
  const autocat::Table& result = answer.result();
  const QuerySpec snapped = Snapped(spec);
  const size_t expected = CountMatching(table, snapped);
  if (result.num_rows() != expected) {
    return "result has " + std::to_string(result.num_rows()) +
           " rows, the snapped predicate matches " + std::to_string(expected);
  }
  // Result columns by oracle column.
  std::vector<size_t> col_of(std::size(kColumns));
  for (size_t c = 0; c < std::size(kColumns); ++c) {
    const auto idx = result.schema().ColumnIndex(kColumns[c].name);
    if (!idx.ok()) return std::string("result lacks column ") + kColumns[c].name;
    col_of[c] = idx.value();
  }
  // Every result row satisfies the snapped predicate.
  std::vector<uint64_t> result_prints;
  result_prints.reserve(result.num_rows());
  for (size_t r = 0; r < result.num_rows(); ++r) {
    uint64_t h = kFnvBasis;
    std::vector<Cell> cells(std::size(kColumns));
    for (size_t c = 0; c < std::size(kColumns); ++c) {
      cells[c] = ReadCell(result, r, col_of[c]);
      if (cells[c].is_null) return "result row has a NULL cell";
      h = cells[c].is_string ? HashString(h, cells[c].s)
                             : HashDouble(h, cells[c].d);
    }
    for (const Condition& cond : snapped.conditions) {
      const int col = table.ColumnOf(cond.attribute);
      if (col < 0) return "query names unknown attribute " + cond.attribute;
      const Cell& cell = cells[col];
      bool ok;
      if (cond.is_set) {
        ok = cell.is_string && std::binary_search(cond.strings.begin(),
                                                  cond.strings.end(), cell.s);
      } else {
        Resolved range;
        range.lo = cond.lo;
        range.hi = cond.hi;
        range.lo_inclusive = cond.lo_inclusive;
        range.hi_inclusive = cond.hi_inclusive;
        ok = !cell.is_string && InRange(cell.d, range);
      }
      if (!ok) {
        return "result row " + std::to_string(r) + " fails condition on " +
               cond.attribute;
      }
    }
    result_prints.push_back(h);
  }
  // Every base row of the unsnapped predicate is present.
  std::vector<uint64_t> wanted;
  for (const uint32_t row : MatchingRows(table, spec)) {
    wanted.push_back(table.RowFingerprint(row));
  }
  std::sort(result_prints.begin(), result_prints.end());
  std::sort(wanted.begin(), wanted.end());
  if (!std::includes(result_prints.begin(), result_prints.end(),
                     wanted.begin(), wanted.end())) {
    return "a base row matching the unsnapped predicate is missing";
  }
  if (&answer.tree().result() != &answer.result()) {
    return "tree does not describe the returned result";
  }
  return CheckTree(answer.tree(), max_leaf_rows, candidates);
}

uint64_t AnswerFingerprint(const CachedCategorization& answer) {
  const autocat::Table& result = answer.result();
  uint64_t h = kFnvBasis;
  for (size_t r = 0; r < result.num_rows(); ++r) {
    for (size_t c = 0; c < result.num_columns(); ++c) {
      h = HashCell(h, result.CellValue(r, c));
    }
  }
  const CategoryTree& tree = answer.tree();
  for (NodeId id = 0; id < static_cast<NodeId>(tree.num_nodes()); ++id) {
    const CategoryNode& node = tree.node(id);
    h = Fnv(h, &node.parent, sizeof(node.parent));
    h = HashString(h, node.label.attribute());
    h = HashDouble(h, node.label.lo());
    h = HashDouble(h, node.label.hi());
    for (const Value& v : node.label.values()) h = HashCell(h, v);
    for (const size_t t : node.tuples) h = Fnv(h, &t, sizeof(t));
  }
  return h;
}

// ---------------------------------------------------------------------------
// Self-test

int OracleSelfTest() {
  using autocat::ColumnDef;
  using autocat::ColumnKind;
  using autocat::Schema;
  using autocat::Table;
  using autocat::ValueType;
  std::vector<ColumnDef> defs;
  for (const OracleColumn& c : kColumns) {
    defs.emplace_back(c.name,
                      c.is_string ? ValueType::kString : ValueType::kInt64,
                      c.is_string ? ColumnKind::kCategorical
                                  : ColumnKind::kNumeric);
  }
  const Schema schema = Schema::Create(defs).value();
  OracleTable oracle;
  std::vector<autocat::Row> rows;
  const char* const kNbs[] = {"A", "B", "C"};
  for (int i = 0; i < 60; ++i) {
    autocat::Row row = {Value(std::string(kNbs[i % 3])),
                        Value(std::string("City")),
                        Value(std::string("WA")),
                        Value(std::string("98000")),
                        Value(int64_t{100000 + 5000 * (i % 12)}),
                        Value(int64_t{1 + i % 4}),
                        Value(int64_t{1 + i % 2}),
                        Value(int64_t{1950 + i}),
                        Value(std::string(i % 5 == 0 ? "Condo" : "House")),
                        Value(int64_t{1000 + 10 * i})};
    oracle.Append(row);
    rows.push_back(std::move(row));
  }
  oracle.Finish();
  const QuerySpec spec =
      ParseSpec("SELECT * FROM ListProperty WHERE neighborhood IN ('A', 'B') "
                "AND price BETWEEN 101000 AND 139000")
          .value();
  const std::vector<uint32_t> match = MatchingRows(oracle, Snapped(spec));
  const auto build = [&](const std::vector<uint32_t>& ids,
                         bool corrupt_tree) {
    std::vector<autocat::Row> picked;
    for (const uint32_t id : ids) picked.push_back(rows[id]);
    Table t = Table::FromValidatedRows(schema, std::move(picked));
    return CachedCategorization::Build(
               std::move(t),
               [&](const Table& owned) -> autocat::Result<CategoryTree> {
                 CategoryTree tree(&owned);
                 std::vector<size_t> a, b;
                 for (size_t r = 0; r < owned.num_rows(); ++r) {
                   (owned.CellValue(r, 0).string_value() == "A" ? a : b)
                       .push_back(r);
                 }
                 if (corrupt_tree && !b.empty()) a.push_back(b.front());
                 tree.AddChild(tree.root(),
                               CategoryLabel::Categorical(
                                   "neighborhood", {Value(std::string("A"))}),
                               a);
                 tree.AddChild(tree.root(),
                               CategoryLabel::Categorical(
                                   "neighborhood", {Value(std::string("B"))}),
                               b);
                 tree.AppendLevelAttribute("neighborhood");
                 return tree;
               })
        .value();
  };
  const std::vector<std::string> candidates = {"neighborhood"};
  int failures = 0;
  const auto expect = [&](bool pass, const std::string& what,
                          const std::string& verdict) {
    if ((verdict.empty()) != pass) {
      std::fprintf(stderr, "oracle self-test: %s: %s\n", what.c_str(),
                   verdict.empty() ? "accepted" : verdict.c_str());
      ++failures;
    }
  };
  expect(true, "correct answer",
         CheckAnswer(oracle, spec, *build(match, false), 1000, candidates));
  std::vector<uint32_t> dropped = match;
  dropped.pop_back();
  expect(false, "result missing a row",
         CheckAnswer(oracle, spec, *build(dropped, false), 1000, candidates));
  std::vector<uint32_t> extra = match;
  for (uint32_t r = 0; r < rows.size(); ++r) {
    if (!std::binary_search(match.begin(), match.end(), r)) {
      extra.back() = r;  // same size, one wrong row
      break;
    }
  }
  expect(false, "result with a wrong row",
         CheckAnswer(oracle, spec, *build(extra, false), 1000, candidates));
  expect(false, "tree with overlapping siblings",
         CheckAnswer(oracle, spec, *build(match, true), 1000, candidates));
  expect(false, "oversized leaf with a candidate left",
         CheckAnswer(oracle, spec, *build(match, false), 2,
                     {"neighborhood", "price"}));
  if (failures == 0) {
    std::fprintf(stderr, "oracle self-test: 5 of 5 verdicts as expected\n");
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace perfbench
