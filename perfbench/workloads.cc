// The three workloads (README.md, "Workloads"): their fixed parameters and
// the request streams generated from the workload seed.

#include <algorithm>
#include <cmath>
#include <map>
#include <random>
#include <set>
#include <tuple>

#include "bench.h"
#include "simgen/geo.h"
#include "workloadgen/session.h"

namespace perfbench {

using autocat::Result;
using autocat::Status;

namespace {

uint64_t Mix(uint64_t seed, uint64_t stream) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// Cold-strata: result-size strata as fractions of the table, and how many
// queries of each one round (200 requests) holds. Counts fall as results
// grow so a run of `--seconds 10` times enough requests for a p99 with ten
// samples above it, and they put each reported percentile inside one
// stratum rather than on the seam between two: the median in the 0.3%
// stratum (36%..72% of requests), p99 in the middle of the 30% stratum
// (the top 0.5%..1.5%). The strata of 10% and up use one query shape
// each, so a stratum's latencies form one population.
constexpr double kStrata[] = {0.001, 0.003, 0.01, 0.03, 0.1, 0.3, 1.0};
constexpr size_t kStrataPerRound[] = {72, 72, 30, 14, 9, 2, 1};
constexpr size_t kColdRounds = 24;

// Store-selective: result rows per query, queries per round, and how many
// of them constrain the sort attribute. Not half: with two equal
// populations (pruned scans and full scans) the median would sit on the
// seam between them and jump from one to the other between runs.
constexpr size_t kSelectiveMinRows = 100;
constexpr size_t kSelectiveMaxRows = 1000;
constexpr size_t kSelectiveRound = 8;
constexpr size_t kSelectiveOnSort = 3;
constexpr size_t kSelectiveRounds = 3000;

// Sessions: sessions per phase and their length, drawn from a pool
// `kSessionOversample` times larger at evenly spaced ranks of mean result
// size (below the largest eighth), so every seed gets the same spread of
// small and large explorations; then the requests of each phase, its drift position and
// the Zipf exponent of session popularity. Many short sessions rather than
// few long ones: the distinct results must fit the 64 MiB cache, and more
// sessions make the per-seed mix of result sizes steadier.
constexpr size_t kSessions = 72;
constexpr size_t kSessionMinSteps = 3;
constexpr size_t kSessionMaxSteps = 3;
constexpr size_t kSessionOversample = 24;
constexpr size_t kPhaseRequests[] = {6000, 2000};
constexpr double kPhaseDrift[] = {0.0, 0.5};
constexpr double kSessionZipf = 1.0;

Condition Range(const std::string& attribute, double lo, double hi) {
  Condition c;
  c.attribute = attribute;
  c.lo = lo;
  c.hi = hi;
  return c;
}

Condition Set(const std::string& attribute, std::vector<std::string> values) {
  Condition c;
  c.attribute = attribute;
  c.is_set = true;
  std::sort(values.begin(), values.end());
  c.strings = std::move(values);
  return c;
}

double RoundDown(double v, double grid) { return std::floor(v / grid) * grid; }
double RoundUp(double v, double grid) { return std::ceil(v / grid) * grid; }

// Generator state shared by the stratified query builders.
class QueryBuilder {
 public:
  QueryBuilder(const OracleTable& table, const autocat::Geography& geo,
               uint64_t seed)
      : table_(table), rng_(seed) {
    nb_col_ = table.ColumnOf("neighborhood");
    price_col_ = table.ColumnOf("price");
    bed_col_ = table.ColumnOf("bedroomcount");
    sqft_col_ = table.ColumnOf("squarefootage");
    for (const autocat::Region& region : geo.regions()) {
      std::vector<std::string> present;
      size_t rows = 0;
      for (const std::string& nb : region.neighborhoods) {
        const int64_t code = table.Lookup(nb_col_, nb);
        if (code >= 0 &&
            !table.RowsOfNeighborhood(static_cast<uint32_t>(code)).empty()) {
          present.push_back(nb);
          rows += table.RowsOfNeighborhood(static_cast<uint32_t>(code)).size();
        }
      }
      if (!present.empty()) {
        regions_.push_back(std::move(present));
        region_rows_.push_back(static_cast<double>(rows));
      }
    }
  }

  // Accepts `spec` when its snapped signature is new and its snapped row
  // count lies in [lo, hi]. `sorted`, when given, holds the values of the
  // last condition's attribute over exactly the rows the other conditions
  // admit, so the count is two binary searches.
  bool Accept(const QuerySpec& spec, double lo, double hi,
              std::vector<std::string>* out,
              const std::vector<double>* sorted = nullptr) {
    const QuerySpec snapped = Snapped(spec);
    const std::string key = SpecKey(snapped);
    if (keys_.count(key) > 0) {
      return false;
    }
    double n = 0;
    if (sorted != nullptr) {
      const Condition& c = snapped.conditions.back();
      n = static_cast<double>(
          std::upper_bound(sorted->begin(), sorted->end(), c.hi) -
          std::lower_bound(sorted->begin(), sorted->end(), c.lo));
    } else {
      n = static_cast<double>(CountMatching(table_, snapped));
    }
    if (n < lo || n > hi) {
      return false;
    }
    keys_.insert(key);
    out->push_back(RenderSql(spec));
    return true;
  }

  // A whole-table query: a price range below the minimum and above the
  // maximum, at a fresh pair of endpoints.
  QuerySpec WholeTable() {
    const std::vector<double>& prices = table_.SortedPrices();
    const double lo =
        RoundDown(prices.front(), 5000) - 5000.0 * Uniform(0, 20);
    const double hi = RoundUp(prices.back(), 5000) + 5000.0 * Uniform(0, 1e6);
    QuerySpec spec;
    spec.conditions.push_back(Range("price", std::max(0.0, lo), hi));
    return spec;
  }

  // A price window holding about `target` rows of the whole table.
  QuerySpec PriceWindow(double target) {
    const std::vector<double>& prices = table_.SortedPrices();
    const size_t n = prices.size();
    const size_t width = std::min(n - 1, static_cast<size_t>(target));
    const size_t start = static_cast<size_t>(Uniform(0, double(n - width)));
    QuerySpec spec;
    spec.conditions.push_back(
        Range("price", RoundDown(prices[start], 1000),
              RoundUp(prices[std::min(n - 1, start + width)], 1000)));
    return spec;
  }

  // Neighborhoods drawn across regions until they hold about `target`
  // rows.
  QuerySpec NeighborhoodSpread(double target) {
    std::vector<std::string> chosen;
    double rows = 0;
    std::vector<size_t> order(regions_.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::shuffle(order.begin(), order.end(), rng_);
    for (const size_t r : order) {
      std::vector<std::string> nbs = regions_[r];
      std::shuffle(nbs.begin(), nbs.end(), rng_);
      for (const std::string& nb : nbs) {
        if (rows >= target) break;
        chosen.push_back(nb);
        rows += static_cast<double>(RowsOf(nb).size());
      }
    }
    QuerySpec spec;
    spec.conditions.push_back(Set("neighborhood", chosen));
    return spec;
  }

  // A buyer's query as in the generated log: a few neighborhoods of one
  // region, then a price window (and sometimes a bedroom range) cut to
  // about `target` rows.
  QuerySpec BuyerQuery(double target) {
    const size_t r = Weighted(region_rows_);
    std::vector<std::string> nbs = regions_[r];
    std::shuffle(nbs.begin(), nbs.end(), rng_);
    const size_t want = 1 + static_cast<size_t>(Uniform(0, 3));
    std::vector<std::string> chosen;
    std::vector<uint32_t> rows;
    for (const std::string& nb : nbs) {
      if (chosen.size() >= want && static_cast<double>(rows.size()) >= target) {
        break;
      }
      chosen.push_back(nb);
      const auto& more = RowsOf(nb);
      rows.insert(rows.end(), more.begin(), more.end());
    }
    QuerySpec spec;
    spec.conditions.push_back(Set("neighborhood", chosen));
    if (Uniform(0, 1) < 0.4) {
      const double lo = 1 + std::floor(Uniform(0, 3));
      spec.conditions.push_back(Range("bedroomcount", lo, lo + 2));
      std::vector<uint32_t> kept;
      for (const uint32_t row : rows) {
        const double v = table_.Num(bed_col_, row);
        if (v >= lo && v <= lo + 2) kept.push_back(row);
      }
      rows = std::move(kept);
    }
    if (static_cast<double>(rows.size()) > target * 1.2) {
      spec.conditions.push_back(WindowOver(rows, price_col_, "price", target,
                                           1000));
    }
    return spec;
  }

  // Store-selective, on the sort attribute: one neighborhood and a price
  // window of about `target` of its rows.
  QuerySpec OnSortAttribute(double target,
                            const std::vector<double>** sorted) {
    const std::string nb = RandomNeighborhood();
    *sorted = &SortedValues(nb, price_col_, -1);
    QuerySpec spec;
    spec.conditions.push_back(Set("neighborhood", {nb}));
    spec.conditions.push_back(WindowOf(**sorted, "price", target, 1000));
    return spec;
  }

  // Store-selective, off the sort attribute: a neighborhood, a bedroom
  // count and a square-footage window, with no price condition.
  QuerySpec OffSortAttribute(double target,
                             const std::vector<double>** sorted) {
    const std::string nb = RandomNeighborhood();
    const double beds = 1 + std::floor(Uniform(0, 4));
    *sorted = &SortedValues(nb, sqft_col_, static_cast<int>(beds));
    QuerySpec spec;
    spec.conditions.push_back(Set("neighborhood", {nb}));
    spec.conditions.push_back(Range("bedroomcount", beds, beds));
    spec.conditions.push_back(
        WindowOf(**sorted, "squarefootage", target, 10));
    return spec;
  }

  double Uniform(double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(rng_);
  }
  std::mt19937_64& rng() { return rng_; }

 private:
  const std::vector<uint32_t>& RowsOf(const std::string& nb) const {
    return table_.RowsOfNeighborhood(
        static_cast<uint32_t>(table_.Lookup(nb_col_, nb)));
  }

  std::string RandomNeighborhood() {
    const std::vector<std::string>& nbs = regions_[Weighted(region_rows_)];
    return nbs[static_cast<size_t>(Uniform(0, double(nbs.size())))];
  }

  size_t Weighted(const std::vector<double>& weights) {
    std::discrete_distribution<size_t> pick(weights.begin(), weights.end());
    return pick(rng_);
  }

  // A range on `attribute` covering about `target` of `rows`, endpoints
  // rounded to `grid`.
  Condition WindowOver(const std::vector<uint32_t>& rows, int col,
                       const std::string& attribute, double target,
                       double grid) {
    std::vector<double> values;
    values.reserve(rows.size());
    for (const uint32_t row : rows) values.push_back(table_.Num(col, row));
    std::sort(values.begin(), values.end());
    return WindowOf(values, attribute, target, grid);
  }

  Condition WindowOf(const std::vector<double>& sorted,
                     const std::string& attribute, double target,
                     double grid) {
    if (sorted.empty()) return Range(attribute, 0, 0);
    const size_t n = sorted.size();
    const size_t width =
        std::min(n - 1, static_cast<size_t>(std::max(1.0, target)));
    const size_t start = static_cast<size_t>(Uniform(0, double(n - width)));
    return Range(attribute, RoundDown(sorted[start], grid),
                 RoundUp(sorted[std::min(n - 1, start + width)], grid));
  }

  // Sorted values of column `col` over the rows of neighborhood `nb`
  // (with `beds` bedrooms when not -1), computed once.
  const std::vector<double>& SortedValues(const std::string& nb, int col,
                                          int beds) {
    std::vector<double>& values = sorted_values_[{nb, col, beds}];
    if (values.empty()) {
      for (const uint32_t row : RowsOf(nb)) {
        if (beds < 0 || table_.Num(bed_col_, row) == beds) {
          values.push_back(table_.Num(col, row));
        }
      }
      std::sort(values.begin(), values.end());
    }
    return values;
  }

  const OracleTable& table_;
  std::mt19937_64 rng_;
  int nb_col_ = -1;
  int price_col_ = -1;
  int bed_col_ = -1;
  int sqft_col_ = -1;
  std::vector<std::vector<std::string>> regions_;
  std::vector<double> region_rows_;
  std::set<std::string> keys_;
  std::map<std::tuple<std::string, int, int>, std::vector<double>>
      sorted_values_;
};

Status ColdStrata(Inputs* in, const OracleTable& table,
                  const autocat::Geography& geo) {
  QueryBuilder builder(table, geo, Mix(in->seed, 3));
  const double n = static_cast<double>(table.num_rows());
  std::vector<std::vector<std::string>> per_stratum(std::size(kStrata));
  for (size_t s = 0; s < std::size(kStrata); ++s) {
    const double target = kStrata[s] * n;
    // Bands between neighbouring strata: a factor of sqrt(10/3) each way.
    const double lo = s == std::size(kStrata) - 1 ? n : target / 1.8;
    const double hi = target * 1.8;
    const size_t need = kStrataPerRound[s] * kColdRounds;
    size_t attempts = 0;
    while (per_stratum[s].size() < need) {
      if (++attempts > need * 200) {
        return Status::Internal("cold-strata: stratum " +
                                std::to_string(kStrata[s]) +
                                " could not be filled");
      }
      QuerySpec spec;
      if (kStrata[s] >= 1.0) {
        spec = builder.WholeTable();
      } else if (kStrata[s] >= 0.3) {
        spec = builder.PriceWindow(target);
      } else if (kStrata[s] >= 0.1) {
        spec = builder.NeighborhoodSpread(target);
      } else {
        spec = builder.BuyerQuery(target);
      }
      builder.Accept(spec, lo, hi, &per_stratum[s]);
    }
  }
  in->round = 0;
  for (const size_t k : kStrataPerRound) in->round += k;
  for (size_t r = 0; r < kColdRounds; ++r) {
    std::vector<std::string> round;
    for (size_t s = 0; s < std::size(kStrata); ++s) {
      for (size_t k = 0; k < kStrataPerRound[s]; ++k) {
        round.push_back(per_stratum[s][r * kStrataPerRound[s] + k]);
      }
    }
    std::shuffle(round.begin(), round.end(), builder.rng());
    in->stream.insert(in->stream.end(), round.begin(), round.end());
  }
  return Status::OK();
}

Status StoreSelective(Inputs* in, const OracleTable& table,
                      const autocat::Geography& geo) {
  QueryBuilder builder(table, geo, Mix(in->seed, 3));
  in->round = kSelectiveRound;
  size_t attempts = 0;
  for (size_t r = 0; r < kSelectiveRounds; ++r) {
    std::vector<std::string> round;
    for (size_t k = 0; k < kSelectiveRound; ++k) {
      const bool on_sort = k < kSelectiveOnSort;
      for (;;) {
        if (++attempts > kSelectiveRounds * kSelectiveRound * 50) {
          return Status::Internal("store-selective: too many rejections");
        }
        const double target =
            std::exp(builder.Uniform(std::log(150.0), std::log(700.0)));
        const std::vector<double>* sorted = nullptr;
        const QuerySpec spec = on_sort
                                   ? builder.OnSortAttribute(target, &sorted)
                                   : builder.OffSortAttribute(target, &sorted);
        if (builder.Accept(spec, kSelectiveMinRows, kSelectiveMaxRows,
                           &round, sorted)) {
          break;
        }
      }
    }
    std::shuffle(round.begin(), round.end(), builder.rng());
    in->stream.insert(in->stream.end(), round.begin(), round.end());
  }
  return Status::OK();
}

Status Sessions(Inputs* in, const OracleTable& table,
                const autocat::Geography& geo) {
  autocat::SessionConfig config;
  config.num_sessions = kSessions * kSessionOversample;
  config.min_steps = kSessionMinSteps;
  config.max_steps = kSessionMaxSteps;
  config.seed = Mix(in->seed, 4);
  const autocat::SessionGenerator generator(&geo, config);
  std::mt19937_64 rng(Mix(in->seed, 5));
  std::vector<double> zipf;
  for (size_t k = 1; k <= kSessions; ++k) {
    zipf.push_back(std::pow(static_cast<double>(k), -kSessionZipf));
  }
  std::discrete_distribution<size_t> pick(zipf.begin(), zipf.end());
  for (size_t phase = 0; phase < std::size(kPhaseRequests); ++phase) {
    autocat::DriftSpec drift;
    drift.position = kPhaseDrift[phase];
    const std::vector<autocat::UserSession> pool = generator.Generate(drift);
    std::vector<std::pair<double, size_t>> by_size;
    for (size_t i = 0; i < pool.size(); ++i) {
      double rows = 0;
      for (const autocat::SessionQuery& q : pool[i].queries) {
        AUTOCAT_ASSIGN_OR_RETURN(const QuerySpec spec, ParseSpec(q.sql));
        rows += static_cast<double>(CountMatching(table, Snapped(spec)));
      }
      by_size.push_back({rows / double(pool[i].queries.size()), i});
    }
    std::sort(by_size.begin(), by_size.end());
    // The largest eighth is left out: its results alone would overflow
    // the cache, and its heavy tail would make the mix differ by seed.
    by_size.resize(by_size.size() * 7 / 8);
    std::vector<const autocat::UserSession*> chosen;
    for (size_t k = 0; k < kSessions; ++k) {
      const size_t rank = (2 * k + 1) * by_size.size() / (2 * kSessions);
      chosen.push_back(&pool[by_size[rank].second]);
    }
    // Popularity rank is independent of size.
    std::shuffle(chosen.begin(), chosen.end(), rng);
    std::vector<size_t> cursor(kSessions, 0);
    for (size_t r = 0; r < kPhaseRequests[phase]; ++r) {
      const size_t k = pick(rng);
      const auto& queries = chosen[k]->queries;
      in->stream.push_back(queries[cursor[k]++ % queries.size()].sql);
    }
  }
  in->round = in->stream.size();
  return Status::OK();
}

}  // namespace

Result<Inputs> DefineWorkload(const std::string& name, uint64_t seed) {
  Inputs in;
  in.workload = name;
  in.seed = seed;
  in.table_seed = Mix(seed, 1);
  in.log_seed = Mix(seed, 2);
  in.log_queries = 20000;
  in.table_rows = 120000;
  if (name == "sessions") {
    in.clients = 4;
    in.refresh_every = 5000;
  } else if (name == "cold-strata") {
    in.clients = 1;
    in.distinct = true;
  } else if (name == "store-selective") {
    in.clients = 4;
    in.distinct = true;
    in.table_rows = 1000000;
    in.store = true;
    in.sort_by = "price";
  } else {
    return Status::InvalidArgument("unknown workload '" + name + "'");
  }
  return in;
}

Status GenerateStream(Inputs* in, const OracleTable& table,
                      const autocat::Geography& geo) {
  in->stream.clear();
  if (in->workload == "sessions") return Sessions(in, table, geo);
  if (in->workload == "cold-strata") return ColdStrata(in, table, geo);
  if (in->workload == "store-selective") {
    return StoreSelective(in, table, geo);
  }
  return Status::InvalidArgument("unknown workload '" + in->workload + "'");
}

}  // namespace perfbench
