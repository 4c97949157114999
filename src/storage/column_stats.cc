#include "storage/column_stats.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <vector>

namespace autocat {

Result<ColumnStats> ColumnStats::Compute(const Table& table, size_t col) {
  if (col >= table.num_columns()) {
    return Status::OutOfRange("column index out of range");
  }
  ColumnStats stats;
  stats.column_name = table.schema().column(col).name;
  stats.row_count = table.num_rows();
  bool seen = false;
  for (size_t r = 0; r < table.num_rows(); ++r) {
    const Value& v = table.ValueAt(r, col);
    if (v.is_null()) {
      ++stats.null_count;
      continue;
    }
    ++stats.value_counts[v];
    if (!seen) {
      stats.min = v;
      stats.max = v;
      seen = true;
    } else {
      if (v < stats.min) stats.min = v;
      if (v > stats.max) stats.max = v;
    }
  }
  return stats;
}

Result<std::vector<HistogramBucket>> EquiWidthHistogram(const Table& table,
                                                        size_t col,
                                                        size_t num_buckets) {
  if (num_buckets == 0) {
    return Status::InvalidArgument("histogram needs at least one bucket");
  }
  if (col >= table.num_columns()) {
    return Status::OutOfRange("column index out of range");
  }
  if (table.schema().column(col).kind != ColumnKind::kNumeric) {
    return Status::InvalidArgument("histogram requires a numeric column");
  }
  AUTOCAT_ASSIGN_OR_RETURN(const auto min_max, table.MinMax(col));
  const double lo = min_max.first.AsDouble();
  const double hi = min_max.second.AsDouble();
  const double width =
      (hi > lo) ? (hi - lo) / static_cast<double>(num_buckets) : 1.0;

  std::vector<HistogramBucket> buckets(num_buckets);
  for (size_t b = 0; b < num_buckets; ++b) {
    buckets[b].lo = lo + width * static_cast<double>(b);
    buckets[b].hi = lo + width * static_cast<double>(b + 1);
  }
  buckets.back().hi = std::max(buckets.back().hi, hi);

  for (size_t r = 0; r < table.num_rows(); ++r) {
    const Value& v = table.ValueAt(r, col);
    if (v.is_null()) {
      continue;
    }
    const double x = v.AsDouble();
    size_t b = (width > 0)
                   ? static_cast<size_t>(std::floor((x - lo) / width))
                   : 0;
    b = std::min(b, num_buckets - 1);
    ++buckets[b].count;
  }
  return buckets;
}

}  // namespace autocat
