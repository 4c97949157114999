#ifndef AUTOCAT_CORE_RANKING_H_
#define AUTOCAT_CORE_RANKING_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "core/category.h"
#include "storage/table.h"
#include "workload/counts.h"

namespace autocat {

/// Workload-driven tuple ranking — the complementary technique the paper
/// pairs with categorization ("categorization and ranking present two
/// complementary techniques to manage information overload", Section 1).
///
/// A tuple's score is the sum, over the given attributes, of the fraction
/// of attribute-constraining workload queries whose condition admits the
/// tuple's value: popular neighborhoods, mainstream price points, and
/// common bedroom counts float to the top. Within a leaf category this
/// puts the tuples most users want first, directly shrinking frac(C) in
/// the ONE scenario (Equation 2).

/// Scores one tuple of `table` over `attributes` (lowercase names are not
/// required; unknown attributes are an error). Cells are read with
/// `Table::CellValue`, so row- and column-backed tables both work.
Result<double> TupleScore(const Table& table, size_t row,
                          const std::vector<std::string>& attributes,
                          const WorkloadStats& stats);

/// Returns `tuples` reordered by descending score (stable for ties, so
/// input order is the tiebreak).
Result<std::vector<size_t>> RankTuples(
    const Table& table, const std::vector<size_t>& tuples,
    const std::vector<std::string>& attributes, const WorkloadStats& stats);

/// Reorders tset(C) of every node of `tree` by descending tuple score
/// over `attributes` (empty = the tree's level attributes, i.e. exactly
/// the attributes the workload showed interest in). The tree structure is
/// untouched; only within-category presentation order changes.
Status ApplyLeafRanking(CategoryTree& tree,
                        const std::vector<std::string>& attributes,
                        const WorkloadStats& stats);

}  // namespace autocat

#endif  // AUTOCAT_CORE_RANKING_H_
