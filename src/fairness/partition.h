#ifndef FAIRRANK_FAIRNESS_PARTITION_H_
#define FAIRRANK_FAIRNESS_PARTITION_H_

#include <string>
#include <vector>

#include "data/schema.h"

namespace fairrank {

/// One step on the path from the root of a partitioning tree to a
/// partition: "protected attribute `attr_index` took group `group_index`".
struct SplitStep {
  size_t attr_index;
  int group_index;

  bool operator==(const SplitStep& other) const {
    return attr_index == other.attr_index && group_index == other.group_index;
  }
};

/// A set of workers (row indices into a shared Table) plus the split path
/// that produced it. Partitions never copy rows.
///
/// Tree-produced partitions have a single `path`. Partitions built by
/// *merging* tree cells (the agglomerative algorithm) carry the paths of
/// every merged cell in `merged_paths` and leave `path` empty; their label
/// joins the cell labels with " | ".
struct Partition {
  std::vector<size_t> rows;
  std::vector<SplitStep> path;
  std::vector<std::vector<SplitStep>> merged_paths;

  size_t size() const { return rows.size(); }
  bool is_merged() const { return !merged_paths.empty(); }
};

/// A full disjoint partitioning P = {p1, ..., pk} of the table rows
/// (Definition 1): partitions are pairwise disjoint and their union covers
/// every row. Invariants are enforced by construction in the splitter and
/// checked by ValidatePartitioning in tests.
using Partitioning = std::vector<Partition>;

/// The root partition containing all `num_rows` rows, with an empty path.
Partition MakeRootPartition(size_t num_rows);

/// Human-readable label of a partition's path, e.g.
/// "Gender=Male & Language=English"; "<all>" for the root.
std::string PartitionLabel(const Schema& schema, const Partition& partition);

/// Distinct attribute names appearing on any partition's path, in schema
/// order. This is the set of attributes the partitioning used.
std::vector<std::string> AttributesUsed(const Schema& schema,
                                        const Partitioning& partitioning);

/// Checks the Definition 1 constraints: every row index in [0, num_rows)
/// appears in exactly one partition and no partition is empty.
bool IsValidPartitioning(const Partitioning& partitioning, size_t num_rows);

}  // namespace fairrank

#endif  // FAIRRANK_FAIRNESS_PARTITION_H_
