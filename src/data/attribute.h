#ifndef FAIRRANK_DATA_ATTRIBUTE_H_
#define FAIRRANK_DATA_ATTRIBUTE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace fairrank {

/// Physical/logical type of an attribute.
enum class AttributeKind {
  /// Finite set of named categories (e.g. Gender = {Male, Female}).
  kCategorical,
  /// Integer range [min, max], bucketized into equal-width groups for
  /// partitioning (e.g. Year of Birth = [1950, 2009] with 5 buckets).
  kInteger,
  /// Real range [min, max], bucketized into equal-width groups for
  /// partitioning (observed attributes are typically real-valued scores).
  kReal,
};

/// Role of an attribute in the fairness problem (Definition 1 of the paper):
/// protected attributes A define the partitioning space; observed attributes
/// B feed the scoring function.
enum class AttributeRole {
  kProtected,
  kObserved,
  kOther,
};

const char* AttributeKindToString(AttributeKind kind);
const char* AttributeRoleToString(AttributeRole role);

/// Declarative description of one attribute: its name, kind, role, and —
/// crucially for the partition search — how raw values map onto a small set
/// of *groups* (category index or numeric bucket).
///
/// The paper's simulation caps every attribute at <= 5 distinct values; we
/// realize that by bucketizing numeric attributes at schema level. The number
/// of groups of an attribute is the branching factor a split on it produces.
class AttributeSpec {
 public:
  /// Builds a categorical attribute. `categories` must be non-empty and
  /// free of duplicates (checked lazily by Validate()).
  static AttributeSpec Categorical(std::string name, AttributeRole role,
                                   std::vector<std::string> categories);

  /// Builds an integer-range attribute bucketized into `num_buckets`
  /// equal-width groups over [min, max].
  static AttributeSpec Integer(std::string name, AttributeRole role,
                               int64_t min, int64_t max, int num_buckets);

  /// Builds a real-range attribute bucketized into `num_buckets`
  /// equal-width groups over [min, max].
  static AttributeSpec Real(std::string name, AttributeRole role, double min,
                            double max, int num_buckets);

  const std::string& name() const { return name_; }
  AttributeKind kind() const { return kind_; }
  AttributeRole role() const { return role_; }
  bool is_protected() const { return role_ == AttributeRole::kProtected; }
  bool is_observed() const { return role_ == AttributeRole::kObserved; }

  /// Categorical only: the category labels, in code order.
  const std::vector<std::string>& categories() const { return categories_; }

  /// Numeric only: inclusive range bounds.
  double min() const { return min_; }
  double max() const { return max_; }

  /// Number of partition groups a split on this attribute produces.
  int num_groups() const;

  /// Checks internal consistency (non-empty name, valid range, unique
  /// categories, positive bucket count).
  Status Validate() const;

  /// Categorical only: code of a category label, or NotFound. Allocates
  /// nothing on success, so the CSV reader resolves labels straight from its
  /// read buffer.
  StatusOr<int> CodeOf(std::string_view category) const;

  /// Maps a raw value to its group index in [0, num_groups()).
  /// For categorical attributes the value is the category code.
  /// Values outside the declared range are clamped to the edge buckets.
  int GroupIndexOfInt(int64_t value) const;
  int GroupIndexOfReal(double value) const;

  /// Human-readable label of a group: the category name, or the bucket
  /// interval like "[1950,1962)".
  std::string GroupLabel(int group_index) const;

 private:
  AttributeSpec() = default;

  std::string name_;
  AttributeKind kind_ = AttributeKind::kCategorical;
  AttributeRole role_ = AttributeRole::kOther;
  std::vector<std::string> categories_;
  double min_ = 0.0;
  double max_ = 0.0;
  int num_buckets_ = 1;
};

}  // namespace fairrank

#endif  // FAIRRANK_DATA_ATTRIBUTE_H_
