#include "data/attribute.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "common/str_util.h"

namespace fairrank {

const char* AttributeKindToString(AttributeKind kind) {
  switch (kind) {
    case AttributeKind::kCategorical:
      return "categorical";
    case AttributeKind::kInteger:
      return "integer";
    case AttributeKind::kReal:
      return "real";
  }
  return "unknown";
}

const char* AttributeRoleToString(AttributeRole role) {
  switch (role) {
    case AttributeRole::kProtected:
      return "protected";
    case AttributeRole::kObserved:
      return "observed";
    case AttributeRole::kOther:
      return "other";
  }
  return "unknown";
}

AttributeSpec AttributeSpec::Categorical(std::string name, AttributeRole role,
                                         std::vector<std::string> categories) {
  AttributeSpec spec;
  spec.name_ = std::move(name);
  spec.kind_ = AttributeKind::kCategorical;
  spec.role_ = role;
  spec.categories_ = std::move(categories);
  return spec;
}

AttributeSpec AttributeSpec::Integer(std::string name, AttributeRole role,
                                     int64_t min, int64_t max,
                                     int num_buckets) {
  AttributeSpec spec;
  spec.name_ = std::move(name);
  spec.kind_ = AttributeKind::kInteger;
  spec.role_ = role;
  spec.min_ = static_cast<double>(min);
  spec.max_ = static_cast<double>(max);
  spec.num_buckets_ = num_buckets;
  return spec;
}

AttributeSpec AttributeSpec::Real(std::string name, AttributeRole role,
                                  double min, double max, int num_buckets) {
  AttributeSpec spec;
  spec.name_ = std::move(name);
  spec.kind_ = AttributeKind::kReal;
  spec.role_ = role;
  spec.min_ = min;
  spec.max_ = max;
  spec.num_buckets_ = num_buckets;
  return spec;
}

int AttributeSpec::num_groups() const {
  if (kind_ == AttributeKind::kCategorical) {
    return static_cast<int>(categories_.size());
  }
  return num_buckets_;
}

Status AttributeSpec::Validate() const {
  if (name_.empty()) {
    return Status::InvalidArgument("attribute has empty name");
  }
  if (kind_ == AttributeKind::kCategorical) {
    if (categories_.empty()) {
      return Status::InvalidArgument("categorical attribute '" + name_ +
                                     "' has no categories");
    }
    std::unordered_set<std::string> seen;
    for (const std::string& c : categories_) {
      if (!seen.insert(c).second) {
        return Status::InvalidArgument("categorical attribute '" + name_ +
                                       "' has duplicate category '" + c + "'");
      }
    }
  } else {
    if (!(min_ < max_)) {
      return Status::InvalidArgument("numeric attribute '" + name_ +
                                     "' has empty range");
    }
    if (num_buckets_ <= 0) {
      return Status::InvalidArgument("numeric attribute '" + name_ +
                                     "' must have a positive bucket count");
    }
  }
  return Status::OK();
}

StatusOr<int> AttributeSpec::CodeOf(std::string_view category) const {
  if (kind_ != AttributeKind::kCategorical) {
    return Status::FailedPrecondition("CodeOf on non-categorical attribute '" +
                                      name_ + "'");
  }
  auto it = std::find(categories_.begin(), categories_.end(), category);
  if (it == categories_.end()) {
    return Status::NotFound("category '" + std::string(category) +
                            "' not in attribute '" + name_ + "'");
  }
  return static_cast<int>(it - categories_.begin());
}

int AttributeSpec::GroupIndexOfInt(int64_t value) const {
  if (kind_ == AttributeKind::kCategorical) {
    int code = static_cast<int>(value);
    if (code < 0) return 0;
    if (code >= num_groups()) return num_groups() - 1;
    return code;
  }
  return GroupIndexOfReal(static_cast<double>(value));
}

int AttributeSpec::GroupIndexOfReal(double value) const {
  double width = (max_ - min_) / num_buckets_;
  int idx = static_cast<int>(std::floor((value - min_) / width));
  if (idx < 0) return 0;
  if (idx >= num_buckets_) return num_buckets_ - 1;
  return idx;
}

std::string AttributeSpec::GroupLabel(int group_index) const {
  if (kind_ == AttributeKind::kCategorical) {
    if (group_index >= 0 && group_index < num_groups()) {
      return categories_[group_index];
    }
    return "<invalid>";
  }
  double width = (max_ - min_) / num_buckets_;
  double lo = min_ + group_index * width;
  double hi = lo + width;
  const int precision = (kind_ == AttributeKind::kInteger) ? 0 : 2;
  // Built with append rather than chained operator+ — the temporary chain
  // trips GCC 12's -Wrestrict false positive (PR105651) under -Werror.
  std::string label = "[";
  label += FormatDouble(lo, precision);
  label += ",";
  label += FormatDouble(hi, precision);
  label += (group_index == num_buckets_ - 1) ? "]" : ")";
  return label;
}

}  // namespace fairrank
