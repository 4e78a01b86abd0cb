#ifndef FAIRRANK_DATA_SCHEMA_H_
#define FAIRRANK_DATA_SCHEMA_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "data/attribute.h"

namespace fairrank {

/// Ordered collection of attribute specs with unique names. Immutable once
/// built (build with AddAttribute, then hand to a Table).
class Schema {
 public:
  Schema() = default;

  /// Appends an attribute. Fails with AlreadyExists on a duplicate name and
  /// with InvalidArgument if the spec itself is inconsistent.
  Status AddAttribute(AttributeSpec spec);

  size_t num_attributes() const { return attributes_.size(); }
  const AttributeSpec& attribute(size_t index) const {
    return attributes_[index];
  }

  /// Index of the attribute with the given name, or NotFound.
  StatusOr<size_t> FindIndex(const std::string& name) const;

  /// Indices of all protected attributes, in schema order.
  std::vector<size_t> ProtectedIndices() const;

  /// Indices of the attributes named `names`, in that order; for no names,
  /// ProtectedIndices(), which must then be non-empty (FailedPrecondition).
  StatusOr<std::vector<size_t>> ResolveProtected(
      const std::vector<std::string>& names) const;

  /// Indices of all observed attributes, in schema order.
  std::vector<size_t> ObservedIndices() const;

  /// One-line-per-attribute description, for reports and debugging.
  std::string ToString() const;

 private:
  std::vector<AttributeSpec> attributes_;
  std::unordered_map<std::string, size_t> index_by_name_;
};

}  // namespace fairrank

#endif  // FAIRRANK_DATA_SCHEMA_H_
