#include "data/schema.h"

namespace fairrank {

Status Schema::AddAttribute(AttributeSpec spec) {
  FAIRRANK_RETURN_NOT_OK(spec.Validate());
  if (index_by_name_.count(spec.name()) > 0) {
    return Status::AlreadyExists("attribute '" + spec.name() +
                                 "' already in schema");
  }
  index_by_name_.emplace(spec.name(), attributes_.size());
  attributes_.push_back(std::move(spec));
  return Status::OK();
}

StatusOr<size_t> Schema::FindIndex(const std::string& name) const {
  auto it = index_by_name_.find(name);
  if (it == index_by_name_.end()) {
    return Status::NotFound("no attribute named '" + name + "'");
  }
  return it->second;
}

std::vector<size_t> Schema::ProtectedIndices() const {
  std::vector<size_t> out;
  for (size_t i = 0; i < attributes_.size(); ++i) {
    if (attributes_[i].is_protected()) out.push_back(i);
  }
  return out;
}

StatusOr<std::vector<size_t>> Schema::ResolveProtected(
    const std::vector<std::string>& names) const {
  if (names.empty()) {
    std::vector<size_t> indices = ProtectedIndices();
    if (indices.empty()) {
      return Status::FailedPrecondition(
          "schema has no protected attributes and none were requested");
    }
    return indices;
  }
  std::vector<size_t> indices;
  indices.reserve(names.size());
  for (const std::string& name : names) {
    FAIRRANK_ASSIGN_OR_RETURN(size_t index, FindIndex(name));
    indices.push_back(index);
  }
  return indices;
}

std::vector<size_t> Schema::ObservedIndices() const {
  std::vector<size_t> out;
  for (size_t i = 0; i < attributes_.size(); ++i) {
    if (attributes_[i].is_observed()) out.push_back(i);
  }
  return out;
}

std::string Schema::ToString() const {
  std::string out;
  for (const AttributeSpec& a : attributes_) {
    out += a.name();
    out += " (";
    out += AttributeKindToString(a.kind());
    out += ", ";
    out += AttributeRoleToString(a.role());
    out += ", ";
    out += std::to_string(a.num_groups());
    out += " groups)\n";
  }
  return out;
}

}  // namespace fairrank
