//! Query language over the metadata store: a conjunction of typed predicates
//! on basic metadata, plus project and tag filters. The store answers exact-
//! match predicates from an inverted index and evaluates the rest by scan.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "meta/types.h"

namespace lsdf::meta {

enum class CompareOp { kEq, kNe, kLt, kLe, kGt, kGe, kContains };

struct Predicate {
  std::string attribute;
  CompareOp op = CompareOp::kEq;
  AttrValue value;
};

// Evaluates one predicate against an attribute map. Missing attributes and
// type mismatches compare false (datasets simply don't match).
[[nodiscard]] bool matches(const Predicate& predicate, const AttrMap& attrs);

class Query {
 public:
  Query& in_project(std::string project) {
    project_ = std::move(project);
    return *this;
  }
  Query& with_tag(std::string tag) {
    tags_.push_back(std::move(tag));
    return *this;
  }
  Query& where(std::string attribute, CompareOp op, AttrValue value) {
    predicates_.push_back(
        Predicate{std::move(attribute), op, std::move(value)});
    return *this;
  }
  Query& limit(std::size_t n) {
    limit_ = n;
    return *this;
  }

  [[nodiscard]] const std::optional<std::string>& project() const {
    return project_;
  }
  [[nodiscard]] const std::vector<std::string>& tags() const { return tags_; }
  [[nodiscard]] const std::vector<Predicate>& predicates() const {
    return predicates_;
  }
  [[nodiscard]] std::optional<std::size_t> result_limit() const {
    return limit_;
  }

  [[nodiscard]] bool matches_record(const DatasetRecord& record) const;

 private:
  std::optional<std::string> project_;
  std::vector<std::string> tags_;
  std::vector<Predicate> predicates_;
  std::optional<std::size_t> limit_;
};

}  // namespace lsdf::meta
