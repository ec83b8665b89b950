#include "meta/query.h"

#include <algorithm>

namespace lsdf::meta {
namespace {

template <typename T>
bool compare(CompareOp op, const T& lhs, const T& rhs) {
  switch (op) {
    case CompareOp::kEq: return lhs == rhs;
    case CompareOp::kNe: return lhs != rhs;
    case CompareOp::kLt: return lhs < rhs;
    case CompareOp::kLe: return lhs <= rhs;
    case CompareOp::kGt: return lhs > rhs;
    case CompareOp::kGe: return lhs >= rhs;
    case CompareOp::kContains: return false;  // only meaningful for strings
  }
  return false;
}

}  // namespace

bool matches(const Predicate& predicate, const AttrMap& attrs) {
  const auto it = attrs.find(predicate.attribute);
  if (it == attrs.end()) return false;
  const AttrValue& actual = it->second;
  // Allow int/double cross-comparison; otherwise require identical types.
  if (std::holds_alternative<std::string>(actual) &&
      std::holds_alternative<std::string>(predicate.value)) {
    const auto& lhs = std::get<std::string>(actual);
    const auto& rhs = std::get<std::string>(predicate.value);
    if (predicate.op == CompareOp::kContains) {
      return lhs.find(rhs) != std::string::npos;
    }
    return compare(predicate.op, lhs, rhs);
  }
  const auto numeric = [](const AttrValue& v) -> std::optional<double> {
    if (const auto* i = std::get_if<std::int64_t>(&v)) {
      return static_cast<double>(*i);
    }
    if (const auto* d = std::get_if<double>(&v)) return *d;
    return std::nullopt;
  };
  if (const auto lhs = numeric(actual)) {
    if (const auto rhs = numeric(predicate.value)) {
      return compare(predicate.op, *lhs, *rhs);
    }
    return false;
  }
  if (std::holds_alternative<bool>(actual) &&
      std::holds_alternative<bool>(predicate.value)) {
    return compare(predicate.op, std::get<bool>(actual),
                   std::get<bool>(predicate.value));
  }
  return false;
}

bool Query::matches_record(const DatasetRecord& record) const {
  if (project_ && record.project != *project_) return false;
  for (const auto& tag : tags_) {
    if (std::find(record.tags.begin(), record.tags.end(), tag) ==
        record.tags.end()) {
      return false;
    }
  }
  return std::all_of(
      predicates_.begin(), predicates_.end(),
      [&](const Predicate& p) { return meta::matches(p, record.basic); });
}

}  // namespace lsdf::meta
