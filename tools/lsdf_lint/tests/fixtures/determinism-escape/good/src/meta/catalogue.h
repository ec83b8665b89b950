//! Fixture: a hashed name index that is only probed, next to an
//! id-indexed record table that sweeps walk in id order.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>
#include <vector>

namespace lsdf::meta {

class Catalogue {
 public:
  std::uint64_t id_of(const std::string& name) const {
    const auto it = by_name_.find(name);
    return it != by_name_.end() ? it->second : 0;
  }
  std::vector<std::uint64_t> sweep_order() const {
    std::vector<std::uint64_t> ids;
    for (const std::uint64_t id : records_) {
      ids.push_back(id);
    }
    return ids;
  }

 private:
  std::unordered_map<std::string, std::uint64_t> by_name_;
  std::deque<std::uint64_t> records_;
};

}  // namespace lsdf::meta
