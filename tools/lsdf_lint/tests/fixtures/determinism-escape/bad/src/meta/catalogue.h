//! Fixture: a catalogue sweep built by walking the hashed name index —
//! hash order would become the order the datasets resolve in.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

namespace lsdf::meta {

class Catalogue {
 public:
  std::vector<std::uint64_t> sweep_order() const {
    std::vector<std::uint64_t> ids;
    for (const auto& [name, id] : by_name_) {
      ids.push_back(id);
    }
    return ids;
  }

 private:
  std::unordered_map<std::string, std::uint64_t> by_name_;
};

}  // namespace lsdf::meta
