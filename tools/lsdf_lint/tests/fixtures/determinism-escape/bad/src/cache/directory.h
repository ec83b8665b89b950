//! Fixture: a cache directory kept in a hash map and walked to pick an
//! eviction victim — hash order would decide which entry goes.
#pragma once

#include <string>
#include <unordered_map>

namespace lsdf::cache {

class Directory {
 public:
  std::string coldest() const {
    std::string victim;
    long oldest = -1;
    for (const auto& [key, stamp] : stamps_) {
      if (oldest < 0 || stamp < oldest) {
        oldest = stamp;
        victim = key;
      }
    }
    return victim;
  }

 private:
  std::unordered_map<std::string, long> stamps_;
};

}  // namespace lsdf::cache
