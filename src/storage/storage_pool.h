//! StoragePool: aggregates several disk arrays behind one allocation API with
//! a pluggable placement policy. Models the facility's "2 PB in 2 storage
//! systems" layer (paper slide 7): datasets land on DDN or IBM according to
//! policy, and the pool reports combined utilisation.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/units.h"
#include "storage/disk_array.h"

namespace lsdf::storage {

enum class PlacementPolicy {
  kRoundRobin,   // spread datasets evenly by count
  kMostFree,     // always the array with most free space
  kFirstFit,     // first array with room (in registration order)
};

class StoragePool {
 public:
  explicit StoragePool(PlacementPolicy policy) : policy_(policy) {}

  // The pool references, not owns, its arrays; the Facility owns hardware.
  void add_array(DiskArray& array) { arrays_.push_back(&array); }

  // Choose an array for `size` bytes and reserve the space on it.
  // RESOURCE_EXHAUSTED when nothing fits.
  [[nodiscard]] Result<DiskArray*> place(Bytes size);

  // A named object's array and size; the pool's record of the object.
  struct PlacedObject {
    DiskArray* array = nullptr;
    Bytes size;
  };
  // Track a named object (placement + accounting in one step).
  [[nodiscard]] Result<DiskArray*> place_object(const std::string& name,
                                                Bytes size);
  [[nodiscard]] Result<PlacedObject> locate(const std::string& name) const;
  [[nodiscard]] Status remove_object(const std::string& name);

  [[nodiscard]] Bytes capacity() const;
  [[nodiscard]] Bytes used() const;
  [[nodiscard]] Bytes free() const { return capacity() - used(); }
  [[nodiscard]] std::size_t array_count() const { return arrays_.size(); }
  [[nodiscard]] const std::vector<DiskArray*>& arrays() const {
    return arrays_;
  }
  [[nodiscard]] std::size_t object_count() const { return objects_.size(); }

 private:
  PlacementPolicy policy_;
  std::vector<DiskArray*> arrays_;
  std::map<std::string, PlacedObject> objects_;
  std::size_t round_robin_next_ = 0;
};

}  // namespace lsdf::storage
