#include "storage/storage_pool.h"

#include <algorithm>

namespace lsdf::storage {

Result<DiskArray*> StoragePool::place(Bytes size) {
  if (arrays_.empty()) return failed_precondition("pool has no arrays");

  auto fits = [size](const DiskArray* array) {
    return array->free() >= size;
  };

  DiskArray* chosen = nullptr;
  switch (policy_) {
    case PlacementPolicy::kRoundRobin: {
      for (std::size_t i = 0; i < arrays_.size(); ++i) {
        DiskArray* candidate =
            arrays_[(round_robin_next_ + i) % arrays_.size()];
        if (fits(candidate)) {
          chosen = candidate;
          round_robin_next_ = (round_robin_next_ + i + 1) % arrays_.size();
          break;
        }
      }
      break;
    }
    case PlacementPolicy::kMostFree: {
      for (DiskArray* candidate : arrays_) {
        if (!fits(candidate)) continue;
        if (chosen == nullptr || candidate->free() > chosen->free()) {
          chosen = candidate;
        }
      }
      break;
    }
    case PlacementPolicy::kFirstFit: {
      const auto it = std::find_if(arrays_.begin(), arrays_.end(), fits);
      if (it != arrays_.end()) chosen = *it;
      break;
    }
  }
  if (chosen == nullptr) {
    return resource_exhausted("no array can hold " + format_bytes(size));
  }
  LSDF_RETURN_IF_ERROR(chosen->reserve(size));
  return chosen;
}

Result<DiskArray*> StoragePool::place_object(const std::string& name,
                                             Bytes size) {
  if (objects_.contains(name)) return already_exists(name);
  LSDF_ASSIGN_OR_RETURN(DiskArray* array, place(size));
  objects_.emplace(name, PlacedObject{array, size});
  return array;
}

Result<StoragePool::PlacedObject> StoragePool::locate(
    const std::string& name) const {
  const auto it = objects_.find(name);
  if (it == objects_.end()) return not_found(name);
  return it->second;
}

Status StoragePool::remove_object(const std::string& name) {
  const auto it = objects_.find(name);
  if (it == objects_.end()) return not_found(name);
  it->second.array->release(it->second.size);
  objects_.erase(it);
  return Status::ok();
}

Bytes StoragePool::capacity() const {
  Bytes total;
  for (const DiskArray* array : arrays_) total += array->capacity();
  return total;
}

Bytes StoragePool::used() const {
  Bytes total;
  for (const DiskArray* array : arrays_) total += array->used();
  return total;
}

}  // namespace lsdf::storage
