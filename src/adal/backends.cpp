#include "adal/backends.h"

namespace lsdf::adal {

// --- PoolBackend ------------------------------------------------------------

void PoolBackend::fail(storage::IoCallback done, Status status) const {
  const SimTime now = simulator_.now();
  simulator_.schedule_after(
      SimDuration::zero(),
      [this, done = std::move(done), status = std::move(status), now] {
        if (done) {
          done(storage::IoResult{status, now, simulator_.now(),
                                 Bytes::zero()});
        }
      });
}

void PoolBackend::write(const std::string& path, Bytes size,
                        storage::IoCallback done) {
  const auto array = pool_.place_object(path, size);
  if (!array.is_ok()) {
    fail(std::move(done), array.status());
    return;
  }
  array.value()->write(size, std::move(done));
}

void PoolBackend::read(const std::string& path, storage::IoCallback done) {
  const auto placed = pool_.locate(path);
  if (!placed.is_ok()) {
    fail(std::move(done), placed.status());
    return;
  }
  placed.value().array->read(placed.value().size, std::move(done));
}

Result<Bytes> PoolBackend::size_of(const std::string& path) const {
  LSDF_ASSIGN_OR_RETURN(const storage::StoragePool::PlacedObject placed,
                        pool_.locate(path));
  return placed.size;
}

// --- DfsBackend -------------------------------------------------------------

void DfsBackend::write(const std::string& path, Bytes size,
                       storage::IoCallback done) {
  dfs_.write_file(path, size, access_node_,
                  [done = std::move(done)](const dfs::DfsIoResult& result) {
                    if (done) {
                      done(storage::IoResult{result.status, result.started,
                                             result.finished, result.size});
                    }
                  });
}

void DfsBackend::read(const std::string& path, storage::IoCallback done) {
  const SimTime started = simulator_.now();
  const auto info = dfs_.stat(path);
  if (!info.is_ok()) {
    simulator_.schedule_after(
        SimDuration::zero(),
        [this, status = info.status(), started, done = std::move(done)] {
          if (done) {
            done(storage::IoResult{status, started, simulator_.now(),
                                   Bytes::zero()});
          }
        });
    return;
  }
  // Stream the file block by block to the access node, as a DFS client
  // does; completion when the last block arrives.
  auto blocks = std::make_shared<std::vector<dfs::BlockId>>(
      info.value().blocks);
  auto reader = std::make_shared<std::function<void(std::size_t)>>();
  const Bytes size = info.value().size;
  *reader = [this, reader, blocks, started, size,
             done = std::move(done)](std::size_t index) {
    if (index >= blocks->size()) {
      if (done) {
        done(storage::IoResult{Status::ok(), started, simulator_.now(),
                               size});
      }
      simulator_.schedule_after(SimDuration::zero(),
                                [reader] { *reader = nullptr; });
      return;
    }
    dfs_.read_block(
        (*blocks)[index], access_node_,
        [this, reader, index, started, done,
         size](const dfs::DfsIoResult& result) {
          if (!result.status.is_ok()) {
            if (done) {
              done(storage::IoResult{result.status, started,
                                     simulator_.now(), size});
            }
            simulator_.schedule_after(SimDuration::zero(),
                                      [reader] { *reader = nullptr; });
            return;
          }
          (*reader)(index + 1);
        });
  };
  (*reader)(0);
}

Result<Bytes> DfsBackend::size_of(const std::string& path) const {
  LSDF_ASSIGN_OR_RETURN(const dfs::FileInfo info, dfs_.stat(path));
  return info.size;
}

// --- MemBackend -------------------------------------------------------------

void MemBackend::respond(storage::IoCallback done, Status status,
                         Bytes size) const {
  const SimTime now = simulator_.now();
  simulator_.schedule_after(
      SimDuration::zero(),
      [this, done = std::move(done), status = std::move(status), size, now] {
        if (done) {
          done(storage::IoResult{status, now, simulator_.now(), size});
        }
      });
}

void MemBackend::write(const std::string& path, Bytes size,
                       storage::IoCallback done) {
  if (objects_.contains(path)) {
    respond(std::move(done), already_exists(path), size);
    return;
  }
  if (used_ + size > capacity_) {
    respond(std::move(done), resource_exhausted(name_ + " is full"), size);
    return;
  }
  used_ += size;
  objects_.emplace(path, size);
  respond(std::move(done), Status::ok(), size);
}

void MemBackend::read(const std::string& path, storage::IoCallback done) {
  const auto it = objects_.find(path);
  if (it == objects_.end()) {
    respond(std::move(done), not_found(path), Bytes::zero());
    return;
  }
  respond(std::move(done), Status::ok(), it->second);
}

Status MemBackend::remove(const std::string& path) {
  const auto it = objects_.find(path);
  if (it == objects_.end()) return not_found(path);
  used_ -= it->second;
  objects_.erase(it);
  return Status::ok();
}

Result<Bytes> MemBackend::size_of(const std::string& path) const {
  const auto it = objects_.find(path);
  if (it == objects_.end()) return not_found(path);
  return it->second;
}

}  // namespace lsdf::adal
