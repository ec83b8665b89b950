//! Concrete ADAL backends adapting each storage technology to the Backend
//! interface: the online disk pool, the HSM/tape archive, the Hadoop DFS and
//! an in-memory object store (the roadmap's "Object Storage", also used by
//! tests for instantaneous I/O).
#pragma once

#include <map>
#include <string>

#include "adal/adal.h"
#include "dfs/dfs.h"
#include "storage/hsm_store.h"
#include "storage/storage_pool.h"

namespace lsdf::adal {

// Online disk pool: objects placed across the facility's disk arrays.
class PoolBackend final : public Backend {
 public:
  PoolBackend(std::string name, sim::Simulator& simulator,
              storage::StoragePool& pool)
      : name_(std::move(name)), simulator_(simulator), pool_(pool) {}

  [[nodiscard]] const std::string& name() const override { return name_; }
  void write(const std::string& path, Bytes size,
             storage::IoCallback done) override;
  void read(const std::string& path, storage::IoCallback done) override;
  [[nodiscard]] Status remove(const std::string& path) override {
    return pool_.remove_object(path);
  }
  [[nodiscard]] Result<Bytes> size_of(
      const std::string& path) const override;

 private:
  void fail(storage::IoCallback done, Status status) const;

  std::string name_;
  sim::Simulator& simulator_;
  storage::StoragePool& pool_;
};

// Archive: HSM over disk cache + tape.
class HsmBackend final : public Backend {
 public:
  HsmBackend(std::string name, storage::HsmStore& hsm)
      : name_(std::move(name)), hsm_(hsm) {}

  [[nodiscard]] const std::string& name() const override { return name_; }
  void write(const std::string& path, Bytes size,
             storage::IoCallback done) override {
    hsm_.put(path, size, std::move(done));
  }
  void read(const std::string& path, storage::IoCallback done) override {
    hsm_.get(path, std::move(done));
  }
  [[nodiscard]] Status remove(const std::string& path) override {
    return hsm_.forget(path);
  }
  [[nodiscard]] Result<Bytes> size_of(
      const std::string& path) const override {
    return hsm_.size_of(path);
  }

 private:
  std::string name_;
  storage::HsmStore& hsm_;
};

// Analysis cluster filesystem. Reads/writes happen from `access_node`
// (typically the login headnode), crossing the cluster fabric.
class DfsBackend final : public Backend {
 public:
  DfsBackend(std::string name, sim::Simulator& simulator,
             dfs::DfsCluster& dfs, net::NodeId access_node)
      : name_(std::move(name)),
        simulator_(simulator),
        dfs_(dfs),
        access_node_(access_node) {}

  [[nodiscard]] const std::string& name() const override { return name_; }
  void write(const std::string& path, Bytes size,
             storage::IoCallback done) override;
  void read(const std::string& path, storage::IoCallback done) override;
  [[nodiscard]] Status remove(const std::string& path) override {
    return dfs_.remove(path);
  }
  [[nodiscard]] Result<Bytes> size_of(
      const std::string& path) const override;

 private:
  std::string name_;
  sim::Simulator& simulator_;
  dfs::DfsCluster& dfs_;
  net::NodeId access_node_;
};

// In-memory object store: instantaneous, capacity-bounded. Stands in for
// the roadmap's object storage and gives tests a zero-latency backend.
class MemBackend final : public Backend {
 public:
  MemBackend(std::string name, sim::Simulator& simulator, Bytes capacity)
      : name_(std::move(name)), simulator_(simulator), capacity_(capacity) {}

  [[nodiscard]] const std::string& name() const override { return name_; }
  void write(const std::string& path, Bytes size,
             storage::IoCallback done) override;
  void read(const std::string& path, storage::IoCallback done) override;
  [[nodiscard]] Status remove(const std::string& path) override;
  [[nodiscard]] Result<Bytes> size_of(
      const std::string& path) const override;
  [[nodiscard]] Bytes used() const { return used_; }

 private:
  void respond(storage::IoCallback done, Status status, Bytes size) const;

  std::string name_;
  sim::Simulator& simulator_;
  Bytes capacity_;
  Bytes used_;
  std::map<std::string, Bytes> objects_;
};

}  // namespace lsdf::adal
