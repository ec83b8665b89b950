//! ADAL — the Abstract Data Access Layer (paper slides 9/10): the unified,
//! extensible low-level interface to every LSDF storage technology.
//!
//!  * URIs: `lsdf://<backend>/<path>` addresses one backend directly;
//!    `lsdf://data/<path>` addresses the *logical* namespace, which ADAL
//!    routes through its location table. Migrating an object to another
//!    backend updates the table, so logical URIs stay valid across storage
//!    technology changes — the "transparent access over background storage
//!    and technology changes" requirement, measured by experiment E4.
//!    The location table is the catalogue of which copy exists, so an
//!    object migrates once at a time and a migration removes only a copy
//!    its own write made: no migration leaves the table naming a copy
//!    another one removed.
//!  * Backends are pluggable (disk pool, HSM/tape, DFS, in-memory); new
//!    technologies register at runtime.
//!  * Authentication is token-based with per-backend read/write grants.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/units.h"
#include "sim/simulator.h"
#include "storage/disk_array.h"

namespace lsdf::adal {

struct Uri {
  std::string backend;
  std::string path;

  [[nodiscard]] static Result<Uri> parse(const std::string& text);
  [[nodiscard]] std::string to_string() const {
    return "lsdf://" + backend + "/" + path;
  }
};

// One storage technology under ADAL. Implementations adapt StoragePool,
// HsmStore, DfsCluster or memory to this interface. `remove` serves
// migration (dropping a copy) and `size_of` serves Adal::stat.
class Backend {
 public:
  virtual ~Backend() = default;
  [[nodiscard]] virtual const std::string& name() const = 0;
  virtual void write(const std::string& path, Bytes size,
                     storage::IoCallback done) = 0;
  virtual void read(const std::string& path, storage::IoCallback done) = 0;
  [[nodiscard]] virtual Status remove(const std::string& path) = 0;
  [[nodiscard]] virtual Result<Bytes> size_of(
      const std::string& path) const = 0;
};

// --- Authentication -------------------------------------------------------

enum class Access : std::uint8_t { kRead = 1, kWrite = 2 };

struct Credentials {
  std::string token;
};

class AuthService {
 public:
  // Register a token for a principal (a user or a community service).
  void add_token(std::string token, std::string principal);
  // Grant the principal access on a backend ("*" = every backend).
  void grant(const std::string& principal, const std::string& backend,
             Access access);

  [[nodiscard]] Status check(const Credentials& credentials,
                             const std::string& backend, Access need) const;
  [[nodiscard]] Result<std::string> principal_of(
      const Credentials& credentials) const;

 private:
  std::map<std::string, std::string> principal_by_token_;
  // (principal, backend) -> access bitmask
  std::map<std::pair<std::string, std::string>, std::uint8_t> grants_;
};

// --- The access layer -------------------------------------------------------

class Adal {
 public:
  // Name of the logical namespace pseudo-backend.
  static constexpr const char* kLogical = "data";

  Adal(sim::Simulator& simulator, AuthService& auth)
      : simulator_(simulator), auth_(auth) {}

  [[nodiscard]] Status register_backend(std::unique_ptr<Backend> backend);
  // New logical-namespace writes land on this backend.
  [[nodiscard]] Status set_default_backend(const std::string& name);
  [[nodiscard]] std::vector<std::string> backend_names() const;

  // Asynchronous data plane. URIs may name a backend or the logical
  // namespace; auth failures and bad URIs report through the callback.
  void write(const Credentials& who, const std::string& uri, Bytes size,
             storage::IoCallback done);
  void read(const Credentials& who, const std::string& uri,
            storage::IoCallback done);

  // Size of the object a URI names; NOT_FOUND when there is none.
  [[nodiscard]] Result<Bytes> stat(const std::string& uri) const;

  // Move a logical object to another backend; its lsdf://data/... URI keeps
  // resolving before, during (old copy serves reads) and after migration.
  // FAILED_PRECONDITION when the object is already migrating. A failed
  // migration removes the destination copy only if its own write made it.
  void migrate(const Credentials& who, const std::string& logical_path,
               const std::string& target_backend,
               std::function<void(Status)> done);

  // Which backend currently holds a logical path (for tests/E4).
  [[nodiscard]] Result<std::string> resolve(
      const std::string& logical_path) const;

 private:
  struct Located {
    Backend* backend = nullptr;
    Bytes size;
    bool migrating = false;
  };

  [[nodiscard]] Result<Backend*> backend_for(const std::string& name) const;
  void fail(storage::IoCallback done, Status status) const;

  // Observability (DESIGN.md §4g). ADAL operations are the facility's
  // request roots: tenant_of() maps credentials to the tenant tag,
  // request_latency() resolves the per-(tenant, op) HdrHistogram once and
  // caches the handle, and timed() wraps a completion callback to record
  // the latency and emit the operation span.
  [[nodiscard]] std::string tenant_of(const Credentials& who) const;
  [[nodiscard]] obs::HdrHistogram& request_latency(const std::string& tenant,
                                                   const char* op);
  [[nodiscard]] storage::IoCallback timed(const char* op,
                                          const std::string& tenant,
                                          storage::IoCallback done);

  sim::Simulator& simulator_;
  AuthService& auth_;
  std::map<std::string, std::unique_ptr<Backend>> backends_;
  Backend* default_backend_ = nullptr;
  std::map<std::string, Located> logical_;  // logical path -> location
  // (tenant, op) -> latency instrument; handles resolved once.
  std::map<std::pair<std::string, std::string>, obs::HdrHistogram*>
      latency_by_;
};

}  // namespace lsdf::adal
