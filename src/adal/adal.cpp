#include "adal/adal.h"

#include <algorithm>
#include <utility>

#include "common/require.h"
#include "obs/context.h"
#include "obs/trace.h"

namespace lsdf::adal {

namespace {

// Root or refine the thread's request context for an ADAL operation: a bare
// call starts a fresh request tagged with the caller's tenant; a call made
// inside an existing request (e.g. ingest) keeps that request and only
// fills in a missing tenant tag.
obs::RequestContext request_context_for(const std::string& tenant) {
  obs::RequestContext context = obs::current_context();
  if (!context.active()) return obs::begin_request(tenant);
  if (context.tenant == 0) context.tenant = obs::tenant_id(tenant);
  return context;
}

}  // namespace

Result<Uri> Uri::parse(const std::string& text) {
  constexpr std::string_view kScheme = "lsdf://";
  if (text.rfind(kScheme, 0) != 0) {
    return invalid_argument("URI must start with lsdf:// — got `" + text +
                            "`");
  }
  const std::string rest = text.substr(kScheme.size());
  const auto slash = rest.find('/');
  if (slash == std::string::npos || slash == 0 || slash + 1 >= rest.size()) {
    return invalid_argument("URI needs lsdf://<backend>/<path> — got `" +
                            text + "`");
  }
  return Uri{rest.substr(0, slash), rest.substr(slash + 1)};
}

void AuthService::add_token(std::string token, std::string principal) {
  LSDF_REQUIRE(!token.empty(), "empty token");
  principal_by_token_[std::move(token)] = std::move(principal);
}

void AuthService::grant(const std::string& principal,
                        const std::string& backend, Access access) {
  grants_[{principal, backend}] |= static_cast<std::uint8_t>(access);
}

Result<std::string> AuthService::principal_of(
    const Credentials& credentials) const {
  const auto principal = principal_by_token_.find(credentials.token);
  if (principal == principal_by_token_.end()) {
    return permission_denied("unknown token");
  }
  return principal->second;
}

Status AuthService::check(const Credentials& credentials,
                          const std::string& backend, Access need) const {
  const auto principal = principal_by_token_.find(credentials.token);
  if (principal == principal_by_token_.end()) {
    return permission_denied("unknown token");
  }
  const auto mask = static_cast<std::uint8_t>(need);
  for (const std::string& scope : {backend, std::string("*")}) {
    const auto grant = grants_.find({principal->second, scope});
    if (grant != grants_.end() && (grant->second & mask) == mask) {
      return Status::ok();
    }
  }
  return permission_denied("principal `" + principal->second +
                           "` lacks access on backend `" + backend + "`");
}

Status Adal::register_backend(std::unique_ptr<Backend> backend) {
  LSDF_REQUIRE(backend != nullptr, "null backend");
  const std::string& name = backend->name();
  if (name == kLogical) {
    return invalid_argument("`data` names the logical namespace");
  }
  if (backends_.contains(name)) {
    return already_exists("backend " + name);
  }
  if (default_backend_ == nullptr) default_backend_ = backend.get();
  backends_.emplace(name, std::move(backend));
  return Status::ok();
}

Status Adal::set_default_backend(const std::string& name) {
  LSDF_ASSIGN_OR_RETURN(Backend * backend, backend_for(name));
  default_backend_ = backend;
  return Status::ok();
}

std::vector<std::string> Adal::backend_names() const {
  std::vector<std::string> names;
  names.reserve(backends_.size());
  for (const auto& [name, backend] : backends_) names.push_back(name);
  return names;
}

Result<Backend*> Adal::backend_for(const std::string& name) const {
  const auto it = backends_.find(name);
  if (it == backends_.end()) return not_found("backend " + name);
  return it->second.get();
}

std::string Adal::tenant_of(const Credentials& who) const {
  const auto principal = auth_.principal_of(who);
  return principal.is_ok() ? principal.value() : std::string("anonymous");
}

obs::HdrHistogram& Adal::request_latency(const std::string& tenant,
                                         const char* op) {
  const auto key = std::make_pair(tenant, std::string(op));
  const auto it = latency_by_.find(key);
  if (it != latency_by_.end()) return *it->second;
  obs::HdrHistogram& instrument =
      obs::MetricsRegistry::global().hdr_histogram(
          "lsdf_adal_request_seconds", {{"op", op}, {"tenant", tenant}});
  latency_by_.emplace(key, &instrument);
  return instrument;
}

storage::IoCallback Adal::timed(const char* op, const std::string& tenant,
                                storage::IoCallback done) {
  const SimTime started = simulator_.now();
  obs::HdrHistogram& latency = request_latency(tenant, op);
  return [this, op, started, &latency,
          done = std::move(done)](const storage::IoResult& result) {
    latency.record((simulator_.now() - started).seconds());
    obs::Tracer& tracer = obs::Tracer::global();
    if (tracer.enabled() && tracer.sim_clocked()) {
      tracer.emit_complete(
          std::string("adal.") + op, "adal", started.nanos() / 1000,
          (simulator_.now() - started).nanos() / 1000,
          {{"status", result.status.is_ok() ? std::string("ok")
                                            : result.status.to_string()}});
    }
    if (done) done(result);
  };
}

void Adal::fail(storage::IoCallback done, Status status) const {
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

void Adal::write(const Credentials& who, const std::string& uri, Bytes size,
                 storage::IoCallback done) {
  const std::string tenant = tenant_of(who);
  // Install the request context for the synchronous prologue; async legs
  // (backend I/O, the fail() event) inherit it via the schedule-site
  // capture in sim::Simulator.
  const obs::ContextScope scope(request_context_for(tenant));
  done = timed("write", tenant, std::move(done));
  const auto parsed = Uri::parse(uri);
  if (!parsed.is_ok()) {
    fail(std::move(done), parsed.status());
    return;
  }
  const auto& [backend_name, path] = parsed.value();

  if (backend_name == kLogical) {
    if (const Status auth = auth_.check(
            who, default_backend_ ? default_backend_->name() : "*",
            Access::kWrite);
        !auth.is_ok()) {
      fail(std::move(done), auth);
      return;
    }
    if (default_backend_ == nullptr) {
      fail(std::move(done), failed_precondition("no default backend"));
      return;
    }
    if (logical_.contains(path)) {
      fail(std::move(done), already_exists(uri));
      return;
    }
    logical_.emplace(path, Located{default_backend_, size});
    default_backend_->write(
        path, size, [this, path, done = std::move(done)](
                        const storage::IoResult& result) mutable {
          if (!result.status.is_ok()) logical_.erase(path);
          if (done) done(result);
        });
    return;
  }

  if (const Status auth = auth_.check(who, backend_name, Access::kWrite);
      !auth.is_ok()) {
    fail(std::move(done), auth);
    return;
  }
  const auto backend = backend_for(backend_name);
  if (!backend.is_ok()) {
    fail(std::move(done), backend.status());
    return;
  }
  backend.value()->write(path, size, std::move(done));
}

void Adal::read(const Credentials& who, const std::string& uri,
                storage::IoCallback done) {
  const std::string tenant = tenant_of(who);
  const obs::ContextScope scope(request_context_for(tenant));
  done = timed("read", tenant, std::move(done));
  const auto parsed = Uri::parse(uri);
  if (!parsed.is_ok()) {
    fail(std::move(done), parsed.status());
    return;
  }
  const auto& [backend_name, path] = parsed.value();

  Backend* backend = nullptr;
  std::string real_path = path;
  if (backend_name == kLogical) {
    const auto located = logical_.find(path);
    if (located == logical_.end()) {
      fail(std::move(done), not_found(uri));
      return;
    }
    backend = located->second.backend;
  } else {
    const auto found = backend_for(backend_name);
    if (!found.is_ok()) {
      fail(std::move(done), found.status());
      return;
    }
    backend = found.value();
  }
  if (const Status auth = auth_.check(who, backend->name(), Access::kRead);
      !auth.is_ok()) {
    fail(std::move(done), auth);
    return;
  }
  backend->read(real_path, std::move(done));
}

Result<Bytes> Adal::stat(const std::string& uri) const {
  LSDF_ASSIGN_OR_RETURN(const Uri parsed, Uri::parse(uri));
  if (parsed.backend == kLogical) {
    const auto located = logical_.find(parsed.path);
    if (located == logical_.end()) return not_found(uri);
    return located->second.size;
  }
  LSDF_ASSIGN_OR_RETURN(Backend * backend, backend_for(parsed.backend));
  return backend->size_of(parsed.path);
}

void Adal::migrate(const Credentials& who, const std::string& logical_path,
                   const std::string& target_backend,
                   std::function<void(Status)> done) {
  const obs::ContextScope scope(request_context_for(tenant_of(who)));
  const SimTime started = simulator_.now();
  auto finish = [this, started, done = std::move(done)](Status status) {
    obs::Tracer& tracer = obs::Tracer::global();
    if (tracer.enabled() && tracer.sim_clocked()) {
      tracer.emit_complete(
          "adal.migrate", "adal", started.nanos() / 1000,
          (simulator_.now() - started).nanos() / 1000,
          {{"status",
            status.is_ok() ? std::string("ok") : status.to_string()}});
    }
    simulator_.schedule_after(
        SimDuration::zero(),
        [done = std::move(done), status = std::move(status)] {
          if (done) done(status);
        });
  };
  const auto located = logical_.find(logical_path);
  if (located == logical_.end()) {
    finish(not_found("logical path " + logical_path));
    return;
  }
  if (located->second.migrating) {
    finish(failed_precondition("logical path " + logical_path +
                               " is already migrating"));
    return;
  }
  const auto target = backend_for(target_backend);
  if (!target.is_ok()) {
    finish(target.status());
    return;
  }
  Backend* const source = located->second.backend;
  Backend* const destination = target.value();
  if (source == destination) {
    finish(Status::ok());
    return;
  }
  if (const Status auth = auth_.check(who, source->name(), Access::kRead);
      !auth.is_ok()) {
    finish(auth);
    return;
  }
  if (const Status auth =
          auth_.check(who, destination->name(), Access::kWrite);
      !auth.is_ok()) {
    finish(auth);
    return;
  }

  // Copy: read from the source while writing to the destination; the
  // location table flips only after both legs succeed, so concurrent reads
  // keep hitting the old copy until the new one is durable. A failed write
  // may have met another object of the same name, so cleanup removes the
  // destination copy only when this migration's write made it.
  located->second.migrating = true;
  const Bytes size = located->second.size;
  struct Legs {
    int pending = 2;
    Status status;
    bool copied = false;  // the destination write succeeded
  };
  auto legs = std::make_shared<Legs>();
  auto leg = [this, legs, logical_path, source, destination,
              finish = std::move(finish)](bool write,
                                          const storage::IoResult& result) {
    if (!result.status.is_ok()) {
      if (legs->status.is_ok()) legs->status = result.status;
    } else if (write) {
      legs->copied = true;
    }
    if (--legs->pending != 0) return;
    const auto located = logical_.find(logical_path);
    if (located != logical_.end()) located->second.migrating = false;
    if (!legs->status.is_ok() || located == logical_.end()) {
      if (legs->copied) (void)destination->remove(logical_path);
      finish(legs->status.is_ok()
                 ? not_found("object vanished during migration")
                 : legs->status);
      return;
    }
    located->second.backend = destination;
    (void)source->remove(logical_path);
    finish(Status::ok());
  };
  source->read(logical_path, [leg](const storage::IoResult& result) {
    leg(false, result);
  });
  destination->write(logical_path, size,
                     [leg](const storage::IoResult& result) {
                       leg(true, result);
                     });
}

Result<std::string> Adal::resolve(const std::string& logical_path) const {
  const auto located = logical_.find(logical_path);
  if (located == logical_.end()) {
    return not_found("logical path " + logical_path);
  }
  return located->second.backend->name();
}

}  // namespace lsdf::adal
