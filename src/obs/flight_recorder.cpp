#include "obs/flight_recorder.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <sstream>

#include "common/file_util.h"
#include "common/require.h"
#include "obs/context.h"
#include "obs/trace.h"

namespace lsdf::obs {

namespace {

const char* kind_name(char kind) {
  switch (kind) {
    case 'S': return "span";
    case 'I': return "instant";
    case 'E': return "dispatch";
    case 'F': return "fault";
    case 'X': return "failure";
    case 'M': return "mark";
    default: return "?";
  }
}

std::string sanitize_label(const std::string& label) {
  std::string out = label;
  for (char& c : out) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '-' || c == '_';
    if (!ok) c = '_';
  }
  return out;
}

std::atomic<std::uint64_t> next_recorder_id{1};  // 0 marks an empty cache

}  // namespace

FlightRecorder::FlightRecorder()
    : id_(next_recorder_id.fetch_add(1, std::memory_order_relaxed)) {}

FlightRecorder& FlightRecorder::global() {
  static FlightRecorder recorder;
  return recorder;
}

void FlightRecorder::contract_failure_trampoline(const char* what) {
  global().on_contract_failure(what);
}

void FlightRecorder::enable(bool on) {
  enabled_.store(on, std::memory_order_relaxed);
  if (on && this == &global()) {
    // Installed once; the hook itself checks enabled(), so disabling the
    // recorder silences it without touching require.h state.
    set_contract_failure_hook(&contract_failure_trampoline);
  }
}

void FlightRecorder::set_capacity(std::size_t slots) {
  LSDF_REQUIRE(slots > 0 && (slots & (slots - 1)) == 0,
               "flight ring capacity must be a power of two");
  capacity_.store(slots, std::memory_order_relaxed);
}

FlightRecorder::Ring& FlightRecorder::local_ring() {
  // One-slot thread-local cache: exact for any recorder, and the common
  // case (the global recorder) hits it every time after the first record.
  thread_local struct {
    std::uint64_t owner = 0;
    Ring* ring = nullptr;
  } cache;
  if (cache.owner == id_) return *cache.ring;
  const chk::LockGuard lock(mutex_);
  const auto [it, inserted] =
      ring_index_.try_emplace(std::this_thread::get_id(), rings_.size());
  if (inserted) {
    auto ring =
        std::make_unique<Ring>(capacity_.load(std::memory_order_relaxed));
    ring->thread_number = static_cast<int>(it->second);
    rings_.push_back(std::move(ring));
  }
  Ring& ring = *rings_[it->second];
  cache.owner = id_;
  cache.ring = &ring;
  return ring;
}

void FlightRecorder::record(char kind, std::string_view name) {
  if (!enabled()) return;
  record_at(Tracer::global().now_us(), kind, name);
}

void FlightRecorder::record_at(std::int64_t timestamp_us, char kind,
                               std::string_view name) {
  if (!enabled()) return;
  Ring& ring = local_ring();
  const std::uint64_t at = ring.next.load(std::memory_order_relaxed);
  FlightEvent& slot = ring.slots[at & (ring.slots.size() - 1)];
  slot.timestamp_us = timestamp_us;
  const RequestContext& context = current_context();
  slot.request_id = context.request_id;
  slot.tenant = context.tenant;
  slot.kind = kind;
  const std::size_t n = std::min(name.size(), sizeof(slot.name) - 1);
  std::memcpy(slot.name, name.data(), n);
  slot.name[n] = '\0';
  // Publish after the slot is fully written; dump() acquires the cursor.
  ring.next.store(at + 1, std::memory_order_release);
}

std::string FlightRecorder::dump() const {
  struct Row {
    FlightEvent event;
    int thread_number;
    std::uint64_t seq;
  };
  std::vector<Row> rows;
  std::uint64_t total = 0;
  std::uint64_t overwritten = 0;
  std::size_t thread_count = 0;
  {
    const chk::LockGuard lock(mutex_);
    thread_count = rings_.size();
    for (const auto& ring : rings_) {
      const std::uint64_t next = ring->next.load(std::memory_order_acquire);
      const std::uint64_t kept =
          std::min<std::uint64_t>(next, ring->slots.size());
      total += next;
      overwritten += next - kept;
      for (std::uint64_t seq = next - kept; seq < next; ++seq) {
        rows.push_back(Row{ring->slots[seq & (ring->slots.size() - 1)],
                           ring->thread_number, seq});
      }
    }
  }
  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    if (a.event.timestamp_us != b.event.timestamp_us) {
      return a.event.timestamp_us < b.event.timestamp_us;
    }
    if (a.thread_number != b.thread_number) {
      return a.thread_number < b.thread_number;
    }
    return a.seq < b.seq;
  });

  std::ostringstream out;
  out << "== lsdf flight recorder: " << rows.size() << " event(s) shown, "
      << total << " recorded, " << overwritten << " overwritten, "
      << thread_count << " thread(s) ==\n";
  out << "        time_s  thr  kind      request       tenant        event\n";
  char line[160];
  for (const Row& row : rows) {
    const std::string tenant = tenant_name(row.event.tenant);
    char request[24];
    if (row.event.request_id != 0) {
      std::snprintf(request, sizeof(request), "r%llu",
                    static_cast<unsigned long long>(row.event.request_id));
    } else {
      std::snprintf(request, sizeof(request), "-");
    }
    std::snprintf(line, sizeof(line),
                  "%14.6f  t%-2d  %-8s  %-12s  %-12s  %s\n",
                  static_cast<double>(row.event.timestamp_us) / 1e6,
                  row.thread_number, kind_name(row.event.kind), request,
                  tenant.empty() ? "-" : tenant.c_str(), row.event.name);
    out << line;
  }
  return out.str();
}

Status FlightRecorder::dump_to_file(const std::string& path) const {
  return write_file_atomic(path, dump());
}

void FlightRecorder::set_postmortem_dir(std::string dir) {
  const chk::LockGuard lock(mutex_);
  postmortem_dir_ = std::move(dir);
}

std::string FlightRecorder::postmortem_dir() const {
  const chk::LockGuard lock(mutex_);
  return postmortem_dir_;
}

Result<std::string> FlightRecorder::write_postmortem(
    const std::string& label) const {
  const std::string dir = postmortem_dir();
  if (dir.empty()) {
    return Status(StatusCode::kFailedPrecondition,
                  "no postmortem directory configured");
  }
  const std::uint64_t seq =
      postmortem_seq_.fetch_add(1, std::memory_order_relaxed) + 1;
  const std::string path = dir + "/postmortem-" + sanitize_label(label) + "-" +
                           std::to_string(seq) + ".txt";
  LSDF_RETURN_IF_ERROR(write_file_atomic(path, dump()));
  return path;
}

void FlightRecorder::on_fault(const std::string& component) {
  if (!enabled()) return;
  record('F', "fault:" + component);
  if (postmortem_dir().empty()) return;
  const Result<std::string> written = write_postmortem("fault-" + component);
  if (!written.is_ok()) {
    std::fprintf(stderr, "lsdf flight recorder: %s\n",
                 written.status().to_string().c_str());
  }
}

void FlightRecorder::on_contract_failure(const char* what) {
  if (!enabled()) return;
  // Reentrancy guard: a failure raised while dumping must not recurse.
  thread_local bool dumping = false;
  if (dumping) return;
  dumping = true;
  // `what` starts with __FILE__, an absolute path that would push the
  // file:line site out of the 42-char name; keep the file's basename.
  const std::string_view text(what);
  const std::size_t slash = text.substr(0, text.find(':')).rfind('/');
  record('X', slash == std::string_view::npos ? text : text.substr(slash + 1));
  if (postmortem_dir().empty()) {
    std::fprintf(stderr, "lsdf contract failure: %s\n%s", what,
                 dump().c_str());
  } else {
    const Result<std::string> written = write_postmortem("require");
    if (written.is_ok()) {
      std::fprintf(stderr,
                   "lsdf contract failure: %s\n(flight timeline: %s)\n", what,
                   written.value().c_str());
    }
  }
  dumping = false;
}

std::uint64_t FlightRecorder::recorded() const {
  const chk::LockGuard lock(mutex_);
  std::uint64_t total = 0;
  for (const auto& ring : rings_) {
    total += ring->next.load(std::memory_order_relaxed);
  }
  return total;
}

void FlightRecorder::clear() {
  const chk::LockGuard lock(mutex_);
  for (auto& ring : rings_) {
    ring->next.store(0, std::memory_order_relaxed);
  }
}

}  // namespace lsdf::obs
