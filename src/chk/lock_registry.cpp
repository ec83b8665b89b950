#include "chk/lock_registry.h"

#include <sstream>

#include "common/require.h"

namespace lsdf::chk {
namespace {

struct HeldLock {
  const LockRegistry* registry;
  int node;
};

// Per-thread stack of currently held tracked locks (across all
// registries; entries are tagged so test-local registries never mix
// edges with the global one).
thread_local std::vector<HeldLock> tl_held;

}  // namespace

LockRegistry& LockRegistry::global() {
  // Leaked: tracked locks fire during static destruction (logger, metrics).
  static LockRegistry* registry = new LockRegistry();
  return *registry;
}

int LockRegistry::node_for(const std::string& name) {
  const std::scoped_lock lock(mutex_);
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<int>(i);
  }
  LSDF_REQUIRE(names_.size() < kMaxLocks,
               "lock registry full: more than kMaxLocks distinct lock names");
  names_.push_back(name);
  return static_cast<int>(names_.size() - 1);
}

void LockRegistry::on_acquire(int node, const std::source_location& site) {
  for (const HeldLock& held : tl_held) {
    if (held.registry == this) record_edge(held.node, node, site);
  }
  tl_held.push_back(HeldLock{this, node});
}

void LockRegistry::on_release(int node) {
  // Search from the back: releases are almost always LIFO, but unlock
  // order is not a requirement (std::scoped_lock releases in any order).
  for (auto it = tl_held.rbegin(); it != tl_held.rend(); ++it) {
    if (it->registry == this && it->node == node) {
      tl_held.erase(std::next(it).base());
      return;
    }
  }
}

void LockRegistry::record_edge(int from, int to,
                               const std::source_location& site) {
  const auto index = static_cast<std::size_t>(from) * kMaxLocks +
                     static_cast<std::size_t>(to);
  if (edge_seen_[index].load(std::memory_order_relaxed)) return;
  const std::scoped_lock lock(mutex_);
  if (edge_seen_[index].load(std::memory_order_relaxed)) return;
  adjacency_[index] = true;
  std::ostringstream where;
  where << site.file_name() << ":" << site.line();
  edges_.push_back(EdgeInfo{from, to, where.str()});
  note_cycle(from, to);
  // Publish after the graph is consistent; the store orders the matrix
  // update before readers skip the locked path.
  edge_seen_[index].store(true, std::memory_order_release);
}

void LockRegistry::note_cycle(int from, int to) {
  // The new edge from->to closes a cycle iff `from` is reachable from
  // `to`. Iterative DFS over the (tiny) adjacency matrix, recording
  // parents to reconstruct the path.
  std::array<int, kMaxLocks> parent{};
  parent.fill(-1);
  std::vector<int> frontier{to};
  parent[static_cast<std::size_t>(to)] = to;
  bool reachable = (to == from);
  while (!frontier.empty() && !reachable) {
    const int node = frontier.back();
    frontier.pop_back();
    for (std::size_t next = 0; next < names_.size(); ++next) {
      if (!adjacency_[static_cast<std::size_t>(node) * kMaxLocks + next] ||
          parent[next] != -1) {
        continue;
      }
      parent[next] = node;
      if (static_cast<int>(next) == from) {
        reachable = true;
        break;
      }
      frontier.push_back(static_cast<int>(next));
    }
  }
  if (!reachable) return;

  // Reconstruct the DFS path, then describe the full cycle
  // from -> to -> ... -> from with the site that recorded each edge.
  // `path` holds [from, intermediates..., to], so iterating it in reverse
  // walks to -> ... -> from and already closes the cycle back at `from`.
  std::vector<int> path;
  for (int node = from; node != to; node = parent[static_cast<std::size_t>(node)]) {
    path.push_back(node);
  }
  path.push_back(to);
  std::ostringstream out;
  out << "potential deadlock (lock-order cycle): " << names_[static_cast<std::size_t>(from)];
  for (auto it = path.rbegin(); it != path.rend(); ++it) {
    out << " -> " << names_[static_cast<std::size_t>(*it)];
  }
  auto site_of = [this](int a, int b) -> std::string {
    for (const EdgeInfo& edge : edges_) {
      if (edge.from == a && edge.to == b) return edge.site;
    }
    return "?";
  };
  int previous = from;
  for (auto it = path.rbegin(); it != path.rend(); ++it) {
    out << "; " << names_[static_cast<std::size_t>(previous)] << " -> "
        << names_[static_cast<std::size_t>(*it)] << " at "
        << site_of(previous, *it);
    previous = *it;
  }
  cycles_.push_back(out.str());
}

std::size_t LockRegistry::edge_count() const {
  const std::scoped_lock lock(mutex_);
  return edges_.size();
}

std::vector<std::string> LockRegistry::cycles() const {
  const std::scoped_lock lock(mutex_);
  return cycles_;
}

std::string LockRegistry::name_of(int node) const {
  const std::scoped_lock lock(mutex_);
  if (node < 0 || static_cast<std::size_t>(node) >= names_.size()) return "?";
  return names_[static_cast<std::size_t>(node)];
}

std::string LockRegistry::report() const {
  const std::scoped_lock lock(mutex_);
  std::ostringstream out;
  out << "lock registry: " << names_.size() << " lock classes, "
      << edges_.size() << " order edges, " << cycles_.size() << " cycles\n";
  for (const EdgeInfo& edge : edges_) {
    out << "  " << names_[static_cast<std::size_t>(edge.from)] << " -> "
        << names_[static_cast<std::size_t>(edge.to)] << " at " << edge.site
        << "\n";
  }
  for (const std::string& cycle : cycles_) out << "  " << cycle << "\n";
  return out.str();
}

}  // namespace lsdf::chk
