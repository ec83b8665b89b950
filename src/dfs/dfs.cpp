#include "dfs/dfs.h"

#include <algorithm>
#include <memory>

#include "obs/trace.h"

namespace lsdf::dfs {

DfsCluster::DfsCluster(sim::Simulator& simulator,
                       const net::Topology& topology,
                       net::TransferEngine& net, DfsConfig config)
    : simulator_(simulator),
      topology_(topology),
      net_(net),
      config_(config),
      rng_(config.placement_seed) {
  LSDF_REQUIRE(config_.block_size > Bytes::zero(),
               "block size must be positive");
  LSDF_REQUIRE(config_.replication >= 1, "replication must be >= 1");
  if (config_.block_cache.capacity > Bytes::zero()) {
    block_cache_ =
        std::make_unique<cache::CachedStore>(simulator_, config_.block_cache);
  }
}

namespace {
std::string block_key(BlockId id) { return std::to_string(id); }

bool holds(const std::vector<DataNodeId>& replicas, DataNodeId node) {
  return std::find(replicas.begin(), replicas.end(), node) != replicas.end();
}

const char* locality_name(Locality locality) {
  switch (locality) {
    case Locality::kNodeLocal: return "node-local";
    case Locality::kRackLocal: return "rack-local";
    default: return "remote";
  }
}
}  // namespace

void DfsCluster::drop_cached_block(BlockId id) {
  if (block_cache_) block_cache_->cache().erase(block_key(id));
}

DataNodeId DfsCluster::add_datanode(net::NodeId where, std::string rack) {
  LSDF_REQUIRE(!by_location_.contains(where),
               "topology node already hosts a datanode");
  const auto id = static_cast<DataNodeId>(nodes_.size());
  DataNode node;
  node.where = where;
  node.rack = std::move(rack);
  node.disk = std::make_unique<storage::FairChannel>(
      simulator_, config_.datanode_disk_rate, config_.per_stream_cap);
  nodes_.push_back(std::move(node));
  by_location_.emplace(where, id);
  return id;
}

Bytes DfsCluster::capacity() const {
  Bytes total;
  for (const DataNode& node : nodes_) {
    if (node.alive) total += config_.datanode_capacity;
  }
  return total;
}

Bytes DfsCluster::used() const {
  Bytes total;
  for (const DataNode& node : nodes_) total += node.used;
  return total;
}

std::optional<DataNodeId> DfsCluster::datanode_at(net::NodeId where) const {
  const auto it = by_location_.find(where);
  if (it == by_location_.end()) return std::nullopt;
  return it->second;
}

bool DfsCluster::can_host(DataNodeId id, Bytes size,
                          const std::vector<DataNodeId>& holders) const {
  return nodes_[id].in_service() &&
         nodes_[id].used + size <= config_.datanode_capacity &&
         !holds(holders, id);
}

std::vector<DataNodeId> DfsCluster::choose_replicas(net::NodeId client,
                                                    Bytes block_size) {
  const int want = std::min<int>(config_.replication,
                                 static_cast<int>(nodes_.size()));
  std::vector<DataNodeId> chosen;

  auto usable = [&](DataNodeId id) {
    return can_host(id, block_size, chosen);
  };
  auto pick = [&](auto&& extra) -> std::optional<DataNodeId> {
    std::vector<DataNodeId> candidates;
    for (DataNodeId id = 0; id < nodes_.size(); ++id) {
      if (usable(id) && extra(id)) candidates.push_back(id);
    }
    if (candidates.empty()) return std::nullopt;
    return candidates[rng_.index(candidates.size())];
  };
  auto any = [](DataNodeId) { return true; };

  // First replica: the writer's own datanode when possible.
  if (const auto local = datanode_at(client); local && usable(*local)) {
    chosen.push_back(*local);
  } else if (const auto node = pick(any)) {
    chosen.push_back(*node);
  } else {
    return chosen;
  }

  // Second replica: a different rack than the first.
  if (want >= 2) {
    const std::string& first_rack = nodes_[chosen[0]].rack;
    auto off_rack = [&](DataNodeId id) {
      return nodes_[id].rack != first_rack;
    };
    if (const auto node = pick(off_rack)) {
      chosen.push_back(*node);
    } else if (const auto fallback = pick(any)) {
      chosen.push_back(*fallback);
    }
  }

  // Third replica: same rack as the second, different node.
  if (want >= 3 && chosen.size() >= 2) {
    const std::string& second_rack = nodes_[chosen[1]].rack;
    auto same_rack = [&](DataNodeId id) {
      return nodes_[id].rack == second_rack;
    };
    if (const auto node = pick(same_rack)) {
      chosen.push_back(*node);
    } else if (const auto fallback = pick(any)) {
      chosen.push_back(*fallback);
    }
  }

  // Any further replicas: random.
  while (static_cast<int>(chosen.size()) < want) {
    const auto node = pick(any);
    if (!node) break;
    chosen.push_back(*node);
  }
  return chosen;
}

void DfsCluster::write_file(const std::string& path, Bytes size,
                            net::NodeId client, DfsCallback done) {
  const SimTime started = simulator_.now();
  auto fail = [&](Status status) {
    simulator_.schedule_after(
        SimDuration::zero(),
        [this, status = std::move(status), started, size,
         done = std::move(done)] {
          if (done) {
            done(DfsIoResult{status, started, simulator_.now(), size});
          }
        });
  };
  if (files_.contains(path)) {
    fail(already_exists(path));
    return;
  }
  if (nodes_.empty()) {
    fail(failed_precondition("no datanodes"));
    return;
  }
  if (size <= Bytes::zero()) {
    fail(invalid_argument("file size must be positive"));
    return;
  }

  // Cut into blocks and place each one now (the namenode allocates block
  // ids and replica sets up front; data then streams block by block).
  FileInfo info;
  info.path = path;
  info.size = size;
  Bytes remaining = size;
  while (remaining > Bytes::zero()) {
    const Bytes this_block = std::min(remaining, config_.block_size);
    remaining -= this_block;
    const std::vector<DataNodeId> replicas =
        choose_replicas(client, this_block);
    if (replicas.empty()) {
      // Roll back already-placed blocks of this file.
      for (const BlockId placed : info.blocks) {
        for (const DataNodeId node : blocks_[placed].replicas) {
          nodes_[node].used -= blocks_[placed].size;
        }
        blocks_.erase(placed);
      }
      fail(resource_exhausted("no datanode can hold a block of " + path));
      return;
    }
    const BlockId id = next_block_id_++;
    for (const DataNodeId node : replicas) nodes_[node].used += this_block;
    blocks_.emplace(id, BlockInfo{id, this_block, replicas});
    info.blocks.push_back(id);
  }
  files_.emplace(path, info);

  // Stream the blocks sequentially, as an HDFS client does. A block that
  // fails ends the write there, and the file goes with it.
  auto writer = std::make_shared<std::function<void(std::size_t, Status)>>();
  auto blocks = std::make_shared<std::vector<BlockId>>(info.blocks);
  *writer = [this, writer, blocks, path, client, started, size,
             done = std::move(done)](std::size_t index, Status status) {
    if (status.is_ok() && index < blocks->size()) {
      write_block((*blocks)[index], client,
                  [writer, index](const DfsIoResult& result) {
                    (*writer)(index + 1, result.status);
                  });
      return;
    }
    if (!status.is_ok()) (void)remove(path);
    if (done) {
      done(DfsIoResult{std::move(status), started, simulator_.now(), size});
    }
    // Break the writer's self-reference cycle once the event completes
    // (not from inside the functor being destroyed).
    simulator_.schedule_after(SimDuration::zero(),
                              [writer] { *writer = nullptr; });
  };
  (*writer)(0, Status::ok());
}

void DfsCluster::write_block(BlockId id, net::NodeId client,
                             DfsCallback done) {
  const BlockInfo& info = blocks_.at(id);
  const SimTime started = simulator_.now();

  // Pipeline model: the client→first-replica hop, the inter-replica hops
  // and every replica's disk write all proceed concurrently; the block is
  // durable when the slowest leg finishes.
  auto pending = std::make_shared<int>(0);
  auto state = std::make_shared<std::pair<DfsCallback, SimTime>>(
      std::move(done), started);
  auto leg_done = [this, id, pending, state, size = info.size] {
    if (--*pending != 0 || !state->first) return;
    // A datanode that failed mid-write took its replica along, and a
    // remove() mid-write took the block: either way it is not durable.
    const auto it = blocks_.find(id);
    Status status = it != blocks_.end() && !it->second.replicas.empty()
                        ? Status::ok()
                        : unavailable("block #" + std::to_string(id) +
                                      " has no replica left");
    state->first(DfsIoResult{std::move(status), state->second,
                             simulator_.now(), size});
  };

  net::NodeId previous = client;
  for (const DataNodeId replica : info.replicas) {
    const net::NodeId where = nodes_[replica].where;
    if (where != previous) {
      ++*pending;
      const auto route = net_.start_transfer(
          previous, where, info.size, net::TransferOptions{},
          [leg_done](const net::TransferCompletion&) { leg_done(); });
      LSDF_REQUIRE(route.is_ok(), "no route in cluster fabric");
    }
    ++*pending;
    nodes_[replica].disk->submit(info.size, leg_done);
    previous = where;
  }
  if (*pending == 0) {
    // Every replica was lost before the block's turn (each one adds a disk
    // leg): with no leg to wait for, leg_done reports the loss from an
    // event of its own.
    simulator_.schedule_after(SimDuration::zero(), [leg_done, pending] {
      ++*pending;
      leg_done();
    });
  }
}

Result<FileInfo> DfsCluster::stat(const std::string& path) const {
  const auto it = files_.find(path);
  if (it == files_.end()) return not_found(path);
  return it->second;
}

Result<BlockInfo> DfsCluster::block(BlockId id) const {
  const auto it = blocks_.find(id);
  if (it == blocks_.end()) return not_found("block #" + std::to_string(id));
  return it->second;
}

Status DfsCluster::remove(const std::string& path) {
  const auto it = files_.find(path);
  if (it == files_.end()) return not_found(path);
  for (const BlockId id : it->second.blocks) {
    const BlockInfo& info = blocks_.at(id);
    for (const DataNodeId replica : info.replicas) {
      nodes_[replica].used -= info.size;
    }
    drop_cached_block(id);
    blocks_.erase(id);
  }
  files_.erase(it);
  return Status::ok();
}

std::vector<std::string> DfsCluster::list() const {
  std::vector<std::string> paths;
  paths.reserve(files_.size());
  for (const auto& [path, info] : files_) paths.push_back(path);
  return paths;
}

Locality DfsCluster::locality_between(DataNodeId a, DataNodeId b) const {
  if (a == b) return Locality::kNodeLocal;
  if (nodes_[a].rack == nodes_[b].rack) return Locality::kRackLocal;
  return Locality::kRemote;
}

Locality DfsCluster::block_locality(BlockId id, DataNodeId reader) const {
  const auto it = blocks_.find(id);
  LSDF_REQUIRE(it != blocks_.end(), "unknown block");
  Locality best = Locality::kRemote;
  for (const DataNodeId replica : it->second.replicas) {
    const Locality loc = locality_between(replica, reader);
    if (loc < best) best = loc;
  }
  return best;
}

std::vector<DataNodeId> DfsCluster::block_replicas(BlockId id) const {
  const auto it = blocks_.find(id);
  if (it == blocks_.end()) return {};
  return it->second.replicas;
}

void DfsCluster::read_block(BlockId id, net::NodeId reader,
                            DfsCallback done) {
  // Per-block-read latency + span, recorded when the read completes (cache
  // hit or replica path alike). The handle resolves once per process.
  static obs::HdrHistogram& read_latency =
      obs::MetricsRegistry::global().hdr_histogram(
          "lsdf_dfs_block_read_seconds");
  done = [this, id, started = simulator_.now(),
          done = std::move(done)](const DfsIoResult& result) {
    read_latency.record((simulator_.now() - started).seconds());
    obs::Tracer& tracer = obs::Tracer::global();
    if (tracer.enabled() && tracer.sim_clocked()) {
      tracer.emit_complete("dfs.read_block", "dfs", started.nanos() / 1000,
                           (simulator_.now() - started).nanos() / 1000,
                           {{"block", std::to_string(id)},
                            {"locality", locality_name(result.locality)}});
    }
    if (done) done(result);
  };
  if (!block_cache_) {
    read_attempt(id, reader, {}, simulator_.now(), std::move(done));
    return;
  }
  // The cache speaks storage::IoResult; the block's locality travels through
  // a side channel filled in by the miss path. Hits never reach a replica,
  // so they report node-local.
  auto locality = std::make_shared<Locality>(Locality::kNodeLocal);
  block_cache_->read(
      block_key(id),
      [this, id, reader, locality](const std::string&,
                                   storage::IoCallback fill) {
        read_attempt(id, reader, {}, simulator_.now(),
                     [locality, fill = std::move(fill)](
                         const DfsIoResult& result) {
                       *locality = result.locality;
                       if (fill) {
                         fill(storage::IoResult{result.status, result.started,
                                                result.finished, result.size});
                       }
                     });
      },
      [locality, done = std::move(done)](const storage::IoResult& result) {
        if (done) {
          done(DfsIoResult{result.status, result.started, result.finished,
                           result.size, *locality});
        }
      });
}

Status DfsCluster::corrupt_replica(BlockId id, DataNodeId node) {
  const auto it = blocks_.find(id);
  if (it == blocks_.end()) return not_found("block #" + std::to_string(id));
  if (!holds(it->second.replicas, node)) {
    return not_found("no replica of the block on that datanode");
  }
  corrupted_.emplace(id, node);
  return Status::ok();
}

void DfsCluster::read_attempt(BlockId id, net::NodeId reader,
                              std::vector<DataNodeId> excluded,
                              SimTime started, DfsCallback done) {
  auto fail = [&](Status status) {
    simulator_.schedule_after(
        SimDuration::zero(),
        [this, status = std::move(status), started,
         done = std::move(done)] {
          if (done) {
            done(DfsIoResult{status, started, simulator_.now(),
                             Bytes::zero()});
          }
        });
  };
  const auto it = blocks_.find(id);
  if (it == blocks_.end()) {
    fail(not_found("block #" + std::to_string(id)));
    return;
  }

  // Choose the closest live, not-yet-tried replica.
  const auto reader_dn = datanode_at(reader);
  const DataNodeId* best = nullptr;
  Locality best_locality = Locality::kRemote;
  for (const DataNodeId& replica : it->second.replicas) {
    if (!nodes_[replica].alive) continue;
    if (std::find(excluded.begin(), excluded.end(), replica) !=
        excluded.end()) {
      continue;
    }
    Locality loc = Locality::kRemote;
    if (reader_dn) {
      loc = locality_between(replica, *reader_dn);
    } else if (nodes_[replica].where == reader) {
      loc = Locality::kNodeLocal;
    }
    if (best == nullptr || loc < best_locality) {
      best = &replica;
      best_locality = loc;
    }
  }
  if (best == nullptr) {
    if (excluded.empty()) {
      fail(unavailable("all replicas of block #" + std::to_string(id) +
                       " are down"));
    } else {
      fail(data_loss("every readable replica of block #" +
                     std::to_string(id) + " failed verification"));
    }
    return;
  }

  const DataNodeId source = *best;
  const Bytes size = it->second.size;
  auto pending = std::make_shared<int>(1);
  auto state = std::make_shared<DfsIoResult>();
  state->status = Status::ok();
  state->started = started;
  state->size = size;
  state->locality = best_locality;
  auto leg_done = [this, id, reader, source, pending, state,
                   excluded = std::move(excluded),
                   done = std::move(done)]() mutable {
    if (--*pending != 0) return;
    // Data fully streamed: verify the checksum, as an HDFS client would.
    if (corrupted_.contains({id, source})) {
      ++checksum_failures_;
      // Quarantine the replica, restore redundancy, try the next one.
      lose_replica(id, source);
      excluded.push_back(source);
      read_attempt(id, reader, std::move(excluded), state->started,
                   std::move(done));
      return;
    }
    if (done) {
      state->finished = simulator_.now();
      done(*state);
    }
  };
  if (nodes_[source].where != reader) {
    ++*pending;
    const auto route = net_.start_transfer(
        nodes_[source].where, reader, size, net::TransferOptions{},
        [leg_done](const net::TransferCompletion&) mutable { leg_done(); });
    LSDF_REQUIRE(route.is_ok(), "no route in cluster fabric");
  }
  nodes_[source].disk->submit(size, leg_done);
}

Status DfsCluster::fail_datanode(DataNodeId id) {
  if (id >= nodes_.size()) return not_found("datanode");
  DataNode& node = nodes_[id];
  if (!node.alive) return failed_precondition("datanode already down");
  node.alive = false;
  node.used = Bytes::zero();
  ++node.incarnation;
  for (const auto& [block_id, info] : blocks_) {
    if (holds(info.replicas, id)) lose_replica(block_id, id);
  }
  return Status::ok();
}

Status DfsCluster::recover_datanode(DataNodeId id) {
  if (id >= nodes_.size()) return not_found("datanode");
  DataNode& node = nodes_[id];
  if (node.alive) return failed_precondition("datanode already up");
  node.alive = true;
  node.used = Bytes::zero();  // rejoins empty; old replicas were dropped
  return Status::ok();
}

void DfsCluster::lose_replica(BlockId id, DataNodeId node) {
  corrupted_.erase({id, node});
  // The cache must not mask redundancy loss, or serve a copy that only a
  // now-discredited replica vouched for: the next read re-verifies.
  drop_cached_block(id);
  const auto it = blocks_.find(id);
  if (it == blocks_.end()) return;
  auto& replicas = it->second.replicas;
  const auto lost = std::find(replicas.begin(), replicas.end(), node);
  if (lost == replicas.end()) return;
  replicas.erase(lost);
  if (nodes_[node].alive) nodes_[node].used -= it->second.size;
  schedule_rereplication(id);
}

void DfsCluster::schedule_rereplication(BlockId id) {
  const auto it = blocks_.find(id);
  if (it == blocks_.end()) return;
  BlockInfo& info = it->second;
  if (info.replicas.empty()) return;  // data lost; nothing to copy from
  if (static_cast<int>(info.replicas.size()) >= config_.replication) return;

  // Pick a live source and a fresh target (prefer a different rack).
  const DataNodeId source = info.replicas[rng_.index(info.replicas.size())];
  std::vector<DataNodeId> candidates;
  for (DataNodeId candidate = 0; candidate < nodes_.size(); ++candidate) {
    if (can_host(candidate, info.size, info.replicas)) {
      candidates.push_back(candidate);
    }
  }
  if (candidates.empty()) return;
  auto off_rack = std::find_if(
      candidates.begin(), candidates.end(), [&](DataNodeId candidate) {
        return nodes_[candidate].rack != nodes_[source].rack;
      });
  const DataNodeId target =
      off_rack != candidates.end() ? *off_rack
                                   : candidates[rng_.index(candidates.size())];
  // Keep going until the block is back at full strength; a copy that did
  // not land is retried on another target. One that cannot start (no
  // route) is not retried: a retry now would find the same route down.
  (void)copy_replica(id, source, target, /*drop_source=*/false,
                     [this, id](bool landed) {
                       if (landed) ++rereplications_;
                       schedule_rereplication(id);
                     });
}

bool DfsCluster::copy_replica(BlockId id, DataNodeId source,
                              DataNodeId target, bool drop_source,
                              std::function<void(bool)> done) {
  const Bytes size = blocks_.at(id).size;
  const std::uint64_t incarnation = nodes_[target].incarnation;
  // The copy carries the source's bytes, a corruption included.
  const bool corrupt = corrupted_.contains({id, source});
  nodes_[target].used += size;
  // Checked after the network leg and again after the disk write. A target
  // that left service meanwhile (even if it has rejoined since) had its
  // byte count cleared, reservation included; any other refusal gives the
  // reservation back.
  auto lands = [this, id, target, size, incarnation] {
    if (nodes_[target].incarnation != incarnation) return false;
    const auto it = blocks_.find(id);
    if (it != blocks_.end() && !holds(it->second.replicas, target)) {
      return true;
    }
    nodes_[target].used -= size;
    return false;
  };
  net::TransferOptions options;
  options.rate_cap = config_.rereplication_cap;
  const auto flow = net_.start_transfer(
      nodes_[source].where, nodes_[target].where, size, options,
      [this, id, source, target, size, drop_source, corrupt, lands,
       done = std::move(done)](const net::TransferCompletion&) {
        if (!lands()) {
          done(false);
          return;
        }
        nodes_[target].disk->submit(size, [this, id, source, target, size,
                                           drop_source, corrupt, lands, done] {
          if (!lands()) {
            done(false);
            return;
          }
          auto& replicas = blocks_.at(id).replicas;
          const auto source_it =
              std::find(replicas.begin(), replicas.end(), source);
          if (drop_source && source_it != replicas.end()) {
            *source_it = target;
            nodes_[source].used -= size;
            corrupted_.erase({id, source});
          } else {  // a copy, or the source replica vanished mid-move
            replicas.push_back(target);
          }
          if (corrupt) corrupted_.emplace(id, target);
          done(true);
        });
      });
  if (!flow.is_ok()) {
    nodes_[target].used -= size;
    return false;
  }
  return true;
}

void DfsCluster::rebalance(double target_imbalance,
                           std::function<void(int)> done) {
  LSDF_REQUIRE(target_imbalance >= 0.0, "negative imbalance target");
  balance_step(target_imbalance, std::make_shared<int>(0),
               std::make_shared<std::function<void(int)>>(std::move(done)));
}

void DfsCluster::balance_step(double target_imbalance,
                              std::shared_ptr<int> moves,
                              std::shared_ptr<std::function<void(int)>> done) {
  auto finish = [&] {
    if (*done) (*done)(*moves);
  };
  if (imbalance() <= target_imbalance) {
    finish();
    return;
  }
  // Pick the fullest and emptiest in-service nodes.
  DataNodeId fullest = 0;
  DataNodeId emptiest = 0;
  bool any = false;
  for (DataNodeId id = 0; id < nodes_.size(); ++id) {
    const DataNode& node = nodes_[id];
    if (!node.in_service()) continue;
    if (!any) {
      fullest = emptiest = id;
      any = true;
      continue;
    }
    if (node.used > nodes_[fullest].used) fullest = id;
    if (node.used < nodes_[emptiest].used) emptiest = id;
  }
  if (!any || fullest == emptiest) {
    finish();
    return;
  }
  // Move a block on `fullest` that `emptiest` can take, and only one
  // smaller than the gap between them: a larger block would just swap
  // which of the two is fuller, and the spread would never narrow.
  const Bytes gap = nodes_[fullest].used - nodes_[emptiest].used;
  for (const auto& [block_id, info] : blocks_) {
    if (info.size >= gap || !holds(info.replicas, fullest) ||
        !can_host(emptiest, info.size, info.replicas)) {
      continue;
    }
    if (copy_replica(block_id, fullest, emptiest, /*drop_source=*/true,
                     [this, target_imbalance, moves, done](bool moved) {
                       if (moved) ++*moves;
                       balance_step(target_imbalance, moves, done);
                     })) {
      return;  // continue after the asynchronous move
    }
    break;  // no route to move over
  }
  finish();  // nothing movable, or no move would narrow the spread
}

Status DfsCluster::decommission_datanode(DataNodeId id,
                                         std::function<void()> done) {
  if (id >= nodes_.size()) return not_found("datanode");
  DataNode& node = nodes_[id];
  if (!node.alive) return failed_precondition("datanode is down");
  if (node.draining) return failed_precondition("already draining");
  node.draining = true;
  drain_step(id,
             std::make_shared<std::function<void()>>(std::move(done)));
  return Status::ok();
}

void DfsCluster::drain_step(DataNodeId id,
                            std::shared_ptr<std::function<void()>> done) {
  // Find one replica still on the draining node and move it off.
  for (const auto& [block_id, info] : blocks_) {
    if (!holds(info.replicas, id)) continue;
    std::vector<DataNodeId> candidates;
    for (DataNodeId candidate = 0; candidate < nodes_.size(); ++candidate) {
      if (can_host(candidate, info.size, info.replicas)) {
        candidates.push_back(candidate);
      }
    }
    // Stuck when no node can take it (no room, or no route): leave the node
    // draining; operators add capacity and re-issue the decommission in
    // real deployments.
    if (!candidates.empty() &&
        copy_replica(block_id, id, candidates[rng_.index(candidates.size())],
                     /*drop_source=*/true,
                     [this, id, done](bool) { drain_step(id, done); })) {
      return;
    }
    if (*done) (*done)();
    return;
  }
  // Nothing left: take the node out of service, still fully replicated.
  DataNode& node = nodes_[id];
  node.alive = false;
  node.draining = false;
  node.used = Bytes::zero();
  ++node.incarnation;
  if (*done) (*done)();
}

std::size_t DfsCluster::under_replicated_blocks() const {
  std::size_t count = 0;
  for (const auto& [id, info] : blocks_) {
    const int want =
        std::min<int>(config_.replication, static_cast<int>(nodes_.size()));
    if (static_cast<int>(info.replicas.size()) < want) ++count;
  }
  return count;
}

double DfsCluster::imbalance() const {
  double lo = 1.0;
  double hi = 0.0;
  bool any = false;
  for (const DataNode& node : nodes_) {
    if (!node.alive) continue;
    const double fill =
        node.used.as_double() / config_.datanode_capacity.as_double();
    lo = std::min(lo, fill);
    hi = std::max(hi, fill);
    any = true;
  }
  return any ? hi - lo : 0.0;
}

}  // namespace lsdf::dfs
