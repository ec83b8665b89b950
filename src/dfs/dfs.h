//! LsdfDfs: a simulated Hadoop-style distributed filesystem — the "110 TB
//! Hadoop filesystem" of the paper's analysis cluster (slide 11).
//!
//! Faithful to HDFS where it matters for the experiments:
//!  * files split into fixed-size blocks, replicated (default 3x);
//!  * rack-aware placement: first replica on the writer's node when it is a
//!    datanode, second on a different rack, third on the second's rack;
//!  * reads choose the closest replica (node-local < rack-local < remote)
//!    and verify it; nothing scans replicas in the background, so a
//!    corrupt replica is found only when a read trips over it;
//!  * a datanode failure or a failed verification loses the replica through
//!    one path (lose_replica), which queues background re-replication;
//!  * block transfers ride the shared network (TransferEngine) and each
//!    datanode's disk channel, so cluster load is visible end to end.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "cache/cached_store.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/units.h"
#include "net/topology.h"
#include "net/transfer_engine.h"
#include "sim/simulator.h"
#include "storage/io_channel.h"

namespace lsdf::dfs {

using DataNodeId = std::uint32_t;
using BlockId = std::uint64_t;

enum class Locality { kNodeLocal, kRackLocal, kRemote };

struct DfsConfig {
  Bytes block_size = 64_MB;
  int replication = 3;
  Bytes datanode_capacity = 2_TB;
  Rate datanode_disk_rate = Rate::megabytes_per_second(200.0);
  Rate per_stream_cap = Rate::megabytes_per_second(120.0);
  // Background re-replication budget per failed-block copy.
  Rate rereplication_cap = Rate::megabytes_per_second(40.0);
  std::uint64_t placement_seed = 42;
  // Client-side block read cache (lsdf::cache). Disabled by default (zero
  // capacity); when sized, repeat reads of hot blocks skip the replica
  // pick, the network leg and the datanode disk entirely. Entries are
  // invalidated when a file is removed, a replica is quarantined as
  // corrupt, or a datanode holding a replica fails.
  cache::CacheConfig block_cache{.name = "dfs-block"};
};

struct BlockInfo {
  BlockId id = 0;
  Bytes size;
  std::vector<DataNodeId> replicas;
};

struct FileInfo {
  std::string path;
  Bytes size;
  std::vector<BlockId> blocks;
};

struct DfsIoResult {
  Status status;
  SimTime started;
  SimTime finished;
  Bytes size;
  Locality locality = Locality::kNodeLocal;
  [[nodiscard]] SimDuration duration() const { return finished - started; }
};

using DfsCallback = std::function<void(const DfsIoResult&)>;

class DfsCluster {
 public:
  DfsCluster(sim::Simulator& simulator, const net::Topology& topology,
             net::TransferEngine& net, DfsConfig config);

  // Register a datanode living on topology node `where` in `rack`.
  DataNodeId add_datanode(net::NodeId where, std::string rack);

  [[nodiscard]] std::size_t datanode_count() const { return nodes_.size(); }
  [[nodiscard]] Bytes capacity() const;
  [[nodiscard]] Bytes used() const;
  [[nodiscard]] net::NodeId datanode_location(DataNodeId id) const {
    return nodes_.at(id).where;
  }
  [[nodiscard]] const std::string& datanode_rack(DataNodeId id) const {
    return nodes_.at(id).rack;
  }

  // Create a file of `size` bytes written from topology node `client`.
  // Completion fires when the last block's last replica is durable, or
  // with UNAVAILABLE, leaving no file, once a block has no replica left
  // when its turn ends (datanode failures, or remove() mid-write).
  void write_file(const std::string& path, Bytes size, net::NodeId client,
                  DfsCallback done);

  [[nodiscard]] Result<FileInfo> stat(const std::string& path) const;
  [[nodiscard]] Result<BlockInfo> block(BlockId id) const;
  [[nodiscard]] Status remove(const std::string& path);
  [[nodiscard]] std::vector<std::string> list() const;

  // Read one block from `reader`; the namenode picks the closest replica.
  // Every replica read verifies the block's CRC (as HDFS does): a corrupt
  // replica is dropped, re-replication is queued, and the read
  // transparently retries from another replica. DATA_LOSS when every
  // replica is corrupt. With a sized block cache, cached blocks are served
  // at cache speed (they were verified on the way in) and report
  // node-local locality.
  void read_block(BlockId id, net::NodeId reader, DfsCallback done);

  // The block read cache, or nullptr when config.block_cache is unsized.
  // Exposed non-const so fault plans can register it for invalidation.
  [[nodiscard]] cache::CachedStore* block_cache() {
    return block_cache_.get();
  }
  [[nodiscard]] const cache::CachedStore* block_cache() const {
    return block_cache_.get();
  }

  // Failure injection: silently corrupt one replica's on-disk data.
  [[nodiscard]] Status corrupt_replica(BlockId id, DataNodeId node);
  [[nodiscard]] std::int64_t checksum_failures_detected() const {
    return checksum_failures_;
  }

  // Locality of a block relative to a prospective reader datanode.
  [[nodiscard]] Locality block_locality(BlockId id, DataNodeId reader) const;
  // Replicas of `id` visible to the scheduler.
  [[nodiscard]] std::vector<DataNodeId> block_replicas(BlockId id) const;

  // Fail/recover a datanode. Failure marks its replicas lost and queues
  // re-replication of every under-replicated block.
  [[nodiscard]] Status fail_datanode(DataNodeId id);
  [[nodiscard]] Status recover_datanode(DataNodeId id);
  [[nodiscard]] bool datanode_alive(DataNodeId id) const {
    return nodes_.at(id).alive;
  }

  [[nodiscard]] std::size_t under_replicated_blocks() const;
  [[nodiscard]] std::int64_t rereplications_completed() const {
    return rereplications_;
  }

  // Storage imbalance: (max - min) datanode fill fraction.
  [[nodiscard]] double imbalance() const;

  // Background balancer (the HDFS balancer): moves block replicas from the
  // fullest to the emptiest in-service datanodes, one rate-capped copy at a
  // time, until the fill spread drops below `target_imbalance` or no block
  // on the fullest is smaller than its lead over the emptiest (no move
  // could narrow the spread). `done` reports how many replicas were moved.
  void rebalance(double target_imbalance, std::function<void(int)> done);

  // Graceful decommission: stop placing new data on the node, re-home all
  // of its replicas, then take it out of service. Unlike fail_datanode,
  // no redundancy is ever lost, also when other datanodes fail during the
  // drain: re-replication never targets a draining node, and a move whose
  // target fails mid-copy is not recorded. `done` fires when the node is
  // drained, or when no datanode can take its next replica (it then stays
  // draining).
  [[nodiscard]] Status decommission_datanode(DataNodeId id,
                                             std::function<void()> done);
  [[nodiscard]] bool datanode_draining(DataNodeId id) const {
    return nodes_.at(id).draining;
  }

 private:
  struct DataNode {
    net::NodeId where = 0;
    std::string rack;
    Bytes used;
    bool alive = true;
    bool draining = false;
    // Bumped each time the node leaves service (failure or the end of a
    // decommission), so a copy can tell its target went away mid-flight
    // even if it has since rejoined.
    std::uint64_t incarnation = 0;
    std::unique_ptr<storage::FairChannel> disk;
    [[nodiscard]] bool in_service() const { return alive && !draining; }
  };

  [[nodiscard]] std::vector<DataNodeId> choose_replicas(net::NodeId client,
                                                        Bytes block_size);
  void read_attempt(BlockId id, net::NodeId reader,
                    std::vector<DataNodeId> excluded, SimTime started,
                    DfsCallback done);
  [[nodiscard]] std::optional<DataNodeId> datanode_at(net::NodeId where) const;
  [[nodiscard]] Locality locality_between(DataNodeId a, DataNodeId b) const;
  void write_block(BlockId id, net::NodeId client, DfsCallback done);

  // The three replica decisions; every placement, copy and loss goes
  // through them.
  //
  // The one placement rule: node `id` is in service, has room for `size`
  // more bytes and is not one of `holders`.
  [[nodiscard]] bool can_host(DataNodeId id, Bytes size,
                              const std::vector<DataNodeId>& holders) const;
  // Copy `id`'s replica from `source` to `target` at the background rate
  // cap, reserving the target's space up front. The copy lands only if the
  // block still exists, the target has not failed or been decommissioned
  // since the copy started, and it holds no replica yet; otherwise the
  // reservation is returned and `done(false)` fires. A landed copy with
  // `drop_source` replaces the source replica (a move) and clears the
  // source's corruption mark. A copy from a source marked corrupt when it
  // started lands marked corrupt. Returns false, without calling `done`,
  // when the copy cannot start.
  [[nodiscard]] bool copy_replica(BlockId id, DataNodeId source,
                                  DataNodeId target, bool drop_source,
                                  std::function<void(bool)> done);
  // A replica is gone (its node failed, or it failed verification): erase
  // it, release a live node's bytes, clear its corruption mark, drop the
  // cached block and queue re-replication.
  void lose_replica(BlockId id, DataNodeId node);
  void schedule_rereplication(BlockId id);
  void balance_step(double target_imbalance,
                    std::shared_ptr<int> moves,
                    std::shared_ptr<std::function<void(int)>> done);
  void drain_step(DataNodeId id,
                  std::shared_ptr<std::function<void()>> done);

  void drop_cached_block(BlockId id);

  sim::Simulator& simulator_;
  const net::Topology& topology_;
  net::TransferEngine& net_;
  DfsConfig config_;
  std::unique_ptr<cache::CachedStore> block_cache_;
  Rng rng_;
  std::vector<DataNode> nodes_;
  std::map<net::NodeId, DataNodeId> by_location_;
  std::map<std::string, FileInfo> files_;
  std::map<BlockId, BlockInfo> blocks_;
  BlockId next_block_id_ = 1;
  std::int64_t rereplications_ = 0;
  std::int64_t checksum_failures_ = 0;
  std::set<std::pair<BlockId, DataNodeId>> corrupted_;
};

}  // namespace lsdf::dfs
