// Max-min certificate for TransferEngine's bandwidth allocation.
//
// One engine is driven through a seeded schedule of starts, cancels (also of
// flows long finished), spoke flaps and clock advances. After every step the
// allocated rates are checked against the definition of a weighted max-min
// fair allocation, over the flows with a nonzero rate and at a relative
// tolerance of 1e-9:
//   - no link carries more than its capacity;
//   - no capped flow exceeds its cap;
//   - every flow is at its cap, or crosses a saturated link on which its
//     rate/weight is the largest;
//   - link_load(l) is the sum of the rates of the flows crossing l.
// A rate vector that passes is feasible, and no flow can be raised without
// lowering one that is no better off, so it is the max-min allocation. A
// second run of the same schedule must complete the same flows in the same
// order with the same kernel fingerprint.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "net/topology.h"
#include "net/transfer_engine.h"
#include "sim/simulator.h"

namespace lsdf::net {
namespace {

constexpr double kTolerance = 1e-9;

// Three 6-leaf star clusters hung off a 3-node backbone ring. Transfers
// inside one cluster contend only for their spokes, cross-cluster transfers
// also share a backbone link, and spoke flaps stall the flows of one leaf.
// The backbone never flaps, so a flow's path is always route(src, dst).
struct TestFacility {
  Topology topo;
  std::vector<NodeId> leaves;
  std::vector<LinkId> spokes;  // forward link ids, core->leaf

  TestFacility() {
    std::vector<NodeId> cores;
    for (int c = 0; c < 3; ++c) {
      cores.push_back(topo.add_node("core" + std::to_string(c)));
    }
    for (int c = 0; c < 3; ++c) {
      topo.add_duplex_link(cores[c], cores[(c + 1) % 3],
                           Rate::gigabits_per_second(10.0), 1_ms);
    }
    for (int c = 0; c < 3; ++c) {
      for (int leaf = 0; leaf < 6; ++leaf) {
        const NodeId node = topo.add_node("n" + std::to_string(c) + "_" +
                                          std::to_string(leaf));
        leaves.push_back(node);
        spokes.push_back(topo.add_duplex_link(
            cores[c], node, Rate::gigabits_per_second(1.0), 1_ms));
      }
    }
  }
};

struct TrackedFlow {
  std::vector<LinkId> path;
  double cap_bps = 0.0;  // 0 = uncapped
  double weight = 1.0;
};

::testing::AssertionResult is_max_min_fair(
    const TransferEngine& engine, const Topology& topo,
    const std::map<FlowId, TrackedFlow>& live) {
  std::vector<double> load(topo.link_count(), 0.0);
  std::vector<double> top_unit_rate(topo.link_count(), 0.0);
  for (const auto& [id, flow] : live) {
    const double rate = engine.flow_rate(id).bps();
    if (rate == 0.0) continue;
    if (flow.cap_bps > 0.0 && rate > flow.cap_bps * (1.0 + kTolerance)) {
      return ::testing::AssertionFailure()
             << "flow " << id << " runs at " << rate << " B/s over its cap "
             << flow.cap_bps;
    }
    for (const LinkId link : flow.path) {
      load[link] += rate;
      top_unit_rate[link] = std::max(top_unit_rate[link], rate / flow.weight);
    }
  }
  const auto capacity = [&topo](LinkId link) {
    return topo.link(link).capacity.bps();
  };
  for (LinkId link = 0; link < topo.link_count(); ++link) {
    if (load[link] > capacity(link) * (1.0 + kTolerance)) {
      return ::testing::AssertionFailure()
             << "link " << link << " carries " << load[link]
             << " B/s over its capacity " << capacity(link);
    }
    const double reported = engine.link_load(link).bps();
    if (std::abs(reported - load[link]) > load[link] * kTolerance) {
      return ::testing::AssertionFailure()
             << "link_load(" << link << ") is " << reported
             << " B/s but its flows sum to " << load[link];
    }
  }
  for (const auto& [id, flow] : live) {
    const double rate = engine.flow_rate(id).bps();
    if (rate == 0.0) continue;
    if (flow.cap_bps > 0.0 && rate >= flow.cap_bps * (1.0 - kTolerance)) {
      continue;
    }
    const bool bottlenecked =
        std::any_of(flow.path.begin(), flow.path.end(), [&](LinkId link) {
          return load[link] >= capacity(link) * (1.0 - kTolerance) &&
                 rate / flow.weight >=
                     top_unit_rate[link] * (1.0 - kTolerance);
        });
    if (!bottlenecked) {
      return ::testing::AssertionFailure()
             << "flow " << id << " at " << rate
             << " B/s is below its cap and has no saturated link on which "
                "its rate/weight is the largest";
    }
  }
  return ::testing::AssertionSuccess();
}

struct ScheduleOutcome {
  std::vector<FlowId> completions;
  std::uint64_t fingerprint = 0;
};

void run_schedule(ScheduleOutcome* outcome) {
  TestFacility fac;
  sim::Simulator sim;
  TransferEngine engine(sim, fac.topo);

  std::uint64_t state = 0xC0FFEE123ULL;
  const auto next = [&state] {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return state >> 33;
  };

  std::vector<FlowId> started;              // every id ever issued
  std::map<FlowId, TrackedFlow> live;       // not yet cancelled or completed
  std::vector<FlowId>& done = outcome->completions;
  std::size_t done_seen = 0;                // prefix of done already pruned
  std::vector<LinkId> down;                 // currently-down spokes

  const auto flap = [&](LinkId forward, bool up) {
    fac.topo.set_duplex_up(forward, up);
    engine.resync();
  };

  constexpr int kSteps = 12000;
  for (int step = 0; step < kSteps; ++step) {
    const std::uint64_t op = next() % 100;
    if (op < 40 && engine.active_flows() < 90) {
      const std::size_t src = next() % fac.leaves.size();
      std::size_t dst = next() % fac.leaves.size();
      if (dst == src) dst = (dst + 1) % fac.leaves.size();
      const auto size =
          Bytes(static_cast<std::int64_t>(next() % (24 << 20)) + 1);
      TransferOptions options;
      options.weight = 1.0 + static_cast<double>(next() % 4);
      if (next() % 4 == 0) {
        options.rate_cap =
            Rate::megabytes_per_second(5.0 + static_cast<double>(next() % 60));
      }
      auto path = fac.topo.route(fac.leaves[src], fac.leaves[dst]);
      const auto id = engine.start_transfer(
          fac.leaves[src], fac.leaves[dst], size, options,
          [&done](const TransferCompletion& c) { done.push_back(c.id); });
      ASSERT_EQ(id.is_ok(), path.is_ok());
      if (id.is_ok()) {
        started.push_back(id.value());
        live[id.value()] = TrackedFlow{std::move(path).take(),
                                       options.rate_cap.bps(), options.weight};
      }
    } else if (op < 52 && !started.empty()) {
      // Drawing from every id ever issued also cancels finished flows,
      // which must be a no-op.
      const FlowId id = started[next() % started.size()];
      if (engine.cancel(id)) {
        ASSERT_EQ(live.erase(id), 1u) << "cancelled a finished flow " << id;
      }
    } else if (op < 62) {
      if (!down.empty() && next() % 2 == 0) {
        const std::size_t at = next() % down.size();
        flap(down[at], true);
        down.erase(down.begin() + static_cast<std::ptrdiff_t>(at));
      } else if (down.size() < 4) {
        const LinkId forward = fac.spokes[next() % fac.spokes.size()];
        if (std::find(down.begin(), down.end(), forward) == down.end()) {
          flap(forward, false);
          down.push_back(forward);
        }
      }
    } else {
      const SimDuration dt(static_cast<std::int64_t>(next() % 4'000'000) + 1);
      sim.run_until(sim.now() + dt);
    }

    for (; done_seen < done.size(); ++done_seen) live.erase(done[done_seen]);
    ASSERT_TRUE(is_max_min_fair(engine, fac.topo, live)) << "step " << step;
  }

  // Restore every downed spoke and drain, so stalled flows resume and
  // finish too.
  for (const LinkId forward : down) flap(forward, true);
  sim.run();
  ASSERT_EQ(engine.active_flows(), 0u);
  outcome->fingerprint = sim.fingerprint();
}

TEST(TransferIncremental, MatchesFullReallocationExactly) {
  ScheduleOutcome first;
  ASSERT_NO_FATAL_FAILURE(run_schedule(&first));
  ScheduleOutcome second;
  ASSERT_NO_FATAL_FAILURE(run_schedule(&second));
  EXPECT_FALSE(first.completions.empty());
  EXPECT_EQ(first.completions, second.completions);
  EXPECT_EQ(first.fingerprint, second.fingerprint);
}

}  // namespace
}  // namespace lsdf::net
