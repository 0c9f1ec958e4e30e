/**
 * @file
 * Routing-epoch tests (net/reroute.hpp).
 *
 * Two suites:
 *
 *  - RerouteOracle walks every (src, dst) pair against a BFS oracle for
 *    every single-trunk-failure epoch: the detour must avoid the dead
 *    trunk, be exactly as long as the shortest surviving path, and the
 *    recovery epoch must restore the baseline routes bit-for-bit.
 *
 *  - RerouteDeterminism runs random traffic across a mid-run outage on
 *    each multi-path fabric and checks the determinism contract holds
 *    under rerouting: same seed => same trace hash, and every packet is
 *    accounted for (delivered or visibly failed — conservation).
 */

#include <gtest/gtest.h>

#include <deque>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "net/network.hpp"
#include "net/reroute.hpp"
#include "sim/random.hpp"
#include "sim/system.hpp"
#include "topology_print.hpp"

namespace tg::net {
namespace {

TopologySpec
torus(std::size_t x, std::size_t y, std::size_t nps)
{
    TopologySpec s;
    s.kind = TopologyKind::Torus2D;
    s.torusX = x;
    s.torusY = y;
    s.nodesPerSwitch = nps;
    s.nodes = x * y * nps;
    return s;
}

TopologySpec
torus3d(std::size_t x, std::size_t y, std::size_t z, std::size_t nps)
{
    TopologySpec s;
    s.kind = TopologyKind::Torus3D;
    s.torusX = x;
    s.torusY = y;
    s.torusZ = z;
    s.nodesPerSwitch = nps;
    s.nodes = x * y * z * nps;
    return s;
}

TopologySpec
fatTree(std::size_t nodes, std::size_t nps, std::size_t spines)
{
    TopologySpec s;
    s.kind = TopologyKind::FatTree;
    s.nodes = nodes;
    s.nodesPerSwitch = nps;
    s.spines = spines;
    return s;
}

/** (switch, out port) -> neighbour switch, from the trunk table. */
using TrunkMap = std::map<std::pair<std::size_t, std::size_t>, std::size_t>;

TrunkMap
trunkMap(const TopologySpec &spec)
{
    TrunkMap next;
    for (const auto &t : spec.model().trunks(spec)) {
        next[{t.swA, t.portA}] = t.swB;
        next[{t.swB, t.portB}] = t.swA;
    }
    return next;
}

/** Switch-to-switch shortest paths over the trunk graph with undirected
 *  trunk @p skip removed (SIZE_MAX = keep every trunk). */
std::vector<std::vector<std::size_t>>
bfsDistances(const TopologySpec &spec, std::size_t skip = SIZE_MAX)
{
    const std::size_t nsw = spec.numSwitches();
    const auto trunks = spec.model().trunks(spec);
    std::vector<std::vector<std::size_t>> adj(nsw);
    for (std::size_t i = 0; i < trunks.size(); ++i) {
        if (i == skip)
            continue;
        adj[trunks[i].swA].push_back(trunks[i].swB);
        adj[trunks[i].swB].push_back(trunks[i].swA);
    }
    constexpr std::size_t kInf = std::size_t(-1);
    std::vector<std::vector<std::size_t>> dist(
        nsw, std::vector<std::size_t>(nsw, kInf));
    for (std::size_t s = 0; s < nsw; ++s) {
        dist[s][s] = 0;
        std::deque<std::size_t> q{s};
        while (!q.empty()) {
            const std::size_t u = q.front();
            q.pop_front();
            for (std::size_t v : adj[u]) {
                if (dist[s][v] == kInf) {
                    dist[s][v] = dist[s][u] + 1;
                    q.push_back(v);
                }
            }
        }
    }
    return dist;
}

// ---------------------------------------------------------------------
// Oracle: every single-trunk-failure epoch routes every pair on a
// shortest surviving path, and recovery restores the baseline
// ---------------------------------------------------------------------

/** Standalone fabric: real switches + rerouter, no channels or traffic.
 *  Trunk channel names copy the Network's naming contract, so the
 *  downTrunk() patterns select the same outage schedule a full Network
 *  would see. */
struct Fabric
{
    Fabric(System &sys, const TopologySpec &s) : spec(s)
    {
        const TopologyModel &model = spec.model();
        for (std::size_t i = 0; i < spec.numSwitches(); ++i)
            switches.push_back(std::make_unique<Switch>(
                sys, "net.sw" + std::to_string(i), spec.portsOf(i)));

        // Baseline routes, exactly as Network::buildRoutes installs them.
        if (!model.srcDependentRouting()) {
            for (std::size_t sw = 0; sw < switches.size(); ++sw)
                for (std::size_t n = 0; n < spec.nodes; ++n)
                    switches[sw]->setRoute(
                        NodeId(n),
                        model.routePort(spec, sw, /*src=*/0, NodeId(n)));
        }

        std::vector<FabricRerouter::TrunkRef> refs;
        for (const TopologyModel::Trunk &t : model.trunks(spec)) {
            refs.push_back(FabricRerouter::TrunkRef{
                t,
                "net.trunk" + std::to_string(t.swA) + "to" +
                    std::to_string(t.swB),
                "net.trunk" + std::to_string(t.swB) + "to" +
                    std::to_string(t.swA)});
        }
        std::vector<Switch *> raw;
        for (auto &sw : switches)
            raw.push_back(sw.get());
        rerouter = std::make_unique<FabricRerouter>(
            sys, "net.reroute", spec, std::move(raw), refs);
    }

    /** Current output port for src->dst at switch @p sw, through
     *  whichever mechanism the fabric routes by. */
    std::size_t routeAt(std::size_t sw, std::size_t src,
                        std::size_t dst) const
    {
        if (spec.model().srcDependentRouting())
            return spec.model().routePortAvoiding(
                spec, sw, NodeId(src), NodeId(dst), *rerouter);
        return switches[sw]->route(NodeId(dst));
    }

    TopologySpec spec;
    std::vector<std::unique_ptr<Switch>> switches;
    std::unique_ptr<FabricRerouter> rerouter;
};

/** Walk src->dst through the fabric's current routing state; returns
 *  traversed switch count, or 0 if the walk got lost, looped, or
 *  crossed a trunk the current epoch declares dead. */
std::size_t
walkCurrent(const Fabric &f, const TrunkMap &next, std::size_t src,
            std::size_t dst)
{
    const TopologySpec &spec = f.spec;
    std::size_t sw = spec.switchOf(src);
    const std::size_t limit = 2 * spec.numSwitches() + 2;
    for (std::size_t steps = 1; steps <= limit; ++steps) {
        const std::size_t out = f.routeAt(sw, src, dst);
        if (sw == spec.switchOf(dst) && out == spec.portOf(dst))
            return steps;
        if (f.rerouter->trunkDead(sw, out))
            return 0; // routed into a trunk this epoch knows is dead
        auto it = next.find({sw, out});
        if (it == next.end())
            return 0;
        sw = it->second;
    }
    return 0;
}

class RerouteOracle : public ::testing::TestWithParam<TopologySpec>
{
};

TEST_P(RerouteOracle, EverySingleTrunkFailureRoutesAroundAndRecovers)
{
    const TopologySpec spec = GetParam();
    ASSERT_TRUE(spec.validate().ok());
    const auto trunks = spec.model().trunks(spec);
    const TrunkMap next = trunkMap(spec);
    const auto baseline = bfsDistances(spec);

    // One non-overlapping window per trunk: trunk i is fabric-dead in
    // [from_i + deadline + 1, until_i).
    constexpr Tick kDeadline = 100;
    constexpr Tick kPeriod = 100'000;
    constexpr Tick kHold = 50'000;
    Config cfg;
    cfg.fault.linkDownDeadline = kDeadline;
    for (std::size_t i = 0; i < trunks.size(); ++i)
        cfg.fault.downTrunk(trunks[i].swA, trunks[i].swB,
                            Tick(1'000 + i * kPeriod),
                            Tick(1'000 + i * kPeriod + kHold));

    System sys{cfg};
    Fabric fab(sys, spec);
    // Each trunk contributes one dead epoch and one recovery epoch.
    ASSERT_EQ(fab.rerouter->plannedFlips(), 2 * trunks.size());

    auto check_all_pairs = [&](const std::vector<std::vector<std::size_t>>
                                   &dist,
                               const char *what, std::size_t trunk) {
        for (std::size_t src = 0; src < spec.nodes; ++src) {
            for (std::size_t dst = 0; dst < spec.nodes; ++dst) {
                if (src == dst)
                    continue;
                const std::size_t want =
                    dist[spec.switchOf(src)][spec.switchOf(dst)] + 1;
                ASSERT_EQ(walkCurrent(fab, next, src, dst), want)
                    << spec.describe() << " trunk " << trunk << " ("
                    << what << ") " << src << "->" << dst;
            }
        }
    };

    for (std::size_t i = 0; i < trunks.size(); ++i) {
        const Tick from = Tick(1'000 + i * kPeriod);
        sys.events().runUntil(from + kDeadline + 1);
        ASSERT_EQ(fab.rerouter->deadTrunksNow(), 2u) << "trunk " << i;
        check_all_pairs(bfsDistances(spec, i), "down", i);

        sys.events().runUntil(from + kHold);
        ASSERT_EQ(fab.rerouter->deadTrunksNow(), 0u) << "trunk " << i;
        check_all_pairs(baseline, "recovered", i);
    }
    EXPECT_EQ(fab.rerouter->flipsApplied(), 2 * trunks.size());
}

INSTANTIATE_TEST_SUITE_P(
    MultiPathFabrics, RerouteOracle,
    ::testing::Values(torus(4, 4, 2), torus(3, 5, 2),
                      torus3d(3, 3, 3, 2), fatTree(16, 4, 4),
                      fatTree(32, 4, 2)),
    [](const ::testing::TestParamInfo<TopologySpec> &info) {
        std::string name = info.param.model().name();
        name[0] = char(std::toupper(name[0]));
        return name + std::to_string(info.param.nodes) + "x" +
               std::to_string(info.param.numSwitches());
    });

// ---------------------------------------------------------------------
// Determinism + conservation under a mid-run outage with live traffic
// ---------------------------------------------------------------------

class StubEndpoint : public NodeEndpoint
{
  public:
    explicit StubEndpoint(PacketArena &arena) : _out(arena, 64), _in(arena, 64)
    {
        _in.onData([this] {
            while (!_in.empty()) {
                ++delivered;
                (void)_in.pop();
            }
        });
    }

    BoundedQueue &egress() override { return _out; }
    BoundedQueue &ingress() override { return _in; }

    std::size_t delivered = 0;

  private:
    BoundedQueue _out;
    BoundedQueue _in;
};

struct FaultedRun
{
    std::uint64_t hash = 0;
    std::size_t sent = 0;
    std::size_t delivered = 0;
    std::size_t failed = 0;
    std::uint64_t flips = 0;
};

/** Random traffic across an outage of the fabric's first trunk. */
FaultedRun
runFaulted(const TopologySpec &spec, std::uint64_t seed)
{
    const auto trunk = spec.model().trunks(spec).front();
    Config cfg;
    cfg.seed = seed;
    // Compressed timings so the outage, the fail-fast flush and the
    // recovery all land inside a short traffic run.
    cfg.fault.retryTimeout = 1'000;
    cfg.fault.linkDownDeadline = 2'000;
    cfg.fault.downTrunk(trunk.swA, trunk.swB, 20'000, 1'000'000);

    System sys{cfg};
    Network net(sys, "net", spec);
    FaultedRun r;
    net.setFailureHandler([&r](Packet &&) { ++r.failed; });

    std::vector<std::unique_ptr<StubEndpoint>> eps;
    for (std::size_t n = 0; n < spec.nodes; ++n) {
        eps.push_back(std::make_unique<StubEndpoint>(sys.arena()));
        net.attach(NodeId(n), *eps.back());
    }

    Rng rng(seed);
    for (int round = 0; round < 6; ++round) {
        for (std::size_t s = 0; s < spec.nodes; ++s) {
            NodeId d = NodeId(rng.below(spec.nodes));
            if (d == NodeId(s))
                d = NodeId((d + 1) % spec.nodes);
            if (!eps[s]->egress().full()) {
                Packet p;
                p.src = NodeId(s);
                p.dst = d;
                p.value = Word(round) << 16 | Word(s);
                eps[s]->egress().push(std::move(p));
                ++r.sent;
            }
        }
        sys.events().run(rng.below(256));
    }
    sys.events().run();

    EXPECT_NE(net.rerouter(), nullptr) << spec.describe();
    r.flips = net.reroutesApplied();
    for (auto &ep : eps)
        r.delivered += ep->delivered;
    r.hash = sys.events().trace().value();
    return r;
}

TEST(RerouteDeterminism, FaultedRunsHashIdenticallyAndConserveTraffic)
{
    for (const TopologySpec &spec :
         {torus(4, 4, 4), torus3d(3, 3, 3, 2), fatTree(16, 4, 4)}) {
        for (std::uint64_t seed : {1u, 2u, 3u}) {
            const FaultedRun a = runFaulted(spec, seed);
            const FaultedRun b = runFaulted(spec, seed);
            EXPECT_EQ(a.hash, b.hash)
                << spec.describe() << " seed " << seed;
            EXPECT_EQ(a.delivered, b.delivered)
                << spec.describe() << " seed " << seed;
            EXPECT_EQ(a.failed, b.failed)
                << spec.describe() << " seed " << seed;
            // Conservation: every packet is delivered or visibly failed.
            EXPECT_EQ(a.delivered + a.failed, a.sent)
                << spec.describe() << " seed " << seed;
            EXPECT_GT(a.delivered, 0u) << spec.describe();
            // Down flip + recovery flip both fired.
            EXPECT_EQ(a.flips, 2u) << spec.describe();
        }
    }
}

} // namespace
} // namespace tg::net
