/**
 * @file
 * Network-level tests: delivery across star / chain / ring topologies
 * with stub endpoints, hop counting, and per-(src,dst) in-order delivery
 * under random cross traffic (the property test the counter protocol's
 * correctness argument needs, paper section 2.3.1).
 */

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <vector>

#include "net/network.hpp"
#include "sim/random.hpp"
#include "sim/system.hpp"
#include "topology_print.hpp"

namespace tg::net {
namespace {

/** Simple endpoint: an egress queue plus a record of everything received. */
class StubEndpoint : public NodeEndpoint
{
  public:
    explicit StubEndpoint(PacketArena &arena, std::size_t cap = 64)
        : _out(arena, cap), _in(arena, cap)
    {
        _in.onData([this] {
            while (!_in.empty())
                received.push_back(_in.pop());
        });
    }

    BoundedQueue &egress() override { return _out; }
    BoundedQueue &ingress() override { return _in; }

    void
    send(NodeId src, NodeId dst, Word v)
    {
        Packet p;
        p.src = src;
        p.dst = dst;
        p.value = v;
        _out.push(std::move(p));
    }

    std::vector<Packet> received;

  private:
    BoundedQueue _out;
    BoundedQueue _in;
};

struct Harness
{
    explicit Harness(const TopologySpec &spec)
        : sys(Config{}), net(sys, "net", spec)
    {
        for (std::size_t n = 0; n < spec.nodes; ++n) {
            eps.push_back(std::make_unique<StubEndpoint>(sys.arena()));
            net.attach(NodeId(n), *eps.back());
        }
    }

    System sys;
    Network net;
    std::vector<std::unique_ptr<StubEndpoint>> eps;
};

TopologySpec
makeSpec(TopologyKind kind, std::size_t nodes, std::size_t nps = 2)
{
    TopologySpec s;
    s.kind = kind;
    s.nodes = nodes;
    s.nodesPerSwitch = nps;
    return s;
}

TopologySpec
makeTorus(std::size_t x, std::size_t y, std::size_t nps)
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
makeFatTree(std::size_t nodes, std::size_t nps, std::size_t spines)
{
    TopologySpec s;
    s.kind = TopologyKind::FatTree;
    s.nodes = nodes;
    s.nodesPerSwitch = nps;
    s.spines = spines;
    return s;
}

class NetworkTopologies
    : public ::testing::TestWithParam<TopologySpec>
{
};

TEST_P(NetworkTopologies, AllPairsDeliver)
{
    Harness h(GetParam());
    const std::size_t n = h.eps.size();
    for (std::size_t s = 0; s < n; ++s) {
        for (std::size_t d = 0; d < n; ++d) {
            if (s == d)
                continue;
            h.eps[s]->send(NodeId(s), NodeId(d), Word(s * 100 + d));
        }
    }
    h.sys.events().run();

    for (std::size_t d = 0; d < n; ++d) {
        EXPECT_EQ(h.eps[d]->received.size(), n - 1) << "at node " << d;
        for (const auto &p : h.eps[d]->received)
            EXPECT_EQ(p.value, Word(p.src) * 100 + d);
    }
}

TEST_P(NetworkTopologies, InOrderPerSourceUnderRandomTraffic)
{
    Harness h(GetParam());
    const std::size_t n = h.eps.size();
    Rng rng(4242);
    std::map<std::pair<NodeId, NodeId>, Word> seq;

    for (int round = 0; round < 300; ++round) {
        const NodeId s = NodeId(rng.below(n));
        NodeId d = NodeId(rng.below(n));
        if (d == s)
            d = NodeId((d + 1) % n);
        if (!h.eps[s]->egress().full())
            h.eps[s]->send(s, d, seq[{s, d}]++);
        // Let some (random) amount of the network drain.
        h.sys.events().run(rng.below(64));
    }
    h.sys.events().run();

    std::map<std::pair<NodeId, NodeId>, Word> next;
    std::uint64_t total = 0;
    for (std::size_t d = 0; d < n; ++d) {
        for (const auto &p : h.eps[d]->received) {
            const auto key = std::make_pair(p.src, NodeId(d));
            EXPECT_EQ(p.value, next[key])
                << "out of order " << unsigned(p.src) << "->" << d;
            ++next[key];
            ++total;
        }
    }
    std::uint64_t sent = 0;
    for (auto &[k, v] : seq)
        sent += v;
    EXPECT_EQ(total, sent); // nothing lost, nothing duplicated
}

INSTANTIATE_TEST_SUITE_P(
    Topologies, NetworkTopologies,
    ::testing::Values(makeSpec(TopologyKind::Star, 4),
                      makeSpec(TopologyKind::Star, 8),
                      makeSpec(TopologyKind::Chain, 6, 2),
                      makeSpec(TopologyKind::Ring, 6, 2),
                      makeSpec(TopologyKind::Ring, 9, 3),
                      makeTorus(2, 2, 2),
                      makeTorus(3, 4, 2),
                      makeFatTree(8, 2, 2),
                      makeFatTree(12, 4, 3)),
    [](const ::testing::TestParamInfo<TopologySpec> &info) {
        const auto &s = info.param;
        std::string name = s.model().name();
        name[0] = char(std::toupper(name[0]));
        return name + std::to_string(s.nodes);
    });

TEST(Network, HopCounts)
{
    Harness star(makeSpec(TopologyKind::Star, 4));
    EXPECT_EQ(star.net.hops(0, 0), 0u);
    EXPECT_EQ(star.net.hops(0, 3), 1u);

    Harness chain(makeSpec(TopologyKind::Chain, 6, 2));
    EXPECT_EQ(chain.net.hops(0, 1), 1u); // same switch
    EXPECT_EQ(chain.net.hops(0, 5), 3u); // sw0 -> sw1 -> sw2

    Harness ring(makeSpec(TopologyKind::Ring, 6, 2));
    EXPECT_EQ(ring.net.hops(0, 4), 2u); // shortest goes backwards
}

TEST(Network, RingWithTinyBuffersDoesNotDeadlock)
{
    // Regression: without dateline VCs a ring with 2-packet buffers
    // deadlocks on a cyclic buffer dependency under all-to-all traffic.
    Config cfg;
    cfg.switchQueuePackets = 2;
    System sys{cfg};
    TopologySpec spec = makeSpec(TopologyKind::Ring, 8, 2);
    Network net(sys, "net", spec);

    std::vector<std::unique_ptr<StubEndpoint>> eps;
    for (std::size_t n = 0; n < spec.nodes; ++n) {
        eps.push_back(std::make_unique<StubEndpoint>(sys.arena(), 256));
        net.attach(NodeId(n), *eps.back());
    }

    // Saturating all-to-all bursts in both ring directions.
    Rng rng(7);
    std::size_t sent = 0;
    for (int round = 0; round < 40; ++round) {
        for (std::size_t s = 0; s < spec.nodes; ++s) {
            const NodeId d = NodeId((s + 1 + rng.below(spec.nodes - 1)) %
                                    spec.nodes);
            if (!eps[s]->egress().full()) {
                eps[s]->send(NodeId(s), d, Word(round));
                ++sent;
            }
        }
        sys.events().run(rng.below(32));
    }
    sys.events().run();

    std::size_t received = 0;
    for (auto &ep : eps)
        received += ep->received.size();
    EXPECT_EQ(received, sent) << "packets stuck: deadlock";
}

TEST(Network, SwitchForwardedCounts)
{
    Harness h(makeSpec(TopologyKind::Star, 3));
    h.eps[0]->send(0, 1, 1);
    h.eps[0]->send(0, 2, 2);
    h.sys.events().run();
    EXPECT_EQ(h.net.switchForwarded(), 2u);
}

} // namespace
} // namespace tg::net
