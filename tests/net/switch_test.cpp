/**
 * @file
 * Unit tests of the shared-buffer switch: routing, forwarding latency,
 * head-of-line back-pressure, targeted wake-ups of stalled inputs, and
 * per-(src,dst) in-order delivery — the property the coherence protocol
 * relies on (paper section 2.3.1).
 */

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "net/switch.hpp"
#include "sim/random.hpp"
#include "sim/system.hpp"

namespace tg::net {
namespace {

Packet
mkPkt(NodeId src, NodeId dst, Word v)
{
    Packet p;
    p.src = src;
    p.dst = dst;
    p.value = v;
    return p;
}

TEST(Switch, RoutesToConfiguredPort)
{
    System sys{Config{}};
    Switch sw(sys, "sw", 3);
    sw.setRoute(0, 0);
    sw.setRoute(1, 1);
    sw.setRoute(2, 2);

    sw.inQueue(0).push(mkPkt(0, 2, 5));
    sys.events().run();
    ASSERT_EQ(sw.outQueue(2).size(), 1u);
    EXPECT_EQ(sw.outQueue(2).pop().value, 5u);
    EXPECT_EQ(sw.forwarded(), 1u);
}

TEST(Switch, CutThroughLatency)
{
    System sys{Config{}};
    Switch sw(sys, "sw", 2);
    sw.setRoute(1, 1);
    sw.inQueue(0).push(mkPkt(0, 1, 1));
    sys.events().run();
    EXPECT_EQ(sys.now(), sys.config().switchLatency);
}

TEST(Switch, HeadOfLineBlockingOnFullOutput)
{
    Config cfg;
    cfg.switchQueuePackets = 2;
    System sys{cfg};
    Switch sw(sys, "sw", 2);
    sw.setRoute(1, 1);

    // Input capacity is also 2: fill in two rounds.
    sw.inQueue(0).push(mkPkt(0, 1, 0));
    sw.inQueue(0).push(mkPkt(0, 1, 1));
    sys.events().run();
    sw.inQueue(0).push(mkPkt(0, 1, 2));
    sw.inQueue(0).push(mkPkt(0, 1, 3));
    sys.events().run();
    // Output holds 2; the rest wait in the input queue.
    EXPECT_EQ(sw.outQueue(1).size(), 2u);
    EXPECT_EQ(sw.inQueue(0).size(), 2u);

    sw.outQueue(1).pop();
    sys.events().run();
    EXPECT_EQ(sw.outQueue(1).size(), 2u);
    EXPECT_EQ(sw.inQueue(0).size(), 1u);
}

TEST(Switch, PerSourceInOrderDelivery)
{
    System sys{Config{}};
    Switch sw(sys, "sw", 4);
    for (NodeId n = 0; n < 4; ++n)
        sw.setRoute(n, n);

    // Three sources interleave packets to the same destination; each
    // source's sequence must come out in order.
    Rng rng(99);
    std::map<NodeId, Word> next_seq;
    for (int round = 0; round < 50; ++round) {
        for (NodeId src = 0; src < 3; ++src) {
            if (!sw.inQueue(src).full())
                sw.inQueue(src).push(mkPkt(src, 3, next_seq[src]++));
        }
        sys.events().run();
        while (!sw.outQueue(3).empty()) {
            static std::map<NodeId, Word> seen;
            const Packet p = sw.outQueue(3).pop();
            auto it = seen.find(p.src);
            if (it != seen.end()) {
                EXPECT_EQ(p.value, it->second + 1)
                    << "out-of-order from src " << p.src;
            }
            seen[p.src] = p.value;
        }
    }
}

/** Switch whose every packet leaves on VC0 (so inputs on both VCs can
 *  stall on one output), with one-packet buffers. */
struct StallRig
{
    static Config
    cfg()
    {
        Config c;
        c.switchQueuePackets = 1;
        return c;
    }

    System sys{cfg()};
    Switch sw{sys, "sw", 4, 2};

    StallRig()
    {
        for (NodeId n = 0; n < 4; ++n)
            sw.setRoute(n, n);
        sw.setVcMap([](const PacketHot &, std::size_t, std::size_t,
                       std::uint8_t) { return std::uint8_t(0); });
    }

    /** Push a packet for @p dst into input (port, vc), tagged with the
     *  input's index. */
    void
    inject(std::size_t port, std::size_t vc, NodeId dst)
    {
        sw.inQueue(port, vc).push(mkPkt(NodeId(port), dst, port * 2 + vc));
        sys.events().run();
    }

    /** Free one slot of output (port, 0); returns the freed packet's tag. */
    Word
    drain(std::size_t port)
    {
        const Word tag = sw.outQueue(port, 0).pop().value;
        sys.events().run();
        return tag;
    }
};

TEST(Switch, DrainWakesStalledInputsInAscendingIndexOrder)
{
    StallRig r;
    // Fill outputs 3, 2 and 1 (VC0) so later arrivals stall.
    r.inject(0, 0, 3);
    r.inject(0, 0, 2);
    r.inject(3, 0, 1);
    ASSERT_EQ(r.sw.forwarded(), 3u);

    // Four inputs stall on output 3, parked out of index order; one
    // input stalls on output 2.
    r.inject(2, 1, 3);
    r.inject(0, 1, 3);
    r.inject(3, 1, 3);
    r.inject(1, 0, 3);
    r.inject(1, 1, 2);
    EXPECT_EQ(r.sw.forwarded(), 3u);

    // Freeing an output nobody waits on grants nothing.
    EXPECT_EQ(r.drain(1), 3 * 2 + 0u);
    EXPECT_EQ(r.sw.forwarded(), 3u);

    // Output 3 drains one slot at a time; each slot goes to the lowest
    // (port, vc) index still waiting: (0,1), (1,0), (2,1), (3,1).
    EXPECT_EQ(r.drain(3), 0u); // the fill packet from input (0,0)
    EXPECT_EQ(r.sw.forwarded(), 4u);
    EXPECT_EQ(r.drain(3), 0 * 2 + 1u);
    EXPECT_EQ(r.drain(3), 1 * 2 + 0u);
    EXPECT_EQ(r.drain(3), 2 * 2 + 1u);
    EXPECT_EQ(r.sw.forwarded(), 7u);
    // Input (1,1) still waits on output 2, untouched by output 3.
    EXPECT_EQ(r.sw.inQueue(1, 1).size(), 1u);
    EXPECT_EQ(r.drain(3), 3 * 2 + 1u);
    EXPECT_EQ(r.sw.forwarded(), 7u);

    EXPECT_EQ(r.drain(2), 0u); // the fill packet from input (0,0)
    EXPECT_EQ(r.sw.forwarded(), 8u);
    EXPECT_EQ(r.drain(2), 1 * 2 + 1u);
    EXPECT_TRUE(r.sw.inQueue(1, 1).empty());
}

TEST(Switch, RouteFlipRepumpsStalledInputs)
{
    StallRig r;
    r.inject(0, 0, 3);
    r.inject(1, 0, 3); // stalls on output 3
    ASSERT_EQ(r.sw.forwarded(), 1u);

    // The flip sends node 3 out of port 2, which is free: the stalled
    // head leaves at once, without waiting for output 3 to drain.
    r.sw.applyRoutes({0, 1, 2, 2});
    r.sys.events().run();
    EXPECT_EQ(r.sw.forwarded(), 2u);
    EXPECT_EQ(r.drain(2), 1 * 2 + 0u);

    // Its stale parking on output 3 costs one no-op re-pump.
    EXPECT_EQ(r.drain(3), 0u);
    EXPECT_EQ(r.sw.forwarded(), 2u);
}

TEST(SwitchDeathTest, UnroutedDestinationPanics)
{
    System sys{Config{}};
    Switch sw(sys, "sw", 2);
    // The routing lookup happens as soon as the packet heads the queue.
    EXPECT_DEATH(
        {
            sw.inQueue(0).push(mkPkt(0, 1, 1));
            sys.events().run();
        },
        "no route");
}

} // namespace
} // namespace tg::net
