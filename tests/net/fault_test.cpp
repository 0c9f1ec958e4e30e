/**
 * @file
 * Fault injection + link-level reliability tests: deterministic injector
 * streams, recovery from corruption/loss/duplication, administrative
 * link-down windows, retry-budget exhaustion, and the end-to-end error
 * path through the cluster (counter conservation, Ctx::lastError).
 */

#include <gtest/gtest.h>

#include <tuple>

#include "api/cluster.hpp"
#include "api/context.hpp"
#include "api/segment.hpp"
#include "net/fault.hpp"
#include "net/link.hpp"
#include "sim/system.hpp"

namespace tg::net {
namespace {

// ---------------------------------------------------------------------
// FaultInjector
// ---------------------------------------------------------------------

TEST(FaultInjector, SameSeedSameLinkSameDecisions)
{
    FaultSpec spec;
    spec.dropRate = 0.3;
    spec.bitErrorRate = 0.2;
    FaultInjector a(spec, 42, "net.up0");
    FaultInjector b(spec, 42, "net.up0");
    for (int i = 0; i < 200; ++i) {
        EXPECT_EQ(a.dropNow(), b.dropNow());
        EXPECT_EQ(a.corruptNow(), b.corruptNow());
    }
}

TEST(FaultInjector, DifferentLinksIndependentStreams)
{
    FaultSpec spec;
    spec.dropRate = 0.5;
    FaultInjector a(spec, 42, "net.up0");
    FaultInjector b(spec, 42, "net.up1");
    int differ = 0;
    for (int i = 0; i < 200; ++i) {
        if (a.dropNow() != b.dropNow())
            ++differ;
    }
    EXPECT_GT(differ, 0);
}

TEST(FaultInjector, LinkFilterRestrictsActivation)
{
    FaultSpec spec;
    spec.dropRate = 1.0;
    spec.linkFilter = "trunk";
    FaultInjector trunk(spec, 1, "net.trunk0to1");
    FaultInjector leaf(spec, 1, "net.up0");
    EXPECT_TRUE(trunk.active());
    EXPECT_FALSE(leaf.active());
}

TEST(FaultInjector, DownWindowsAndDeadline)
{
    FaultSpec spec;
    spec.downWindows = {{100, 200, ""}, {150, 300, ""}};
    spec.linkDownDeadline = 50;
    FaultInjector inj(spec, 1, "ch");
    EXPECT_FALSE(inj.isDown(99));
    EXPECT_TRUE(inj.isDown(100));
    EXPECT_TRUE(inj.isDown(250));
    EXPECT_FALSE(inj.isDown(300));
    // Overlapping windows merge into one outage [100, 300).
    EXPECT_EQ(inj.downUntil(120), 300u);
    EXPECT_EQ(inj.downStart(250), 100u);
    EXPECT_FALSE(inj.downPastDeadline(120));
    EXPECT_TRUE(inj.downPastDeadline(250));
}

// ---------------------------------------------------------------------
// Targeted down-windows (glob patterns on link names)
// ---------------------------------------------------------------------

TEST(FaultTargets, TargetedWindowDownsOnlyMatchingLinks)
{
    FaultSpec spec;
    spec.downLink("*.trunk3to4", 100, 200);
    FaultInjector hit(spec, 1, "net.trunk3to4");
    FaultInjector miss(spec, 1, "net.trunk4to3");
    EXPECT_TRUE(hit.isDown(150));
    EXPECT_FALSE(miss.isDown(150));
    EXPECT_FALSE(hit.isDown(200));
}

TEST(FaultTargets, TargetedWindowIgnoresLinkFilter)
{
    // The spec-wide random-fault filter confines rates to node links,
    // but a targeted window still downs the trunk it names.
    FaultSpec spec;
    spec.dropRate = 0.5;
    spec.linkFilter = "up";
    spec.downLink("*.trunk0to1", 10, 20);
    FaultInjector trunk(spec, 1, "net.trunk0to1");
    EXPECT_FALSE(trunk.active());
    EXPECT_TRUE(trunk.isDown(15));
}

TEST(FaultTargets, UntargetedWindowFollowsLinkFilter)
{
    FaultSpec spec;
    spec.linkFilter = "up";
    spec.downWindows = {{10, 20, ""}};
    FaultInjector up(spec, 1, "net.up0");
    FaultInjector trunk(spec, 1, "net.trunk0to1");
    EXPECT_TRUE(up.isDown(15));
    EXPECT_FALSE(trunk.isDown(15));
}

TEST(FaultTargets, DownTrunkCoversBothDirections)
{
    FaultSpec spec;
    spec.downTrunk(3, 4, 100, 200);
    ASSERT_EQ(spec.downWindows.size(), 2u);
    FaultInjector fwd(spec, 1, "net.trunk3to4");
    FaultInjector rev(spec, 1, "net.trunk4to3");
    FaultInjector other(spec, 1, "net.trunk3to2");
    EXPECT_TRUE(fwd.isDown(150));
    EXPECT_TRUE(rev.isDown(150));
    EXPECT_FALSE(other.isDown(150));
}

TEST(FaultTargets, MergedDownWindowsCoalescePerLink)
{
    FaultSpec spec;
    spec.downLink("*.trunk0to1", 100, 200);
    spec.downLink("*.trunk0to1", 150, 300); // overlaps the first
    spec.downLink("*.trunk0to1", 300, 400); // abuts the merged window
    spec.downLink("*.trunk9to9", 50, 60);   // different link
    FaultInjector inj(spec, 1, "net.trunk0to1");
    const auto merged = inj.mergedDownWindows();
    ASSERT_EQ(merged.size(), 1u);
    EXPECT_EQ(merged[0].from, 100u);
    EXPECT_EQ(merged[0].until, 400u);
}

TEST(FaultSpecValidate, RejectsMalformedTargetPattern)
{
    FaultSpec doubleStar;
    doubleStar.downLink("**trunk", 10, 20);
    EXPECT_DEATH(doubleStar.validate(), "pattern");

    FaultSpec charClass;
    charClass.downLink("*.trunk[01]to1", 10, 20);
    EXPECT_DEATH(charClass.validate(), "pattern");
}

TEST(FaultSpecValidate, AcceptsWellFormedTargetPattern)
{
    FaultSpec f;
    f.downLink("*.trunk3to4", 10, 20).downTrunk(1, 2, 30, 40);
    f.downLink("*.trunk?to1", 50, 60); // '?' is a supported wildcard
    f.validate(); // must not die
}

// ---------------------------------------------------------------------
// Channel reliability layer
// ---------------------------------------------------------------------

class FaultChannelTest : public ::testing::Test
{
  protected:
    Packet
    mkPkt(Word v, std::uint32_t payload = 8)
    {
        Packet p;
        p.value = v;
        p.payloadBytes = payload;
        return p;
    }

    Config
    cfg(const FaultSpec &f, std::uint64_t seed = 42)
    {
        Config c;
        c.fault = f;
        c.seed = seed;
        return c;
    }
};

TEST_F(FaultChannelTest, CrcDetectsCorruptionAndRetransmits)
{
    FaultSpec f;
    f.bitErrorRate = 0.2;
    System sys(cfg(f));
    BoundedQueue up(sys.arena(), 32), down(sys.arena(), 64);
    Channel ch(sys, "ch", up, down, 1.0, 10);

    for (Word i = 0; i < 20; ++i)
        up.push(mkPkt(i));
    sys.events().run();

    // Every packet arrives exactly once, in order, with intact contents.
    ASSERT_EQ(down.size(), 20u);
    for (Word i = 0; i < 20; ++i)
        EXPECT_EQ(down.pop().value, i);
    EXPECT_GT(ch.corruptions(), 0u);
    EXPECT_GT(ch.retransmissions(), 0u);
    EXPECT_EQ(ch.wireFailures(), 0u);
}

TEST_F(FaultChannelTest, DropsAreRetransmitted)
{
    FaultSpec f;
    f.dropRate = 0.25;
    System sys(cfg(f));
    BoundedQueue up(sys.arena(), 32), down(sys.arena(), 64);
    Channel ch(sys, "ch", up, down, 1.0, 10);

    for (Word i = 0; i < 20; ++i)
        up.push(mkPkt(i));
    sys.events().run();

    ASSERT_EQ(down.size(), 20u);
    for (Word i = 0; i < 20; ++i)
        EXPECT_EQ(down.pop().value, i);
    EXPECT_GT(ch.retransmissions(), 0u);
    EXPECT_EQ(ch.wireFailures(), 0u);
}

TEST_F(FaultChannelTest, DuplicatesAreDiscarded)
{
    FaultSpec f;
    f.duplicateRate = 1.0; // every transmission delivered twice
    System sys(cfg(f));
    BoundedQueue up(sys.arena(), 32), down(sys.arena(), 64);
    Channel ch(sys, "ch", up, down, 1.0, 10);

    for (Word i = 0; i < 10; ++i)
        up.push(mkPkt(i));
    sys.events().run();

    ASSERT_EQ(down.size(), 10u);
    for (Word i = 0; i < 10; ++i)
        EXPECT_EQ(down.pop().value, i);
    EXPECT_GT(ch.duplicateDiscards(), 0u);
    EXPECT_EQ(ch.wireFailures(), 0u);
}

TEST_F(FaultChannelTest, LinkDownWindowDelaysDelivery)
{
    FaultSpec f;
    f.downWindows = {{0, 5000, ""}};
    System sys(cfg(f));
    BoundedQueue up(sys.arena(), 8), down(sys.arena(), 8);
    Channel ch(sys, "ch", up, down, 1.0, 10);

    up.push(mkPkt(7));
    sys.events().run();

    ASSERT_EQ(down.size(), 1u);
    EXPECT_EQ(down.pop().value, 7u);
    EXPECT_GE(sys.now(), 5000u); // nothing crossed during the outage
    EXPECT_EQ(ch.wireFailures(), 0u);
}

TEST_F(FaultChannelTest, TargetedWindowDownsNamedChannelOutsideFilter)
{
    FaultSpec f;
    f.linkFilter = "somewhere-else"; // random faults confined elsewhere
    f.downLink("ch", 0, 5000);       // ...but this channel is named
    System sys(cfg(f));
    BoundedQueue up(sys.arena(), 8), down(sys.arena(), 8);
    Channel ch(sys, "ch", up, down, 1.0, 10);

    up.push(mkPkt(7));
    sys.events().run();

    ASSERT_EQ(down.size(), 1u);
    EXPECT_EQ(down.pop().value, 7u);
    EXPECT_GE(sys.now(), 5000u); // held until the targeted outage ended
    EXPECT_EQ(ch.wireFailures(), 0u);
}

TEST_F(FaultChannelTest, DownPastDeadlineFailsOver)
{
    FaultSpec f;
    f.downWindows = {{0, 1'000'000, ""}};
    f.linkDownDeadline = 100;
    System sys(cfg(f));
    BoundedQueue up(sys.arena(), 8), down(sys.arena(), 8);
    Channel ch(sys, "ch", up, down, 1.0, 10);

    std::vector<Packet> failed;
    ch.setFailureHandler([&](Packet &&p) { failed.push_back(std::move(p)); });

    up.push(mkPkt(1));
    up.push(mkPkt(2));
    sys.events().runUntil(10'000);

    ASSERT_EQ(failed.size(), 2u);
    EXPECT_EQ(failed[0].value, 1u);
    EXPECT_EQ(failed[1].value, 2u);
    EXPECT_EQ(down.size(), 0u);
    EXPECT_EQ(ch.wireFailures(), 2u);
}

TEST_F(FaultChannelTest, RetryBudgetExhaustionFailsPacket)
{
    FaultSpec f;
    f.dropRate = 1.0; // nothing ever arrives
    f.retryTimeout = 100;
    f.maxRetries = 3;
    System sys(cfg(f));
    BoundedQueue up(sys.arena(), 8), down(sys.arena(), 8);
    Channel ch(sys, "ch", up, down, 1.0, 10);

    std::vector<Packet> failed;
    ch.setFailureHandler([&](Packet &&p) { failed.push_back(std::move(p)); });

    up.push(mkPkt(9));
    sys.events().run();

    ASSERT_EQ(failed.size(), 1u);
    EXPECT_EQ(failed[0].value, 9u);
    EXPECT_EQ(ch.wireFailures(), 1u);
    EXPECT_EQ(down.size(), 0u);
}

TEST_F(FaultChannelTest, FullWindowIsReleasedByReturningAcks)
{
    // Two packets fill the window: every later transmission waits on an
    // ACK coming back, including the ones that re-ack a retransmission.
    FaultSpec f;
    f.dropRate = 0.25;
    f.windowPackets = 2;
    System sys(cfg(f));
    BoundedQueue up(sys.arena(), 32), down(sys.arena(), 64);
    Channel ch(sys, "ch", up, down, 1.0, 10);

    for (Word i = 0; i < 20; ++i)
        up.push(mkPkt(i));
    sys.events().run();

    ASSERT_EQ(down.size(), 20u);
    for (Word i = 0; i < 20; ++i)
        EXPECT_EQ(down.pop().value, i);
    EXPECT_GT(ch.retransmissions(), 0u);
    EXPECT_EQ(ch.wireFailures(), 0u);
}

TEST_F(FaultChannelTest, FailoverWithTransmissionOnWireConservesPackets)
{
    // Serialization takes 1 tick and propagation 1000, so packets stay
    // on the wire (and their ACKs on the way back) long after they were
    // sent.  The link goes down at 1400 with a 10-tick deadline.
    FaultSpec f;
    f.downWindows = {{1400, 1'000'000, ""}};
    f.linkDownDeadline = 10;
    System sys(cfg(f));
    BoundedQueue up(sys.arena(), 8), down(sys.arena(), 8);
    Channel ch(sys, "ch", up, down, 1000.0, 1000);
    std::vector<Packet> failed;
    ch.setFailureHandler([&](Packet &&p) { failed.push_back(std::move(p)); });
    const std::size_t live0 = sys.arena().live();

    // Packets 0-2 land at about 1001 but are unacknowledged until about
    // 2001.  Packet 3 leaves at 1390 and is still on the wire when
    // packet 4, queued at 1500, finds the link down past its deadline.
    for (Word i = 0; i < 3; ++i)
        up.push(mkPkt(i));
    sys.events().runUntil(1390);
    up.push(mkPkt(3));
    sys.events().runUntil(1500);
    up.push(mkPkt(4));
    sys.events().runUntil(10'000);

    // Each packet was delivered or failed, never both.
    std::vector<Word> delivered;
    while (!down.empty())
        delivered.push_back(down.pop().value);
    EXPECT_EQ(delivered, (std::vector<Word>{0, 1, 2}));
    ASSERT_EQ(failed.size(), 2u);
    EXPECT_EQ(failed[0].value, 3u);
    EXPECT_EQ(failed[1].value, 4u);
    EXPECT_EQ(delivered.size() + failed.size(), 5u);
    EXPECT_EQ(ch.wireFailures(), 2u);
    // The copy of packet 3 on the wire owned its own slot, and released
    // it when it landed.
    failed.clear();
    EXPECT_EQ(sys.arena().live(), live0);
}

TEST_F(FaultChannelTest, DuplicateOnSameTickAsNextArrivalIsDiscarded)
{
    // One-tick serialization: each duplicate lands one tick behind its
    // original, on the very tick the next packet's original lands.
    FaultSpec f;
    f.duplicateRate = 1.0;
    System sys(cfg(f));
    BoundedQueue up(sys.arena(), 32), down(sys.arena(), 64);
    Channel ch(sys, "ch", up, down, 1000.0, 10);

    for (Word i = 0; i < 10; ++i)
        up.push(mkPkt(i));
    sys.events().run();

    ASSERT_EQ(down.size(), 10u);
    for (Word i = 0; i < 10; ++i)
        EXPECT_EQ(down.pop().value, i);
    EXPECT_EQ(ch.duplicateDiscards(), 10u);
    EXPECT_EQ(ch.retransmissions(), 0u);
    EXPECT_EQ(ch.wireFailures(), 0u);
}

TEST_F(FaultChannelTest, StatsAreDeterministic)
{
    FaultSpec f;
    f.bitErrorRate = 0.1;
    f.dropRate = 0.1;
    f.duplicateRate = 0.1;

    auto runOnce = [&](std::uint64_t seed) {
        System sys(cfg(f, seed));
        BoundedQueue up(sys.arena(), 32), down(sys.arena(), 64);
        Channel ch(sys, "ch", up, down, 1.0, 10);
        for (Word i = 0; i < 30; ++i)
            up.push(mkPkt(i));
        sys.events().run();
        return std::tuple{ch.corruptions(), ch.retransmissions(),
                          ch.duplicateDiscards(), sys.now(), down.size()};
    };

    EXPECT_EQ(runOnce(7), runOnce(7));
    EXPECT_NE(runOnce(7), runOnce(8));
}

// ---------------------------------------------------------------------
// End-to-end error path through the cluster
// ---------------------------------------------------------------------

TEST(FaultCluster, LossyLinkStillCompletesAllOps)
{
    ClusterSpec spec = ClusterSpec::star(2);
    spec.config.fault.dropRate = 0.05;
    spec.config.fault.bitErrorRate = 0.05;
    Cluster c(spec);
    Segment &seg = c.allocShared("s", 8192, 0);

    bool finished = false;
    c.spawn(1, [&](Ctx &ctx) -> Task<void> {
        for (Word i = 0; i < 50; ++i)
            co_await ctx.write(seg.word(i % 8), i);
        co_await ctx.fence();
        finished = true;
    });
    c.run(10'000'000'000ULL);

    EXPECT_TRUE(finished);
    EXPECT_TRUE(c.allDone());
    // Conservation: the fence drained, so nothing is outstanding.
    EXPECT_EQ(c.hibOf(1).outstanding().current(), 0u);
    EXPECT_GT(c.network().retransmissions(), 0u);
}

TEST(FaultCluster, BudgetExhaustionSurfacesAsCtxError)
{
    ClusterSpec spec = ClusterSpec::star(2);
    spec.config.fault.dropRate = 1.0; // every transfer lost
    spec.config.fault.linkFilter = "up1"; // only node 1's egress link
    spec.config.fault.retryTimeout = 1000;
    spec.config.fault.maxRetries = 2;
    Cluster c(spec);
    Segment &seg = c.allocShared("s", 8192, 0);

    OpError err = OpError::None;
    OpError sticky = OpError::None;
    bool finished = false;
    c.spawn(1, [&](Ctx &ctx) -> Task<void> {
        co_await ctx.write(seg.word(0), 1);
        Result<void> f = co_await ctx.fence();
        err = f.error();
        sticky = ctx.lastError();
        finished = true;
    });
    c.run(10'000'000'000ULL);

    // The write was lost for good — but the fence still drained and the
    // failure is visible on the fence's own Result (and on the sticky
    // per-context aggregate).
    EXPECT_TRUE(finished);
    EXPECT_EQ(err, OpError::LinkFailure);
    EXPECT_EQ(sticky, OpError::LinkFailure);
    EXPECT_EQ(c.hibOf(1).outstanding().current(), 0u);
    EXPECT_GT(c.network().wireFailures(), 0u);
    EXPECT_GT(c.hibOf(1).wireFailures(), 0u);
    EXPECT_GT(c.os(1).linkFailureInterrupts(), 0u);
}

TEST(FaultCluster, LostReadUnblocksWithError)
{
    ClusterSpec spec = ClusterSpec::star(2);
    spec.config.fault.dropRate = 1.0;
    spec.config.fault.linkFilter = "down0"; // replies towards node 0 die
    spec.config.fault.retryTimeout = 1000;
    spec.config.fault.maxRetries = 2;
    Cluster c(spec);
    Segment &seg = c.allocShared("s", 8192, 1);

    bool finished = false;
    bool flagged = false;
    Word got = 1234;
    c.spawn(0, [&](Ctx &ctx) -> Task<void> {
        Result<Word> r = co_await ctx.read(seg.word(0));
        flagged = !r.ok() && r.error() == OpError::LinkFailure;
        got = r.value();
        finished = true;
    });
    c.run(10'000'000'000ULL);

    // The blocked CPU unblocked (with the error value 0 and the loss
    // flagged on the Result) instead of hanging forever on a reply that
    // will never come.
    EXPECT_TRUE(finished);
    EXPECT_TRUE(flagged);
    EXPECT_EQ(got, 0u);
}

TEST(FaultCluster, InertSpecKeepsFastPath)
{
    ClusterSpec spec = ClusterSpec::star(2);
    // All-zero FaultSpec: enabled() is false, stats stay unregistered.
    ASSERT_FALSE(spec.config.fault.enabled());
    Cluster c(spec);
    Segment &seg = c.allocShared("s", 8192, 0);
    c.spawn(1, [&](Ctx &ctx) -> Task<void> {
        co_await ctx.write(seg.word(0), 1);
        co_await ctx.fence();
    });
    c.run(10'000'000'000ULL);
    EXPECT_EQ(c.network().retransmissions(), 0u);
    EXPECT_EQ(c.network().wireFailures(), 0u);
}

TEST(FaultSpecValidate, RejectsBadRates)
{
    FaultSpec f;
    f.dropRate = 1.5;
    EXPECT_DEATH(f.validate(), "probability");
}

TEST(FaultSpecValidate, RejectsBackoffThatOverflowsATick)
{
    FaultSpec shift;
    shift.backoffCap = 64; // a shift by the width is undefined
    EXPECT_DEATH(shift.validate(), "backoffCap");

    FaultSpec wide;
    wide.retryTimeout = Tick(1) << 60;
    wide.backoffCap = 6; // 2^66 does not fit
    EXPECT_DEATH(wide.validate(), "overflows");

    FaultSpec edge;
    edge.retryTimeout = Tick(1) << 57;
    edge.backoffCap = 6; // 2^63 fits
    edge.validate();     // must not die
}

} // namespace
} // namespace tg::net
