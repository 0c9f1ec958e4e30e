/**
 * @file
 * Steady-state allocation audit for the packet datapath (DESIGN.md
 * section 14).  A counting global operator new/delete proves the
 * arena's zero-allocation claim: once the PacketArena chunks, the
 * BoundedQueue rings and the event wheel are warm, a full wave of
 * cross-ring traffic — inject, arbitrate, hop, deliver — performs no
 * heap allocation per packet.
 *
 * The counting allocator is linked into the whole net_tests binary; it
 * only counts, so the other suites are unaffected.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "net/link.hpp"
#include "net/network.hpp"
#include "sim/system.hpp"

namespace {
std::atomic<std::uint64_t> g_newCalls{0};

std::uint64_t
allocCount()
{
    return g_newCalls.load(std::memory_order_relaxed);
}

void *
countedAlloc(std::size_t n)
{
    g_newCalls.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}
} // namespace

void *
operator new(std::size_t n)
{
    return countedAlloc(n);
}

void *
operator new[](std::size_t n)
{
    return countedAlloc(n);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace tg::net {
namespace {

/** Endpoint that counts deliveries without accumulating storage (a
 *  received-packet vector would itself allocate mid-measurement). */
class CountingEndpoint : public NodeEndpoint
{
  public:
    explicit CountingEndpoint(PacketArena &arena, std::size_t cap = 64)
        : _out(arena, cap), _in(arena, cap)
    {
        _in.onData([this] {
            while (!_in.empty()) {
                const Packet p = _in.pop();
                ++received;
                valueSum += p.value;
            }
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

    std::uint64_t received = 0;
    std::uint64_t valueSum = 0;

  private:
    BoundedQueue _out;
    BoundedQueue _in;
};

struct Harness
{
    explicit Harness(const TopologySpec &spec, const Config &cfg = {})
        : sys(cfg), net(sys, "net", spec)
    {
        for (std::size_t n = 0; n < spec.nodes; ++n) {
            eps.push_back(std::make_unique<CountingEndpoint>(sys.arena()));
            net.attach(NodeId(n), *eps.back());
        }
    }

    /** One wave: every node streams @p burst packets three hops around
     *  the ring, then the event queue drains to quiescence.  Each wave
     *  starts phase-aligned to the event wheel (clock advanced to a
     *  multiple of kWheelTicks), so identical waves land in identical
     *  wheel buckets and warm-up capacity carries over exactly. */
    void
    wave(std::size_t burst)
    {
        const Tick period = EventQueue::kWheelTicks;
        sys.events().runUntil(((sys.events().now() / period) + 1) * period);
        const std::size_t n = eps.size();
        for (std::size_t s = 0; s < n; ++s) {
            for (std::size_t i = 0; i < burst; ++i)
                eps[s]->send(NodeId(s), NodeId((s + 3) % n),
                             Word(s * 1000 + i));
        }
        sys.events().run();
    }

    System sys;
    Network net;
    std::vector<std::unique_ptr<CountingEndpoint>> eps;
};

/** Give every event-wheel bucket room for 16 events, so a measurement
 *  whose events land on buckets no earlier phase touched does not count
 *  the engine's own warm-up. */
void
warmWheel(System &sys)
{
    for (Tick t = 1; t <= EventQueue::kWheelTicks; ++t)
        for (int k = 0; k < 16; ++k)
            sys.events().schedule(t, [] {});
    sys.events().run();
}

TopologySpec
ringSpec(std::size_t nodes)
{
    TopologySpec s;
    s.kind = TopologyKind::Ring;
    s.nodes = nodes;
    s.nodesPerSwitch = 2;
    return s;
}

TEST(PacketAllocTest, SteadyStateWaveDoesNotAllocate)
{
    Harness h(ringSpec(8));
    constexpr std::size_t kBurst = 24;

    // Warm-up: two identical waves size the arena chunks, the queue
    // rings, the reliability windows and the event wheel; capacity is
    // retained between waves.
    h.wave(kBurst);
    h.wave(kBurst);
    const std::uint64_t delivered0 = h.eps[0]->received;
    ASSERT_GT(delivered0, 0u);

    const std::uint64_t chunks0 = h.sys.arena().chunkAllocs();
    const std::uint64_t before = allocCount();
    h.wave(kBurst);
    const std::uint64_t after = allocCount();

    EXPECT_EQ(after, before) << "packet wave hit the heap";
    EXPECT_EQ(h.sys.arena().chunkAllocs(), chunks0)
        << "arena grew after warm-up";
    // The measured wave really moved traffic end to end.
    for (auto &ep : h.eps)
        EXPECT_EQ(ep->received, 3 * kBurst);
    EXPECT_EQ(h.sys.arena().live(), 0u);
}

TEST(PacketAllocTest, FaultedWaveDoesNotAllocate)
{
    // The reliable link path: every hop stamps a sequence number and a
    // CRC, keeps a retransmit copy, and its transfers are corrupted,
    // dropped and duplicated.  The retry budget is never exhausted.
    Config cfg;
    cfg.fault.bitErrorRate = 1e-2;
    cfg.fault.dropRate = 1e-2;
    cfg.fault.duplicateRate = 1e-2;
    Harness h(ringSpec(8), cfg);
    constexpr std::size_t kBurst = 24;

    // Faults differ from wave to wave, and retransmissions and timeouts
    // spread a wave's events over the wheel: warm-up sizes every wheel
    // bucket up front, then runs waves until the channels' arrival,
    // control and retransmit rings have met their largest backlog.
    warmWheel(h.sys);
    constexpr int kWarmWaves = 16;
    for (int i = 0; i < kWarmWaves; ++i)
        h.wave(kBurst);
    const std::uint64_t chunks0 = h.sys.arena().chunkAllocs();
    const std::uint64_t before = allocCount();
    h.wave(kBurst);
    const std::uint64_t after = allocCount();

    EXPECT_EQ(after, before) << "faulted packet wave hit the heap";
    EXPECT_EQ(h.sys.arena().chunkAllocs(), chunks0)
        << "arena grew after warm-up";
    for (auto &ep : h.eps)
        EXPECT_EQ(ep->received, (kWarmWaves + 1) * kBurst);
    EXPECT_GT(h.net.retransmissions(), 0u);
    EXPECT_GT(h.net.corruptions(), 0u);
    EXPECT_GT(h.net.duplicateDiscards(), 0u);
    EXPECT_EQ(h.net.wireFailures(), 0u);
    // arena().live() need not be 0 here: a retransmit copy whose ACK
    // has landed is released when its link next runs (DESIGN.md §14.2).
}

TEST(PacketAllocTest, SustainedStreamKeepsChannelRingsBounded)
{
    // A link that never goes idle always has an arrival in flight, so
    // its pending-arrival ring never drains: it must still recycle its
    // storage instead of growing by one entry per packet.
    System sys{Config{}};
    BoundedQueue up(sys.arena(), 8), down(sys.arena(), 8);
    Channel ch(sys, "ch", up, down, 1.0, 100);
    std::uint64_t sent = 0, limit = 0, got = 0;
    up.onSpace([&] {
        while (!up.full() && sent < limit) {
            Packet p;
            p.value = sent++;
            up.push(std::move(p));
        }
    });
    down.onData([&] {
        while (!down.empty()) {
            (void)down.pop();
            ++got;
        }
    });
    auto stream = [&](std::uint64_t n) {
        limit += n;
        Packet p;
        p.value = sent++;
        up.push(std::move(p));
        sys.events().run();
    };

    warmWheel(sys);
    stream(2'000);
    const std::uint64_t before = allocCount();
    stream(50'000);
    EXPECT_EQ(allocCount(), before) << "a busy link's rings grew";
    EXPECT_EQ(got, sent);
    EXPECT_EQ(sys.arena().live(), 0u);
}

TEST(PacketAllocTest, ArenaRecyclesSlotsLifo)
{
    System sys{Config{}};
    PacketArena &a = sys.arena();
    const std::uint64_t before = allocCount();

    Packet p;
    p.src = 1;
    p.dst = 2;
    const PacketHandle h1 = a.acquire(std::move(p));
    a.release(h1);
    // LIFO reuse: the very next acquire returns the slot just freed,
    // touching no fresh storage.
    Packet q;
    q.src = 3;
    q.dst = 4;
    const PacketHandle h2 = a.acquire(std::move(q));
    EXPECT_EQ(h2, h1);
    EXPECT_EQ(a.src(h2), 3);
    a.release(h2);

    // One chunk was (at most) created by the first acquire; the reuse
    // cycle after it is allocation-free.
    const std::uint64_t mid = allocCount();
    for (int i = 0; i < 100; ++i) {
        Packet r;
        r.src = NodeId(i);
        a.release(a.acquire(std::move(r)));
    }
    EXPECT_EQ(allocCount(), mid);
    EXPECT_EQ(a.live(), 0u);
    (void)before;
}

} // namespace
} // namespace tg::net
