/**
 * @file
 * Simulator self-benchmark (google-benchmark driven).
 *
 * Not a paper experiment: measures the *wall-clock* throughput of the
 * reproduction itself — event-queue rate, remote operations simulated
 * per second, end-to-end cluster construction — so regressions in the
 * model's own performance are visible.  Reports simulated-time /
 * wall-time as a custom counter.
 */

#include <benchmark/benchmark.h>

#include <cstddef>

#include <memory>
#include <vector>

#include "api/cluster.hpp"
#include "api/context.hpp"
#include "api/segment.hpp"
#include "net/network.hpp"
#include "sim/event_queue.hpp"
#include "sim/system.hpp"

namespace {

using namespace tg;

void
BM_EventQueue(benchmark::State &state)
{
    for (auto _ : state) {
        EventQueue q;
        std::uint64_t fired = 0;
        for (int i = 0; i < 10'000; ++i)
            q.schedule(Tick(i % 97), [&fired] { ++fired; });
        q.run();
        benchmark::DoNotOptimize(fired);
    }
    state.SetItemsProcessed(state.iterations() * 10'000);
}
BENCHMARK(BM_EventQueue);

#ifdef TG_REFERENCE_HEAP
/** The pre-ladder binary heap, same workload shape as BM_EventQueue, so
 *  every run reports the speedup ratio alongside the new engine. */
void
BM_EventQueueReference(benchmark::State &state)
{
    for (auto _ : state) {
        ReferenceEventQueue q;
        std::uint64_t fired = 0;
        for (int i = 0; i < 10'000; ++i)
            q.schedule(Tick(i % 97), [&fired] { ++fired; });
        q.run();
        benchmark::DoNotOptimize(fired);
    }
    state.SetItemsProcessed(state.iterations() * 10'000);
}
BENCHMARK(BM_EventQueueReference);
#endif

/** Steady-state schedule->fire cycle on a warm queue: buckets and
 *  closure storage recycled, zero allocations per event (the case the
 *  simulator actually spends its life in). */
void
BM_EventQueueSteadyState(benchmark::State &state)
{
    EventQueue q;
    std::uint64_t fired = 0;
    struct Pump
    {
        EventQueue *q;
        std::uint64_t *fired;
        void
        operator()() const
        {
            ++*fired;
            q->schedule(7, Pump{q, fired});
        }
    };
    q.schedule(1, Pump{&q, &fired});
    q.run(5'000); // warm every wheel bucket
    for (auto _ : state) {
        q.run(1'000);
        benchmark::DoNotOptimize(fired);
    }
    state.SetItemsProcessed(state.iterations() * 1'000);
}
BENCHMARK(BM_EventQueueSteadyState);

/** Oversized captures (a closure latching packet-sized state) take the
 *  pooled path; after warm-up the pool recycles blocks. */
void
BM_EventQueueHeavyClosure(benchmark::State &state)
{
    struct Payload
    {
        std::byte raw[Event::kInlineBytes + 32];
    };
    for (auto _ : state) {
        EventQueue q;
        std::uint64_t fired = 0;
        for (int i = 0; i < 10'000; ++i) {
            Payload p{};
            p.raw[0] = std::byte(i);
            q.schedule(Tick(i % 97), [p, &fired] {
                fired += std::size_t(p.raw[0]);
            });
        }
        q.run();
        benchmark::DoNotOptimize(fired);
    }
    state.SetItemsProcessed(state.iterations() * 10'000);
}
BENCHMARK(BM_EventQueueHeavyClosure);

/** Mixed near/far-future delays: half the events land in the wheel,
 *  half go through the overflow ladder and spill back as the window
 *  advances (retry-timeout and page-copy territory). */
void
BM_EventQueueLadder(benchmark::State &state)
{
    for (auto _ : state) {
        EventQueue q;
        std::uint64_t fired = 0;
        for (int i = 0; i < 10'000; ++i) {
            const Tick d = (i & 1) ? Tick(i % 97)
                                   : Tick(20'000 + (i * 131) % 50'000);
            q.schedule(d, [&fired] { ++fired; });
        }
        q.run();
        benchmark::DoNotOptimize(fired);
    }
    state.SetItemsProcessed(state.iterations() * 10'000);
}
BENCHMARK(BM_EventQueueLadder);

void
BM_ClusterConstruction(benchmark::State &state)
{
    const std::size_t nodes = std::size_t(state.range(0));
    for (auto _ : state) {
        ClusterSpec spec = ClusterSpec::star(nodes);
        Cluster cluster(spec);
        benchmark::DoNotOptimize(cluster.numNodes());
    }
}
BENCHMARK(BM_ClusterConstruction)->Arg(2)->Arg(8)->Arg(16);

void
BM_RemoteWrites(benchmark::State &state)
{
    const int ops = int(state.range(0));
    Tick simulated = 0;
    std::uint64_t events = 0;
    for (auto _ : state) {
        ClusterSpec spec = ClusterSpec::star(2);
        Cluster cluster(spec);
        Segment &seg = cluster.allocShared("s", 8192, 0);
        cluster.spawn(1, [&, ops](Ctx &ctx) -> Task<void> {
            for (int i = 0; i < ops; ++i)
                co_await ctx.write(seg.word(i % 64), Word(i));
            co_await ctx.fence();
        });
        simulated += cluster.run(2'000'000'000'000ULL);
        events += cluster.system().events().executed();
    }
    state.SetItemsProcessed(state.iterations() * ops);
    state.counters["sim_us_per_s"] = benchmark::Counter(
        toUs(simulated), benchmark::Counter::kIsRate);
    state.counters["events_per_s"] = benchmark::Counter(
        double(events), benchmark::Counter::kIsRate);
    // Simulated nanoseconds advanced per microsecond of wall time.
    state.counters["sim_ns_per_wall_us"] = benchmark::Counter(
        double(simulated) * 1e-6, benchmark::Counter::kIsRate);
}
BENCHMARK(BM_RemoteWrites)->Arg(1000)->Arg(10000);

void
BM_CoherentWrites(benchmark::State &state)
{
    const int ops = int(state.range(0));
    Tick simulated = 0;
    std::uint64_t events = 0;
    for (auto _ : state) {
        ClusterSpec spec = ClusterSpec::star(3);
        Cluster cluster(spec);
        Segment &seg = cluster.allocShared("s", 8192, 0);
        seg.replicate(1, coherence::ProtocolKind::OwnerCounter);
        seg.replicate(2, coherence::ProtocolKind::OwnerCounter);
        cluster.spawn(1, [&, ops](Ctx &ctx) -> Task<void> {
            for (int i = 0; i < ops; ++i)
                co_await ctx.write(seg.word(i % 64), Word(i));
            co_await ctx.fence();
        });
        simulated += cluster.run(2'000'000'000'000ULL);
        events += cluster.system().events().executed();
    }
    state.SetItemsProcessed(state.iterations() * ops);
    state.counters["events_per_s"] = benchmark::Counter(
        double(events), benchmark::Counter::kIsRate);
    state.counters["sim_ns_per_wall_us"] = benchmark::Counter(
        double(simulated) * 1e-6, benchmark::Counter::kIsRate);
}
BENCHMARK(BM_CoherentWrites)->Arg(1000);

void
BM_AtomicRoundTrips(benchmark::State &state)
{
    Tick simulated = 0;
    std::uint64_t events = 0;
    for (auto _ : state) {
        ClusterSpec spec = ClusterSpec::star(2);
        Cluster cluster(spec);
        Segment &seg = cluster.allocShared("s", 8192, 0);
        cluster.spawn(1, [&](Ctx &ctx) -> Task<void> {
            for (int i = 0; i < 200; ++i)
                co_await ctx.fetchAdd(seg.word(0), 1);
        });
        simulated += cluster.run(2'000'000'000'000ULL);
        events += cluster.system().events().executed();
    }
    state.SetItemsProcessed(state.iterations() * 200);
    state.counters["events_per_s"] = benchmark::Counter(
        double(events), benchmark::Counter::kIsRate);
    state.counters["sim_ns_per_wall_us"] = benchmark::Counter(
        double(simulated) * 1e-6, benchmark::Counter::kIsRate);
}
BENCHMARK(BM_AtomicRoundTrips);

// ---------------------------------------------------------------------
// Packet-path microbenchmarks
//
// Drive uniform traffic through the *real* network datapath — HIB-style
// endpoint FIFOs, Channel serialization, Switch cut-through, BoundedQueue
// credit flow — with no coroutines or coherence on top, so the gated
// events_per_s isolates the per-packet cost of the queue/link/switch
// machinery itself (the subject of the arena / SoA / credit-batching
// work).  Closed-loop injection: every node tops its egress FIFO up as
// soon as credits free, so the fabric runs saturated.
// ---------------------------------------------------------------------

/** Minimal network endpoint: bounded egress/ingress FIFOs and a sink
 *  that pops arrivals immediately. */
class PathEndpoint final : public net::NodeEndpoint
{
  public:
    PathEndpoint(System &sys, std::size_t cap)
        : _eg(sys.arena(), cap), _ig(sys.arena(), cap)
    {
    }

    net::BoundedQueue &egress() override { return _eg; }
    net::BoundedQueue &ingress() override { return _ig; }

  private:
    net::BoundedQueue _eg;
    net::BoundedQueue _ig;
};

void
runPacketPath(benchmark::State &state, const ClusterSpec &base,
              int packets_per_node)
{
    ClusterSpec spec = base;
    spec.seed(7)
        // Scale-study link speed (APEnet-class, ~1 GB/s) instead of the
        // paper's 35 MB/s ribbon cable: serialization stays a realistic
        // 40 ticks and the event mix is hop-dominated.
        .tune([](Config &c) { c.linkBytesPerTick = 1.0; });

    const std::size_t nodes = spec.topology().nodes;
    const std::uint64_t expect =
        std::uint64_t(nodes) * std::uint64_t(packets_per_node);

    std::uint64_t events = 0;
    std::uint64_t delivered = 0;
    Tick simulated = 0;
    for (auto _ : state) {
        System sys(spec.config);
        net::Network fabric(sys, "net", spec.topology());

        std::vector<std::unique_ptr<PathEndpoint>> eps;
        std::vector<int> left(nodes, packets_per_node);
        std::uint64_t got = 0;
        eps.reserve(nodes);
        for (std::size_t i = 0; i < nodes; ++i) {
            eps.push_back(std::make_unique<PathEndpoint>(
                sys, spec.config.hibFifoPackets));
            fabric.attach(NodeId(i), *eps[i]);
        }
        for (std::size_t i = 0; i < nodes; ++i) {
            PathEndpoint &ep = *eps[i];
            net::BoundedQueue &eg = ep.egress();
            net::BoundedQueue &ig = ep.ingress();
            ig.onData([&ig, &got] {
                while (!ig.empty()) {
                    (void)ig.pop();
                    ++got;
                }
            });
            auto inject = [&eg, &left, i, nodes] {
                while (left[i] > 0 && !eg.full()) {
                    const int k = left[i]--;
                    net::Packet p;
                    p.type = net::PacketType::WriteReq;
                    p.src = NodeId(i);
                    // Uniform spread over the other nodes.
                    p.dst = NodeId((i + 1 + std::size_t(k) % (nodes - 1)) %
                                   nodes);
                    p.seq = std::uint64_t(k);
                    p.payloadBytes = 24;
                    eg.push(std::move(p));
                }
            };
            eg.onSpace(inject);
            sys.events().schedule(0, inject);
        }

        sys.events().run(2'000'000'000'000ULL);
        events += sys.events().executed();
        simulated += sys.now();
        delivered += got;
        if (got != expect)
            state.SkipWithError("packet-path traffic did not drain");
    }
    state.SetItemsProcessed(std::int64_t(delivered));
    state.counters["events_per_s"] = benchmark::Counter(
        double(events), benchmark::Counter::kIsRate);
    state.counters["packets_per_s"] = benchmark::Counter(
        double(delivered), benchmark::Counter::kIsRate);
    state.counters["sim_ns_per_wall_us"] = benchmark::Counter(
        double(simulated) * 1e-6, benchmark::Counter::kIsRate);
}

void
BM_PacketPathTorus2D(benchmark::State &state)
{
    runPacketPath(state, ClusterSpec::torus(8, 8, 4), 50); // 256 nodes
}
BENCHMARK(BM_PacketPathTorus2D);

void
BM_PacketPathFatTree(benchmark::State &state)
{
    runPacketPath(state, ClusterSpec::fatTree(256, 4, 8), 50); // 64 leaves
}
BENCHMARK(BM_PacketPathFatTree);

void
BM_PacketPathFatTreeFaulty(benchmark::State &state)
{
    // The reliable link path (per-hop CRC, go-back-N retransmission,
    // duplicate discard) at the error rates of the e2e fabric_faulty
    // workload; no down-windows, so every packet still drains.
    ClusterSpec spec = ClusterSpec::fatTree(256, 4, 8); // 64 leaves
    spec.tune([](Config &c) {
        c.fault.bitErrorRate = 1e-3;
        c.fault.dropRate = 1e-3;
        c.fault.duplicateRate = 1e-3;
    });
    runPacketPath(state, spec, 50);
}
BENCHMARK(BM_PacketPathFatTreeFaulty);

} // namespace

BENCHMARK_MAIN();
