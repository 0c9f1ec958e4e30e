/**
 * @file
 * End-to-end Cluster benchmark program (see README.md beside this file).
 *
 * Runs one of three whole-cluster workloads through the public API
 * (ClusterSpec, Cluster, Ctx, Communicator, net::Network), checks the
 * outputs, and prints every metric by name with its unit.  Each node
 * runs a closed loop: it issues its next operation only after Ctx
 * returned the previous one.
 *
 *   tg_e2e --workload fabric_uniform|stencil_coherent|fabric_faulty
 *          --seed N --seconds S --trace 0|1 [--size full|tiny]
 *          [--inject-violation]
 *
 * The workload is repeated with the same seed until S host seconds have
 * passed (at least three times).  Every repetition must reproduce the
 * first one's trace hash, simulated metrics and per-layer counts
 * exactly; host timings are medians over the repetitions after the
 * first, which is a warm-up.  With --trace 1 each untraced repetition is
 * paired with a traced one (whose hash must equal the untraced hash) and
 * the per-layer metrics are printed instead of the end-to-end ones.
 *
 * The last stdout line is one JSON object with the keys correct,
 * attempted, failed and metrics.  Any correctness violation prints
 * correct=false and exits 1.  --inject-violation corrupts one checked
 * word after the run, so tests can prove the checks fire.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/cluster.hpp"
#include "api/collectives.hpp"
#include "api/context.hpp"
#include "api/segment.hpp"
#include "coherence/owner_counter.hpp"
#include "net/network.hpp"
#include "sim/random.hpp"
#include "sim/trace.hpp"

using namespace tg;

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Simulated-time cap: a run still going here did not drain. */
constexpr Tick kTickLimit = 20'000'000'000ULL; // 20 simulated seconds

/** Attempts per operation on fabric_faulty before it counts as failed. */
constexpr int kMaxAttempts = 16;

// ---------------------------------------------------------------------
// Options and workload sizes
// ---------------------------------------------------------------------

enum class Workload
{
    FabricUniform,
    StencilCoherent,
    FabricFaulty,
};

struct Options
{
    Workload workload = Workload::FabricUniform;
    std::string workloadName;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    bool tiny = false;
    bool injectViolation = false;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "tg_e2e: %s\nusage: tg_e2e --workload "
                 "fabric_uniform|stencil_coherent|fabric_faulty --seed N "
                 "--seconds S --trace 0|1 [--size full|tiny] "
                 "[--inject-violation]\n",
                 why);
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(("missing value for " + a).c_str());
            return argv[++i];
        };
        if (a == "--workload") {
            o.workloadName = value();
            have_workload = true;
            if (o.workloadName == "fabric_uniform")
                o.workload = Workload::FabricUniform;
            else if (o.workloadName == "stencil_coherent")
                o.workload = Workload::StencilCoherent;
            else if (o.workloadName == "fabric_faulty")
                o.workload = Workload::FabricFaulty;
            else
                usage(("unknown workload " + o.workloadName).c_str());
        } else if (a == "--seed") {
            o.seed = std::strtoull(value().c_str(), nullptr, 10);
        } else if (a == "--seconds") {
            o.seconds = std::strtod(value().c_str(), nullptr);
        } else if (a == "--trace") {
            const std::string t = value();
            if (t != "0" && t != "1")
                usage("--trace must be 0 or 1");
            o.trace = t == "1";
        } else if (a == "--size") {
            const std::string s = value();
            if (s != "full" && s != "tiny")
                usage("--size must be full or tiny");
            o.tiny = s == "tiny";
        } else if (a == "--inject-violation") {
            o.injectViolation = true;
        } else {
            usage(("unknown argument " + a).c_str());
        }
    }
    if (!have_workload)
        usage("--workload is required");
    return o;
}

/** Per-workload scale.  Tiny keeps the shapes and shrinks the counts. */
struct Scale
{
    std::size_t opsPerNode;   ///< fabric workloads
    std::size_t iterations;   ///< stencil_coherent
    std::size_t blockWords;   ///< stencil_coherent block size
    std::size_t fabricNodes;  ///< fabric workloads
    std::size_t stencilNodes; ///< stencil_coherent
};

Scale
scaleFor(const Options &o)
{
    if (o.tiny)
        return {12, 4, 4, 64, 8};
    // fabric_faulty's round trips and think time make each operation
    // cost about 15 simulated us, so it runs fewer of them.
    const std::size_t ops = o.workload == Workload::FabricFaulty ? 120 : 400;
    return {ops, 200, 32, 256, 16};
}

// ---------------------------------------------------------------------
// Workload inputs, generated from the seed before any timing starts
// ---------------------------------------------------------------------

struct FabricOp
{
    bool read = false;
    NodeId dst = 0;
    Tick think = 0; ///< compute before the op (fabric_faulty only)
};

struct Outage
{
    std::size_t leaf, spine;
    Tick from, until;
};

struct Inputs
{
    std::vector<std::vector<FabricOp>> ops; ///< per node, fabric workloads
    std::vector<Outage> outages;            ///< fabric_faulty
    std::vector<std::vector<Tick>> compute; ///< stencil, per node, iteration
};

constexpr Tick kThinkMin = 2'000;   ///< fabric_faulty think time, ns
constexpr Tick kThinkMax = 6'000;
constexpr Tick kComputeMin = 1'000; ///< stencil compute phase, ns
constexpr Tick kComputeMax = 4'000;
constexpr Tick kOutageTicks = 200'000; ///< each trunk outage lasts 200 us

Inputs
makeInputs(const Options &o, const Scale &sc)
{
    Inputs in;
    Rng rng(o.seed * 0x9e3779b97f4a7c15ULL + 1);
    if (o.workload == Workload::StencilCoherent) {
        in.compute.assign(sc.stencilNodes,
                          std::vector<Tick>(sc.iterations));
        for (auto &per_node : in.compute)
            for (Tick &t : per_node)
                t = Tick(rng.range(std::int64_t(kComputeMin),
                                   std::int64_t(kComputeMax)));
        return in;
    }
    const bool faulty = o.workload == Workload::FabricFaulty;
    const double read_frac = faulty ? 0.5 : 0.1;
    const std::size_t n = sc.fabricNodes;
    in.ops.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        in.ops[i].resize(sc.opsPerNode);
        for (FabricOp &op : in.ops[i]) {
            op.read = rng.chance(read_frac);
            op.dst = NodeId((i + 1 + rng.below(n - 1)) % n);
            if (faulty)
                op.think = Tick(rng.range(std::int64_t(kThinkMin),
                                          std::int64_t(kThinkMax)));
        }
    }
    if (faulty) {
        // Two distinct leaf-spine trunks go down early and mid-run (an
        // operation takes about 15 simulated us), each for longer than
        // the link-down deadline, so both trigger routing epochs.
        const std::size_t leaves = n / 4, spines = 4;
        const Tick span = Tick(sc.opsPerNode) * 20'000;
        const std::size_t leaf0 = rng.below(leaves);
        const std::size_t leaf1 =
            (leaf0 + 1 + rng.below(leaves - 1)) % leaves;
        in.outages.push_back(
            {leaf0, leaves + rng.below(spines), span / 4,
             span / 4 + kOutageTicks});
        in.outages.push_back(
            {leaf1, leaves + rng.below(spines), span / 2,
             span / 2 + kOutageTicks});
    }
    return in;
}

ClusterSpec
specFor(const Options &o, const Scale &sc, const Inputs &in, bool traced)
{
    ClusterSpec spec = [&] {
        switch (o.workload) {
        case Workload::FabricUniform:
            return sc.fabricNodes == 256 ? ClusterSpec::torus3d(4, 4, 4, 4)
                                         : ClusterSpec::torus3d(2, 2, 4, 4);
        case Workload::StencilCoherent:
            return ClusterSpec::star(sc.stencilNodes)
                .protocol(coherence::ProtocolKind::OwnerCounter)
                .collectives(CollectiveBackend::Nic);
        case Workload::FabricFaulty:
            break;
        }
        FaultSpec f;
        f.bitErrorRate = 1e-3;
        f.dropRate = 1e-3;
        f.duplicateRate = 1e-3;
        f.retryTimeout = 5'000;
        f.linkDownDeadline = 10'000;
        for (const Outage &w : in.outages)
            f.downTrunk(w.leaf, w.spine, w.from, w.until);
        return ClusterSpec::fatTree(sc.fabricNodes, 4).faults(f);
    }();
    return spec.seed(o.seed).trace(traced);
}

// ---------------------------------------------------------------------
// One repetition: build, run, check, collect
// ---------------------------------------------------------------------

/** What the node programs record while they run. */
struct ProgramLog
{
    /** Simulated issue-to-return time of every operation, and of each
     *  kind separately. */
    std::vector<Tick> opLat, writeLat, readLat, fetchAddLat, barrierLat;
    std::vector<Word> fetchAddOld;
    std::uint64_t attempts = 0;   ///< operations issued, retries included
    std::uint64_t nonOk = 0;      ///< attempts that returned a non-ok Result
    std::uint64_t logicalOps = 0; ///< operations the programs set out to do
    std::uint64_t failedOps = 0;  ///< of those, never completed ok
    std::uint64_t coherentWrites = 0;
    std::vector<std::string> violations;

    /** Record one attempt that took @p dt, of kind @p kind (or none). */
    void
    op(std::vector<Tick> *kind, Tick dt, bool ok)
    {
        opLat.push_back(dt);
        if (kind)
            kind->push_back(dt);
        ++attempts;
        if (!ok)
            ++nonOk;
    }

    void
    violation(std::string what)
    {
        if (violations.size() < 16)
            violations.push_back(std::move(what));
        else if (violations.size() == 16)
            violations.push_back("(further violations suppressed)");
    }
};

std::string
numbered(const char *prefix, std::size_t n)
{
    std::string s = prefix;
    s += std::to_string(n);
    return s;
}

/** Expected final contents of the fabric workloads' slots: node i only
 *  ever writes word i of each remote segment. */
constexpr Word kUnknown = ~Word(0);

struct FabricState
{
    std::vector<Segment *> segs;
    std::vector<std::vector<Word>> last; ///< last[i][dst]
};

Word
fabricValue(NodeId i, std::size_t k)
{
    return (Word(i) << 32) | Word(k + 1);
}

/**
 * One fabric node: its planned reads and writes, back to back or after
 * think time.  With @p confirm_writes (fabric_faulty) every write is
 * followed by a fence, so a lost write shows on that fence's Result and
 * the pair is retried; a failed read is retried too.
 */
Task<void>
fabricNode(Ctx &ctx, const std::vector<FabricOp> *ops, FabricState *st,
           ProgramLog *log, bool confirm_writes)
{
    const NodeId i = ctx.self();
    std::vector<Word> &last = st->last[i];
    for (std::size_t k = 0; k < ops->size(); ++k) {
        const FabricOp &op = (*ops)[k];
        if (op.think)
            co_await ctx.compute(op.think);
        const VAddr va = st->segs[op.dst]->word(i);
        const Word value = fabricValue(i, k);
        bool ok = false;
        for (int attempt = 0; attempt < kMaxAttempts && !ok; ++attempt) {
            Tick t0 = ctx.now();
            if (op.read) {
                const Result<Word> r = co_await ctx.read(va);
                ok = r.ok();
                log->op(&log->readLat, ctx.now() - t0, ok);
                if (ok && last[op.dst] != kUnknown &&
                    r.value() != last[op.dst])
                    log->violation("node " + std::to_string(i) +
                                   " read a stale slot at node " +
                                   std::to_string(op.dst));
                continue;
            }
            ok = (co_await ctx.write(va, value)).ok();
            log->op(&log->writeLat, ctx.now() - t0, ok);
            if (confirm_writes) {
                t0 = ctx.now();
                const bool fenced = (co_await ctx.fence()).ok();
                log->op(nullptr, ctx.now() - t0, fenced);
                ok = ok && fenced;
            }
        }
        ++log->logicalOps;
        if (!op.read)
            last[op.dst] = ok ? value : kUnknown;
        if (!ok)
            ++log->failedOps;
    }
    const Tick t0 = ctx.now();
    const bool drained = (co_await ctx.fence()).ok();
    log->op(nullptr, ctx.now() - t0, drained);
    ++log->logicalOps;
    if (!drained)
        ++log->failedOps;
}

struct StencilState
{
    std::vector<Segment *> blocks;
    Segment *hot = nullptr;
    Communicator *comm = nullptr;
    const std::vector<std::vector<Tick>> *compute = nullptr;
    std::size_t iterations = 0, words = 0;
};

Word
stencilValue(std::size_t owner, std::size_t iter, std::size_t w)
{
    return (Word(iter + 1) << 32) | (Word(owner) << 16) | Word(w);
}

/** Operations one stencil iteration issues. */
std::size_t
stencilOpsPerIteration(std::size_t words)
{
    return 2 * words + 3;
}

/**
 * One stencil node: per iteration a compute phase, a write of its own
 * (replicated) block, a read of its left neighbour's block from the
 * local replica, a fetchAdd on the hot counter, a fence and a barrier.
 */
Task<void>
stencilNode(Ctx &ctx, const StencilState *st, ProgramLog *log)
{
    const std::size_t i = ctx.self();
    const std::size_t n = st->blocks.size();
    const std::size_t left = (i + n - 1) % n;
    const Segment &mine = *st->blocks[i];
    const Segment &theirs = *st->blocks[left];
    for (std::size_t t = 0; t < st->iterations; ++t) {
        co_await ctx.compute((*st->compute)[i][t]);
        for (std::size_t w = 0; w < st->words; ++w) {
            const Tick t0 = ctx.now();
            co_await ctx.write(mine.word(w), stencilValue(i, t, w));
            log->op(&log->writeLat, ctx.now() - t0, true);
            ++log->coherentWrites;
        }
        // The barrier that ended the last iteration fenced the
        // neighbour's previous values in; this iteration's may or may
        // not have arrived yet.
        for (std::size_t w = 0; w < st->words; ++w) {
            const Tick t0 = ctx.now();
            const Word v = co_await ctx.read(theirs.word(w));
            log->op(&log->readLat, ctx.now() - t0, true);
            const Word before = t == 0 ? 0 : stencilValue(left, t - 1, w);
            if (v != before && v != stencilValue(left, t, w))
                log->violation("node " + std::to_string(i) +
                               " read an out-of-order replica value");
        }
        Tick t0 = ctx.now();
        log->fetchAddOld.push_back(
            co_await ctx.fetchAdd(st->hot->word(0), 1));
        log->op(&log->fetchAddLat, ctx.now() - t0, true);
        t0 = ctx.now();
        const bool fenced = (co_await ctx.fence()).ok();
        log->op(nullptr, ctx.now() - t0, fenced);
        t0 = ctx.now();
        const bool met = (co_await st->comm->barrier(ctx)).ok();
        log->op(&log->barrierLat, ctx.now() - t0, met);
        log->logicalOps += stencilOpsPerIteration(st->words);
        log->failedOps += std::size_t(!fenced) + std::size_t(!met);
    }
}

/** Host timings of one repetition. */
struct HostTimes
{
    double clusterS = 0, allocS = 0, spawnS = 0, runS = 0;
    double setupS() const { return clusterS + allocS + spawnS; }
};

/** Everything a repetition produces.  `exact` holds every simulated
 *  value and count; it must repeat bit-for-bit for a given seed. */
struct Rep
{
    HostTimes host;
    std::map<std::string, double> exact;
    std::uint64_t hash = 0;
    std::uint64_t attempted = 0, failed = 0;
    std::vector<std::string> violations;
    trace::Breakdown breakdown;
    double meanWriteNs = 0, meanReadNs = 0;
    std::size_t traceBytes = 0;
    std::uint64_t packetsDelivered = 0;
};

/** Linearly interpolated quantile (0 for no samples). */
template <typename T>
double
quantile(std::vector<T> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const double pos = q * double(v.size() - 1);
    const std::size_t lo = std::size_t(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return double(v[lo]) +
           (pos - double(lo)) * (double(v[hi]) - double(v[lo]));
}

double
mean(const std::vector<Tick> &v)
{
    if (v.empty())
        return 0;
    double s = 0;
    for (Tick t : v)
        s += double(t);
    return s / double(v.size());
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0;
}

/** Read every per-layer count from the modules' public accessors. */
void
collectLayers(Cluster &c, const ProgramLog &log, Tick makespan,
              std::map<std::string, double> &m)
{
    const std::uint64_t events = c.system().events().executed();
    const std::uint64_t delivered = c.system().ledger().delivered;
    net::Network &net = c.network();
    m["sim.events"] = double(events);
    m["sim.events_per_op"] = ratio(double(events), double(log.attempts));
    m["sim.events_per_packet"] = ratio(double(events), double(delivered));
    m["net.packets_delivered"] = double(delivered);
    m["net.hops_per_packet"] =
        ratio(double(net.switchForwarded()), double(delivered));
    m["net.retransmissions"] = double(net.retransmissions());
    m["net.crc_errors"] = double(net.corruptions());
    m["net.dup_discards"] = double(net.duplicateDiscards());
    m["net.wire_failures"] = double(net.wireFailures());
    m["net.routing_epochs"] = double(net.routingEpochs());
    m["net.reroutes_applied"] = double(net.reroutesApplied());

    double cpu_ops = 0, ctx_sw = 0, tc_txn = 0, tc_busy = 0, tc_wait = 0;
    double c_hit = 0, c_all = 0, t_hit = 0, t_all = 0;
    double packets = 0, atomics = 0, cc_stalls = 0, barriers = 0;
    double combines = 0, hib_wf = 0, out_peak = 0, cc_peak = 0;
    for (std::size_t n = 0; n < c.numNodes(); ++n) {
        node::Workstation &ws = c.node(NodeId(n));
        cpu_ops += double(ws.cpu().opsIssued());
        ctx_sw += double(ws.cpu().contextSwitches());
        tc_txn += double(ws.tc().transactions());
        tc_busy += double(ws.tc().busyTicks());
        tc_wait += double(ws.tc().waitTicks());
        c_hit += double(ws.cache().hits());
        c_all += double(ws.cache().hits() + ws.cache().misses());
        t_hit += double(ws.mmu().hits());
        t_all += double(ws.mmu().hits() + ws.mmu().misses());
        hib::Hib &h = ws.hib();
        packets += double(h.packetsHandled());
        atomics += double(h.atomicUnit().executed());
        cc_stalls += double(h.counterCache().stallEvents());
        barriers += double(h.collectives().barriers());
        combines += double(h.collectives().combines());
        hib_wf += double(h.wireFailures());
        out_peak = std::max(out_peak, double(h.outstanding().peak()));
        cc_peak = std::max(cc_peak, double(h.counterCache().peakUsed()));
    }
    m["node.cpu_ops"] = cpu_ops;
    m["node.context_switches"] = ctx_sw;
    m["node.tc_transactions"] = tc_txn;
    m["node.tc_busy_frac"] =
        ratio(tc_busy, double(c.numNodes()) * double(makespan));
    m["node.tc_wait_ns_per_txn"] = ratio(tc_wait, tc_txn);
    m["node.cache_hit_rate"] = ratio(c_hit, c_all);
    m["node.tlb_hit_rate"] = ratio(t_hit, t_all);
    m["hib.packets_handled"] = packets;
    m["hib.atomics"] = atomics;
    m["hib.outstanding_peak"] = out_peak;
    m["hib.counter_cache_stalls"] = cc_stalls;
    m["hib.counter_cache_peak"] = cc_peak;
    m["hib.coll_barriers"] = barriers;
    m["hib.coll_combines"] = combines;
    m["hib.wire_failures"] = hib_wf;
    m["hib.fetch_add_p50_us"] = quantile(log.fetchAddLat, 0.5) / 1e3;

    auto &oc = dynamic_cast<coherence::OwnerCounterProtocol &>(
        c.protocol(coherence::ProtocolKind::OwnerCounter));
    m["coherence.reflected_writes"] = double(oc.reflectedWrites());
    m["coherence.ignored_updates"] = double(oc.ignoredUpdates());
    m["coherence.updates_per_write"] =
        ratio(double(oc.reflectedWrites()), double(log.coherentWrites));

    m["api.write_p50_us"] = quantile(log.writeLat, 0.5) / 1e3;
    m["api.write_p99_us"] = quantile(log.writeLat, 0.99) / 1e3;
    m["api.read_p50_us"] = quantile(log.readLat, 0.5) / 1e3;
    m["api.read_p99_us"] = quantile(log.readLat, 0.99) / 1e3;
    m["api.barrier_p50_us"] = quantile(log.barrierLat, 0.5) / 1e3;
    m["api.barrier_p99_us"] = quantile(log.barrierLat, 0.99) / 1e3;
    m["failed_ops_frac"] = ratio(double(log.nonOk), double(log.attempts));
}

Rep
runOnce(const Options &o, const Scale &sc, const Inputs &in, bool traced)
{
    Rep rep;
    ProgramLog log;
    FabricState fab;
    StencilState sten;
    const ClusterSpec spec = specFor(o, sc, in, traced);

    // --- set-up, timed in three parts --------------------------------
    auto t0 = Clock::now();
    Cluster c(spec);
    rep.host.clusterS = secondsSince(t0);

    t0 = Clock::now();
    const std::size_t nodes = c.numNodes();
    if (o.workload == Workload::StencilCoherent) {
        for (std::size_t n = 0; n < nodes; ++n)
            sten.blocks.push_back(&c.allocShared(
                numbered("blk", n), 8 * sc.blockWords, NodeId(n)));
        for (std::size_t n = 0; n < nodes; ++n) {
            sten.blocks[n]->replicate(NodeId((n + nodes - 1) % nodes),
                                      coherence::ProtocolKind::OwnerCounter);
            sten.blocks[n]->replicate(NodeId((n + 1) % nodes),
                                      coherence::ProtocolKind::OwnerCounter);
        }
        sten.hot = &c.allocShared("hot", 8, 0);
        std::vector<NodeId> all;
        for (std::size_t n = 0; n < nodes; ++n)
            all.push_back(NodeId(n));
        sten.comm = &c.communicator("world", all);
        sten.compute = &in.compute;
        sten.iterations = sc.iterations;
        sten.words = sc.blockWords;
    } else {
        for (std::size_t n = 0; n < nodes; ++n)
            fab.segs.push_back(
                &c.allocShared(numbered("s", n), 8 * nodes, NodeId(n)));
        fab.last.assign(nodes, std::vector<Word>(nodes, 0));
    }
    rep.host.allocS = secondsSince(t0);

    t0 = Clock::now();
    const bool fence_each = o.workload == Workload::FabricFaulty;
    for (std::size_t n = 0; n < nodes; ++n) {
        if (o.workload == Workload::StencilCoherent) {
            c.spawn(NodeId(n), [&sten, &log](Ctx &ctx) {
                return stencilNode(ctx, &sten, &log);
            });
        } else {
            const std::vector<FabricOp> *ops = &in.ops[n];
            c.spawn(NodeId(n), [ops, &fab, &log, fence_each](Ctx &ctx) {
                return fabricNode(ctx, ops, &fab, &log, fence_each);
            });
        }
    }
    rep.host.spawnS = secondsSince(t0);

    // --- the measured phase ------------------------------------------
    t0 = Clock::now();
    const Tick makespan = c.run(kTickLimit);
    rep.host.runS = secondsSince(t0);

    // --- correctness -------------------------------------------------
    if (o.injectViolation) {
        if (o.workload == Workload::StencilCoherent)
            sten.hot->poke(0, sten.hot->peek(0) + 1);
        else
            fab.segs[0]->poke(1, fab.segs[0]->peek(1) ^ 1);
    }
    if (!c.allDone()) {
        log.violation("run did not drain by the tick limit");
        // Every operation a node never reached counts as failed.
        const std::size_t per_node =
            o.workload == Workload::StencilCoherent
                ? sc.iterations * stencilOpsPerIteration(sc.blockWords)
                : sc.opsPerNode + 1;
        const std::uint64_t planned = per_node * nodes;
        if (planned > log.logicalOps) {
            log.failedOps += planned - log.logicalOps;
            log.logicalOps = planned;
        }
    }
    if (c.anyKilled())
        log.violation("a program was killed");
    std::string why;
    if (!c.auditQuiescent(&why))
        log.violation("packet ledger not quiescent: " + why);

    if (o.workload == Workload::StencilCoherent) {
        const Word total = Word(nodes * sc.iterations);
        if (sten.hot->peek(0) != total)
            log.violation("hot counter " + std::to_string(sten.hot->peek(0)) +
                          " != fetchAdds " + std::to_string(total));
        std::vector<Word> olds = log.fetchAddOld;
        std::sort(olds.begin(), olds.end());
        for (std::size_t k = 0; k < olds.size(); ++k)
            if (olds[k] != Word(k)) {
                log.violation("fetchAdd old values are not 0..N-1");
                break;
            }
        for (std::size_t n = 0; n < nodes; ++n) {
            const Segment &b = *sten.blocks[n];
            const NodeId reps[2] = {NodeId((n + nodes - 1) % nodes),
                                    NodeId((n + 1) % nodes)};
            for (std::size_t w = 0; w < sc.blockWords; ++w) {
                const Word want = stencilValue(n, sc.iterations - 1, w);
                if (b.peek(w) != want)
                    log.violation("block " + std::to_string(n) +
                                  " lost its last write");
                for (NodeId r : reps)
                    if (b.peekCopy(r, w) != b.peek(w))
                        log.violation("replica of block " +
                                      std::to_string(n) + " at node " +
                                      std::to_string(r) +
                                      " differs from its owner");
            }
        }
    } else {
        for (std::size_t i = 0; i < nodes; ++i)
            for (std::size_t j = 0; j < nodes; ++j) {
                const Word want = fab.last[i][j];
                if (want != kUnknown && fab.segs[j]->peek(i) != want)
                    log.violation("slot " + std::to_string(i) + " at node " +
                                  std::to_string(j) +
                                  " does not hold its last write");
            }
    }

    // --- collect -----------------------------------------------------
    auto &m = rep.exact;
    m["sim_makespan_us"] = double(makespan) / 1e3;
    m["op_mean_us"] = mean(log.opLat) / 1e3;
    m["op_p99_us"] = quantile(log.opLat, 0.99) / 1e3;
    collectLayers(c, log, makespan, m);

    rep.hash = c.traceHash();
    rep.attempted = log.logicalOps;
    rep.failed = log.failedOps;
    rep.violations = log.violations;
    rep.meanWriteNs = mean(log.writeLat);
    rep.meanReadNs = mean(log.readLat);
    rep.packetsDelivered = c.system().ledger().delivered;
    if (traced) {
        rep.breakdown = c.latencyBreakdown();
        rep.traceBytes = c.tracer().approxBytes();
    }
    m["ops"] = double(log.attempts);
    return rep;
}

// ---------------------------------------------------------------------
// net.host_ns_per_packet: the workload's topology and packet count
// replayed through net::Network with endpoints the benchmark owns
// ---------------------------------------------------------------------

/** Minimal network endpoint: bounded FIFOs whose ingress is drained as
 *  soon as data lands. */
class ReplayEndpoint final : public net::NodeEndpoint
{
  public:
    ReplayEndpoint(System &sys, std::size_t cap)
        : _eg(sys.arena(), cap), _ig(sys.arena(), cap)
    {
    }

    net::BoundedQueue &egress() override { return _eg; }
    net::BoundedQueue &ingress() override { return _ig; }

  private:
    net::BoundedQueue _eg;
    net::BoundedQueue _ig;
};

/** Host ns per delivered packet; 0 when the replay did not drain. */
double
replayPackets(const Options &o, const Scale &sc, const Inputs &in,
              std::uint64_t packets)
{
    ClusterSpec spec = specFor(o, sc, in, false);
    // The replay has no HIB to take failed packets, so the timed outage
    // windows stay out; the link error rates stay in.
    spec.config.fault.downWindows.clear();
    const net::TopologySpec &topo = spec.topology();
    const std::size_t nodes = topo.nodes;
    const std::uint64_t per_node = std::max<std::uint64_t>(1, packets / nodes);

    System sys(spec.config);
    net::Network fabric(sys, "net", topo);
    std::vector<std::unique_ptr<ReplayEndpoint>> eps;
    std::vector<std::uint64_t> left(nodes, per_node);
    std::vector<Rng> rngs;
    std::uint64_t got = 0;
    for (std::size_t i = 0; i < nodes; ++i) {
        eps.push_back(std::make_unique<ReplayEndpoint>(
            sys, spec.config.hibFifoPackets));
        fabric.attach(NodeId(i), *eps[i]);
        rngs.emplace_back(o.seed * 7919 + i);
    }
    for (std::size_t i = 0; i < nodes; ++i) {
        net::BoundedQueue &eg = eps[i]->egress();
        net::BoundedQueue &ig = eps[i]->ingress();
        ig.onData([&ig, &got] {
            while (!ig.empty()) {
                (void)ig.pop();
                ++got;
            }
        });
        auto inject = [&eg, &left, &rngs, i, nodes] {
            while (left[i] > 0 && !eg.full()) {
                net::Packet p;
                p.type = net::PacketType::WriteReq;
                p.src = NodeId(i);
                p.dst = NodeId((i + 1 + rngs[i].below(nodes - 1)) % nodes);
                p.seq = left[i]--;
                p.payloadBytes = 24;
                eg.push(std::move(p));
            }
        };
        eg.onSpace(inject);
        sys.events().schedule(0, inject);
    }
    const auto t0 = Clock::now();
    sys.events().run(kTickLimit);
    const double wall = secondsSince(t0);
    if (got != per_node * nodes)
        return 0;
    return wall * 1e9 / double(got);
}

// ---------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------

struct Metric
{
    std::string name, unit;
    double value;
};

void
printResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
            const std::vector<Metric> &ms)
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false", (unsigned long long)attempted,
                (unsigned long long)failed);
    for (std::size_t k = 0; k < ms.size(); ++k)
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    k ? ", " : "", ms[k].name.c_str(), ms[k].value,
                    ms[k].unit.c_str());
    std::printf("}}\n");
    std::fflush(stdout);
}

double
peakRssMb()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // ru_maxrss is in KiB on Linux
}

/** Per-layer metrics taken as they are from a repetition's exact
 *  results (collectLayers). */
const std::pair<const char *, const char *> kLayerCounts[] = {
    {"sim.events", "count"},
    {"sim.events_per_op", "events/op"},
    {"sim.events_per_packet", "events/packet"},
    {"net.packets_delivered", "count"},
    {"net.hops_per_packet", "hops/packet"},
    {"net.retransmissions", "count"},
    {"net.crc_errors", "count"},
    {"net.dup_discards", "count"},
    {"net.wire_failures", "count"},
    {"net.routing_epochs", "count"},
    {"net.reroutes_applied", "count"},
    {"node.cpu_ops", "count"},
    {"node.context_switches", "count"},
    {"node.tc_transactions", "count"},
    {"node.tc_busy_frac", "fraction"},
    {"node.tc_wait_ns_per_txn", "ns"},
    {"node.cache_hit_rate", "fraction"},
    {"node.tlb_hit_rate", "fraction"},
    {"hib.packets_handled", "count"},
    {"hib.atomics", "count"},
    {"hib.outstanding_peak", "count"},
    {"hib.counter_cache_stalls", "count"},
    {"hib.counter_cache_peak", "count"},
    {"hib.coll_barriers", "count"},
    {"hib.coll_combines", "count"},
    {"hib.wire_failures", "count"},
    {"hib.fetch_add_p50_us", "us"},
    {"coherence.reflected_writes", "count"},
    {"coherence.ignored_updates", "count"},
    {"coherence.updates_per_write", "updates/write"},
    {"api.write_p50_us", "us"},
    {"api.write_p99_us", "us"},
    {"api.read_p50_us", "us"},
    {"api.read_p99_us", "us"},
    {"api.barrier_p50_us", "us"},
    {"api.barrier_p99_us", "us"},
    {"failed_ops_frac", "fraction"},
};

/** Operation kinds and spans the traced breakdown is reported for. */
const std::pair<trace::OpKind, const char *> kTracedOps[] = {
    {trace::OpKind::RemoteWrite, "write"},
    {trace::OpKind::RemoteRead, "read"},
    {trace::OpKind::RemoteAtomic, "atomic"},
    {trace::OpKind::CollBarrier, "coll_barrier"},
};

/** Spans a breakdown row can end at.  CpuIssue opens every operation
 *  and the fence spans belong to OpKind::Fence, so they never end a row
 *  of the kinds above. */
const trace::Span kSpans[] = {
    trace::Span::TcGrant,   trace::Span::HibLaunch, trace::Span::LinkTx,
    trace::Span::LinkRx,    trace::Span::SwitchFwd, trace::Span::HibHandle,
    trace::Span::Completion,
};

} // namespace

int
main(int argc, char **argv)
{
    const Options o = parseArgs(argc, argv);
    const Scale sc = scaleFor(o);
    const Inputs in = makeInputs(o, sc);

    // Repeat until the budget is spent: an untraced repetition, and with
    // --trace a traced one and a packet replay beside it.
    const auto start = Clock::now();
    std::vector<Rep> plain, traced;
    std::vector<double> replay_ns;
    bool deterministic = true;
    std::vector<std::string> violations;
    while (plain.size() < 3 || secondsSince(start) < o.seconds) {
        plain.push_back(runOnce(o, sc, in, false));
        const Rep &r = plain.back();
        for (const auto &v : r.violations)
            violations.push_back(v);
        if (r.exact != plain.front().exact || r.hash != plain.front().hash) {
            violations.push_back("same-seed repetitions differ");
            deterministic = false;
        }
        if (o.trace) {
            traced.push_back(runOnce(o, sc, in, true));
            const Rep &t = traced.back();
            if (t.hash != r.hash) {
                violations.push_back("traced run changed the trace hash");
                deterministic = false;
            }
            if (t.exact != r.exact) {
                violations.push_back("traced run changed simulated results");
                deterministic = false;
            }
            const double ns =
                replayPackets(o, sc, in, r.packetsDelivered);
            if (ns <= 0)
                violations.push_back("packet replay did not drain");
            replay_ns.push_back(ns);
        }
        if (!violations.empty())
            break;
    }

    // The first repetition of each kind warms caches and the allocator;
    // host timings come from the rest.
    const Rep &first = plain.front();
    auto med = [&](auto field) {
        std::vector<double> v;
        for (std::size_t k = plain.size() > 1; k < plain.size(); ++k)
            v.push_back(field(plain[k]));
        return quantile(v, 0.5);
    };
    const double run_s = med([](const Rep &r) { return r.host.runS; });
    const double ops = first.exact.at("ops");
    const double events = first.exact.at("sim.events");

    std::vector<Metric> ms;
    if (!o.trace) {
        ms.push_back({"ops_per_s", "1/s", ops / run_s});
        ms.push_back({"setup_s", "s",
                      med([](const Rep &r) { return r.host.setupS(); })});
        ms.push_back({"peak_rss_mb", "MB", peakRssMb()});
        for (const char *name :
             {"sim_makespan_us", "op_mean_us", "op_p99_us"})
            ms.push_back({name, "us", first.exact.at(name)});
    } else {
        const Rep &t = traced.front();
        std::vector<double> tw;
        for (std::size_t k = traced.size() > 1; k < traced.size(); ++k)
            tw.push_back(traced[k].host.runS);
        ms.push_back({"setup.cluster_s", "s",
                      med([](const Rep &r) { return r.host.clusterS; })});
        ms.push_back({"setup.alloc_s", "s",
                      med([](const Rep &r) { return r.host.allocS; })});
        ms.push_back({"setup.spawn_s", "s",
                      med([](const Rep &r) { return r.host.spawnS; })});
        ms.push_back({"sim.events_per_s", "1/s", events / run_s});
        ms.push_back({"sim.host_ns_per_event", "ns", run_s * 1e9 / events});
        ms.push_back(
            {"net.host_ns_per_packet", "ns", quantile(replay_ns, 0.5)});
        for (const auto &[name, unit] : kLayerCounts)
            ms.push_back({name, unit, first.exact.at(name)});
        ms.push_back({"trace.overhead_frac", "fraction",
                      quantile(tw, 0.5) / run_s - 1.0});
        ms.push_back({"trace.approx_bytes", "bytes", double(t.traceBytes)});
        for (const auto &[kind, name] : kTracedOps) {
            const trace::OpBreakdown *b = t.breakdown.of(kind);
            for (trace::Span s : kSpans) {
                double v = 0;
                if (b)
                    for (const auto &row : b->rows)
                        if (row.span == s)
                            v += row.meanTicks;
                ms.push_back({std::string("trace.") + name + "." +
                                  trace::spanName(s) + "_ns",
                              "ns", v});
            }
        }
        const trace::OpBreakdown *w =
            t.breakdown.of(trace::OpKind::RemoteWrite);
        const trace::OpBreakdown *rd =
            t.breakdown.of(trace::OpKind::RemoteRead);
        ms.push_back({"trace.write.unattributed_ns", "ns",
                      t.meanWriteNs - (w ? w->totalTicks : 0.0)});
        ms.push_back({"trace.read.unattributed_ns", "ns",
                      t.meanReadNs - (rd ? rd->totalTicks : 0.0)});
    }

    // Context for the record: how this binary was built and where it ran.
    std::printf("{\"info\": {\"workload\": \"%s\", \"seed\": %llu, "
                "\"build_type\": \"%s\", \"nproc\": %u, \"repetitions\": "
                "%zu, \"traced_repetitions\": %zu, \"trace_hash\": "
                "\"%016llx\", \"deterministic\": %s}}\n",
                o.workloadName.c_str(), (unsigned long long)o.seed,
                TG_E2E_BUILD_TYPE, std::thread::hardware_concurrency(),
                plain.size(), traced.size(), (unsigned long long)first.hash,
                deterministic ? "true" : "false");
    for (const auto &v : violations)
        std::fprintf(stderr, "tg_e2e: VIOLATION: %s\n", v.c_str());
    const bool correct = violations.empty();
    printResult(correct, first.attempted, first.failed, ms);
    return correct ? 0 : 1;
}
