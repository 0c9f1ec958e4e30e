/**
 * @file
 * Deterministic packet-lifecycle tracer (DESIGN.md sections 8 and 14.4).
 *
 * The paper's evidence for its latency claims is a logic-analyzer
 * timeline: section 3.2 accounts for every nanosecond of the 0.70 us
 * remote write and the 7.2 us remote read.  The tracer is the simulator's
 * substitute for that instrument.  When enabled it records a timestamped
 * span event at every boundary a packet (or CPU-issued remote operation)
 * crosses:
 *
 *   CPU issue -> TurboChannel grant -> HIB launch -> link serialization
 *   -> switch forward -> remote HIB handle -> ack/completion
 *   (plus fence register/wake pairs)
 *
 * keyed by a monotonic operation id that rides in Packet::traceId and is
 * copied into replies/acks, so one id covers the full request/response
 * lifecycle.  From the recording the tracer derives
 *
 *  - a per-operation latency *breakdown* table: for every op kind the
 *    mean time spent between consecutive boundaries; components sum to
 *    the mean end-to-end lifecycle by construction, and
 *  - a Chrome trace_event JSON export for visual timelines
 *    (chrome://tracing or https://ui.perfetto.dev).
 *
 * Scale contract (section 14.4): the tracer's memory is *bounded* no
 * matter how long the run or how many nodes trace into it.  Breakdown
 * aggregates stream into fixed (kind, span) cells as events arrive; open
 * operations live in a capped table with deterministic oldest-id
 * eviction; per-kind lifetimes keep an exact sample set up to a cap and
 * spill into a log2-bucket sketch; and the raw-event window retains only
 * the most recent events for the Chrome export.  approxBytes() reports
 * the footprint so tests can assert the bound.
 *
 * Sampling contract: setSampleShift(s) records 1 in 2^s operations,
 * chosen by a splitmix64 hash of the operation id — a pure function of
 * the id, so the choice is stable across seeds and machines.  beginOp() consumes — and returns — an id whether or not
 * the op is sampled (numbering is identical with sampling on and off,
 * and downstream layers see a real id either way), while record()
 * re-derives the sampling decision from the id and drops events for
 * unsampled ops before touching any tracer state.
 *
 * Overhead contract: tracing is disabled by default; every record() call
 * is a single branch on the fast path and performs no heap allocation and
 * no observable side effect while disabled, so the audit trace hash of a
 * run is identical with the tracer compiled in, enabled or not.
 */

#ifndef TELEGRAPHOS_SIM_TRACE_HPP
#define TELEGRAPHOS_SIM_TRACE_HPP

#include <array>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "sim/types.hpp"

namespace tg::trace {

/** Boundary a traced operation crossed (chronological pipeline order). */
enum class Span : std::uint8_t
{
    CpuIssue,   ///< CPU issued the remote operation
    TcGrant,    ///< TurboChannel granted the transaction carrying it
    HibLaunch,  ///< HIB latched the packet into its egress path
    LinkTx,     ///< link started serializing the packet (aux = ser ticks)
    LinkRx,     ///< packet landed at the downstream end of a link
    SwitchFwd,  ///< switch forwarded the packet to an output queue
    HibHandle,  ///< a HIB consumed the packet from its ingress FIFO
    Completion, ///< the operation's waiter was released (ack/reply/data)
    FenceStart, ///< a fence registered against the outstanding counter
    FenceWake,  ///< the fence drained and its waiter resumed
};

/** Number of Span enumerators (sizes the streaming aggregate cells). */
inline constexpr std::size_t kNumSpans = 10;

/** Short mnemonic for a span point. */
const char *spanName(Span s);

/** Kind of traced operation (used to group breakdown rows). */
enum class OpKind : std::uint8_t
{
    RemoteWrite,
    RemoteRead,
    RemoteAtomic,
    RemoteCopy,
    Fence,
    Coherence,
    Software,
    CollBarrier,  ///< NIC-resident barrier (hib::CollEngine)
    CollBcast,    ///< NIC-resident broadcast
    CollReduce,   ///< NIC-resident reduce / all-reduce
    Other,
};

/** Number of OpKind enumerators (sizes the streaming aggregates). */
inline constexpr std::size_t kNumKinds = 11;

/** Short mnemonic for an op kind. */
const char *opKindName(OpKind k);

/**
 * splitmix64 finalizer: the sampling hash.  A pure function of the
 * operation id — no seed, no global state — so the sampled subset is
 * identical across runs and seeds.
 */
constexpr std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** One recorded boundary crossing. */
struct TraceEvent
{
    std::uint64_t id;   ///< operation id (Packet::traceId), monotonic
    Span span;          ///< which boundary
    std::uint16_t comp; ///< registered component that recorded it
    Tick tick;          ///< when
    std::uint64_t aux;  ///< span-specific payload (LinkTx: ser ticks)
};

/** One component row of an operation-kind breakdown. */
struct BreakdownRow
{
    Span span;          ///< boundary this component's time ends at
    std::uint64_t count; ///< boundary crossings aggregated into the row
    double meanTicks;   ///< mean per-operation contribution
};

/** Latency decomposition of one operation kind. */
struct OpBreakdown
{
    OpKind kind;
    std::uint64_t ops;  ///< operations with >= 2 recorded boundaries
    double totalTicks;  ///< mean first->last lifetime; == sum of rows
    double meanHops;    ///< mean switch traversals per operation
    std::vector<BreakdownRow> rows;

    /** Sum of the component rows (equals totalTicks by construction;
     *  exposed so callers can assert the invariant). */
    double rowSumTicks() const;
};

/** Full breakdown table over every traced operation kind. */
struct Breakdown
{
    std::vector<OpBreakdown> ops;

    /** Breakdown of @p kind (nullptr when no ops of that kind traced). */
    const OpBreakdown *of(OpKind kind) const;

    /** Paper-style table ("where each ns goes"), one block per kind. */
    void print(std::ostream &os) const;

    /** Machine-readable form ({"schema":"tg-breakdown-v1", ...}). */
    std::string toJson() const;
};

/**
 * The recorder.  One per System; components register themselves once at
 * construction and call record() at packet boundaries.  All methods are
 * no-ops (without allocation) while disabled.
 */
class Tracer
{
  public:
    /** True when events are being recorded. */
    bool enabled() const { return _enabled; }

    /** Switch recording on/off (Config::tracePackets sets the default). */
    void setEnabled(bool on) { _enabled = on; }

    /**
     * Record 1 in 2^shift operations (0 = every op).  The subset is a
     * pure hash of the op id (mix64), so it is identical across seeds;
     * beginOp() still consumes an id for unsampled ops, keeping the
     * numbering independent of the shift.
     */
    void setSampleShift(std::uint32_t shift) { _sampleShift = shift; }
    std::uint32_t sampleShift() const { return _sampleShift; }

    /** True when op @p id is in the sampled subset for @p shift. */
    static bool
    sampled(std::uint64_t id, std::uint32_t shift)
    {
        return shift == 0 ||
               (mix64(id) & ((std::uint64_t(1) << shift) - 1)) == 0;
    }

    /**
     * Register a recording component (a HIB, link, switch, bus, CPU).
     * Called once per component at construction time, never on the
     * packet path.  @return the component's id for record().
     */
    std::uint16_t registerComponent(const std::string &name);

    /** Names of all registered components, indexed by component id. */
    const std::vector<std::string> &components() const { return _comps; }

    /**
     * Allocate a fresh operation id of @p kind.  Returns the null id (0,
     * which record() ignores) while disabled.  The id counter advances —
     * and the real id is returned — for sampled and unsampled ops alike,
     * so numbering is a pure function of the workload; record() drops
     * events for ids outside the sampled subset.
     */
    std::uint64_t beginOp(OpKind kind);

    /** Kind of operation @p id (Other when unknown or already retired). */
    OpKind kindOf(std::uint64_t id) const;

    /** Record one boundary crossing.  Constant-time branch when the
     *  tracer is disabled or @p id is the null id. */
    void
    record(std::uint64_t id, Span sp, Tick t, std::uint16_t comp,
           std::uint64_t aux = 0)
    {
        if (!_enabled || id == 0)
            return;
        if (_sampleShift != 0 && !sampled(id, _sampleShift))
            return;
        recordImpl(id, sp, t, comp, aux);
    }

    /** Retained raw-event window, in recording (= chronological) order.
     *  Holds every event until retainedEventCap() is reached, then the
     *  most recent ones (aggregates keep streaming regardless). */
    const std::vector<TraceEvent> &events() const { return _events; }

    /** Events recorded over the run, including any beyond the window. */
    std::uint64_t recordedEvents() const { return _recorded; }

    /** Events dropped from the raw window to respect the cap. */
    std::uint64_t droppedEvents() const { return _droppedWindow; }

    /** Open operations force-retired to respect the open-op cap. */
    std::uint64_t evictedOps() const { return _evictedOps; }

    /** Operations begun so far. */
    std::uint64_t opsBegun() const { return _nextId - 1; }

    /** Derive the per-operation-kind latency breakdown table. */
    Breakdown breakdown() const;

    /**
     * First->last boundary lifetime of completed (>= 2 boundaries)
     * operations of @p kind, sorted ascending — ready for percentile
     * extraction (bench_n1_scaling's p50/p99 latency columns).  Exact
     * until the per-kind sample cap; past it, the retained exact sample
     * set (use lifetimeQuantile() for whole-run quantiles).
     */
    std::vector<Tick> opLifetimes(OpKind kind) const;

    /**
     * Lifetime quantile over *every* completed op of @p kind: exact
     * while the sample set fits the cap, log2-bucket interpolation after
     * it spills.  q in [0,1]; 0 when no ops completed.
     */
    double lifetimeQuantile(OpKind kind, double q) const;

    /** Write a Chrome trace_event JSON document of the retained window. */
    void writeChromeTrace(std::ostream &os) const;

    /** Drop recorded events and op ids (components stay registered). */
    void reset();

    // ------------------------------------------------------------------
    // Bounds (defaults hold every existing test/bench workload exactly)
    // ------------------------------------------------------------------

    /** Cap on the raw-event window (oldest half drops when exceeded). */
    void setRetainedEventCap(std::size_t cap);
    std::size_t retainedEventCap() const { return _eventCap; }

    /** Cap on concurrently open (un-retired) operations. */
    void setOpenOpCap(std::size_t cap);
    std::size_t openOpCap() const { return _openCap; }

    /** Cap on exact per-kind lifetime samples before the log2 spill. */
    void setLifetimeSampleCap(std::size_t cap);

    /** Approximate heap footprint in bytes (bounded-memory assertion). */
    std::size_t approxBytes() const;

    // ------------------------------------------------------------------
    // Checkpoint support (DESIGN.md section 14.5)
    // ------------------------------------------------------------------

    /** The next operation id beginOp() would hand out. */
    std::uint64_t nextOpId() const { return _nextId; }

    /** Restore the id counter (checkpoint restore at quiescence, when no
     *  operations are open). */
    void setNextOpId(std::uint64_t id) { _nextId = id; }

  private:
    /** Live state of one sampled, not-yet-retired operation. */
    struct OpState
    {
        OpKind kind;
        Tick first = 0;
        Tick last = 0;
        std::uint32_t boundaries = 0;
        std::uint32_t hops = 0;
    };

    /** Streaming (kind, span) aggregate: total delta ticks + crossings. */
    struct Cell
    {
        std::uint64_t ticks = 0;
        std::uint64_t count = 0;
    };

    /** Finalized per-kind aggregates + bounded lifetime sketch. */
    struct KindAgg
    {
        std::uint64_t ops = 0;  ///< retired ops with >= 2 boundaries
        std::uint64_t hops = 0; ///< their switch traversals
        std::vector<Tick> exact;             ///< lifetimes, up to the cap
        std::array<std::uint64_t, 64> logBuckets{}; ///< spill sketch
        std::uint64_t sketched = 0;          ///< lifetimes in the sketch
    };

    void recordImpl(std::uint64_t id, Span sp, Tick t, std::uint16_t comp,
                    std::uint64_t aux);
    void retire(std::uint64_t id, const OpState &st);
    void pushLifetime(KindAgg &agg, Tick lifetime);

    bool _enabled = false;
    std::uint32_t _sampleShift = 0;
    std::uint64_t _nextId = 1;

    std::vector<TraceEvent> _events; ///< bounded raw window
    std::size_t _eventCap = std::size_t(1) << 18;
    std::uint64_t _recorded = 0;
    std::uint64_t _droppedWindow = 0;

    std::map<std::uint64_t, OpState> _open; ///< ordered: oldest id first
    std::size_t _openCap = std::size_t(1) << 15;
    std::uint64_t _evictedOps = 0;
    std::uint64_t _lateEvents = 0; ///< events for evicted/unknown ops

    Cell _cells[kNumKinds][kNumSpans] = {};
    KindAgg _agg[kNumKinds];
    std::size_t _lifetimeCap = 4096;

    std::vector<std::string> _comps;
};

} // namespace tg::trace

#endif // TELEGRAPHOS_SIM_TRACE_HPP
