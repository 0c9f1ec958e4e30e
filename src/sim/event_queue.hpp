/**
 * @file
 * Deterministic discrete-event queue: two-level ladder/calendar scheduler.
 *
 * Events scheduled for the same tick fire in scheduling order (a
 * monotonically increasing sequence number breaks ties), so a simulation
 * with a fixed seed is bit-for-bit reproducible.
 *
 * Structure (DESIGN.md section 9):
 *
 *  - a *timing wheel* of per-tick FIFO buckets covering the near-term
 *    window [now, now + kWheelTicks): O(1) schedule and pop for the
 *    short link / TurboChannel / HIB delays that dominate the event mix;
 *  - a sorted *overflow ladder* (binary min-heap on (when, seq)) for
 *    far-future events — retransmit timeouts, down-windows, OS costs,
 *    page-sized serializations — spilled into the wheel as the window
 *    advances over them.
 *
 * The exact (when, seq) total order of the original binary-heap engine
 * is preserved, so same-seed trace hashes are byte-identical.  Bucket
 * vectors retain their capacity across drains and closures recycle
 * through the tg::Event pool, so steady-state execution performs zero
 * heap allocations per event.
 */

#ifndef TELEGRAPHOS_SIM_EVENT_QUEUE_HPP
#define TELEGRAPHOS_SIM_EVENT_QUEUE_HPP

#include <array>
#include <cstdint>
#include <vector>

#include "sim/event.hpp"
#include "sim/invariant.hpp"
#include "sim/types.hpp"

namespace tg {

/**
 * The global event queue driving the simulation.
 *
 * Components schedule closures at absolute or relative ticks; run() drains
 * the queue until it is empty or a limit is reached.  There is exactly one
 * EventQueue per System.
 */
class EventQueue
{
  public:
    using Callback = Event;

    /** Width of the near-term timing wheel, in ticks (one bucket each). */
    static constexpr std::size_t kWheelTicks = 4096;

    EventQueue() : _wheel(kWheelTicks) {}
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Tick now() const { return _now; }

    /** Schedule @p cb at absolute tick @p when (must be >= now()). */
    void scheduleAbs(Tick when, Callback cb);

    /** Schedule @p cb @p delta ticks from now. */
    void schedule(Tick delta, Callback cb) { scheduleAbs(_now + delta, std::move(cb)); }

    /**
     * Run until the queue is empty or @p max_events have fired.
     * @return number of events executed.
     */
    std::uint64_t run(std::uint64_t max_events = ~std::uint64_t(0));

    /**
     * Run until simulated time reaches @p limit (events at exactly @p limit
     * still fire) or the queue drains.
     * @return number of events executed.
     */
    std::uint64_t runUntil(Tick limit);

    /** True when no event is pending. */
    bool empty() const { return _wheelCount == 0 && _ladder.empty(); }

    /** Number of pending events. */
    std::size_t pending() const { return _wheelCount + _ladder.size(); }

    /** Total events executed since construction. */
    std::uint64_t executed() const { return _executed; }

    /**
     * Trace-hash accumulator over the run: every fired event mixes
     * (when, seq); components mix packet fields at the HIB boundaries.
     * Comparing values across two same-seed runs proves/refutes
     * bit-for-bit determinism (DESIGN.md section 7).
     */
    audit::TraceHash &trace() { return _trace; }
    const audit::TraceHash &trace() const { return _trace; }

    /**
     * Restore the clock after a checkpoint (DESIGN.md section 14.5).
     * Only legal while the queue is empty: a quiescent checkpoint never
     * has pending events, so the clock, the tie-break sequence counter
     * and the executed count are the queue's entire surviving state.
     */
    void
    restoreClock(Tick now, std::uint64_t seq, std::uint64_t executed)
    {
        TG_AUDIT(empty(), "restoreClock with %zu pending events",
                 pending());
        _now = _base = now;
        _seq = seq;
        _executed = executed;
    }

  private:
    static constexpr std::size_t kWheelMask = kWheelTicks - 1;
    static constexpr std::size_t kBitmapWords = kWheelTicks / 64;

    /** One wheel slot: same-tick events in FIFO (= seq) order.  The
     *  vector is drained via a head cursor and cleared with capacity
     *  retained, so bucket storage is recycled across laps. */
    struct Bucket
    {
        std::vector<std::uint64_t> seqs;
        std::vector<Event> cbs;
        std::size_t head = 0;
    };

    struct LadderEntry
    {
        Tick when;
        std::uint64_t seq;
        Event cb;
    };

    /** Heap comparator: true when @p a fires after @p b (min on top). */
    struct FiresLater
    {
        bool
        operator()(const LadderEntry &a, const LadderEntry &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.seq > b.seq;
        }
    };

    /** True when @p when lands in the wheel window [base, base+W).
     *  Callers guarantee when >= _base, so the subtraction is safe. */
    bool inWheel(Tick when) const { return when - _base < kWheelTicks; }

    void pushWheel(Tick when, std::uint64_t seq, Event cb);

    /** Move ladder events now inside the wheel window into their buckets
     *  (in (when, seq) order, so bucket FIFO order stays correct). */
    void spill();

    /** Re-anchor the window at @p base (>= _now) and spill. */
    void advanceWindow(Tick base);

    /** Earliest pending tick; queue must be non-empty. */
    Tick nextWhen() const;

    /** Bitmap scan for the first occupied bucket at or after the window
     *  base; the wheel must be non-empty. */
    std::size_t firstOccupied() const;

    void pop_and_fire();

    std::vector<Bucket> _wheel;
    std::array<std::uint64_t, kBitmapWords> _occupied{};
    std::size_t _wheelCount = 0;
    std::vector<LadderEntry> _ladder; // binary min-heap via std::*_heap
    Tick _now = 0;
    Tick _base = 0; ///< wheel window start (== _now between events)
    std::uint64_t _seq = 0;
    std::uint64_t _executed = 0;
    audit::TraceHash _trace;
};

#ifdef TG_REFERENCE_HEAP

/**
 * Reference implementation: the original single binary heap, kept for
 * differential tests only (compile with -DTG_REFERENCE_HEAP).  Pops by
 * value via std::pop_heap — no const_cast of a priority_queue top.
 * Must fire in exactly the same (when, seq) order as EventQueue.
 */
class ReferenceEventQueue
{
  public:
    using Callback = Event;

    ReferenceEventQueue() = default;
    ReferenceEventQueue(const ReferenceEventQueue &) = delete;
    ReferenceEventQueue &operator=(const ReferenceEventQueue &) = delete;

    Tick now() const { return _now; }

    void
    scheduleAbs(Tick when, Callback cb)
    {
        if (when < _now) {
            TG_AUDIT(false, "event scheduled in the past: when=%llu now=%llu",
                     (unsigned long long)when, (unsigned long long)_now);
            when = _now;
        }
        _heap.push_back(Entry{when, _seq++, std::move(cb)});
        std::push_heap(_heap.begin(), _heap.end(), Later{});
    }

    void schedule(Tick delta, Callback cb) { scheduleAbs(_now + delta, std::move(cb)); }

    std::uint64_t
    run(std::uint64_t max_events = ~std::uint64_t(0))
    {
        std::uint64_t n = 0;
        while (!_heap.empty() && n < max_events) {
            pop_and_fire();
            ++n;
        }
        return n;
    }

    std::uint64_t
    runUntil(Tick limit)
    {
        std::uint64_t n = 0;
        while (!_heap.empty() && _heap.front().when <= limit) {
            pop_and_fire();
            ++n;
        }
        if (_now < limit)
            _now = limit;
        return n;
    }

    bool empty() const { return _heap.empty(); }
    std::size_t pending() const { return _heap.size(); }
    std::uint64_t executed() const { return _executed; }

    audit::TraceHash &trace() { return _trace; }
    const audit::TraceHash &trace() const { return _trace; }

  private:
    struct Entry
    {
        Tick when;
        std::uint64_t seq;
        Event cb;
    };

    struct Later
    {
        bool
        operator()(const Entry &a, const Entry &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.seq > b.seq;
        }
    };

    void
    pop_and_fire()
    {
        std::pop_heap(_heap.begin(), _heap.end(), Later{});
        Entry e = std::move(_heap.back());
        _heap.pop_back();
        TG_AUDIT(e.when >= _now,
                 "event queue time went backwards: firing %llu at now=%llu",
                 (unsigned long long)e.when, (unsigned long long)_now);
        _now = e.when;
        ++_executed;
        _trace.mix(e.when);
        _trace.mix(e.seq);
        e.cb();
    }

    std::vector<Entry> _heap;
    Tick _now = 0;
    std::uint64_t _seq = 0;
    std::uint64_t _executed = 0;
    audit::TraceHash _trace;
};

#endif // TG_REFERENCE_HEAP

} // namespace tg

#endif // TELEGRAPHOS_SIM_EVENT_QUEUE_HPP
