/**
 * @file
 * Unidirectional link channel between bounded queues.
 *
 * Models one direction of a Telegraphos ribbon-cable link: finite
 * bandwidth (serialization time proportional to wire size), propagation
 * delay, and credit-style back-pressure (a transfer begins only after a
 * slot in the downstream queue has been reserved).
 *
 * A physical link can carry several *virtual channels* (paper reference
 * [17], "VC-level Flow Control"): each VC is a lane with its own
 * upstream/downstream buffer pair, and the lanes share the wire with
 * round-robin arbitration.  Independent VC buffering is what makes the
 * ring topology deadlock-free (dateline routing, see net/network.cpp).
 *
 * When the cluster's fault model is active (Config::fault.enabled()),
 * every channel additionally runs a link-level reliability protocol, the
 * table-stakes machinery of NIC designs in this lineage (APEnet+,
 * Quadrics/Myrinet):
 *
 *  - each transmission carries a per-lane go-back-N sequence number and a
 *    CRC over header + payload;
 *  - the receiving side accepts only the next expected sequence number,
 *    silently discards duplicates (re-acking cumulatively) and NACKs
 *    corrupt or out-of-window arrivals;
 *  - ACK/NACK control symbols return on the cable's dedicated control
 *    lines, one propagation delay after the arrival they answer;
 *  - the sender keeps transmitted packets in a retransmit buffer until
 *    cumulatively acknowledged and replays from the oldest unacked packet
 *    on NACK or timeout (one deadline per lane), with exponential backoff
 *    and a bounded retry budget;
 *  - a packet that exhausts its budget — or traffic on a link that is
 *    administratively down past Config::fault.linkDownDeadline — is
 *    handed to the failure handler (wired by net::Network to the cluster)
 *    so upper layers complete the operation with a visible error instead
 *    of wedging.
 *
 * With the default (inert) FaultSpec none of this is engaged and timing
 * is bit-identical to the calibrated model.
 *
 * Event batching (DESIGN.md section 14.2): both modes share one
 * datapath, a monotone ring of pending arrivals holding arena handles
 * and at most one armed [this]-capturing event.  It fires at the
 * earliest due tick, processes every credit return and arrival due then
 * (per-(link, tick) coalescing) and re-arms.  One wire serializes every
 * transmission, so arrival ticks only grow: a drop only cancels its
 * reservation, and a duplicate lands one tick behind its original.  The
 * reliable mode adds a monotone ring of ACK/NACK symbols and a deadline
 * per lane; it wakes for an ACK or the wire only when a sender waits.
 */

#ifndef TELEGRAPHOS_NET_LINK_HPP
#define TELEGRAPHOS_NET_LINK_HPP

#include <algorithm>
#include <vector>

#include "net/fault.hpp"
#include "net/queue.hpp"
#include "sim/sim_object.hpp"
#include "sim/stats.hpp"

namespace tg::net {

/**
 * Pumps packets from upstream queues into downstream queues over one
 * shared physical wire.
 *
 * The channel is busy for the serialization time of each packet; the
 * packet arrives downstream after serialization + propagation delay.
 * Per-lane delivery is in order (FIFO lanes, single server); the
 * reliability layer preserves exactly-once in-order delivery per lane
 * under corruption, loss and duplication until a packet's retry budget
 * is exhausted.
 */
class Channel : public SimObject
{
  public:
    /** One virtual-channel lane. */
    struct Lane
    {
        BoundedQueue *up;
        BoundedQueue *down;
    };

    /** Invoked with a packet the link permanently failed to deliver. */
    using FailureHandler = Fn<void(Packet &&)>;

    /** Multi-VC channel over @p lanes. */
    Channel(System &sys, const std::string &name, std::vector<Lane> lanes,
            double bytes_per_tick, Tick delay);

    /** Convenience: single-lane channel. */
    Channel(System &sys, const std::string &name, BoundedQueue &upstream,
            BoundedQueue &downstream, double bytes_per_tick, Tick delay);

    /** Install the permanent-delivery-failure handler. */
    void setFailureHandler(FailureHandler h) { _failHandler = std::move(h); }

    /** Total packets moved (transmissions, including retransmissions). */
    std::uint64_t packets() const { return _packets; }

    /** Total payload+header bytes moved. */
    std::uint64_t bytes() const { return _bytes; }

    /** Fraction of time the wire was busy up to now. */
    double utilization() const;

    // ------------------------------------------------------------------
    // Reliability-layer statistics (all zero on the fast path)
    // ------------------------------------------------------------------

    /** Arrivals discarded because the CRC check failed. */
    std::uint64_t corruptions() const { return count(_crcErrors); }

    /** Retransmissions performed (transmissions beyond each first). */
    std::uint64_t retransmissions() const { return count(_retransmissions); }

    /** Duplicate arrivals discarded by the sequence check. */
    std::uint64_t duplicateDiscards() const { return count(_dupDiscards); }

    /** Out-of-window (gap) arrivals discarded. */
    std::uint64_t outOfWindow() const { return count(_outOfWindow); }

    /** Packets permanently failed (budget exhausted or failed over after
     *  an administrative outage passed the deadline). */
    std::uint64_t wireFailures() const { return count(_wireFailures); }

  private:
    static std::uint64_t
    count(const Scalar &s)
    {
        return static_cast<std::uint64_t>(s.value());
    }

    /** FIFO over a vector with a head index.  The consumed prefix is
     *  dropped when drained or half the storage, so a ring that never
     *  drains stays bounded: zero allocation once warm. */
    template <typename T> struct Fifo
    {
        std::vector<T> v;
        std::size_t head = 0;

        bool empty() const { return head == v.size(); }
        T &front() { return v[head]; }
        void
        pop()
        {
            if (++head == v.size() || (head >= 64 && 2 * head >= v.size())) {
                v.erase(v.begin(), v.begin() + std::ptrdiff_t(head));
                head = 0;
            }
        }
    };

    /** One transmission on the wire, landing at `at`.  It owns its bits:
     *  the packet's own slot, or a clone on the reliable path. */
    struct PendingArrival
    {
        Tick at;             ///< arrival tick (monotone in push order)
        std::uint32_t lane;  ///< lane index
        PacketHandle h;      ///< kNoPacket: lost (drop, absorbed duplicate)
        bool dup = false;    ///< duplicate of the entry pushed before it
    };

    /** An ACK or NACK symbol on its way back to the sender. */
    struct Control
    {
        Tick at;            ///< arrival at the sender (monotone)
        std::uint32_t lane; ///< lane index
        bool nack;
        std::uint64_t lseq; ///< cumulative ACK: every lseq <= this
    };

    /** Sender-side retransmit buffer entry: the clean arena copy. */
    struct TxEntry
    {
        std::uint64_t lseq;
        PacketHandle h;
        std::uint32_t tries; ///< transmissions performed so far
    };

    /** Per-lane go-back-N protocol state. */
    struct LaneState
    {
        std::vector<TxEntry> unacked; ///< oldest first, <= windowPackets
        std::size_t resend = 0;       ///< index of next entry to transmit
        std::uint64_t txNext = 1;     ///< next sequence number to assign
        std::uint64_t rxExpected = 1; ///< receiver: next in-order sequence
        Tick deadline = kMaxTick;     ///< retransmit timeout; kMaxTick: none
        std::uint32_t backoff = 0;    ///< current backoff doublings
        Tick nackMuteUntil = 0;       ///< ignore NACKs until a resend RTT
        Tick ackDue = 0;              ///< newest ACK reaches the sender
    };

    /** Start the next transmission if the wire and a lane allow it:
     *  pump() is the listener entry point, transmit() the send. */
    void pump();
    void transmit();

    /** Does lane @p li have something to put on the wire? */
    bool hasWork(std::size_t li) const;

    /** The single armed event: processes everything due now, pumps,
     *  and re-arms. */
    void onBatchTick();

    /** Arm (or keep) the batch event at the earliest due tick. */
    void rearm();

    /** Ensure the batch event fires no later than @p t. */
    void armAt(Tick t);

    /** Arrival @p a at the downstream end of its lane. */
    void land(const PendingArrival &a);

    /** Apply every ACK/NACK that reached the sender before @p until. */
    void drainControl(Tick until);

    /** Retransmit timeout of @p ls with its backoff; FaultSpec::validate
     *  keeps retryTimeout << backoffCap within a Tick. */
    Tick
    timeout(const LaneState &ls) const
    {
        return _inj.spec().retryTimeout
               << std::min(ls.backoff, _inj.spec().backoffCap);
    }

    /** Administrative outage: fail over past the deadline, else note
     *  when to look again.  True while the wire must stay idle. */
    bool linkDown();

    /** Count @p pkt as failed (for reason @p why) and hand it to the
     *  failure handler, deferred. */
    void fail(Packet &&pkt, const char *why);

    /** Fail every queued and unacknowledged packet (outage past the
     *  deadline): the failover path. */
    void failFast();

    /** Serialization time of @p wire_bytes on this channel. */
    Tick serTicks(std::uint32_t wire_bytes) const;

    std::vector<Lane> _lanes;
    PacketArena *_arena = nullptr; ///< the lanes' queues' arena
    std::size_t _rr = 0; ///< round-robin arbitration pointer
    double _bw;
    Tick _delay;
    bool _busy = false;

    // Batching state: pending arrivals, the tick the wire frees, and the
    // tick the single batch event is armed for (kMaxTick = not armed).
    Fifo<PendingArrival> _pending;
    Tick _wireFreeAt = kMaxTick;
    Tick _armedFor = kMaxTick;
    std::uint64_t _packets = 0;
    std::uint64_t _bytes = 0;
    Tick _busyTicks = 0;

    // Reliability layer (engaged when Config::fault.enabled())
    bool _reliable = false;
    FaultInjector _inj;
    std::vector<LaneState> _ls;
    Fifo<Control> _ctrl;
    std::size_t _pendingNacks = 0; ///< NACKs in _ctrl
    Tick _downWakeAt = kMaxTick;   ///< re-check an outage at this tick
    FailureHandler _failHandler;

    Scalar _crcErrors;
    Scalar _retransmissions;
    Scalar _dupDiscards;
    Scalar _outOfWindow;
    Scalar _wireFailures;
    std::uint16_t _traceComp = 0;
};

} // namespace tg::net

#endif // TELEGRAPHOS_NET_LINK_HPP
