/**
 * @file
 * Channel implementation: serialization, propagation,
 * round-robin VC arbitration and the go-back-N reliability layer.
 */

#include "net/link.hpp"

#include <algorithm>
#include <cmath>

namespace tg::net {

Channel::Channel(System &sys, const std::string &name,
                 std::vector<Lane> lanes, double bytes_per_tick, Tick delay)
    : SimObject(sys, name), _lanes(std::move(lanes)), _bw(bytes_per_tick),
      _delay(delay),
      _inj(sys.config().fault, sys.config().seed, name)
{
    if (_bw <= 0)
        fatal("%s: link bandwidth must be positive", name.c_str());
    if (_lanes.empty())
        fatal("%s: channel needs at least one lane", name.c_str());

    _reliable = sys.config().fault.enabled();
    if (_reliable) {
        _ls.resize(_lanes.size());
        auto &reg = sys.stats();
        reg.add(_name + ".crc_errors", &_crcErrors);
        reg.add(_name + ".retransmissions", &_retransmissions);
        reg.add(_name + ".dup_discards", &_dupDiscards);
        reg.add(_name + ".out_of_window", &_outOfWindow);
        reg.add(_name + ".wire_failures", &_wireFailures);
    }

    _arena = &_lanes.front().up->arena();
    for (auto &lane : _lanes) {
        TG_AUDIT(&lane.up->arena() == _arena &&
                     &lane.down->arena() == _arena,
                 "%s: lanes span different packet arenas", _name.c_str());
        lane.up->onData([this] { pump(); });
        lane.down->onSpace([this] { pump(); });
    }
    _traceComp = sys.tracer().registerComponent(name);
}

Channel::Channel(System &sys, const std::string &name,
                 BoundedQueue &upstream, BoundedQueue &downstream,
                 double bytes_per_tick, Tick delay)
    : Channel(sys, name, std::vector<Lane>{Lane{&upstream, &downstream}},
              bytes_per_tick, delay)
{
}

Tick
Channel::serTicks(std::uint32_t wire_bytes) const
{
    // Bandwidth is configured in (fractional) bytes per tick; ceil keeps
    // the serialization time integral and pessimistic, and IEEE division
    // of exact integers is bit-identical across platforms.
    // tglint: allow(tick-float)
    return static_cast<Tick>(
        std::ceil(static_cast<double>(wire_bytes) / _bw));
}

void
Channel::pump()
{
    if (!_reliable) {
        if (!_busy)
            transmit();
        return;
    }
    // Control symbols that have landed are applied first, each at its
    // own tick; the wire frees lazily, without an event of its own.
    drainControl(now() + 1);
    if (_busy && _wireFreeAt <= now()) {
        _wireFreeAt = kMaxTick;
        _busy = false;
    }
    if (!_busy && !linkDown())
        transmit();
    rearm();
}

bool
Channel::hasWork(std::size_t li) const
{
    if (!_reliable)
        return !_lanes[li].up->empty();
    const LaneState &ls = _ls[li]; // a retransmission, or window headroom
    return ls.resend < ls.unacked.size() ||
           (!_lanes[li].up->empty() &&
            ls.unacked.size() < _inj.spec().windowPackets);
}

void
Channel::transmit()
{
    // Fail entries whose retry budget is spent before committing any
    // downstream reservation to them.
    for (std::size_t li = 0; _reliable && li < _lanes.size(); ++li) {
        LaneState &ls = _ls[li];
        while (ls.resend < ls.unacked.size() &&
               ls.unacked[ls.resend].tries > _inj.spec().maxRetries) {
            const PacketHandle h = ls.unacked[ls.resend].h;
            ls.unacked.erase(ls.unacked.begin() + std::ptrdiff_t(ls.resend));
            if (ls.unacked.empty()) {
                ls.deadline = kMaxTick;
                ls.backoff = 0;
            }
            fail(_arena->release(h), "retry budget spent");
        }
    }

    // Round-robin over lanes: pick the first one that has work and a
    // reservable downstream slot.  Lanes are independently buffered, so a
    // blocked VC never stalls the other — the property the dateline
    // deadlock-avoidance scheme needs.
    std::size_t li = _lanes.size();
    for (std::size_t i = 0; i < _lanes.size(); ++i) {
        const std::size_t c = (_rr + i) % _lanes.size();
        if (hasWork(c) && _lanes[c].down->reserve()) {
            li = c;
            _rr = (c + 1) % _lanes.size();
            break;
        }
    }
    if (li == _lanes.size())
        return;

    // Claim the wire before popping: the pop fires the upstream onSpace
    // listeners, which can re-enter pump() and must find the server busy
    // (a double-send here would overwrite _wireFreeAt and break the
    // monotonicity of the pending-arrival ring).
    _busy = true;

    // The fast path puts the packet's own handle on the wire.  The
    // reliable path keeps the clean copy for retransmission and sends a
    // clone (corruption flips a bit in it); a drop sends nothing.
    PacketHandle src, h;
    std::uint32_t tries = 0;
    bool dup = false;
    if (!_reliable) {
        src = h = _lanes[li].up->popHandle();
    } else {
        LaneState &ls = _ls[li];
        if (ls.resend == ls.unacked.size()) {
            const PacketHandle m = _lanes[li].up->popHandle();
            Packet *b = _arena->syncBody(m);
            b->lseq = ls.txNext++;
            b->crc = b->computeCrc();
            if (ls.unacked.empty())
                ls.deadline = now() + timeout(ls);
            ls.unacked.push_back(TxEntry{b->lseq, m, 0});
        }
        TxEntry &e = ls.unacked[ls.resend++];
        if (e.tries > 0)
            ++_retransmissions;
        tries = ++e.tries;
        src = e.h;
        h = kNoPacket;
        if (!_inj.active() || !_inj.dropNow()) {
            h = _arena->clone(src);
            if (_inj.active() && _inj.corruptNow()) {
                // Flip one wire bit across the address/value fields; the
                // stored CRC goes stale and the receiver detects it.
                Packet *w = _arena->syncBody(h);
                const std::uint32_t bit = _inj.corruptBit(128);
                if (bit < 64)
                    w->value ^= Word(1) << bit;
                else
                    w->addr ^= Word(1) << (bit - 64);
            }
            dup = _inj.active() && _inj.duplicateNow();
        }
    }

    const std::uint32_t bytes =
        config().packetHeaderBytes + _arena->payloadBytes(src);
    const Tick ser = serTicks(bytes);
    ++_packets;
    _bytes += bytes;
    _busyTicks += ser;

    _sys.tracer().record(_arena->traceId(src), trace::Span::LinkTx, now(),
                         _traceComp, ser);
    if (Trace::anyEnabled()) {
        const Packet *b = _arena->syncBody(src);
        Trace::log(now(), "net", "%s xmit %s lseq=%llu try=%u%s (%u B)",
                   _name.c_str(), b->toString().c_str(),
                   (unsigned long long)b->lseq, tries,
                   _reliable && h == kNoPacket ? " DROP" : "", bytes);
    }

    // The wire frees after serialization; the packet lands after
    // serialization + propagation delay, and a duplicate one tick later.
    _wireFreeAt = now() + ser;
    const Tick at = _wireFreeAt + _delay;
    _pending.v.push_back(PendingArrival{at, std::uint32_t(li), h});
    if (dup)
        _pending.v.push_back(
            PendingArrival{at + 1, std::uint32_t(li), kNoPacket, true});
    if (!_reliable)
        armAt(_wireFreeAt);
}

void
Channel::armAt(Tick t)
{
    // Already armed at or before t: that firing will re-arm as needed.
    if (_armedFor <= t)
        return;
    TG_AUDIT(t >= now(), "%s: batch event armed in the past (t=%llu)",
             _name.c_str(), (unsigned long long)t);
    _armedFor = t;
    schedule(t - now(), [this] { onBatchTick(); });
}

void
Channel::rearm()
{
    Tick next = _wireFreeAt;
    if (_reliable) {
        // Wake for the wire when a lane has work; for ACKs when a full
        // window holds packets back or a backed-off timer waits (an ACK
        // moves its deadline earlier); for every NACK.  A deadline needs
        // no wake once the receiver holds the whole window and its ACK
        // is due first: that ACK clears the timer whenever it applies.
        bool wire = false, ctrl = _pendingNacks > 0;
        next = _downWakeAt;
        for (std::size_t li = 0; li < _lanes.size(); ++li) {
            const LaneState &ls = _ls[li];
            wire = wire || hasWork(li);
            ctrl = ctrl || ls.backoff > 0 ||
                   (!_lanes[li].up->empty() &&
                    ls.unacked.size() >= _inj.spec().windowPackets);
            if (ls.unacked.empty() || ls.ackDue >= ls.deadline ||
                ls.unacked.back().lseq >= ls.rxExpected)
                next = std::min(next, ls.deadline);
        }
        if (wire)
            next = std::min(next, _wireFreeAt);
        if (ctrl && !_ctrl.empty())
            next = std::min(next, _ctrl.front().at);
    }
    if (!_pending.empty() && _pending.front().at < next)
        next = _pending.front().at;
    if (next != kMaxTick)
        armAt(next);
}

void
Channel::onBatchTick()
{
    const Tick t = now();
    if (t != _armedFor)
        return; // superseded by an earlier re-arm
    // The fault-free path re-arms from inside the batch; the reliable
    // path holds the event until the rearm() that ends its pump().
    if (!_reliable)
        _armedFor = kMaxTick;

    if (_busy && _wireFreeAt <= t) {
        _wireFreeAt = kMaxTick;
        _busy = false;
    }

    if (_reliable) {
        // Symbols that landed before now, then the lanes' timeouts (back
        // off, then go back to the oldest unacknowledged packet): a timer
        // fires ahead of an arrival or ACK on its own tick.
        drainControl(t);
        for (LaneState &ls : _ls) {
            if (ls.deadline > t)
                continue;
            ls.backoff = std::min(ls.backoff + 1, _inj.spec().backoffCap);
            ls.resend = 0;
            ls.deadline = t + timeout(ls);
        }
        if (_downWakeAt <= t)
            _downWakeAt = kMaxTick;
    }

    // Deliver (and thereby return credits for) every arrival due now —
    // the per-(link, tick) coalescing — before starting the next
    // transmission, so the pump decides against settled queue state.
    while (!_pending.empty() && _pending.front().at == t) {
        const PendingArrival a = _pending.front();
        _pending.pop();
        land(a);
    }

    if (_reliable)
        _armedFor = kMaxTick; // and pump() re-arms
    if (_reliable || !_busy)
        pump();
    if (!_reliable)
        rearm();
}

void
Channel::land(const PendingArrival &a)
{
    Lane &lane = _lanes[a.lane];
    if (a.h == kNoPacket) {
        // Lost on the wire: the reserved slot frees when the packet would
        // have landed.  A duplicate the buffer absorbed never held one.
        if (!a.dup)
            lane.down->cancelReservation();
        return;
    }
    if (_reliable) {
        // A duplicate lands right behind its original if the downstream
        // buffer can take it; otherwise back-pressure absorbs the glitch.
        if (!a.dup && !_pending.empty() && _pending.front().dup &&
            lane.down->reserve())
            _pending.front().h = _arena->clone(a.h);

        // The receiver recomputes the CRC over the bits it got, accepts
        // only the next expected sequence number, re-acks duplicates
        // cumulatively (so a lost ACK cannot stall the sender) and NACKs
        // corrupt or out-of-window (gap) arrivals.
        LaneState &ls = _ls[a.lane];
        const Packet *w = _arena->syncBody(a.h);
        Control c{now() + _delay, a.lane, false, 0};
        bool accept = false;
        if (w->crc != w->computeCrc()) {
            ++_crcErrors;
            Trace::log(now(), "net", "%s rx CRC error lseq=%llu",
                       _name.c_str(), (unsigned long long)w->lseq);
            c.nack = true;
        } else if (w->lseq == ls.rxExpected) {
            c.lseq = ls.rxExpected++;
            accept = true;
        } else if (w->lseq < ls.rxExpected) {
            ++_dupDiscards;
            c.lseq = ls.rxExpected - 1;
        } else {
            ++_outOfWindow;
            c.nack = true;
        }
        _pendingNacks += c.nack;
        if (!c.nack)
            ls.ackDue = c.at;
        _ctrl.v.push_back(c);
        if (!accept) {
            (void)_arena->release(a.h);
            lane.down->cancelReservation();
            return;
        }
    }
    _sys.tracer().record(_arena->traceId(a.h), trace::Span::LinkRx, now(),
                         _traceComp);
    lane.down->pushReservedHandle(a.h);
}

void
Channel::drainControl(Tick until)
{
    while (!_ctrl.empty() && _ctrl.front().at < until) {
        const Control c = _ctrl.front();
        _ctrl.pop();
        LaneState &ls = _ls[c.lane];
        if (c.nack) {
            --_pendingNacks;
            // One go-back per round trip: a burst of in-flight packets
            // behind a single corruption produces a NACK each, but only
            // the first may rewind the resend pointer — otherwise the
            // head packet would be retransmitted once per NACK and
            // spuriously burn its retry budget.
            if (ls.unacked.empty() || c.at < ls.nackMuteUntil)
                continue;
            const PacketHandle head = ls.unacked.front().h;
            ls.nackMuteUntil = c.at + 2 * _delay +
                               serTicks(config().packetHeaderBytes +
                                        _arena->payloadBytes(head));
            ls.resend = 0;
            ls.deadline = c.at + timeout(ls);
            continue;
        }
        std::size_t popped = 0;
        while (popped < ls.unacked.size() &&
               ls.unacked[popped].lseq <= c.lseq)
            (void)_arena->release(ls.unacked[popped++].h);
        if (popped == 0)
            continue;
        ls.unacked.erase(ls.unacked.begin(),
                         ls.unacked.begin() + std::ptrdiff_t(popped));
        ls.resend = ls.resend > popped ? ls.resend - popped : 0;
        ls.backoff = 0;
        ls.deadline =
            ls.unacked.empty() ? kMaxTick : c.at + _inj.spec().retryTimeout;
    }
}

bool
Channel::linkDown()
{
    // isDown is checked regardless of active(): targeted down-windows
    // apply to matching links outside the random-fault filter too.  Past
    // the deadline everything pending fails over to the error path;
    // otherwise look again when the link returns or the deadline passes.
    const Tick t = now();
    if (!_inj.isDown(t))
        return false;
    if (_inj.downPastDeadline(t))
        failFast();
    else
        _downWakeAt = std::min(_inj.downUntil(t),
                               _inj.downStart(t) +
                                   _inj.spec().linkDownDeadline + 1);
    return true;
}

void
Channel::fail(Packet &&pkt, const char *why)
{
    ++_wireFailures;
    warn("%s: %s, failing %s", _name.c_str(), why, pkt.toString().c_str());
    if (_failHandler) {
        // Deferred: the handler drains counters and may wake programs
        // that inject new traffic, which must not re-enter a pump that is
        // mid-iteration.
        schedule(0, [this, p = std::move(pkt)]() mutable {
            _failHandler(std::move(p));
        });
    }
}

void
Channel::failFast()
{
    // Down past the deadline: fail everything queued or unacknowledged so
    // in-flight operations complete with a visible error instead of
    // waiting out the outage.  Both ends resynchronise as the link
    // retrains: entries the receiver already took (ACK still on its way)
    // retire quietly, and copies of failed entries still on the wire
    // land as duplicates, so each packet is delivered or failed once.
    for (std::size_t li = 0; li < _lanes.size(); ++li) {
        LaneState &ls = _ls[li];
        for (const TxEntry &e : ls.unacked) {
            Packet pkt = _arena->release(e.h);
            if (e.lseq >= ls.rxExpected)
                fail(std::move(pkt), "link down past deadline");
        }
        ls.unacked.clear();
        ls.resend = 0;
        ls.deadline = kMaxTick;
        ls.backoff = 0;
        ls.rxExpected = ls.txNext;
        while (!_lanes[li].up->empty())
            fail(_lanes[li].up->pop(), "link down past deadline");
    }
}

double
Channel::utilization() const
{
    Tick t = now();
    return t == 0 ? 0.0
                  : static_cast<double>(_busyTicks) / static_cast<double>(t);
}

} // namespace tg::net
