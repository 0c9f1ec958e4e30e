/**
 * @file
 * Runtime audit layer: TG_AUDIT-gated invariant checks and the FNV trace
 * hash behind the determinism contract (DESIGN.md section 7).
 *
 * The simulator's whole experimental method rests on two properties:
 *
 *  1. *Determinism* — same configuration + seed => bit-identical run.
 *     TraceHash folds every fired event (and every packet crossing a HIB
 *     boundary) into one 64-bit FNV-1a accumulator, so two runs can be
 *     compared exhaustively by comparing one number.
 *
 *  2. *Conservation* — nothing is silently lost.  PacketLedger counts
 *     packets at the HIB injection/consumption boundaries and at the
 *     reliability layer's permanent-failure exit, maintaining
 *     injected == delivered + dropped + in-flight at every instant.
 *
 * TG_AUDIT(cond, ...) panics when an invariant is violated.  Checks are
 * compiled in by default and gated by a cheap global flag (audit::
 * setEnabled); defining TG_NO_AUDIT compiles them out entirely for
 * maximum-speed sweeps.
 */

#ifndef TELEGRAPHOS_SIM_INVARIANT_HPP
#define TELEGRAPHOS_SIM_INVARIANT_HPP

#include <cstdint>
#include <string>

#include "sim/log.hpp"

namespace tg::audit {

/** True when TG_AUDIT checks fire (default: on). */
bool enabled();

/** Globally enable/disable TG_AUDIT checks (perf sweeps switch off). */
void setEnabled(bool on);

} // namespace tg::audit

/**
 * Assert a simulator invariant: panic with a printf-style message when
 * @p cond is false and auditing is enabled.  Free of side effects when
 * disabled; compiled out entirely under TG_NO_AUDIT.
 */
#ifdef TG_NO_AUDIT
#define TG_AUDIT(cond, ...) ((void)0)
#else
#define TG_AUDIT(cond, ...)                                                  \
    do {                                                                     \
        if (::tg::audit::enabled() && !(cond))                               \
            ::tg::panic(__VA_ARGS__);                                        \
    } while (0)
#endif

namespace tg::audit {

/**
 * FNV-1a 64-bit accumulator over the run's observable history.
 *
 * Mixed inputs: (tick, sequence) of every fired event, plus the
 * end-to-end fields of every packet injected into and consumed from the
 * network.  Equal hashes over two complete runs mean equal traces for
 * every practical purpose; unequal hashes pinpoint divergence.
 */
class TraceHash
{
  public:
    static constexpr std::uint64_t kOffset = 0xcbf29ce484222325ULL;
    static constexpr std::uint64_t kPrime = 0x100000001b3ULL;

    /** Fold one 64-bit word, byte by byte (FNV-1a). */
    void
    mix(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            _h ^= (v >> (i * 8)) & 0xff;
            _h *= kPrime;
        }
        ++_mixed;
    }

    /** Current digest. */
    std::uint64_t value() const { return _h; }

    /** Number of words folded in so far. */
    std::uint64_t mixed() const { return _mixed; }

    void
    reset()
    {
        _h = kOffset;
        _mixed = 0;
    }

    /** Restore a previously observed accumulator state (checkpoint
     *  restore, DESIGN.md section 14.5): subsequent mixes continue the
     *  original stream bit-for-bit. */
    void
    restore(std::uint64_t h, std::uint64_t mixed)
    {
        _h = h;
        _mixed = mixed;
    }

  private:
    std::uint64_t _h = kOffset;
    std::uint64_t _mixed = 0;
};

/**
 * Cluster-wide packet conservation ledger.
 *
 * Counting boundaries:
 *  - onInjected():  a HIB handed a packet to the network (Hib::inject)
 *  - onDelivered(): a HIB consumed a packet from its ingress FIFO
 *  - onDropped():   the link reliability layer permanently failed it
 *
 * Invariant (checked on every transition while auditing is enabled):
 * delivered + dropped never exceeds injected, i.e. the network never
 * manufactures packets; at quiescence the in-flight population is zero.
 */
struct PacketLedger
{
    std::uint64_t injected = 0;
    std::uint64_t delivered = 0;
    std::uint64_t dropped = 0;

    void onInjected() { ++injected; }

    void
    onDelivered()
    {
        ++delivered;
        TG_AUDIT(delivered + dropped <= injected,
                 "packet conservation violated: delivered=%llu dropped=%llu "
                 "injected=%llu",
                 (unsigned long long)delivered, (unsigned long long)dropped,
                 (unsigned long long)injected);
    }

    void
    onDropped()
    {
        ++dropped;
        TG_AUDIT(delivered + dropped <= injected,
                 "packet conservation violated: delivered=%llu dropped=%llu "
                 "injected=%llu",
                 (unsigned long long)delivered, (unsigned long long)dropped,
                 (unsigned long long)injected);
    }

    /** Packets currently inside the network (queues, wires, backlogs). */
    std::uint64_t inFlight() const { return injected - delivered - dropped; }

    /**
     * Quiescence check: with no event pending, every injected packet must
     * be accounted for.  @return true when conserved; otherwise false
     * with an explanation in @p why (when non-null).
     */
    bool
    quiescent(std::string *why = nullptr) const
    {
        if (inFlight() == 0)
            return true;
        if (why)
            *why = "in-flight packets at quiescence: injected=" +
                   std::to_string(injected) +
                   " delivered=" + std::to_string(delivered) +
                   " dropped=" + std::to_string(dropped);
        return false;
    }
};

} // namespace tg::audit

#endif // TELEGRAPHOS_SIM_INVARIANT_HPP
