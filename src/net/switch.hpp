/**
 * @file
 * Telegraphos switch model.
 *
 * The real switch (references [16, 17] of the paper) is a shared-buffer
 * crossbar with VC-level back-pressured flow control, deterministic
 * routing, in-order delivery and deadlock freedom.  We model it as:
 *
 *  - one input FIFO and one output FIFO per (port, virtual channel)
 *    (shares of the pipelined shared buffer),
 *  - a per-(port, VC) cut-through pipeline of fixed latency,
 *  - a static routing table (destination node -> output port),
 *  - a VC-mapping hook so topologies can implement dateline deadlock
 *    avoidance (packets crossing a ring's wrap link are bumped to the
 *    escape VC), and
 *  - reservation-based back-pressure between stages.
 *
 * An input that fails to reserve its output is parked on that output's
 * stalled-input mask; a drain of the output wakes exactly those inputs,
 * in ascending (port, vc) order (DESIGN.md section 14.6).
 *
 * In-order delivery per (source, destination) follows from deterministic
 * single-path routing plus FIFO queueing at every stage — a flow always
 * traverses the same VC sequence, so VCs never reorder it.  A property
 * test asserts it (tests/net/network_test.cpp) because the coherence
 * protocol's correctness argument depends on it (paper section 2.3.1).
 */

#ifndef TELEGRAPHOS_NET_SWITCH_HPP
#define TELEGRAPHOS_NET_SWITCH_HPP

#include <memory>
#include <vector>

#include "net/queue.hpp"
#include "sim/sim_object.hpp"

namespace tg::net {

/** A multi-port, multi-VC shared-buffer switch. */
class Switch : public SimObject
{
  public:
    /**
     * Choose the outgoing VC for a packet:
     * (hot view, in_port, out_port, in_vc) -> out_vc.  The input port
     * lets dimension-ordered schemes distinguish a dimension turn
     * (restart on VC0) from continued travel.  Defaults to keeping the
     * incoming VC.  The hooks take the arena's SoA hot view — the switch
     * never touches the cold packet body (DESIGN.md section 14).
     */
    using VcMap = Fn<std::uint8_t(const PacketHot &, std::size_t,
                                  std::size_t, std::uint8_t)>;

    /**
     * Per-packet output-port selection: hot view -> out_port.  Installed
     * instead of the static route table when routing depends on more
     * than the destination (fat-tree per-flow uplink hashing).
     */
    using RouteFn = Fn<std::size_t(const PacketHot &)>;

    /**
     * @param sys    owning system
     * @param name   instance name
     * @param ports  number of bidirectional ports
     * @param vcs    virtual channels per port (>= 1)
     */
    Switch(System &sys, const std::string &name, std::size_t ports,
           std::size_t vcs = 2);

    std::size_t numPorts() const { return _ports; }
    std::size_t numVcs() const { return _vcs; }

    /** Queue a link delivers into (switch ingress side). */
    BoundedQueue &inQueue(std::size_t port, std::size_t vc = 0)
    {
        return *_in[idx(port, vc)];
    }

    /** Queue a link drains from (switch egress side). */
    BoundedQueue &outQueue(std::size_t port, std::size_t vc = 0)
    {
        return *_out[idx(port, vc)];
    }

    /** Install/overwrite a routing entry: packets for @p node leave @p port. */
    void setRoute(NodeId node, std::size_t port);

    /**
     * Atomically replace the whole routing table (one entry per node;
     * SIZE_MAX = unrouted) and re-evaluate every stalled input (a flip
     * can move a stalled head to a different output).  The fabric
     * rerouter swaps tables with this at routing-epoch flips so a switch
     * never forwards under a half-updated table.
     */
    void applyRoutes(std::vector<std::size_t> routes);

    /** Re-evaluate every stalled input head (route function changed
     *  underneath us: a routing-epoch flip on a per-packet-routed
     *  fabric). */
    void refreshRoutes() { pumpAll(); }

    /** Routing lookup (panics on unrouted destination). */
    std::size_t route(NodeId node) const;

    /** Install the VC-mapping hook (dateline schemes). */
    void setVcMap(VcMap map) { _vcMap = std::move(map); }

    /** Install a per-packet route function (overrides the table). */
    void setRouteFn(RouteFn fn) { _routeFn = std::move(fn); }

    /** Total packets forwarded. */
    std::uint64_t forwarded() const { return _forwarded; }

  private:
    std::size_t idx(std::size_t port, std::size_t vc) const
    {
        return port * _vcs + vc;
    }

    void pump(std::size_t port, std::size_t vc);
    void pumpAll();
    /** Re-pump the inputs parked on output @p out, lowest index first. */
    void wake(std::size_t out);

    std::size_t _ports;
    std::size_t _vcs;
    PacketArena *_arena = nullptr; ///< the system's packet arena
    std::vector<std::unique_ptr<BoundedQueue>> _in;
    std::vector<std::unique_ptr<BoundedQueue>> _out;
    std::vector<bool> _busy;
    std::size_t _maskWords; ///< 64-bit words per output's stall mask
    /** Stalled-input bitmask per output: _maskWords words per output,
     *  bit idx(port, vc) set while that input waits for the output. */
    std::vector<std::uint64_t> _stalled;
    std::vector<std::size_t> _routes; // indexed by NodeId
    VcMap _vcMap;
    RouteFn _routeFn;
    std::uint64_t _forwarded = 0;
    std::uint16_t _traceComp = 0;
};

} // namespace tg::net

#endif // TELEGRAPHOS_NET_SWITCH_HPP
