/**
 * @file
 * Cut-through switch with shared-buffer output queues.
 */

#include "net/switch.hpp"

#include <bit>
#include <utility>

namespace tg::net {

Switch::Switch(System &sys, const std::string &name, std::size_t ports,
               std::size_t vcs)
    : SimObject(sys, name), _ports(ports), _vcs(vcs),
      _arena(&sys.arena()), _busy(ports * vcs, false),
      _maskWords((ports * vcs + 63) / 64),
      _stalled(ports * vcs * _maskWords, 0)
{
    if (vcs == 0)
        fatal("%s: need at least one VC", name.c_str());
    const std::size_t cap = config().switchQueuePackets;
    _in.reserve(ports * vcs);
    _out.reserve(ports * vcs);
    for (std::size_t p = 0; p < ports; ++p) {
        for (std::size_t v = 0; v < vcs; ++v) {
            _in.push_back(std::make_unique<BoundedQueue>(*_arena, cap));
            _out.push_back(std::make_unique<BoundedQueue>(*_arena, cap));
            _in.back()->onData([this, p, v] { pump(p, v); });
            _out.back()->onSpace([this, o = idx(p, v)] { wake(o); });
        }
    }
    _traceComp = sys.tracer().registerComponent(name);
}

void
Switch::setRoute(NodeId node, std::size_t port)
{
    if (port >= _ports)
        fatal("%s: route to port %zu of %zu", _name.c_str(), port, _ports);
    if (_routes.size() <= node)
        _routes.resize(node + 1, SIZE_MAX);
    _routes[node] = port;
}

void
Switch::applyRoutes(std::vector<std::size_t> routes)
{
    for (std::size_t p : routes)
        if (p != SIZE_MAX && p >= _ports)
            fatal("%s: epoch route to port %zu of %zu", _name.c_str(), p,
                  _ports);
    _routes = std::move(routes);
    pumpAll();
}

std::size_t
Switch::route(NodeId node) const
{
    if (node >= _routes.size() || _routes[node] == SIZE_MAX)
        panic("%s: no route for node %u", _name.c_str(), unsigned(node));
    return _routes[node];
}

void
Switch::pumpAll()
{
    for (std::size_t p = 0; p < _ports; ++p)
        for (std::size_t v = 0; v < _vcs; ++v)
            pump(p, v);
}

void
Switch::wake(std::size_t out)
{
    // Same visiting order as pumpAll() restricted to the parked inputs,
    // so the same input wins the freed slot and every schedule() call
    // happens in the same order.  Each word is cleared before its inputs
    // are pumped: one that fails again re-parks itself.
    std::uint64_t *mask = &_stalled[out * _maskWords];
    for (std::size_t w = 0; w < _maskWords; ++w) {
        for (std::uint64_t bits = std::exchange(mask[w], 0); bits != 0;
             bits &= bits - 1) {
            const std::size_t in = w * 64 + std::size_t(std::countr_zero(bits));
            pump(in / _vcs, in % _vcs);
        }
    }
}

void
Switch::pump(std::size_t port, std::size_t vc)
{
    BoundedQueue &in = *_in[idx(port, vc)];
    if (_busy[idx(port, vc)] || in.empty())
        return;

    // Arbitration reads only the arena's SoA hot fields; the cold packet
    // body is never touched on the switch path (DESIGN.md section 14).
    const PacketHandle head = in.frontHandle();
    const std::size_t out = _routeFn ? _routeFn(_arena->hot(head))
                                     : route(_arena->dst(head));
    if (out >= _ports)
        panic("%s: route produced port %zu of %zu", _name.c_str(), out,
              _ports);
    const std::uint8_t out_vc =
        _vcMap ? _vcMap(_arena->hot(head), port, out, std::uint8_t(vc))
               : std::uint8_t(vc);
    if (out_vc >= _vcs)
        panic("%s: VC map produced vc %u of %zu", _name.c_str(),
              unsigned(out_vc), _vcs);

    const std::size_t o = idx(out, out_vc);
    if (!_out[o]->reserve()) {
        // Back-pressure: park on the (VC-private) output buffer.
        const std::size_t i = idx(port, vc);
        _stalled[o * _maskWords + i / 64] |= std::uint64_t(1) << (i % 64);
        return;
    }

    _busy[idx(port, vc)] = true;
    schedule(config().switchLatency, [this, port, vc, out, out_vc] {
        const PacketHandle h = _in[idx(port, vc)]->popHandle();
        _arena->setVc(h, out_vc);
        const std::uint8_t hops = _arena->bumpHops(h);
        if (Trace::anyEnabled())
            Trace::log(now(), "net", "%s fwd p%zu.%zu->p%zu.%u %s",
                       _name.c_str(), port, vc, out, unsigned(out_vc),
                       _arena->syncBody(h)->toString().c_str());
        ++_forwarded;
        _sys.tracer().record(_arena->traceId(h), trace::Span::SwitchFwd,
                             now(), _traceComp, hops);
        _out[idx(out, out_vc)]->pushReservedHandle(h);
        _busy[idx(port, vc)] = false;
        pump(port, vc);
    });
}

} // namespace tg::net
