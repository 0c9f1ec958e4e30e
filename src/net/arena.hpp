/**
 * @file
 * Pooled packet storage for the network datapath (DESIGN.md section 14).
 *
 * The real descendants of the Telegraphos NIC lineage (APEnet+, the FPGA
 * torus NICs) keep their datapath fast with fixed-format packet
 * descriptors living in preallocated rings; the software model mirrors
 * that shape.  A PacketArena owns every in-flight packet of one
 * simulation universe: queues, links and switches pass 32-bit
 * PacketHandle slots instead of copying the ~160-byte Packet value at
 * every hop.
 *
 * The Packet is split into *hot* routing fields — src/dst/vc/hops/
 * payload/traceId, the fields switch arbitration and link serialization
 * actually read — laid out as parallel SoA arrays indexed by handle, and
 * the *cold* body (addresses, operands, CRC, bulk payload) touched only
 * at the endpoints.  During transit the SoA arrays are authoritative for
 * vc/hopsDone; they are written back into the body when the packet is
 * materialized out of the arena (release / front).
 *
 * Storage is a LIFO free list over chunked slot storage: chunks are
 * allocated as the in-flight population grows during warm-up and then
 * recycled forever — zero heap allocations in steady state (asserted by
 * tests/net/packet_alloc_test.cpp).  Handle reuse order is LIFO and
 * acquire/release order is deterministic, so handle values themselves
 * are deterministic (they never feed the trace hash regardless).
 */

#ifndef TELEGRAPHOS_NET_ARENA_HPP
#define TELEGRAPHOS_NET_ARENA_HPP

#include <memory>
#include <vector>

#include "net/packet.hpp"
#include "sim/invariant.hpp"
#include "sim/log.hpp"

namespace tg::net {

/** Index of an arena slot holding one in-flight packet. */
using PacketHandle = std::uint32_t;

/** The null handle (no slot). */
inline constexpr PacketHandle kNoPacket = ~PacketHandle(0);

/**
 * Hot routing view of an in-flight packet: the fields the datapath
 * (switch arbitration, VC mapping, link serialization, tracer taps)
 * reads per hop.  Assembled from the arena's SoA arrays on demand.
 */
struct PacketHot
{
    NodeId src = 0;
    NodeId dst = 0;
    std::uint8_t vc = 0;
    std::uint8_t hopsDone = 0;
    std::uint32_t payloadBytes = 0;
    std::uint64_t traceId = 0;
};

/** Free-list arena of packet slots with an SoA hot-field mirror. */
class PacketArena
{
  public:
    PacketArena() = default;
    PacketArena(const PacketArena &) = delete;
    PacketArena &operator=(const PacketArena &) = delete;

    /** Materialize @p p into a slot; hot fields are mirrored into the
     *  SoA arrays.  Grows by one chunk when the free list is empty. */
    PacketHandle
    acquire(Packet &&p)
    {
        if (_free.empty())
            grow();
        const PacketHandle h = _free.back();
        _free.pop_back();
        TG_AUDIT(!_liveSlot[h], "arena slot %u acquired twice", h);
        _liveSlot[h] = 1;
        slot(h) = std::move(p);
        const Packet &b = slot(h);
        _src[h] = b.src;
        _dst[h] = b.dst;
        _vc[h] = b.vc;
        _hops[h] = b.hopsDone;
        _payload[h] = b.payloadBytes;
        _traceId[h] = b.traceId;
        ++_live;
        if (_live > _highWater)
            _highWater = _live;
        return h;
    }

    /** A new slot holding a copy of slot @p h (hot fields synced): one
     *  link transmission's own bits, freed independently. */
    PacketHandle
    clone(PacketHandle h)
    {
        Packet copy = *syncBody(h);
        return acquire(std::move(copy));
    }

    /** Move the packet out of slot @p h (hot fields written back) and
     *  recycle the slot. */
    Packet
    release(PacketHandle h)
    {
        Packet out = std::move(*syncBody(h));
        TG_AUDIT(_liveSlot[h], "arena slot %u released twice", h);
        _liveSlot[h] = 0;
        _free.push_back(h);
        --_live;
        return out;
    }

    /**
     * Cold body of slot @p h with the hot mutations (vc, hopsDone)
     * written back — for endpoint peeks and value materialization.
     * The reference is valid until the slot is released (chunked
     * storage: slots never move).
     */
    Packet *
    syncBody(PacketHandle h)
    {
        Packet &b = slot(h);
        b.vc = _vc[h];
        b.hopsDone = _hops[h];
        return &b;
    }

    // ------------------------------------------------------------------
    // Hot-field accessors (the per-hop datapath)
    // ------------------------------------------------------------------

    NodeId src(PacketHandle h) const { return _src[h]; }
    NodeId dst(PacketHandle h) const { return _dst[h]; }
    std::uint8_t vc(PacketHandle h) const { return _vc[h]; }
    std::uint8_t hopsDone(PacketHandle h) const { return _hops[h]; }
    std::uint32_t payloadBytes(PacketHandle h) const { return _payload[h]; }
    std::uint64_t traceId(PacketHandle h) const { return _traceId[h]; }

    void setVc(PacketHandle h, std::uint8_t vc) { _vc[h] = vc; }
    std::uint8_t bumpHops(PacketHandle h) { return ++_hops[h]; }

    /** Assembled hot view (route / VC-map hooks). */
    PacketHot
    hot(PacketHandle h) const
    {
        return PacketHot{_src[h],     _dst[h],  _vc[h],
                         _hops[h],    _payload[h], _traceId[h]};
    }

    // ------------------------------------------------------------------
    // Capacity accounting (zero-alloc proofs, bounded-memory tests)
    // ------------------------------------------------------------------

    /** Slots currently holding an in-flight packet. */
    std::size_t live() const { return _live; }

    /** Total slots ever created (== chunks * kChunkSlots). */
    std::size_t capacity() const { return _chunks.size() * kChunkSlots; }

    /** Peak simultaneous in-flight population. */
    std::size_t highWater() const { return _highWater; }

    /** Chunk allocations performed (stable once warm). */
    std::uint64_t chunkAllocs() const { return _chunkAllocs; }

  private:
    static constexpr std::size_t kChunkSlots = 256;

    Packet &slot(PacketHandle h)
    {
        return _chunks[h / kChunkSlots][h % kChunkSlots];
    }

    void
    grow()
    {
        const std::size_t base = capacity();
        if (base + kChunkSlots > std::size_t(kNoPacket))
            panic("PacketArena exhausted the handle space");
        _chunks.push_back(std::make_unique<Packet[]>(kChunkSlots));
        _src.resize(base + kChunkSlots);
        _dst.resize(base + kChunkSlots);
        _vc.resize(base + kChunkSlots);
        _hops.resize(base + kChunkSlots);
        _payload.resize(base + kChunkSlots);
        _traceId.resize(base + kChunkSlots);
        _liveSlot.resize(base + kChunkSlots, 0);
        // LIFO free list: push in reverse so low handles come out first.
        for (std::size_t i = kChunkSlots; i > 0; --i)
            _free.push_back(PacketHandle(base + i - 1));
        ++_chunkAllocs;
    }

    std::vector<std::unique_ptr<Packet[]>> _chunks;
    // SoA hot mirror, indexed by handle.
    std::vector<NodeId> _src;
    std::vector<NodeId> _dst;
    std::vector<std::uint8_t> _vc;
    std::vector<std::uint8_t> _hops;
    std::vector<std::uint32_t> _payload;
    std::vector<std::uint64_t> _traceId;
    std::vector<std::uint8_t> _liveSlot; // audit: double acquire/release
    std::vector<PacketHandle> _free;
    std::size_t _live = 0;
    std::size_t _highWater = 0;
    std::uint64_t _chunkAllocs = 0;
};

} // namespace tg::net

#endif // TELEGRAPHOS_NET_ARENA_HPP
