/**
 * @file
 * Deterministic k-ary collective trees over the active fabric.
 *
 * The NIC collective engine (hib::CollEngine, DESIGN.md section 15) runs
 * barrier / broadcast / reduce state machines over a reduction tree whose
 * shape must be (a) identical on every member node and every seed, and
 * (b) topology-aware, so a torus gets locality-clustered subtrees
 * instead of a shape that zig-zags across the fabric.
 *
 * buildCollTree() satisfies both with a greedy deterministic construction
 * driven purely by TopologyModel::hops(): members are attached in
 * (distance-from-root, rank) order to the already-placed node that is
 * nearest by hop count and still has a free child slot.  Everything the
 * algorithm consults is a pure function of (spec, members, root, fanout),
 * so all members independently compute byte-identical trees.
 */

#ifndef TELEGRAPHOS_NET_COLL_TREE_HPP
#define TELEGRAPHOS_NET_COLL_TREE_HPP

#include <cstddef>
#include <vector>

#include "net/topology.hpp"
#include "sim/types.hpp"

namespace tg::net {

/**
 * A rooted k-ary tree over communicator *ranks* (indices into the
 * member list, not NodeIds).  parent[rootRank] == rootRank.
 */
struct CollTree
{
    std::vector<std::size_t> parent;                ///< per-rank parent rank
    std::vector<std::vector<std::size_t>> children; ///< per-rank child ranks
    std::size_t rootRank = 0;

    /** Tree height: longest rank-to-root path in edges. */
    std::size_t depth() const;
};

/**
 * Build the deterministic k-ary tree for @p members rooted at rank
 * @p root_rank with at most @p fanout children per node, shaped by
 * TopologyModel::hops() distances of @p spec.  O(m^2) in the member
 * count — construction-time only, never on the packet path.
 */
CollTree buildCollTree(const TopologySpec &spec,
                       const std::vector<NodeId> &members,
                       std::size_t root_rank, std::size_t fanout);

} // namespace tg::net

#endif // TELEGRAPHOS_NET_COLL_TREE_HPP
