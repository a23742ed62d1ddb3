//! The 2-level Extended Generalized Fat Tree, XGFT(2;18,14;1,18).
//!
//! 14 leaf switches each connect 18 nodes downward and all 18 top
//! switches upward; every node has one host link. All links are
//! full-duplex; each *direction* is a separate channel for contention
//! purposes.
//!
//! Channel layout (for `L = leaf_count`, `M = nodes_per_leaf`,
//! `T = top_count`, `N = L·M` node slots):
//!
//! | id range              | channel                          |
//! |-----------------------|----------------------------------|
//! | `0 .. N`              | node → leaf (host uplink)        |
//! | `N .. 2N`             | leaf → node (host downlink)      |
//! | `2N + (l·T+t)`        | leaf `l` → top `t`               |
//! | `2N + LT + (l·T+t)`   | top `t` → leaf `l`               |
//!
//! Routing is *random up/down* (Table II): traffic between leaves picks a
//! top switch uniformly at random per message.

use crate::config::SimParams;
use ibp_simcore::DetRng;
use ibp_trace::Rank;

/// A unidirectional channel index.
pub type ChannelId = u32;

/// The fat-tree topology with rank→node placement.
#[derive(Debug, Clone)]
pub struct FatTree {
    nodes_per_leaf: u32,
    leaf_count: u32,
    top_count: u32,
    nodes: u32,
}

/// A route: the channels a message traverses, in fixed storage (a
/// 2-level tree never needs more than four, so the hot path carries
/// routes inline instead of allocating a `Vec` per message).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InlineRoute {
    channels: [ChannelId; 4],
    len: u8,
    /// Switches traversed (1 within a leaf, 3 across leaves), counted
    /// as store-and-forward hops for latency purposes.
    pub hops: u32,
}

impl InlineRoute {
    /// Channels in traversal order.
    #[inline]
    #[must_use]
    pub fn channels(&self) -> &[ChannelId] {
        &self.channels[..self.len as usize]
    }
}

impl FatTree {
    /// Build the tree described by `params`.
    ///
    /// # Panics
    /// Panics if `nprocs` exceeds the tree's node capacity.
    pub fn new(params: &SimParams, nprocs: u32) -> Self {
        assert!(
            nprocs <= params.node_capacity(),
            "{} ranks exceed the {}-node XGFT",
            nprocs,
            params.node_capacity()
        );
        FatTree {
            nodes_per_leaf: params.nodes_per_leaf,
            leaf_count: params.leaf_count,
            top_count: params.top_count,
            nodes: params.node_capacity(),
        }
    }

    /// Total number of unidirectional channels.
    pub fn channel_count(&self) -> u32 {
        2 * self.nodes + 2 * self.leaf_count * self.top_count
    }

    /// The node a rank is placed on (one process per node, packed).
    pub fn node_of(&self, rank: Rank) -> u32 {
        assert!(rank < self.nodes, "rank {rank} exceeds node capacity");
        rank
    }

    /// The leaf switch a node hangs off.
    pub fn leaf_of(&self, node: u32) -> u32 {
        node / self.nodes_per_leaf
    }

    /// Host uplink channel of a node (node → leaf).
    pub fn host_up(&self, node: u32) -> ChannelId {
        node
    }

    /// Host downlink channel of a node (leaf → node).
    pub fn host_down(&self, node: u32) -> ChannelId {
        self.nodes + node
    }

    /// Leaf→top channel.
    pub fn up_channel(&self, leaf: u32, top: u32) -> ChannelId {
        2 * self.nodes + leaf * self.top_count + top
    }

    /// Top→leaf channel.
    pub fn down_channel(&self, top: u32, leaf: u32) -> ChannelId {
        2 * self.nodes + self.leaf_count * self.top_count + leaf * self.top_count + top
    }

    /// Route a message from `src` to `dst` rank. Cross-leaf traffic
    /// ascends to a *random* top switch (random routing, Table II),
    /// drawn from `rng`.
    ///
    /// # Panics
    /// Panics if `src == dst` (loopback traffic never enters the fabric).
    pub fn route_inline(&self, src: Rank, dst: Rank, rng: &mut DetRng) -> InlineRoute {
        self.route_with(src, dst, |tops| rng.index(tops as usize) as u32)
    }

    /// [`FatTree::route_inline`] with the top-switch draw deferred:
    /// `draw_top(top_count)` runs only for a cross-leaf route, so a
    /// caller can skip building a random stream for same-leaf traffic.
    ///
    /// # Panics
    /// Panics if `src == dst` (loopback traffic never enters the fabric).
    #[inline]
    pub(crate) fn route_with(
        &self,
        src: Rank,
        dst: Rank,
        draw_top: impl FnOnce(u32) -> u32,
    ) -> InlineRoute {
        assert_ne!(src, dst, "loopback route requested");
        let (sn, dn) = (self.node_of(src), self.node_of(dst));
        let (sl, dl) = (self.leaf_of(sn), self.leaf_of(dn));
        if sl == dl {
            InlineRoute {
                channels: [self.host_up(sn), self.host_down(dn), 0, 0],
                len: 2,
                hops: 1,
            }
        } else {
            let top = draw_top(self.top_count);
            InlineRoute {
                channels: [
                    self.host_up(sn),
                    self.up_channel(sl, top),
                    self.down_channel(top, dl),
                    self.host_down(dn),
                ],
                len: 4,
                hops: 3,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tree(n: u32) -> FatTree {
        FatTree::new(&SimParams::paper(), n)
    }

    #[test]
    fn capacity_is_252() {
        let t = tree(252);
        assert_eq!(t.channel_count(), 2 * 252 + 2 * 14 * 18);
    }

    #[test]
    #[should_panic(expected = "exceed")]
    fn rejects_oversubscription() {
        tree(253);
    }

    #[test]
    fn channel_ids_are_disjoint() {
        let t = tree(252);
        let mut seen = std::collections::HashSet::new();
        for n in 0..252 {
            assert!(seen.insert(t.host_up(n)));
        }
        for n in 0..252 {
            assert!(seen.insert(t.host_down(n)));
        }
        for l in 0..14 {
            for top in 0..18 {
                assert!(seen.insert(t.up_channel(l, top)));
                assert!(seen.insert(t.down_channel(top, l)));
            }
        }
        assert_eq!(seen.len() as u32, t.channel_count());
        assert!(seen.iter().all(|&c| c < t.channel_count()));
    }

    #[test]
    fn same_leaf_route_is_two_channels() {
        let t = tree(36);
        let mut rng = DetRng::seed_from_u64(1);
        // Ranks 0 and 5 share leaf 0.
        let r = t.route_inline(0, 5, &mut rng);
        assert_eq!(r.channels(), [t.host_up(0), t.host_down(5)]);
        assert_eq!(r.hops, 1);
    }

    #[test]
    fn cross_leaf_route_is_four_channels() {
        let t = tree(128);
        let mut rng = DetRng::seed_from_u64(2);
        // Ranks 0 (leaf 0) and 20 (leaf 1).
        let r = t.route_inline(0, 20, &mut rng);
        assert_eq!(r.channels().len(), 4);
        assert_eq!(r.hops, 3);
        assert_eq!(r.channels()[0], t.host_up(0));
        assert_eq!(r.channels()[3], t.host_down(20));
    }

    #[test]
    fn random_routing_spreads_over_tops() {
        let t = tree(128);
        let mut rng = DetRng::seed_from_u64(3);
        let mut tops = std::collections::HashSet::new();
        for _ in 0..200 {
            let r = t.route_inline(0, 20, &mut rng);
            tops.insert(r.channels()[1]);
        }
        assert!(tops.len() > 10, "only {} distinct up-channels used", tops.len());
    }

    #[test]
    fn deferred_draw_matches_rng_route() {
        // The fabric's deferred draw picks the same channels as a draw
        // from the same stream position, and a same-leaf route never
        // draws at all (the stream stays where it was).
        let t = tree(128);
        for (src, dst) in [(0u32, 5u32), (0, 20), (17, 3), (100, 101)] {
            let mut rng_a = DetRng::seed_from_u64(9);
            let mut rng_b = DetRng::seed_from_u64(9);
            for _ in 0..50 {
                let eager = t.route_inline(src, dst, &mut rng_a);
                let mut drew = false;
                let deferred = t.route_with(src, dst, |tops| {
                    drew = true;
                    rng_b.index(tops as usize) as u32
                });
                assert_eq!(eager, deferred);
                assert_eq!(drew, eager.hops == 3);
            }
            assert_eq!(rng_a.next_u64(), rng_b.next_u64());
        }
    }

    #[test]
    #[should_panic(expected = "loopback")]
    fn loopback_panics() {
        let t = tree(8);
        let mut rng = DetRng::seed_from_u64(4);
        t.route_inline(3, 3, &mut rng);
    }
}
