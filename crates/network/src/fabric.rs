//! Message transfer timing with per-channel contention.
//!
//! The fabric approximates Venus' detailed network simulation with a
//! wormhole-style occupancy model: a message's head waits for each channel
//! of its route to become free (accumulating one hop latency per switch),
//! the tail follows one serialization time behind, and every channel on
//! the route stays occupied until the tail has passed. This captures the
//! two effects the paper's results depend on — end-to-end transfer delay
//! and serialization of competing traffic on shared channels — without
//! simulating individual 2 KB segments: each message crosses the fabric
//! whole, and no replay code reads [`SimParams::segment_bytes`] (only
//! [`SimParams::describe`] prints it, as Table II lists it).

use crate::config::SimParams;
use crate::topology::FatTree;
use ibp_simcore::{DetRng, SimDuration, SimTime};
use ibp_trace::Rank;
use std::cell::Cell;

/// Aggregate fabric statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FabricStats {
    /// Messages injected.
    pub messages: u64,
    /// Payload bytes injected.
    pub bytes: u64,
    /// Messages that had to wait for a busy channel.
    pub contended: u64,
}

/// The network fabric: topology + channel occupancy.
#[derive(Debug)]
pub struct Fabric {
    params: SimParams,
    topo: FatTree,
    /// Per-channel busy-until time.
    free: Vec<SimTime>,
    /// The routing stream's split base ([`DetRng::split_from`]): each
    /// cross-leaf message draws its top switch from its own stream
    /// ([`DetRng::split_index`]).
    route_base: u64,
    stats: FabricStats,
    /// One-entry serialization-time memo `(bytes, serial)`: traces use a
    /// handful of message sizes in long runs of the same size, and
    /// `serialize` costs a float division per call (taken twice per
    /// message, in [`Fabric::transfer`] and [`Fabric::inject_done`]).
    serial_memo: Cell<(u64, SimDuration)>,
}

impl Fabric {
    /// Create a fabric for `nprocs` ranks.
    pub fn new(params: SimParams, nprocs: u32, seed: u64) -> Self {
        let topo = FatTree::new(&params, nprocs);
        let free = vec![SimTime::ZERO; topo.channel_count() as usize];
        Fabric {
            params,
            topo,
            free,
            route_base: DetRng::seed_from_u64(seed).split(0xFAB).next_u64(),
            stats: FabricStats::default(),
            serial_memo: Cell::new((0, SimDuration::ZERO)),
        }
    }

    /// [`SimParams::serialize`] through the one-entry memo — exact same
    /// value, float division skipped on repeat sizes.
    #[inline]
    fn serial(&self, bytes: u64) -> SimDuration {
        let (memo_bytes, memo_serial) = self.serial_memo.get();
        if memo_bytes == bytes {
            return memo_serial;
        }
        let serial = self.params.serialize(bytes);
        self.serial_memo.set((bytes, serial));
        serial
    }

    /// Inject a message at `send_time`; returns its arrival time at the
    /// destination NIC. Channel occupancies are updated.
    ///
    /// Each channel on the route is busy for one serialization window as
    /// the message streams through (switch buffers are assumed ample, as
    /// in Dimemas, so downstream congestion does not back-pressure
    /// upstream channels). The route's top switch is chosen by hashing
    /// the message identity (src, dst, `seq`), so the same message takes
    /// the same path in every replay of the same trace — baseline and
    /// power-managed runs see identical routing. `seq` is the message's
    /// 1-based number among the messages `src` has sent to `dst`; the
    /// caller counts them (the replay's per-pair receive state already
    /// does).
    pub fn transfer(
        &mut self,
        send_time: SimTime,
        src: Rank,
        dst: Rank,
        seq: u64,
        bytes: u64,
    ) -> SimTime {
        self.stats.messages += 1;
        self.stats.bytes += bytes;
        if src == dst {
            // Self-message: memcpy through the MPI library, no fabric.
            return send_time + self.params.mpi_latency;
        }
        // Only a cross-leaf route draws (its top switch), so only then
        // is the message's stream derived.
        let label = (u64::from(src) << 40) | (u64::from(dst) << 16) | (seq & 0xFFFF);
        let route_base = self.route_base;
        let route = self.topo.route_with(src, dst, |tops| {
            DetRng::split_index(route_base, label, tops as usize) as u32
        });
        let serial = self.serial(bytes);
        let mut head = send_time + self.params.mpi_latency;
        let mut contended = false;
        for &c in route.channels() {
            let free = self.free[c as usize];
            if free > head {
                contended = true;
                head = free;
            }
            head += self.params.hop_latency;
            // The channel streams the body behind the head.
            self.free[c as usize] = head + serial;
        }
        if contended {
            self.stats.contended += 1;
        }
        head + serial
    }

    /// Sender-side completion of an injection started at `send_time`
    /// (the NIC has accepted all bytes; eager protocol).
    #[inline]
    #[must_use]
    pub fn inject_done(&self, send_time: SimTime, bytes: u64) -> SimTime {
        send_time + self.params.mpi_latency + self.serial(bytes)
    }

    /// Statistics snapshot.
    #[inline]
    #[must_use]
    pub fn stats(&self) -> FabricStats {
        self.stats
    }

    /// The simulation parameters in use.
    #[inline]
    #[must_use]
    pub fn params(&self) -> &SimParams {
        &self.params
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ibp_simcore::SimDuration;

    fn fabric(n: u32) -> Fabric {
        Fabric::new(SimParams::paper(), n, 42)
    }

    #[test]
    fn uncontended_transfer_time() {
        let mut f = fabric(36);
        // Same leaf (ranks 0 and 1): 2 channels, 2 hop latencies.
        let t0 = SimTime::from_us(100);
        let arrival = f.transfer(t0, 0, 1, 1, 2048);
        let expect = t0
            + SimDuration::from_us(1)          // MPI latency
            + SimDuration::from_ns(200)        // 2 hops
            + SimDuration::from_ns(410); // 2 KB serialization
        assert_eq!(arrival, expect);
    }

    #[test]
    fn cross_leaf_adds_hops() {
        let mut f = fabric(128);
        let t0 = SimTime::from_us(100);
        // Ranks 0 (leaf 0) and 20 (leaf 1): 4 channels.
        let arrival = f.transfer(t0, 0, 20, 1, 2048);
        let expect =
            t0 + SimDuration::from_us(1) + SimDuration::from_ns(400) + SimDuration::from_ns(410);
        assert_eq!(arrival, expect);
    }

    #[test]
    fn contention_serializes_shared_channel() {
        let mut f = fabric(36);
        let t0 = SimTime::from_us(0);
        // Two messages from rank 0: the host uplink is shared.
        let a1 = f.transfer(t0, 0, 1, 1, 1 << 20);
        let a2 = f.transfer(t0, 0, 2, 1, 1 << 20);
        assert!(a2 > a1, "second message must queue behind the first");
        // The second waits for the first's tail: ≥ one full serialization.
        let serial = f.params().serialize(1 << 20);
        assert!(a2.since(a1) >= serial - SimDuration::from_us(2));
        assert_eq!(f.stats().contended, 1);
    }

    #[test]
    fn disjoint_routes_do_not_contend() {
        let mut f = fabric(36);
        let t0 = SimTime::from_us(0);
        let a1 = f.transfer(t0, 0, 1, 1, 1 << 20);
        let a2 = f.transfer(t0, 2, 3, 1, 1 << 20);
        assert_eq!(a1, a2, "disjoint same-leaf routes are independent");
        assert_eq!(f.stats().contended, 0);
    }

    #[test]
    fn self_message_skips_fabric() {
        let mut f = fabric(8);
        let t0 = SimTime::from_us(5);
        assert_eq!(
            f.transfer(t0, 3, 3, 1, 1 << 30),
            t0 + SimDuration::from_us(1)
        );
    }

    #[test]
    fn bigger_messages_take_longer() {
        let mut f = fabric(8);
        let t0 = SimTime::from_us(0);
        let small = f.transfer(t0, 0, 1, 1, 1024);
        let mut f2 = fabric(8);
        let large = f2.transfer(t0, 0, 1, 1, 1 << 20);
        assert!(large > small);
    }

    #[test]
    fn stats_accumulate() {
        let mut f = fabric(8);
        f.transfer(SimTime::ZERO, 0, 1, 1, 100);
        f.transfer(SimTime::ZERO, 1, 2, 1, 200);
        assert_eq!(f.stats().messages, 2);
        assert_eq!(f.stats().bytes, 300);
    }
}
