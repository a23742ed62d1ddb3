//! WRF — numerical weather prediction.
//!
//! WRF's communication signature in Table I is extreme: ~94% of all link
//! idle intervals are below 20 µs at every scale (dense bursts of halo
//! exchanges posted with `MPI_Isend`/`MPI_Irecv`/`MPI_Waitall`), yet those
//! tiny intervals account for ~1% of idle *time* — the physics
//! (microphysics, cumulus, boundary layer) gap between burst groups holds
//! nearly all of it. Burst lengths change whenever the dynamics load
//! balancing adjusts the decomposition (modelled as "stretches": every
//! ~dozen iterations the burst size changes, breaking the learned
//! pattern), and every ~10 steps a radiation substep adds an extra gram —
//! the paper's lowest hit rate (25–33%) with still-substantial power
//! savings at small scale (38%→4% across 8→128 ranks).

use crate::common::{halo_bytes, rank_imbalance, GapModel, Scaling};
use crate::spec::Workload;
use ibp_simcore::DetRng;
use ibp_simcore::SimDuration;
use ibp_trace::{MpiOp, Trace, TraceBuilder};

/// WRF generator parameters.
#[derive(Debug, Clone)]
pub struct Wrf {
    /// Number of model time steps.
    pub iterations: u32,
    /// Physics gap between the two burst groups (holds most idle time).
    pub physics_gap: GapModel,
    /// Dynamics gap before the first burst group.
    pub dynamics_gap: GapModel,
    /// Halo exchanges per burst (pairs of Isend/Irecv + one Waitall).
    pub burst_exchanges: u32,
    /// Mean length (iterations) of a load-balancing "stretch" during which
    /// the burst size is constant; at each stretch boundary it changes.
    pub stretch_len: u32,
    /// Radiation substep period (adds an extra gram), in steps.
    pub radiation_period: u32,
    /// Total halo volume per rank at 8 ranks, bytes.
    pub halo_volume_at8: f64,
    /// Per-rank contribution to the per-iteration lateral-boundary
    /// `MPI_Allgather` (ring algorithm: its cost grows linearly with the
    /// process count — the strong-scaling communication floor).
    pub gather_bytes: u64,
    /// Strong (paper) or weak scaling of the per-rank problem.
    pub scaling: Scaling,
    /// Per-rank imbalance spread.
    pub imbalance: f64,
}

impl Default for Wrf {
    fn default() -> Self {
        Wrf {
            iterations: 200,
            physics_gap: GapModel {
                base_us: 18_000.0,
                ref_n: 8,
                alpha: 1.25,
                sigma: 0.004,
            },
            dynamics_gap: GapModel {
                base_us: 3_500.0,
                ref_n: 8,
                alpha: 1.25,
                sigma: 0.004,
            },
            burst_exchanges: 10,
            stretch_len: 8,
            radiation_period: 10,
            halo_volume_at8: 2.5e6,
            gather_bytes: 192_000,
            scaling: Scaling::Strong,
            imbalance: 0.02,
        }
    }
}

impl Wrf {
    /// Tiny gap between non-blocking posts: the posting loop is fast
    /// (sub-2 µs), which keeps the tiny-interval *time* share around 1%
    /// as in Table I even though the tiny-interval *count* dominates.
    fn post_gap(rng: &mut DetRng) -> SimDuration {
        SimDuration::from_us_f64(rng.uniform_range(0.3, 1.8))
    }

    /// Emit one burst of `exchanges` non-blocking halo exchanges followed
    /// by a `Waitall`, with tiny intra-gram gaps. `reqs` is scratch for
    /// the burst's request ids, reused across bursts.
    fn burst(
        &self,
        b: &mut TraceBuilder,
        r: u32,
        reqs: &mut Vec<u32>,
        exchanges: u32,
        msg_bytes: u64,
        rng: &mut DetRng,
    ) {
        let nprocs = b.nprocs();
        reqs.clear();
        for j in 0..exchanges {
            if j > 0 {
                b.compute(r, Self::post_gap(rng));
            }
            let hop = (j / 2 + 1).min(nprocs - 1).max(1);
            let (fwd, bwd) = ((r + hop) % nprocs, (r + nprocs - hop) % nprocs);
            let (to, from) = if j % 2 == 0 { (fwd, bwd) } else { (bwd, fwd) };
            reqs.push(b.irecv(r, from, msg_bytes));
            b.compute(r, Self::post_gap(rng));
            reqs.push(b.isend(r, to, msg_bytes));
        }
        b.compute(r, Self::post_gap(rng));
        b.waitall(r, reqs);
    }
}

impl Workload for Wrf {
    fn name(&self) -> &'static str {
        "wrf"
    }

    fn valid_nprocs(&self, n: u32) -> bool {
        n >= 2
    }

    fn paper_procs(&self) -> &'static [u32] {
        &[8, 16, 32, 64, 128]
    }

    fn generate(&self, nprocs: u32, seed: u64) -> Trace {
        assert!(self.valid_nprocs(nprocs), "wrf needs >= 2 ranks");
        let root = DetRng::seed_from_u64(seed);
        let mut imb_rng = root.split(0);
        let factors = rank_imbalance(nprocs, self.imbalance, &mut imb_rng);

        // SPMD-shared schedule: burst sizes per stretch and radiation steps.
        let mut sched = root.split(usize::MAX as u64);
        let mut burst_sizes = Vec::with_capacity(self.iterations as usize);
        {
            let mut current = self.burst_exchanges;
            let mut left = self.stretch_len;
            for _ in 0..self.iterations {
                if left == 0 {
                    // Load balancing changed the decomposition: new size.
                    let delta = sched.index(5) as i64 - 2; // −2..=+2
                    current = (i64::from(self.burst_exchanges) + delta).max(2) as u32;
                    left = self.stretch_len.max(2) - 1 + sched.index(4) as u32;
                } else {
                    left -= 1;
                }
                burst_sizes.push(current);
            }
        }

        let gn = self.scaling.effective_n(nprocs, 8);
        let total_halo = halo_bytes(self.halo_volume_at8, 8, gn);

        let mut b = TraceBuilder::new("wrf", nprocs);
        let mut reqs = Vec::new();
        for r in 0..nprocs {
            let mut rng = root.split(1 + u64::from(r));
            let f = factors[r as usize];
            for (it, &exchanges) in burst_sizes
                .iter()
                .enumerate()
                .take(self.iterations as usize)
            {
                let msg_bytes = (total_halo / u64::from(2 * exchanges)).max(64);
                // Dynamics, then the first burst group.
                b.compute(r, self.dynamics_gap.draw(gn, f, &mut rng));
                self.burst(&mut b, r, &mut reqs, exchanges, msg_bytes, &mut rng);
                // Physics (the big gap), then the second burst group.
                b.compute(r, self.physics_gap.draw(gn, f, &mut rng));
                self.burst(&mut b, r, &mut reqs, exchanges, msg_bytes, &mut rng);
                // Lateral-boundary aggregation: an O(n) collective that
                // becomes the communication floor under strong scaling.
                b.compute(r, Self::post_gap(&mut rng));
                b.op(
                    r,
                    MpiOp::Allgather {
                        bytes: self.gather_bytes,
                    },
                );
                // Radiation substep every few iterations: extra gram.
                if self.radiation_period > 0 && (it + 1) % self.radiation_period as usize == 0 {
                    b.compute(r, self.dynamics_gap.draw(gn, f, &mut rng));
                    b.op(r, MpiOp::Allreduce { bytes: 64 });
                }
            }
            b.compute(r, self.physics_gap.draw(gn, f, &mut rng));
        }
        let trace = b.build();
        debug_assert!(trace.validate().is_ok());
        trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ibp_trace::IdleDistribution;

    fn small() -> Wrf {
        Wrf {
            iterations: 60,
            ..Wrf::default()
        }
    }

    #[test]
    fn valid_and_deterministic() {
        let w = small();
        for &n in w.paper_procs() {
            w.generate(n, 3).validate().unwrap();
        }
        assert_eq!(w.generate(32, 9), w.generate(32, 9));
    }

    #[test]
    fn tiny_intervals_dominate_counts_not_time() {
        // The WRF signature of Table I: ≥90% of intervals below 20 µs,
        // but ≥95% of idle time above 200 µs.
        let t = small().generate(8, 5);
        let d = IdleDistribution::from_trace(&t);
        assert!(d.short.interval_pct > 85.0, "{}", d.short.interval_pct);
        assert!(d.short.time_pct < 5.0, "{}", d.short.time_pct);
        assert!(d.long.time_pct > 90.0, "{}", d.long.time_pct);
    }

    #[test]
    fn burst_sizes_change_at_stretch_boundaries() {
        let w = Wrf {
            iterations: 100,
            stretch_len: 5,
            ..Wrf::default()
        };
        let t = w.generate(4, 6);
        // Count calls per iteration via Waitall markers: sizes must vary.
        let waitalls: Vec<usize> = t.ranks[0]
            .events
            .iter()
            .filter_map(|e| match &e.op {
                MpiOp::Waitall { reqs } => Some(reqs.len()),
                _ => None,
            })
            .collect();
        assert!(waitalls.len() >= 2 * 100);
        let distinct: std::collections::HashSet<usize> = waitalls.into_iter().collect();
        assert!(distinct.len() > 1, "burst sizes never changed");
    }

    #[test]
    fn spmd_consistent_across_ranks() {
        let t = small().generate(8, 7);
        let seq = |r: usize| t.ranks[r].call_stream().map(|(c, _)| c).collect::<Vec<_>>();
        let s0 = seq(0);
        for r in 1..8 {
            assert_eq!(seq(r), s0, "rank {r} diverged");
        }
    }

    #[test]
    fn requests_always_completed() {
        // The builder's request discipline (Isend/Irecv → Waitall) must be
        // airtight or validate() would reject the trace.
        let t = small().generate(16, 8);
        t.validate().unwrap();
    }
}
