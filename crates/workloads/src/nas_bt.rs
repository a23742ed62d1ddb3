//! NAS BT — block-tridiagonal ADI solver.
//!
//! BT runs on a square process grid (the paper uses 9/16/36/64/100
//! ranks). Each iteration computes the right-hand side (the dominant
//! compute gap), then performs line solves swept across the x, y and z
//! dimensions; each sweep exchanges faces with grid neighbours through
//! `MPI_Isend`/`MPI_Irecv`/`MPI_Waitall`. The structure never changes —
//! BT is the paper's most predictable application (hit rate 97–98%,
//! Table III) and its most power-saving one at small scale (≈51% at 9
//! ranks, Fig. 9a), collapsing at 100 ranks where the sweep gaps shrink
//! under the grouping threshold and communication dominates.

use crate::common::{
    grid_neighbors, halo_bytes, intra_gram_gap, rank_imbalance, square_side, GapModel, Scaling,
};
use crate::spec::Workload;
use ibp_simcore::DetRng;
use ibp_trace::{MpiOp, Trace, TraceBuilder};

/// NAS BT generator parameters.
#[derive(Debug, Clone)]
pub struct NasBt {
    /// Number of ADI iterations.
    pub iterations: u32,
    /// Right-hand-side computation gap (the dominant one).
    pub rhs_gap: GapModel,
    /// Per-sweep compute gap (between directional solves).
    pub sweep_gap: GapModel,
    /// Face-exchange volume per rank at 9 ranks, bytes.
    pub face_volume_at9: f64,
    /// Per-rank contribution to the per-iteration `MPI_Allgather` used
    /// for solution statistics (ring algorithm, O(n) cost — BT's
    /// strong-scaling communication floor).
    pub gather_bytes: u64,
    /// Strong (paper) or weak scaling of the per-rank problem.
    pub scaling: Scaling,
    /// Per-rank imbalance spread.
    pub imbalance: f64,
}

impl Default for NasBt {
    fn default() -> Self {
        NasBt {
            iterations: 300,
            rhs_gap: GapModel {
                base_us: 3200.0,
                ref_n: 9,
                alpha: 1.45,
                sigma: 0.003,
            },
            sweep_gap: GapModel {
                base_us: 1000.0,
                ref_n: 9,
                alpha: 1.55,
                sigma: 0.003,
            },
            face_volume_at9: 300e3,
            gather_bytes: 8_000,
            scaling: Scaling::Strong,
            imbalance: 0.008,
        }
    }
}

impl NasBt {
    /// One directional sweep: forward and backward substitution, each
    /// exchanging one face with the two neighbours along `axis`.
    fn sweep(
        b: &mut TraceBuilder,
        r: u32,
        side: u32,
        axis: usize,
        msg_bytes: u64,
        rng: &mut DetRng,
    ) {
        let nbrs = grid_neighbors(r, side);
        // axis 0 → east/west, axis 1 → north/south, axis 2 reuses
        // east/west (the third dimension is not decomposed in the 2-D
        // grid; BT's multipartitioning still exchanges along it).
        let (a, bk) = match axis {
            0 | 2 => (nbrs[0], nbrs[1]),
            _ => (nbrs[2], nbrs[3]),
        };
        for &(to, from) in &[(a, bk), (bk, a)] {
            let r1 = b.irecv(r, from, msg_bytes);
            b.compute(r, intra_gram_gap(rng));
            let r2 = b.isend(r, to, msg_bytes);
            b.compute(r, intra_gram_gap(rng));
            b.waitall(r, &[r1, r2]);
            b.compute(r, intra_gram_gap(rng));
        }
    }
}

impl Workload for NasBt {
    fn name(&self) -> &'static str {
        "nas-bt"
    }

    fn valid_nprocs(&self, n: u32) -> bool {
        n >= 4 && square_side(n).is_some()
    }

    fn paper_procs(&self) -> &'static [u32] {
        &[9, 16, 36, 64, 100]
    }

    fn generate(&self, nprocs: u32, seed: u64) -> Trace {
        let side = square_side(nprocs)
            .unwrap_or_else(|| panic!("NAS BT needs a square process count, got {nprocs}"));
        assert!(nprocs >= 4, "NAS BT needs >= 4 ranks");
        let root = DetRng::seed_from_u64(seed);
        let mut imb_rng = root.split(0);
        let factors = rank_imbalance(nprocs, self.imbalance, &mut imb_rng);
        let gn = self.scaling.effective_n(nprocs, 9);
        let msg_bytes = halo_bytes(self.face_volume_at9, 9, gn).max(64);

        let mut b = TraceBuilder::new("nas-bt", nprocs);
        for r in 0..nprocs {
            let mut rng = root.split(1 + u64::from(r));
            let f = factors[r as usize];
            for _ in 0..self.iterations {
                // RHS computation, then the three directional sweeps.
                b.compute(r, self.rhs_gap.draw(gn, f, &mut rng));
                for axis in 0..3 {
                    if axis > 0 {
                        b.compute(r, self.sweep_gap.draw(gn, f, &mut rng));
                    }
                    Self::sweep(&mut b, r, side, axis, msg_bytes, &mut rng);
                }
                // Solution update residual norm (every iteration in BT).
                b.compute(r, self.sweep_gap.draw(gn, f, &mut rng));
                b.op(r, MpiOp::Allreduce { bytes: 40 });
                b.compute(r, intra_gram_gap(&mut rng));
                b.op(
                    r,
                    MpiOp::Allgather {
                        bytes: self.gather_bytes,
                    },
                );
            }
            b.compute(r, self.rhs_gap.draw(gn, f, &mut rng));
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

    fn small() -> NasBt {
        NasBt {
            iterations: 40,
            ..NasBt::default()
        }
    }

    #[test]
    fn requires_square_counts() {
        let bt = small();
        assert!(bt.valid_nprocs(9));
        assert!(bt.valid_nprocs(100));
        assert!(!bt.valid_nprocs(8));
        assert!(!bt.valid_nprocs(2));
    }

    #[test]
    #[should_panic(expected = "square")]
    fn panics_on_non_square() {
        small().generate(8, 1);
    }

    #[test]
    fn valid_and_deterministic() {
        let bt = small();
        for &n in bt.paper_procs() {
            bt.generate(n, 3).validate().unwrap();
        }
        assert_eq!(bt.generate(16, 5), bt.generate(16, 5));
    }

    #[test]
    fn long_gaps_dominate_time_at_9() {
        let t = small().generate(9, 4);
        let d = IdleDistribution::from_trace(&t);
        // Table I BT@9: 99.99% of idle time in the long bucket.
        assert!(d.long.time_pct > 97.0, "{}", d.long.time_pct);
        // Tiny intervals dominate counts (78%).
        assert!(d.short.interval_pct > 60.0, "{}", d.short.interval_pct);
    }

    #[test]
    fn perfectly_periodic_structure() {
        // The call sequence of iteration k must equal iteration k+1's.
        let t = small().generate(9, 6);
        let calls: Vec<u16> = t.ranks[0].call_stream().map(|(c, _)| c.id()).collect();
        let per_iter = calls.len() / 40;
        for it in 1..39 {
            assert_eq!(
                &calls[it * per_iter..(it + 1) * per_iter],
                &calls[0..per_iter],
                "iteration {it} diverged"
            );
        }
    }

    #[test]
    fn gaps_collapse_at_scale() {
        let bt = small();
        let d9 = IdleDistribution::from_trace(&bt.generate(9, 7));
        let d100 = IdleDistribution::from_trace(&bt.generate(100, 7));
        // Strong scaling pushes intervals out of the long bucket.
        assert!(d100.long.interval_pct < d9.long.interval_pct);
    }
}
