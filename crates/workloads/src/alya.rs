//! ALYA — computational multiphysics (the paper's running example).
//!
//! The paper's Fig. 2 shows ALYA's per-iteration stream: three
//! `MPI_Sendrecv` calls close together (halo exchange of the assembled
//! matrix), then two `MPI_Allreduce` calls each preceded by a long
//! compute gap (solver dot products). ALYA is the *least* power-saving
//! application of the five (Fig. 7–9: ≈14% at 8 ranks down to ≈2% at 128)
//! because it is communication-heavy: halo messages are large and the
//! solver gaps sit close to the grouping threshold, so the displacement
//! margin and `T_react` eat most of each exploitable window.
//!
//! Structure per iteration and rank:
//!
//! ```text
//! [assembly gap]  Sendrecv × k(n)      (one gram; k grows with scale)
//! [solver gap]    Allreduce            (gram)
//! [solver gap]    Allreduce            (gram)
//! ```
//!
//! Every `extra_gram_period` iterations a convergence-check `MPI_Bcast`
//! gram appears, breaking the pattern once (the mechanism re-arms on the
//! next clean iteration) — this pins the ≈93% hit rate of Table III.

use crate::common::{halo_bytes, intra_gram_gap, rank_imbalance, GapModel, Scaling};
use crate::spec::Workload;
use ibp_simcore::DetRng;
use ibp_trace::{MpiOp, Trace, TraceBuilder};

/// ALYA generator parameters (defaults calibrated against the paper).
#[derive(Debug, Clone)]
pub struct Alya {
    /// Number of solver iterations to generate.
    pub iterations: u32,
    /// Matrix-assembly compute gap (precedes the halo gram).
    pub assembly_gap: GapModel,
    /// Solver compute gap (precedes each Allreduce).
    pub solver_gap: GapModel,
    /// Total halo volume per rank at 8 processes, in bytes (surface-law
    /// scaled, split across the halo messages).
    pub halo_volume_at8: f64,
    /// Halo message count at 8 processes and its growth exponent in
    /// `(n/8)^beta` (domain fragmentation adds neighbours at scale).
    pub halo_count_at8: f64,
    /// Growth exponent for the halo message count.
    pub halo_count_beta: f64,
    /// Per-rank contribution to the per-iteration `MPI_Allgather`
    /// (ring algorithm, O(n) cost: boundary-condition aggregation that
    /// becomes ALYA's communication floor under strong scaling).
    pub gather_bytes: u64,
    /// Period (in iterations) of the extra convergence-check gram.
    pub extra_gram_period: u32,
    /// Strong (paper) or weak scaling of the per-rank problem.
    pub scaling: Scaling,
    /// Persistent per-rank compute imbalance spread.
    pub imbalance: f64,
}

impl Default for Alya {
    fn default() -> Self {
        Alya {
            iterations: 150,
            assembly_gap: GapModel {
                base_us: 1600.0,
                ref_n: 8,
                alpha: 0.80,
                sigma: 0.004,
            },
            solver_gap: GapModel {
                base_us: 600.0,
                ref_n: 8,
                alpha: 1.0,
                sigma: 0.004,
            },
            halo_volume_at8: 32.0e6,
            halo_count_at8: 3.0,
            halo_count_beta: 0.8,
            gather_bytes: 64_000,
            extra_gram_period: 40,
            scaling: Scaling::Strong,
            imbalance: 0.01,
        }
    }
}

impl Workload for Alya {
    fn name(&self) -> &'static str {
        "alya"
    }

    fn valid_nprocs(&self, n: u32) -> bool {
        n >= 2
    }

    fn paper_procs(&self) -> &'static [u32] {
        &[8, 16, 32, 64, 128]
    }

    fn generate(&self, nprocs: u32, seed: u64) -> Trace {
        assert!(self.valid_nprocs(nprocs), "alya needs >= 2 ranks");
        let root = DetRng::seed_from_u64(seed);
        let mut imb_rng = root.split(0);
        let factors = rank_imbalance(nprocs, self.imbalance, &mut imb_rng);

        // Per-rank problem size: the real process count under strong
        // scaling, the reference count under weak scaling.
        let gn = self.scaling.effective_n(nprocs, 8);
        let halo_count = ((self.halo_count_at8 * (f64::from(gn) / 8.0).powf(self.halo_count_beta))
            .round() as u32)
            .max(1);
        let total_halo = halo_bytes(self.halo_volume_at8, 8, gn);
        let msg_bytes = (total_halo / u64::from(halo_count)).max(64);

        let mut b = TraceBuilder::new("alya", nprocs);
        for r in 0..nprocs {
            let mut rng = root.split(1 + u64::from(r));
            let f = factors[r as usize];
            for it in 0..self.iterations {
                // Assembly phase, then the halo gram.
                b.compute(r, self.assembly_gap.draw(gn, f, &mut rng));
                for j in 0..halo_count {
                    if j > 0 {
                        b.compute(r, intra_gram_gap(&mut rng));
                    }
                    // Halo partner j: exchange with ranks at hop distance
                    // (j/2)+1 in alternating directions — symmetric across
                    // ranks, so sends and receives match during replay.
                    let hop = (j / 2 + 1) % nprocs.max(1);
                    let hop = hop.max(1);
                    let (fwd, bwd) = ((r + hop) % nprocs, (r + nprocs - hop) % nprocs);
                    let (to, from) = if j % 2 == 0 { (fwd, bwd) } else { (bwd, fwd) };
                    b.op(
                        r,
                        MpiOp::Sendrecv {
                            to,
                            send_bytes: msg_bytes,
                            from,
                            recv_bytes: msg_bytes,
                        },
                    );
                }
                // Two solver dot products.
                for _ in 0..2 {
                    b.compute(r, self.solver_gap.draw(gn, f, &mut rng));
                    b.op(r, MpiOp::Allreduce { bytes: 8 });
                }
                // Boundary aggregation (O(n) ring allgather).
                b.compute(r, intra_gram_gap(&mut rng));
                b.op(
                    r,
                    MpiOp::Allgather {
                        bytes: self.gather_bytes,
                    },
                );
                // Occasional convergence-check gram breaks the pattern.
                if self.extra_gram_period > 0 && (it + 1) % self.extra_gram_period == 0 {
                    b.compute(r, self.solver_gap.draw(gn, f, &mut rng));
                    b.op(
                        r,
                        MpiOp::Bcast {
                            root: 0,
                            bytes: 256,
                        },
                    );
                }
            }
            // Finalisation compute.
            b.compute(r, self.assembly_gap.draw(gn, f, &mut rng));
        }
        let trace = b.build();
        debug_assert!(trace.validate().is_ok());
        trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ibp_trace::{IdleDistribution, MpiCall};

    #[test]
    fn generates_valid_traces_at_paper_scales() {
        let alya = Alya {
            iterations: 20,
            ..Alya::default()
        };
        for &n in alya.paper_procs() {
            let t = alya.generate(n, 7);
            assert_eq!(t.nprocs, n);
            t.validate().unwrap();
            assert!(t.total_calls() > 0);
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let alya = Alya {
            iterations: 10,
            ..Alya::default()
        };
        assert_eq!(alya.generate(8, 1), alya.generate(8, 1));
        assert_ne!(alya.generate(8, 1), alya.generate(8, 2));
    }

    #[test]
    fn stream_matches_fig2_shape_at_small_scale() {
        // At 8 ranks each iteration opens with the paper's Fig. 2 motif:
        // three Sendrecvs close together, then two gap-separated
        // Allreduces (followed by the boundary Allgather).
        let alya = Alya {
            iterations: 5,
            extra_gram_period: 0,
            ..Alya::default()
        };
        let t = alya.generate(8, 3);
        let calls: Vec<MpiCall> = t.ranks[0].call_stream().map(|(c, _)| c).collect();
        let per_iter = calls.len() / 5;
        assert_eq!(per_iter, 6);
        for it in 0..5 {
            let s = it * per_iter;
            assert_eq!(calls[s], MpiCall::Sendrecv);
            assert_eq!(calls[s + 1], MpiCall::Sendrecv);
            assert_eq!(calls[s + 2], MpiCall::Sendrecv);
            assert_eq!(calls[s + 3], MpiCall::Allreduce);
            assert_eq!(calls[s + 4], MpiCall::Allreduce);
            assert_eq!(calls[s + 5], MpiCall::Allgather);
        }
    }

    #[test]
    fn long_intervals_dominate_idle_time_at_8() {
        // Table I, ALYA rows: the > 200 µs bucket holds ~99% of idle time
        // at 8 ranks.
        let alya = Alya {
            iterations: 50,
            ..Alya::default()
        };
        let t = alya.generate(8, 11);
        let d = IdleDistribution::from_trace(&t);
        assert!(
            d.long.time_pct > 95.0,
            "long-bucket time share {}",
            d.long.time_pct
        );
    }

    #[test]
    fn gaps_shrink_and_calls_grow_with_scale() {
        let alya = Alya {
            iterations: 20,
            ..Alya::default()
        };
        let t8 = alya.generate(8, 5);
        let t128 = alya.generate(128, 5);
        // Strong scaling: per-rank calls grow (more halo neighbours).
        assert!(
            t128.ranks[0].call_count() > t8.ranks[0].call_count(),
            "halo fragmentation should add calls at scale"
        );
        // Idle per rank shrinks.
        let idle8 = t8.ranks[0].total_compute();
        let idle128 = t128.ranks[0].total_compute();
        assert!(idle128 < idle8);
    }

    #[test]
    fn weak_scaling_preserves_per_rank_gaps() {
        use crate::common::Scaling;
        let strong = Alya {
            iterations: 10,
            ..Alya::default()
        };
        let weak = Alya {
            iterations: 10,
            scaling: Scaling::Weak,
            ..Alya::default()
        };
        let ts = strong.generate(64, 3);
        let tw = weak.generate(64, 3);
        // Weak scaling keeps per-rank compute near the 8-rank reference;
        // strong scaling shrinks it.
        let idle_s = ts.ranks[0].total_compute();
        let idle_w = tw.ranks[0].total_compute();
        assert!(
            idle_w.as_us_f64() > 2.0 * idle_s.as_us_f64(),
            "weak {idle_w} vs strong {idle_s}"
        );
        // Call structure (counts) matches the 8-rank reference in weak mode.
        let t8 = strong.generate(8, 3);
        assert_eq!(tw.ranks[0].call_count(), t8.ranks[0].call_count());
    }

    #[test]
    fn extra_gram_appears_at_period() {
        let alya = Alya {
            iterations: 80,
            extra_gram_period: 40,
            ..Alya::default()
        };
        let t = alya.generate(8, 9);
        let bcasts = t.ranks[0]
            .call_stream()
            .filter(|(c, _)| *c == MpiCall::Bcast)
            .count();
        assert_eq!(bcasts, 2);
    }
}
