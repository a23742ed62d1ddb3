//! GROMACS — molecular dynamics.
//!
//! An MD step is dominated by force computation, followed by a halo
//! exchange of particle forces/positions and a small energy reduction.
//! Every ~10 steps a *neighbour-search* (NS) step rebuilds the pair lists
//! and communicates more (extra exchange + an `MPI_Allgather` of cell
//! counts), and the NS period is data-dependent, so the call pattern is
//! only piecewise regular. Additionally, the short gap between the halo
//! gram and the energy reduction hovers around the grouping threshold:
//! in a fraction of steps it dips below GT and the two grams merge. Both
//! effects cap GROMACS' hit rate well below ALYA's (Table III: 42–59%)
//! while leaving most of the *time* (the force gap) exploitable — power
//! savings 33→15% across 8→128 ranks (Fig. 9a).

use crate::common::{halo_bytes, intra_gram_gap, rank_imbalance, GapModel, Scaling};
use crate::spec::Workload;
use ibp_simcore::DetRng;
use ibp_trace::{MpiOp, Trace, TraceBuilder};

/// GROMACS generator parameters.
#[derive(Debug, Clone)]
pub struct Gromacs {
    /// Number of MD steps.
    pub iterations: u32,
    /// Force-computation gap (the big one).
    pub force_gap: GapModel,
    /// Short gap between halo gram and energy reduction when the two
    /// form separate grams (see `split_probability`).
    pub short_gap: GapModel,
    /// Probability per step that the short gap rises above GT, splitting
    /// the energy reduction into its own gram (pattern-shape flip). Most
    /// steps keep the reduction inside the halo gram, matching Table I's
    /// near-empty 20–200 µs bucket at 8 ranks.
    pub split_probability: f64,
    /// Mean neighbour-search period in steps (actual period jitters ±2).
    pub ns_period: u32,
    /// Total halo volume per rank at 8 ranks, bytes.
    pub halo_volume_at8: f64,
    /// Halo message count at 8 ranks and growth exponent.
    pub halo_count_at8: f64,
    /// Growth exponent for halo message count.
    pub halo_count_beta: f64,
    /// Per-rank contribution to the per-step `MPI_Allgather` (domain
    /// decomposition bookkeeping; ring algorithm, O(n) cost).
    pub gather_bytes: u64,
    /// Strong (paper) or weak scaling of the per-rank problem.
    pub scaling: Scaling,
    /// Per-rank imbalance spread.
    pub imbalance: f64,
}

impl Default for Gromacs {
    fn default() -> Self {
        Gromacs {
            iterations: 250,
            force_gap: GapModel {
                base_us: 2400.0,
                ref_n: 8,
                alpha: 0.45,
                sigma: 0.003,
            },
            short_gap: GapModel {
                base_us: 40.0,
                ref_n: 8,
                alpha: 0.25,
                sigma: 0.02,
            },
            split_probability: 0.05,
            ns_period: 25,
            halo_volume_at8: 1.5e6,
            halo_count_at8: 4.0,
            halo_count_beta: 0.8,
            gather_bytes: 16_000,
            scaling: Scaling::Strong,
            imbalance: 0.01,
        }
    }
}

impl Workload for Gromacs {
    fn name(&self) -> &'static str {
        "gromacs"
    }

    fn valid_nprocs(&self, n: u32) -> bool {
        n >= 2
    }

    fn paper_procs(&self) -> &'static [u32] {
        &[8, 16, 32, 64, 128]
    }

    fn generate(&self, nprocs: u32, seed: u64) -> Trace {
        assert!(self.valid_nprocs(nprocs), "gromacs needs >= 2 ranks");
        let root = DetRng::seed_from_u64(seed);
        let mut imb_rng = root.split(0);
        let factors = rank_imbalance(nprocs, self.imbalance, &mut imb_rng);

        // Shared step schedule: NS steps and gram merges are decisions of
        // the *simulation*, identical on every rank (SPMD), so they come
        // from a common stream.
        let mut sched = root.split(usize::MAX as u64);
        let mut ns_steps = Vec::with_capacity(self.iterations as usize);
        let mut merged = Vec::with_capacity(self.iterations as usize);
        {
            let mut next_ns = self.ns_period;
            for it in 0..self.iterations {
                let is_ns = it + 1 == next_ns;
                if is_ns {
                    let jitter = sched.index(5) as u32; // 0..4 → period ±2
                    next_ns = it + 1 + self.ns_period - 2 + jitter;
                }
                ns_steps.push(is_ns);
                merged.push(!sched.chance(self.split_probability));
            }
        }

        let gn = self.scaling.effective_n(nprocs, 8);
        let halo_count = ((self.halo_count_at8 * (f64::from(gn) / 8.0).powf(self.halo_count_beta))
            .round() as u32)
            .max(1);
        let total_halo = halo_bytes(self.halo_volume_at8, 8, gn);
        let msg_bytes = (total_halo / u64::from(halo_count)).max(64);

        let mut b = TraceBuilder::new("gromacs", nprocs);
        for r in 0..nprocs {
            let mut rng = root.split(1 + u64::from(r));
            let f = factors[r as usize];
            for it in 0..self.iterations as usize {
                // Force computation.
                b.compute(r, self.force_gap.draw(gn, f, &mut rng));
                // Halo exchange gram.
                let exchanges = if ns_steps[it] {
                    halo_count * 2
                } else {
                    halo_count
                };
                for j in 0..exchanges {
                    if j > 0 {
                        b.compute(r, intra_gram_gap(&mut rng));
                    }
                    let hop = (j / 2 + 1).min(nprocs - 1).max(1);
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
                if ns_steps[it] {
                    // Pair-list cell counts.
                    b.compute(r, intra_gram_gap(&mut rng));
                    b.op(r, MpiOp::Allgather { bytes: 512 });
                }
                // Decomposition bookkeeping (O(n) ring allgather).
                b.compute(r, intra_gram_gap(&mut rng));
                b.op(
                    r,
                    MpiOp::Allgather {
                        bytes: self.gather_bytes,
                    },
                );
                // Energy reduction; the preceding gap is bimodal around GT.
                let gap = if merged[it] {
                    intra_gram_gap(&mut rng)
                } else {
                    self.short_gap.draw(gn, f, &mut rng)
                };
                b.compute(r, gap);
                b.op(r, MpiOp::Allreduce { bytes: 48 });
            }
            b.compute(r, self.force_gap.draw(gn, f, &mut rng));
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

    fn small() -> Gromacs {
        Gromacs {
            iterations: 60,
            ..Gromacs::default()
        }
    }

    #[test]
    fn valid_and_deterministic() {
        let g = small();
        for &n in g.paper_procs() {
            g.generate(n, 3).validate().unwrap();
        }
        assert_eq!(g.generate(16, 4), g.generate(16, 4));
    }

    #[test]
    fn ns_steps_add_allgather() {
        // Every step carries the bookkeeping Allgather; NS steps add one
        // more. With ns_period 25 and 60 steps, expect 60 + ~2 extras...
        // NS extras are Allgathers of 512 B; count those.
        let g = small();
        let t = g.generate(8, 5);
        let ns_allgathers = t.ranks[0]
            .events
            .iter()
            .filter(|e| matches!(e.op, MpiOp::Allgather { bytes: 512 }))
            .count();
        assert!((1..=5).contains(&ns_allgathers), "{ns_allgathers} NS steps");
    }

    #[test]
    fn schedule_is_spmd_consistent() {
        // All ranks must see the same NS steps and the same merges: the
        // call sequences (ignoring gaps) must be identical across ranks.
        let g = small();
        let t = g.generate(8, 6);
        let seq = |r: usize| t.ranks[r].call_stream().map(|(c, _)| c).collect::<Vec<_>>();
        let s0 = seq(0);
        for r in 1..8 {
            assert_eq!(seq(r), s0, "rank {r} diverged");
        }
    }

    #[test]
    fn force_gap_dominates_idle_time() {
        let t = small().generate(8, 7);
        let d = IdleDistribution::from_trace(&t);
        // Table I GROMACS@8: >200 µs bucket ≈ 99.99% of idle time.
        assert!(d.long.time_pct > 95.0, "{}", d.long.time_pct);
        // Tiny intervals outnumber mid ones (58% vs 0.1% of intervals).
        assert!(d.short.intervals > d.medium.intervals);
    }

    #[test]
    fn merges_create_shape_flips() {
        // With split probability 0 the reduction is always in the halo
        // gram: no 20–200 µs intervals from the short gap remain.
        let g = Gromacs {
            split_probability: 0.0,
            iterations: 40,
            ..Gromacs::default()
        };
        let t = g.generate(8, 8);
        let d = IdleDistribution::from_trace(&t);
        assert_eq!(d.medium.intervals, 0);
    }
}
