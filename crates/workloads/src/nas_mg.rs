//! NAS MG — multigrid V-cycle.
//!
//! MG sweeps a hierarchy of grid levels: smoothing at the finest level is
//! the long compute phase; each restriction/prolongation step exchanges
//! halos at a coarser level, with compute gaps shrinking ~4× per level.
//! The mid-level gaps land in the 20–200 µs band of Table I (MG is the
//! only application with a large 20–200 µs population — ~38% of
//! intervals at 8 ranks) and their iteration-to-iteration variability is
//! high, which is why the paper selects an unusually large grouping
//! threshold for MG (290–382 µs, Table III): grouping the whole cycle
//! except the finest-level phases avoids mispredictions, at the cost of
//! leaving the mid gaps unexploited. Hit rate lands mid-pack (70–79%)
//! and savings go 28%→4% across 8→128 ranks (Fig. 9a).

use crate::common::{halo_bytes, intra_gram_gap, rank_imbalance, GapModel, Scaling};
use crate::spec::Workload;
use ibp_simcore::{DetRng, SimDuration};
use ibp_trace::{MpiOp, Trace, TraceBuilder};

/// NAS MG generator parameters.
#[derive(Debug, Clone)]
pub struct NasMg {
    /// Number of V-cycles.
    pub iterations: u32,
    /// Finest-level smoothing gap (the long one; appears twice per cycle).
    pub smooth_gap: GapModel,
    /// Ratio between successive level gaps (finest → coarser).
    pub level_ratio: f64,
    /// Number of grid levels below the finest.
    pub levels: u32,
    /// Halo grams per level (pre- and post-smoothing exchanges).
    pub grams_per_level: u32,
    /// Relative jitter of the mid-level gaps (high: they wander across
    /// bucket/GT boundaries, which is what forces the large GT).
    pub level_sigma: f64,
    /// Halo volume at the finest level at 8 ranks, bytes.
    pub halo_volume_at8: f64,
    /// Per-rank contribution to the coarse-grid `MPI_Allgather` (ring
    /// algorithm: O(n) cost — the latency-bound coarse levels that keep
    /// MG from scaling).
    pub gather_bytes: u64,
    /// Probability per cycle that an extra norm-check gram appears
    /// (pattern break).
    pub norm_check_probability: f64,
    /// Strong (paper) or weak scaling of the per-rank problem.
    pub scaling: Scaling,
    /// Per-rank imbalance spread.
    pub imbalance: f64,
}

impl Default for NasMg {
    fn default() -> Self {
        NasMg {
            iterations: 300,
            smooth_gap: GapModel {
                base_us: 1800.0,
                ref_n: 8,
                alpha: 0.72,
                sigma: 0.004,
            },
            level_ratio: 12.0,
            levels: 3,
            grams_per_level: 2,
            level_sigma: 0.25,
            halo_volume_at8: 1.5e6,
            gather_bytes: 96_000,
            norm_check_probability: 0.10,
            scaling: Scaling::Strong,
            imbalance: 0.05,
        }
    }
}

impl NasMg {
    /// Halo exchange gram at one level: `exchanges` paired exchanges
    /// with ring partners (3 at the finest level — one per dimension —
    /// and a single aggregated exchange at coarser levels).
    fn level_halo(
        b: &mut TraceBuilder,
        r: u32,
        nprocs: u32,
        msg_bytes: u64,
        exchanges: u32,
        rng: &mut DetRng,
    ) {
        for j in 0..exchanges {
            if j > 0 {
                b.compute(r, intra_gram_gap(rng));
            }
            let hop = (j + 1).min(nprocs - 1).max(1);
            let (fwd, bwd) = ((r + hop) % nprocs, (r + nprocs - hop) % nprocs);
            b.op(
                r,
                MpiOp::Sendrecv {
                    to: fwd,
                    send_bytes: msg_bytes,
                    from: bwd,
                    recv_bytes: msg_bytes,
                },
            );
        }
    }
}

impl Workload for NasMg {
    fn name(&self) -> &'static str {
        "nas-mg"
    }

    fn valid_nprocs(&self, n: u32) -> bool {
        n >= 2
    }

    fn paper_procs(&self) -> &'static [u32] {
        &[8, 16, 32, 64, 128]
    }

    fn generate(&self, nprocs: u32, seed: u64) -> Trace {
        assert!(self.valid_nprocs(nprocs), "nas-mg needs >= 2 ranks");
        let root = DetRng::seed_from_u64(seed);
        let mut imb_rng = root.split(0);
        let factors = rank_imbalance(nprocs, self.imbalance, &mut imb_rng);

        // SPMD-shared schedule of norm checks.
        let mut sched = root.split(usize::MAX as u64);
        let norm_checks: Vec<bool> = (0..self.iterations)
            .map(|_| sched.chance(self.norm_check_probability))
            .collect();

        let gn = self.scaling.effective_n(nprocs, 8);
        let finest_bytes = halo_bytes(self.halo_volume_at8, 8, gn);

        let mut b = TraceBuilder::new("nas-mg", nprocs);
        for r in 0..nprocs {
            let mut rng = root.split(1 + u64::from(r));
            let f = factors[r as usize];
            for &norm_check in norm_checks.iter().take(self.iterations as usize) {
                // Downward leg: smooth at finest (long gap) + halo, then
                // restrict through the levels with shrinking gaps.
                b.compute(r, self.smooth_gap.draw(gn, f, &mut rng));
                Self::level_halo(&mut b, r, nprocs, finest_bytes, 3, &mut rng);
                let mut level_gap_us = self.smooth_gap.mean_us(gn) / self.level_ratio;
                let mut level_bytes = finest_bytes;
                for _ in 0..self.levels {
                    level_bytes = (level_bytes / 4).max(64);
                    for _ in 0..self.grams_per_level {
                        let jitter = rng.lognormal_jitter(self.level_sigma);
                        b.compute(
                            r,
                            SimDuration::from_us_f64((level_gap_us * f * jitter).max(0.5)),
                        );
                        Self::level_halo(&mut b, r, nprocs, level_bytes, 1, &mut rng);
                    }
                    level_gap_us /= self.level_ratio;
                }
                // Coarsest solve: gather the coarse grid, reduce.
                b.compute(r, intra_gram_gap(&mut rng));
                b.op(
                    r,
                    MpiOp::Allgather {
                        bytes: self.gather_bytes,
                    },
                );
                b.compute(r, intra_gram_gap(&mut rng));
                b.op(r, MpiOp::Allreduce { bytes: 16 });
                // Upward leg: prolongate back up with growing gaps.
                for lev in (0..self.levels).rev() {
                    let gap_us =
                        self.smooth_gap.mean_us(gn) / self.level_ratio.powi(lev as i32 + 1);
                    let bytes = (finest_bytes >> (2 * (lev + 1))).max(64);
                    for _ in 0..self.grams_per_level {
                        let jitter = rng.lognormal_jitter(self.level_sigma);
                        b.compute(r, SimDuration::from_us_f64((gap_us * f * jitter).max(0.5)));
                        Self::level_halo(&mut b, r, nprocs, bytes, 1, &mut rng);
                    }
                }
                // Final smoothing at the finest level.
                b.compute(r, self.smooth_gap.draw(gn, f, &mut rng));
                Self::level_halo(&mut b, r, nprocs, finest_bytes, 3, &mut rng);
                // Occasional residual-norm check (pattern break).
                if norm_check {
                    b.compute(r, intra_gram_gap(&mut rng));
                    b.op(r, MpiOp::Allreduce { bytes: 8 });
                }
            }
            b.compute(r, self.smooth_gap.draw(gn, f, &mut rng));
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

    fn small() -> NasMg {
        NasMg {
            iterations: 40,
            ..NasMg::default()
        }
    }

    #[test]
    fn valid_and_deterministic() {
        let mg = small();
        for &n in mg.paper_procs() {
            mg.generate(n, 3).validate().unwrap();
        }
        assert_eq!(mg.generate(8, 5), mg.generate(8, 5));
    }

    #[test]
    fn mid_bucket_is_populated() {
        // MG's Table I signature: a substantial 20–200 µs population
        // (the mid-level gaps), unlike the other four applications.
        let t = small().generate(8, 4);
        let d = IdleDistribution::from_trace(&t);
        assert!(
            d.medium.interval_pct > 15.0,
            "mid intervals {}%",
            d.medium.interval_pct
        );
        // But the finest-level gaps still dominate idle time.
        assert!(d.long.time_pct > 75.0, "{}", d.long.time_pct);
    }

    #[test]
    fn level_gaps_span_decades() {
        let t = small().generate(8, 6);
        let gaps: Vec<f64> = t.ranks[0]
            .events
            .iter()
            .map(|e| e.compute_before.as_us_f64())
            .filter(|&g| g > 0.0)
            .collect();
        let max = gaps.iter().cloned().fold(0.0, f64::max);
        let min_nonzero = gaps
            .iter()
            .cloned()
            .filter(|&g| g > 0.4)
            .fold(f64::INFINITY, f64::min);
        assert!(
            max / min_nonzero > 100.0,
            "gap dynamic range too small: {min_nonzero}..{max}"
        );
    }

    #[test]
    fn norm_checks_follow_schedule_on_all_ranks() {
        let mg = NasMg {
            iterations: 60,
            norm_check_probability: 0.3,
            ..NasMg::default()
        };
        let t = mg.generate(4, 7);
        let count = |r: usize| {
            t.ranks[r]
                .call_stream()
                .filter(|(c, _)| *c == ibp_trace::MpiCall::Allreduce)
                .count()
        };
        let c0 = count(0);
        assert!(c0 > 60, "base allreduce + extra norm checks expected");
        for r in 1..4 {
            assert_eq!(count(r), c0, "rank {r} diverged");
        }
    }
}
