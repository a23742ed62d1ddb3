//! The workload abstraction and registry.

use crate::common::Scaling;
use ibp_trace::Trace;

/// A synthetic application workload: generates MPI traces with the
/// communication structure of one of the paper's five applications.
///
/// `Send + Sync` is a supertrait requirement: the sweep engine in
/// `ibp-analysis` generates traces from pool worker threads, so every
/// generator must be shareable across threads. All generators are plain
/// value types (parameters only; per-call RNG state is local to
/// `generate`), so this costs nothing.
pub trait Workload: Send + Sync {
    /// Short lowercase name (e.g. `"alya"`).
    fn name(&self) -> &'static str;

    /// Whether this workload can run at `n` processes.
    fn valid_nprocs(&self, n: u32) -> bool;

    /// The process counts the paper evaluates this application at.
    fn paper_procs(&self) -> &'static [u32];

    /// Generate a trace for `nprocs` ranks, deterministically from `seed`.
    ///
    /// # Panics
    /// Panics if `nprocs` is not valid for the workload.
    fn generate(&self, nprocs: u32, seed: u64) -> Trace;
}

/// The five applications of the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AppKind {
    /// GROMACS molecular dynamics (halo bursts + energy reductions, with
    /// neighbour-search steps perturbing the pattern).
    Gromacs,
    /// ALYA multiphysics (the paper's Fig. 2 pattern: Sendrecv×3 +
    /// Allreduce×2, communication-heavy).
    Alya,
    /// WRF weather simulation (dense halo bursts, most intervals tiny).
    Wrf,
    /// NAS BT (ADI sweeps on a square process grid, highly regular).
    NasBt,
    /// NAS MG (multigrid V-cycle, level-dependent gaps, needs large GT).
    NasMg,
}

impl AppKind {
    /// All five applications in the paper's presentation order.
    pub const ALL: [AppKind; 5] = [
        AppKind::Gromacs,
        AppKind::Alya,
        AppKind::Wrf,
        AppKind::NasBt,
        AppKind::NasMg,
    ];

    /// Short lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            AppKind::Gromacs => "gromacs",
            AppKind::Alya => "alya",
            AppKind::Wrf => "wrf",
            AppKind::NasBt => "nas-bt",
            AppKind::NasMg => "nas-mg",
        }
    }

    /// Display name as the paper prints it.
    pub fn display(self) -> &'static str {
        match self {
            AppKind::Gromacs => "GROMACS",
            AppKind::Alya => "ALYA",
            AppKind::Wrf => "WRF",
            AppKind::NasBt => "NAS BT",
            AppKind::NasMg => "NAS MG",
        }
    }

    /// Parse a name as produced by [`AppKind::name`].
    pub fn from_name(s: &str) -> Option<AppKind> {
        AppKind::ALL.into_iter().find(|a| a.name() == s)
    }

    /// Construct this application's workload with default parameters
    /// under `scaling` (every generator defaults to
    /// [`Scaling::Strong`], the paper's setting).
    pub fn workload(self, scaling: Scaling) -> Box<dyn Workload> {
        match self {
            AppKind::Gromacs => Box::new(crate::gromacs::Gromacs {
                scaling,
                ..Default::default()
            }),
            AppKind::Alya => Box::new(crate::alya::Alya {
                scaling,
                ..Default::default()
            }),
            AppKind::Wrf => Box::new(crate::wrf::Wrf {
                scaling,
                ..Default::default()
            }),
            AppKind::NasBt => Box::new(crate::nas_bt::NasBt {
                scaling,
                ..Default::default()
            }),
            AppKind::NasMg => Box::new(crate::nas_mg::NasMg {
                scaling,
                ..Default::default()
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_roundtrip() {
        for app in AppKind::ALL {
            assert_eq!(AppKind::from_name(app.name()), Some(app));
        }
        assert_eq!(AppKind::from_name("nonesuch"), None);
    }

    #[test]
    fn workloads_report_consistent_names() {
        for app in AppKind::ALL {
            for scaling in [Scaling::Strong, Scaling::Weak] {
                assert_eq!(app.workload(scaling).name(), app.name());
            }
        }
    }

    #[test]
    fn paper_procs_are_valid() {
        for app in AppKind::ALL {
            let w = app.workload(Scaling::Strong);
            for &n in w.paper_procs() {
                assert!(w.valid_nprocs(n), "{} invalid at {n}", w.name());
            }
        }
    }

    #[test]
    fn bt_uses_square_counts() {
        let bt = AppKind::NasBt.workload(Scaling::Strong);
        assert_eq!(bt.paper_procs(), &[9, 16, 36, 64, 100]);
        assert!(!bt.valid_nprocs(8));
        assert!(bt.valid_nprocs(36));
    }
}
