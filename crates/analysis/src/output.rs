//! Results-directory output for the exhibits.
//!
//! Swallowing IO errors turns a read-only or otherwise broken
//! `results/` directory into silent empty output. This module gives the
//! exhibit registry one narrow interface that propagates
//! `std::io::Result` with the failing path attached, so `ibpower` can
//! exit nonzero with a usable message instead.

use crate::sweep::SweepStats;
use serde::Serialize;
use std::io;
use std::path::{Path, PathBuf};

/// Environment variable overriding the default `results/` directory
/// (used by tests and the CI serial-vs-parallel diff).
pub const RESULTS_DIR_ENV: &str = "IBP_RESULTS_DIR";

/// A results directory the exhibits write into.
#[derive(Debug, Clone)]
pub struct OutputDir {
    root: PathBuf,
}

/// Attach `path` to an IO error so the operator sees *which* write
/// failed.
fn with_path(path: &Path, e: io::Error) -> io::Error {
    io::Error::new(e.kind(), format!("{}: {e}", path.display()))
}

impl OutputDir {
    /// An output directory rooted at `root`; the directory is created
    /// eagerly so a doomed run fails before any computation.
    pub fn new(root: impl Into<PathBuf>) -> io::Result<Self> {
        let root = root.into();
        std::fs::create_dir_all(&root).map_err(|e| with_path(&root, e))?;
        Ok(OutputDir { root })
    }

    /// The default directory: `$IBP_RESULTS_DIR` or `results/`.
    pub fn default_dir() -> io::Result<Self> {
        let root = std::env::var(RESULTS_DIR_ENV).unwrap_or_else(|_| "results".to_string());
        Self::new(root)
    }

    /// The directory this writes into.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Write `value` as pretty JSON to `<root>/<name>`.
    pub fn write_json<T: Serialize>(&self, name: &str, value: &T) -> io::Result<PathBuf> {
        let json = serde_json::to_string_pretty(value)
            .map_err(|e| io::Error::other(format!("serializing {name}: {e}")))?;
        self.write_text(name, &json)
    }

    /// Write raw text to `<root>/<name>`.
    pub fn write_text(&self, name: &str, text: &str) -> io::Result<PathBuf> {
        let path = self.root.join(name);
        std::fs::write(&path, text).map_err(|e| with_path(&path, e))?;
        Ok(path)
    }

    /// Write an exhibit's [`SweepStats`] as `<exhibit>.stats.json`.
    ///
    /// Stats files carry run-dependent fields (`jobs`, `wall_ms`), so
    /// byte-equality checks between serial and parallel runs must
    /// exclude `*.stats.json` — everything else in the directory is
    /// bit-identical across `--jobs` values.
    pub fn write_stats(&self, exhibit: &str, stats: &SweepStats) -> io::Result<PathBuf> {
        self.write_json(&format!("{exhibit}.stats.json"), stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_json_and_stats() {
        let dir = std::env::temp_dir().join(format!("ibp-out-{}", std::process::id()));
        let out = OutputDir::new(&dir).unwrap();
        let p = out.write_json("x.json", &vec![1, 2, 3]).unwrap();
        assert!(std::fs::read_to_string(p).unwrap().contains('2'));
        let s = SweepStats::default();
        let p = out.write_stats("x", &s).unwrap();
        assert!(p.ends_with("x.stats.json"));
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn blocked_results_dir_is_a_clean_error_not_silent_empty_output() {
        // A regular file squatting on the results path: every write
        // must surface an error naming the offending path.
        let dir = std::env::temp_dir().join(format!("ibp-blocked-{}", std::process::id()));
        std::fs::write(&dir, b"not a directory").unwrap();
        let err = OutputDir::new(&dir).unwrap_err();
        assert!(
            err.to_string().contains(&dir.display().to_string()),
            "error must name the path: {err}"
        );
        std::fs::remove_file(dir).ok();
    }
}
