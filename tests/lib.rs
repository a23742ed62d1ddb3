//! Integration-test helper crate (tests live in `tests/tests/`).
//!
//! The library part hosts the golden-exhibit comparison machinery so it
//! can be unit-tested without running the (slow) exhibit sweeps.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod golden {
    //! Golden-file comparison with per-metric tolerances.
    //!
    //! Snapshots live in `tests/golden/*.json` and pin the exhibit rows
    //! at the canonical seed. Comparison rules:
    //!
    //! - integers (counts, rank numbers, bytes) must match **exactly**;
    //! - floats (percentages, µs values) must agree to a **0.1%**
    //!   relative tolerance (absolute 1e-9 near zero), absorbing libm
    //!   differences across platforms without letting regressions in;
    //! - strings, booleans, array lengths and object keys must match
    //!   exactly.
    //!
    //! Regenerate the snapshots by rerunning the suite with
    //! `IBP_UPDATE_GOLDEN=1`.

    use serde::{Serialize, Value};
    use std::path::PathBuf;

    /// Relative tolerance for float comparisons (0.1%).
    pub const REL_TOL: f64 = 1e-3;
    /// Absolute tolerance for floats that sit at/near zero.
    pub const ABS_TOL: f64 = 1e-9;

    /// The directory holding the golden snapshots.
    pub fn golden_dir() -> PathBuf {
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("golden")
    }

    /// Compare `actual` against the snapshot `name`, panicking with
    /// every mismatch. With `IBP_UPDATE_GOLDEN` set, rewrites the
    /// snapshot instead and always passes.
    pub fn assert_matches_golden<T: Serialize>(name: &str, actual: &T) {
        let actual = actual.to_value();
        let path = golden_dir().join(name);
        if std::env::var_os("IBP_UPDATE_GOLDEN").is_some() {
            std::fs::create_dir_all(golden_dir()).expect("create golden dir");
            let json = serde_json::to_string_pretty(&actual).expect("serialize golden");
            std::fs::write(&path, json + "\n")
                .unwrap_or_else(|e| panic!("writing golden snapshot {}: {e}", path.display()));
            eprintln!("updated golden snapshot {}", path.display());
            return;
        }
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "missing golden snapshot {} ({e}); regenerate with \
                 IBP_UPDATE_GOLDEN=1 cargo test -p ibpower-integration-tests golden",
                path.display()
            )
        });
        let expected: Value = serde_json::from_str(&text)
            .unwrap_or_else(|e| panic!("parsing {}: {e}", path.display()));
        let mut mismatches = Vec::new();
        diff("$", &expected, &actual, &mut mismatches);
        assert!(
            mismatches.is_empty(),
            "{name}: {} mismatch(es) vs golden snapshot:\n  {}",
            mismatches.len(),
            mismatches.join("\n  ")
        );
    }

    /// Compare `actual` **byte-for-byte** against the text snapshot
    /// `name` — no tolerances: this pins exact output contracts like
    /// the Prometheus metrics exposition, where a renamed metric or
    /// reordered line is a breaking change for downstream scrape
    /// configs. With `IBP_UPDATE_GOLDEN` set, rewrites the snapshot
    /// instead and always passes.
    pub fn assert_matches_golden_text(name: &str, actual: &str) {
        let path = golden_dir().join(name);
        if std::env::var_os("IBP_UPDATE_GOLDEN").is_some() {
            std::fs::create_dir_all(golden_dir()).expect("create golden dir");
            std::fs::write(&path, actual)
                .unwrap_or_else(|e| panic!("writing golden snapshot {}: {e}", path.display()));
            eprintln!("updated golden snapshot {}", path.display());
            return;
        }
        let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "missing golden snapshot {} ({e}); regenerate with \
                 IBP_UPDATE_GOLDEN=1 cargo test -p ibpower-integration-tests",
                path.display()
            )
        });
        if let Some(msg) = first_text_mismatch(&expected, actual) {
            panic!(
                "{name}: output differs from golden snapshot ({msg}); if the \
                 change is intentional, regenerate with IBP_UPDATE_GOLDEN=1"
            );
        }
    }

    /// The first line-level difference between two exact-match texts,
    /// `None` when they are byte-identical. Factored out of
    /// [`assert_matches_golden_text`] so the diff logic is unit-testable
    /// without touching the filesystem or the environment.
    pub fn first_text_mismatch(expected: &str, actual: &str) -> Option<String> {
        if expected == actual {
            return None;
        }
        for (i, (e, a)) in expected.lines().zip(actual.lines()).enumerate() {
            if e != a {
                return Some(format!("line {}: expected {e:?}, got {a:?}", i + 1));
            }
        }
        let (el, al) = (expected.lines().count(), actual.lines().count());
        if el != al {
            return Some(format!("line count {el} vs {al}"));
        }
        // Same lines, different bytes: trailing whitespace or newline.
        Some("texts differ only in trailing whitespace/newlines".to_string())
    }

    /// `true` if two numeric values agree under the float tolerance.
    pub fn floats_agree(a: f64, b: f64) -> bool {
        let diff = (a - b).abs();
        diff <= ABS_TOL || diff <= REL_TOL * a.abs().max(b.abs())
    }

    fn as_f64(v: &Value) -> Option<f64> {
        match v {
            Value::U64(u) => Some(*u as f64),
            Value::I64(i) => Some(*i as f64),
            Value::F64(x) => Some(*x),
            _ => None,
        }
    }

    fn is_int(v: &Value) -> bool {
        matches!(v, Value::U64(_) | Value::I64(_))
    }

    /// Recursively compare `expected` vs `actual`, recording every
    /// mismatch with its JSONPath-style location.
    pub fn diff(path: &str, expected: &Value, actual: &Value, out: &mut Vec<String>) {
        match (expected, actual) {
            // Counts compare exactly; a float on either side switches
            // the pair to tolerance mode.
            (e, a) if is_int(e) && is_int(a) => {
                if as_f64(e) != as_f64(a) {
                    out.push(format!("{path}: expected {e:?}, got {a:?} (exact)"));
                }
            }
            (e, a) if as_f64(e).is_some() && as_f64(a).is_some() => {
                let (x, y) = (as_f64(e).unwrap(), as_f64(a).unwrap());
                if !floats_agree(x, y) {
                    out.push(format!("{path}: expected {x}, got {y} (>{REL_TOL:e} rel)"));
                }
            }
            (Value::Seq(e), Value::Seq(a)) => {
                if e.len() != a.len() {
                    out.push(format!("{path}: length {} vs {}", e.len(), a.len()));
                    return;
                }
                for (i, (ev, av)) in e.iter().zip(a).enumerate() {
                    diff(&format!("{path}[{i}]"), ev, av, out);
                }
            }
            (Value::Map(e), Value::Map(a)) => {
                let ekeys: Vec<&str> = e.iter().map(|(k, _)| k.as_str()).collect();
                let akeys: Vec<&str> = a.iter().map(|(k, _)| k.as_str()).collect();
                if ekeys != akeys {
                    out.push(format!("{path}: keys {ekeys:?} vs {akeys:?}"));
                    return;
                }
                for ((k, ev), (_, av)) in e.iter().zip(a) {
                    diff(&format!("{path}.{k}"), ev, av, out);
                }
            }
            (e, a) => {
                if e != a {
                    out.push(format!("{path}: expected {e:?}, got {a:?}"));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::golden::{diff, floats_agree};
    use serde::Value;

    fn v(s: &str) -> Value {
        serde_json::from_str(s).expect("test JSON")
    }

    fn mismatches(e: &str, a: &str) -> Vec<String> {
        let mut out = Vec::new();
        diff("$", &v(e), &v(a), &mut out);
        out
    }

    #[test]
    fn integers_compare_exactly() {
        assert!(mismatches("[1, 2, 3]", "[1, 2, 3]").is_empty());
        assert_eq!(mismatches("[1, 2, 3]", "[1, 2, 4]").len(), 1);
    }

    #[test]
    fn floats_get_relative_tolerance() {
        assert!(floats_agree(100.0, 100.05));
        assert!(!floats_agree(100.0, 100.2));
        assert!(floats_agree(0.0, 1e-10));
        assert!(mismatches("{\"pct\": 41.5}", "{\"pct\": 41.52}").is_empty());
        assert_eq!(mismatches("{\"pct\": 41.5}", "{\"pct\": 42.5}").len(), 1);
    }

    #[test]
    fn int_vs_float_uses_tolerance() {
        // A metric that serializes as `3` in one run and `3.0000001`
        // in another is still the same percentage.
        assert!(mismatches("[3]", "[3.0000001]").is_empty());
    }

    #[test]
    fn text_mismatch_reports_the_first_differing_line() {
        use super::golden::first_text_mismatch;
        assert_eq!(first_text_mismatch("a\nb\n", "a\nb\n"), None);
        let m = first_text_mismatch("a\nb\n", "a\nc\n").expect("differs");
        assert!(m.contains("line 2"), "{m}");
        let m = first_text_mismatch("a\n", "a\nb\n").expect("differs");
        assert!(m.contains("line count"), "{m}");
        // Exact-byte contract: a missing trailing newline is a mismatch.
        assert!(first_text_mismatch("a\n", "a").is_some());
    }

    #[test]
    fn structure_mismatches_are_reported_with_paths() {
        let m = mismatches("{\"rows\": [{\"n\": 8}]}", "{\"rows\": [{\"n\": 9}]}");
        assert_eq!(m.len(), 1);
        assert!(m[0].starts_with("$.rows[0].n"), "{m:?}");
        assert_eq!(mismatches("[1]", "[1, 2]").len(), 1);
        assert_eq!(mismatches("{\"a\": 1}", "{\"b\": 1}").len(), 1);
    }
}
