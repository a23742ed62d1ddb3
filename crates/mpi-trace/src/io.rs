//! Trace serialisation.
//!
//! Traces are interchanged as JSON (pretty for humans, compact for bulk).
//! JSON is not on any hot path — generators produce traces in memory and
//! the simulator consumes them in memory; files exist so that experiments
//! can be re-run on frozen inputs and so users can inspect what the
//! generators produce.

use crate::trace::Trace;
use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::Path;

/// Errors arising from trace I/O.
///
/// `#[non_exhaustive]`: downstream matches must keep a wildcard arm so
/// new error variants don't break them.
#[derive(Debug)]
#[non_exhaustive]
pub enum TraceError {
    /// Underlying filesystem error.
    Io(std::io::Error),
    /// Malformed JSON or schema mismatch.
    Format(serde_json::Error),
    /// The input stops mid-document: every brace that opened never
    /// closed (a partial download or an interrupted `save`).
    Truncated {
        /// Total bytes read before the document ran out.
        bytes: usize,
    },
    /// The input holds no events to replay: a blank file, a trace with
    /// zero ranks, or ranks that never communicate or compute.
    Empty,
    /// The trace deserialised but fails [`Trace::validate`].
    Invalid(String),
}

/// Former name of [`TraceError`], kept for downstream code.
pub type TraceIoError = TraceError;

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "trace I/O error: {e}"),
            TraceError::Format(e) => write!(f, "trace format error: {e}"),
            TraceError::Truncated { bytes } => {
                write!(
                    f,
                    "trace truncated: document still open after {bytes} bytes"
                )
            }
            TraceError::Empty => write!(f, "empty trace: no ranks or events to replay"),
            TraceError::Invalid(msg) => write!(f, "invalid trace: {msg}"),
        }
    }
}

impl std::error::Error for TraceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceError::Io(e) => Some(e),
            TraceError::Format(e) => Some(e),
            TraceError::Truncated { .. } | TraceError::Empty | TraceError::Invalid(_) => None,
        }
    }
}

impl From<std::io::Error> for TraceError {
    fn from(e: std::io::Error) -> Self {
        TraceError::Io(e)
    }
}

impl From<serde_json::Error> for TraceError {
    fn from(e: serde_json::Error) -> Self {
        TraceError::Format(e)
    }
}

/// Does `json` stop mid-document? Scans brace/bracket depth outside of
/// string literals; a positive depth (or an unterminated string) at the
/// end means the document was cut short rather than malformed.
fn looks_truncated(json: &str) -> bool {
    let mut depth = 0i64;
    let mut in_str = false;
    let mut escaped = false;
    for b in json.bytes() {
        if in_str {
            if escaped {
                escaped = false;
            } else if b == b'\\' {
                escaped = true;
            } else if b == b'"' {
                in_str = false;
            }
        } else {
            match b {
                b'"' => in_str = true,
                b'{' | b'[' => depth += 1,
                b'}' | b']' => depth -= 1,
                _ => {}
            }
        }
    }
    in_str || depth > 0
}

/// Serialise a trace to compact JSON.
pub fn to_json(trace: &Trace) -> String {
    serde_json::to_string(trace).expect("trace serialisation cannot fail")
}

/// Deserialise a trace from JSON and validate it.
pub fn from_json(json: &str) -> Result<Trace, TraceError> {
    if json.trim().is_empty() {
        return Err(TraceError::Empty);
    }
    let trace: Trace = match serde_json::from_str(json) {
        Ok(t) => t,
        Err(e) if looks_truncated(json) => {
            let _ = e;
            return Err(TraceError::Truncated { bytes: json.len() });
        }
        Err(e) => return Err(TraceError::Format(e)),
    };
    if trace.nprocs == 0 || trace.ranks.iter().all(|r| r.events.is_empty()) {
        return Err(TraceError::Empty);
    }
    trace.validate().map_err(TraceError::Invalid)?;
    Ok(trace)
}

/// Write a trace to `path` as compact JSON.
pub fn save(trace: &Trace, path: impl AsRef<Path>) -> Result<(), TraceError> {
    let file = File::create(path)?;
    let mut w = BufWriter::new(file);
    serde_json::to_writer(&mut w, trace)?;
    w.flush()?;
    Ok(())
}

/// Read and validate a trace from `path`.
pub fn load(path: impl AsRef<Path>) -> Result<Trace, TraceError> {
    let file = File::open(path)?;
    let mut json = String::new();
    BufReader::new(file).read_to_string(&mut json)?;
    from_json(&json)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::MpiOp;
    use crate::trace::{RankTrace, TraceBuilder};
    use ibp_simcore::SimDuration;

    fn sample() -> Trace {
        let mut b = TraceBuilder::new("roundtrip", 3);
        for it in 0..4 {
            for r in 0..3u32 {
                b.compute(r, SimDuration::from_us(100 + it * 3 + u64::from(r)));
                b.op(
                    r,
                    MpiOp::Sendrecv {
                        to: (r + 1) % 3,
                        send_bytes: 4096,
                        from: (r + 2) % 3,
                        recv_bytes: 4096,
                    },
                );
                b.op(r, MpiOp::Allreduce { bytes: 8 });
            }
        }
        b.build()
    }

    #[test]
    fn json_roundtrip_is_identity() {
        let t = sample();
        let back = from_json(&to_json(&t)).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn file_roundtrip_is_identity() {
        let t = sample();
        let dir = std::env::temp_dir().join("ibp-trace-io-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sample.json");
        save(&t, &path).unwrap();
        let back = load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(t, back);
    }

    #[test]
    fn load_rejects_invalid_trace() {
        // Hand-craft a structurally valid JSON with an out-of-range peer.
        let mut t = sample();
        let mut events: Vec<_> = t.ranks[0].events.iter().collect();
        if let MpiOp::Sendrecv { to, .. } = &mut events[0].op {
            *to = 99;
        }
        t.ranks[0].events = events.into_iter().collect();
        let json = serde_json::to_string(&t).unwrap();
        match from_json(&json) {
            Err(TraceIoError::Invalid(msg)) => assert!(msg.contains("out of range")),
            other => panic!("expected Invalid, got {other:?}"),
        }

        // Compute that overflows, or outgrows the replay clock: one burst
        // of u64::MAX ns, three of i64::MAX ns, a final compute of
        // u64::MAX ns — each on rank 1 only.
        let huge = SimDuration::from_ns(u64::MAX);
        let long = SimDuration::from_ns(i64::MAX as u64);
        let mut burst = sample();
        set_compute(&mut burst.ranks[1], &[huge]);
        let mut bursts = sample();
        set_compute(&mut bursts.ranks[1], &[long; 3]);
        let mut last = sample();
        last.ranks[1].final_compute = huge;
        for t in [burst, bursts, last] {
            let json = serde_json::to_string(&t).unwrap();
            match from_json(&json) {
                Err(TraceIoError::Invalid(msg)) => assert!(msg.contains("rank 1"), "{msg}"),
                other => panic!("expected Invalid, got {other:?}"),
            }
        }
    }

    /// Overwrite the compute bursts before `r`'s first calls.
    fn set_compute(r: &mut RankTrace, bursts: &[SimDuration]) {
        let mut events: Vec<_> = r.events.iter().collect();
        for (e, &c) in events.iter_mut().zip(bursts) {
            e.compute_before = c;
        }
        r.events = events.into_iter().collect();
    }

    #[test]
    fn from_json_rejects_garbage() {
        assert!(matches!(
            from_json("not json at all"),
            Err(TraceError::Format(_))
        ));
    }

    #[test]
    fn truncated_json_is_a_typed_error() {
        // Cut a valid document at 60% — braces stay open.
        let json = to_json(&sample());
        let cut = &json[..json.len() * 6 / 10];
        match from_json(cut) {
            Err(TraceError::Truncated { bytes }) => assert_eq!(bytes, cut.len()),
            other => panic!("expected Truncated, got {other:?}"),
        }
        // A lone opening brace is also truncation, not a format error.
        assert!(matches!(from_json("{"), Err(TraceError::Truncated { .. })));
    }

    #[test]
    fn empty_inputs_are_a_typed_error() {
        assert!(matches!(from_json(""), Err(TraceError::Empty)));
        assert!(matches!(from_json("  \n"), Err(TraceError::Empty)));
        // Structurally valid but eventless trace.
        let t = TraceBuilder::new("hollow", 2).build();
        assert!(matches!(
            from_json(&serde_json::to_string(&t).unwrap()),
            Err(TraceError::Empty)
        ));
    }

    #[test]
    fn error_display_is_informative() {
        let e = from_json("\"unterminated").unwrap_err();
        assert!(e.to_string().contains("truncated"));
        let e = from_json("[1, 2, oops]").unwrap_err();
        assert!(e.to_string().contains("format"));
    }
}
