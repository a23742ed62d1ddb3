//! Transport chaos harness: a seeded fault-injecting stream wrapper.
//!
//! Wraps a [`Stream`] and perturbs its I/O with the failure modes real
//! sockets exhibit — partial writes, short reads, stalls, connection
//! resets, and in-flight byte corruption — so the serving stack's
//! recovery paths (frame CRC, reconnect/restore, overload shedding)
//! can be exercised deterministically in tests and with
//! `ibpower load --chaos` against a live server.
//!
//! Faults are drawn from a seeded PRNG *per I/O call*: the same seed
//! and the same call sequence produce the same fault pattern. (Socket
//! reads may legitimately return different byte counts run to run, so
//! end-to-end tests assert invariants — zero panics, bounded retries,
//! offline parity — rather than exact fault counts.)
//!
//! The wrapper is always compiled rather than feature-gated: a cargo
//! feature would unify across the workspace and silently enable itself
//! everywhere `ibp-cli` is built. Instead it is *data*-gated — a
//! connection is only wrapped when a [`ChaosConfig`] is explicitly
//! supplied, and an unwrapped [`Stream`] pays nothing.
//!
//! Corruption injected here is what motivates the protocol's frame
//! CRC: a flipped bit inside an `Events` body would otherwise decode
//! as a perfectly valid batch with a wrong gap value and silently
//! break offline parity. With the CRC, every corruption becomes a
//! loud connection failure the client recovers from.

use crate::server::Stream;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::io::{self, Read, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Fault-injection knobs. All probabilities are per I/O call, in
/// `[0, 1]`.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosConfig {
    /// PRNG seed; same seed + same call sequence = same faults.
    pub seed: u64,
    /// Probability a write delivers only a prefix of the buffer
    /// (exercises `write_all` resumption; harmless on its own).
    pub partial_write: f64,
    /// Probability a read returns fewer bytes than available.
    pub short_read: f64,
    /// Probability an I/O call sleeps for [`ChaosConfig::stall_ms`]
    /// first (exercises timeouts and overload shedding).
    pub stall: f64,
    /// Probability the connection is reset: the call fails with
    /// `ConnectionReset`, the underlying socket is shut down, and every
    /// later call on either half fails too.
    pub reset: f64,
    /// Probability one bit of the transferred bytes is flipped
    /// (exercises the frame CRC's fail-stop path).
    pub corrupt: f64,
    /// Stall duration, milliseconds.
    pub stall_ms: u64,
}

impl ChaosConfig {
    /// A balanced mix scaled by one `intensity` knob in `[0, 1]` — the
    /// mapping behind `ibpower load --chaos F`.
    #[must_use]
    pub fn with_intensity(seed: u64, intensity: f64) -> ChaosConfig {
        let i = intensity.clamp(0.0, 1.0);
        ChaosConfig {
            seed,
            partial_write: 0.20 * i,
            short_read: 0.20 * i,
            stall: 0.10 * i,
            reset: 0.03 * i,
            corrupt: 0.04 * i,
            stall_ms: 5,
        }
    }

    /// Summed per-I/O-call fault probability — the scalar fault-
    /// injection readout `ibpower stat`/`top` surface per link when the
    /// server wraps connections in the chaos harness.
    #[must_use]
    pub fn fault_rate(&self) -> f64 {
        self.partial_write + self.short_read + self.stall + self.reset + self.corrupt
    }

    /// Derive a config with a different seed (used to decorrelate
    /// per-connection fault streams from one base config).
    #[must_use]
    pub fn reseeded(&self, seed: u64) -> ChaosConfig {
        ChaosConfig {
            seed,
            ..self.clone()
        }
    }

    /// Wrap `stream` in a fault-injecting [`ChaosStream`].
    #[must_use]
    pub fn wrap(&self, stream: Stream) -> Stream {
        Stream::Chaos(ChaosStream::new(stream, self.clone()))
    }
}

/// Cumulative injected-fault counters, shared by all clones of one
/// wrapped stream.
#[derive(Debug, Default)]
pub struct ChaosCounters {
    /// Writes truncated to a prefix.
    pub partial_writes: AtomicU64,
    /// Reads truncated below the available length.
    pub short_reads: AtomicU64,
    /// Calls delayed by a stall.
    pub stalls: AtomicU64,
    /// Connections reset.
    pub resets: AtomicU64,
    /// Bits flipped.
    pub corruptions: AtomicU64,
}

#[derive(Debug)]
struct ChaosState {
    cfg: ChaosConfig,
    rng: Mutex<StdRng>,
    counters: ChaosCounters,
    dead: AtomicBool,
}

/// A [`Stream`] with fault injection. Clones (read/write halves) share
/// one PRNG, one counter set, and one `dead` flag, so a reset on
/// either half kills both — like a real socket.
#[derive(Debug)]
pub struct ChaosStream {
    inner: Box<Stream>,
    state: Arc<ChaosState>,
}

/// Which faults apply to one I/O call.
struct Plan {
    stall: bool,
    reset: bool,
    truncate: bool,
    corrupt: bool,
}

impl ChaosStream {
    fn new(inner: Stream, cfg: ChaosConfig) -> ChaosStream {
        let rng = StdRng::seed_from_u64(cfg.seed);
        ChaosStream {
            inner: Box::new(inner),
            state: Arc::new(ChaosState {
                cfg,
                rng: Mutex::new(rng),
                counters: ChaosCounters::default(),
                dead: AtomicBool::new(false),
            }),
        }
    }

    /// Clone the handle (shares fault state with the original).
    pub fn try_clone(&self) -> io::Result<ChaosStream> {
        Ok(ChaosStream {
            inner: Box::new(self.inner.try_clone()?),
            state: Arc::clone(&self.state),
        })
    }

    /// The underlying transport (for timeouts and shutdown).
    #[must_use]
    pub fn get_ref(&self) -> &Stream {
        &self.inner
    }

    /// Injected-fault counters (shared across clones).
    #[must_use]
    pub fn counters(&self) -> &ChaosCounters {
        &self.state.counters
    }

    /// Decide this call's faults in one locked PRNG pass; `u64` draws
    /// keep the stream deterministic and platform-independent.
    fn plan(&self, p_truncate: f64) -> (Plan, u64) {
        let mut rng = self.state.rng.lock().unwrap_or_else(|e| e.into_inner());
        let mut hit = |p: f64| -> bool {
            p > 0.0 && ((rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64) < p
        };
        let cfg = &self.state.cfg;
        let plan = Plan {
            stall: hit(cfg.stall),
            reset: hit(cfg.reset),
            truncate: hit(p_truncate),
            corrupt: hit(cfg.corrupt),
        };
        let aux = rng.next_u64();
        (plan, aux)
    }

    fn pre_call(&self, plan: &Plan) -> io::Result<()> {
        if self.state.dead.load(Ordering::Relaxed) {
            return Err(reset_err());
        }
        if plan.stall {
            self.state.counters.stalls.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(Duration::from_millis(self.state.cfg.stall_ms));
        }
        if plan.reset {
            self.state.counters.resets.fetch_add(1, Ordering::Relaxed);
            self.state.dead.store(true, Ordering::Relaxed);
            let _ = self.inner.shutdown();
            return Err(reset_err());
        }
        Ok(())
    }
}

fn reset_err() -> io::Error {
    io::Error::new(io::ErrorKind::ConnectionReset, "chaos: connection reset")
}

impl Read for ChaosStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let (plan, aux) = self.plan(self.state.cfg.short_read);
        self.pre_call(&plan)?;
        let cap = if plan.truncate && buf.len() > 1 {
            self.state
                .counters
                .short_reads
                .fetch_add(1, Ordering::Relaxed);
            1 + (aux as usize % (buf.len() - 1))
        } else {
            buf.len()
        };
        let n = self.inner.read(&mut buf[..cap])?;
        if plan.corrupt && n > 0 {
            self.state
                .counters
                .corruptions
                .fetch_add(1, Ordering::Relaxed);
            let bit = (aux >> 32) as usize % (n * 8);
            buf[bit / 8] ^= 1 << (bit % 8);
        }
        Ok(n)
    }
}

impl Write for ChaosStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let (plan, aux) = self.plan(self.state.cfg.partial_write);
        self.pre_call(&plan)?;
        if buf.is_empty() {
            return self.inner.write(buf);
        }
        let len = if plan.truncate && buf.len() > 1 {
            self.state
                .counters
                .partial_writes
                .fetch_add(1, Ordering::Relaxed);
            1 + (aux as usize % (buf.len() - 1))
        } else {
            buf.len()
        };
        if plan.corrupt {
            self.state
                .counters
                .corruptions
                .fetch_add(1, Ordering::Relaxed);
            let mut copy = buf[..len].to_vec();
            let bit = (aux >> 32) as usize % (len * 8);
            copy[bit / 8] ^= 1 << (bit % 8);
            let n = self.inner.write(&copy)?;
            return Ok(n);
        }
        self.inner.write(&buf[..len])
    }

    fn flush(&mut self) -> io::Result<()> {
        if self.state.dead.load(Ordering::Relaxed) {
            return Err(reset_err());
        }
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pipe_pair() -> (Stream, Stream) {
        let dir = std::env::temp_dir();
        let path = dir.join(format!(
            "ibp-chaos-test-{}-{:p}.sock",
            std::process::id(),
            &dir
        ));
        let _ = std::fs::remove_file(&path);
        let listener = std::os::unix::net::UnixListener::bind(&path).unwrap();
        let a = std::os::unix::net::UnixStream::connect(&path).unwrap();
        let (b, _) = listener.accept().unwrap();
        let _ = std::fs::remove_file(&path);
        (Stream::Unix(a), Stream::Unix(b))
    }

    #[test]
    fn zero_probabilities_are_a_transparent_wrapper() {
        let (a, b) = pipe_pair();
        let mut tx = ChaosConfig::with_intensity(1, 0.0).wrap(a);
        let mut rx = b;
        tx.write_all(b"hello chaos").unwrap();
        tx.flush().unwrap();
        let mut got = [0u8; 11];
        rx.read_exact(&mut got).unwrap();
        assert_eq!(&got, b"hello chaos");
    }

    #[test]
    fn same_seed_same_fault_pattern() {
        let cfg = ChaosConfig::with_intensity(42, 0.8);
        let run = || -> Vec<bool> {
            let (a, _b) = pipe_pair();
            let mut s = cfg.wrap(a);
            (0..64).map(|_| s.write(&[0u8; 32]).is_err()).collect()
        };
        assert_eq!(run(), run(), "fault pattern must be seed-deterministic");
    }

    #[test]
    fn reset_kills_both_halves_permanently() {
        let (a, _b) = pipe_pair();
        // reset with certainty on the first call
        let cfg = ChaosConfig {
            seed: 7,
            partial_write: 0.0,
            short_read: 0.0,
            stall: 0.0,
            reset: 1.0,
            corrupt: 0.0,
            stall_ms: 0,
        };
        let mut s = cfg.wrap(a);
        let mut clone = s.try_clone().unwrap();
        assert!(s.write(b"x").is_err());
        let mut buf = [0u8; 4];
        assert!(
            clone.read(&mut buf).is_err(),
            "clone must share the dead flag"
        );
        if let Stream::Chaos(cs) = &s {
            assert_eq!(cs.counters().resets.load(Ordering::Relaxed), 1);
        } else {
            unreachable!("wrap returns a chaos stream");
        }
    }

    #[test]
    fn corruption_flips_exactly_one_bit() {
        let (a, b) = pipe_pair();
        let cfg = ChaosConfig {
            seed: 9,
            partial_write: 0.0,
            short_read: 0.0,
            stall: 0.0,
            reset: 0.0,
            corrupt: 1.0,
            stall_ms: 0,
        };
        let mut tx = cfg.wrap(a);
        let mut rx = b;
        let sent = [0u8; 64];
        tx.write_all(&sent).unwrap();
        tx.flush().unwrap();
        let mut got = [0u8; 64];
        rx.read_exact(&mut got).unwrap();
        let flipped: u32 = sent
            .iter()
            .zip(got.iter())
            .map(|(s, g)| (s ^ g).count_ones())
            .sum();
        // write_all may split into several corrupted writes; each flips
        // exactly one bit.
        assert!(flipped >= 1, "at least one bit must have flipped");
    }
}
