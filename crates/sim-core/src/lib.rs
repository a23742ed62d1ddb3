//! # ibp-simcore — simulation substrate
//!
//! Foundation crate for the `ibpower` workspace, the Rust reproduction of
//! *Dickov et al., "Software-Managed Power Reduction in Infiniband Links"*
//! (ICPP 2014). It provides the primitives every layer above builds on:
//!
//! * [`SimTime`] / [`SimDuration`] — integer-nanosecond simulated time;
//! * [`DetRng`] — seeded, splittable randomness with the distributions the
//!   workload models need;
//! * [`StateTimeline`] — state-transition records with time integration,
//!   the basis of all power/energy accounting.
//!
//! Everything here is deterministic by construction: no wall-clock access,
//! no unseeded randomness, no iteration over unordered containers.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod rng;
pub mod time;
pub mod timeline;

pub use rng::DetRng;
pub use time::{SimDuration, SimTime};
pub use timeline::{StateInterval, StateTimeline};
