//! Steady-state simulation-speed benchmark for the FB-DIMM simulator.
//!
//! The binary (`src/main.rs`) times `fbd_core::System::run` with tracing
//! off for the end-to-end numbers, and drives its own copy of the event
//! loop ([`mirror`]) with a timer around every layer call for the
//! per-layer numbers. Every run's simulated outputs are checked against
//! a stored reference digest ([`digest`]) and the run identities the
//! simulator guarantees. See `README.md` next to this crate for the
//! workloads, metrics and how to read them.

pub mod calib;
pub mod digest;
pub mod mirror;
pub mod probes;
pub mod spec;
pub mod stats;
