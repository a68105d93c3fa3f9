//! The Fischer–Parter PODC 2025 compilers: resilient all-to-all
//! communication in the Congested Clique against mobile bounded-degree
//! Byzantine edge adversaries.
//!
//! This crate implements the paper's primary contributions on top of the
//! workspace substrates:
//!
//! * [`routing`] — the resilient super-message routing scheme
//!   (Theorem 4.1 / 1.1), with both the cover-free parallel engine of
//!   Section 4.2 and a scheduled unit-instance engine;
//! * [`broadcast::broadcast`] — Corollary 4.8;
//! * [`protocols`] — the four `AllToAllComm` protocols of Table 1
//!   (Theorems 1.2–1.5), plus baselines.

#![expect(
    clippy::needless_range_loop,
    reason = "dense linear-algebra and protocol code walks several same-length arrays \
              by explicit index; iterator rewrites would obscure the paper's formulas"
)]
pub mod broadcast;
pub mod cc;
pub mod compiler;
pub mod driver;
mod error;
mod problem;
pub mod protocols;
pub mod routing;

pub use driver::{Driver, RoundBudget, RoundDelta, RoundObserver, RoundTrace, ScheduleSwitch};
pub use error::CoreError;
pub use problem::{AllToAllInstance, AllToAllOutput};
pub use protocols::{restore_run, snapshot_run};
