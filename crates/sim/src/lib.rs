//! # wavesched-sim — discrete-event simulation of the periodic controller
//!
//! The paper's framework runs admission control and scheduling every τ time
//! units while transfers execute on the slices in between. This crate
//! closes that loop with **one** slice-by-slice engine ([`stream`]): feed
//! arrivals to the [`Controller`](wavesched_core::Controller) at each
//! invocation instant, execute the returned integral schedule one slice at
//! a time, report actual progress back. The engine pulls jobs lazily and
//! tracks only the jobs in flight, and hands every outcome to a sink chosen
//! at compile time:
//!
//! * [`run_simulation_streamed`] folds outcomes into the O(1) aggregate
//!   [`StreamReport`] and an optional per-decision log — replaying a
//!   million-job trace costs memory proportional to the active window, not
//!   the trace;
//! * [`run_simulation`] keeps one [`JobOutcome`] per job plus link
//!   utilization, yielding the per-job [`SimReport`] ([`metrics`]).

#![warn(missing_docs)]

pub mod metrics;
pub mod stream;

pub use metrics::{JobOutcome, SimReport};
pub use stream::{run_simulation, run_simulation_streamed, MemProfile, StreamReport};

use wavesched_core::controller::ControllerConfig;

/// Simulation parameters.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Controller configuration (period τ, policy, solver settings).
    pub controller: ControllerConfig,
    /// Hard cap on simulated slices (safety against runaway extensions).
    pub max_slices: usize,
}

impl SimConfig {
    /// Defaults: the paper-ish controller on `w` wavelengths, 500-slice cap.
    pub fn paper(w: u32) -> Self {
        SimConfig {
            controller: ControllerConfig::paper(w),
            max_slices: 500,
        }
    }
}
