//! A discrete-event cluster simulator for the PARMONC performance
//! experiments.
//!
//! The paper's evaluation (Section 4, Fig. 2) measures the wall-clock
//! time `T_comp(L)` to simulate `L` realizations of the 2-D diffusion
//! problem on `M ∈ {1, 8, 16, 32, 64, 128, 256, 512}` processors of the
//! Siberian Supercomputer Center, under the *strictest* exchange
//! conditions: every processor sends its subtotals to processor 0
//! after *every* realization (τ_ζ ≈ 7.7 s per realization, ≈ 120 KB per
//! message). We cannot requisition 512 physical processors, so this
//! crate models the experiment in virtual time (DESIGN.md substitution
//! table):
//!
//! * each processor is a serial resource that alternates between
//!   simulating realizations (duration `τ / speed_m`) and — for
//!   processor 0 — receiving, averaging, and saving;
//! * the network charges `latency + bytes / bandwidth` per message;
//! * processor 0 interleaves message processing between its own
//!   realizations, exactly like the real runner in `parmonc::runner`.
//!
//! `T_comp(L)` is read off when processor 0 has folded in every
//! worker's final message and saved — the same instant the paper
//! measures. The [`figure2`] module packages the paper's panels; the
//! model also exposes the knobs (tiny τ, slow links, heterogeneous
//! processors) used for the ablations in EXPERIMENTS.md.
//!
//! # Example
//!
//! Simulate the paper's testbed with one worker crashing mid-run, and
//! stream the run through a monitor using the same event schema as the
//! real runner (see `docs/observability.md`):
//!
//! ```
//! use std::sync::Arc;
//! use parmonc_faults::FaultPlan;
//! use parmonc_obs::{MemorySink, Monitor, MonitorSummary};
//! use parmonc_simcluster::{simulate, simulate_with, ClusterConfig};
//!
//! let config = ClusterConfig::paper_testbed(8);
//! let healthy = simulate(&config, 256);
//!
//! let sink = Arc::new(MemorySink::new());
//! let monitor = Monitor::new(vec![Box::new(Arc::clone(&sink))]);
//! let plan = FaultPlan::new(1).crash_rank(3, 10);
//! let run = simulate_with(&config, 256, &plan, 50.0, &monitor);
//!
//! // The lost rank's budget is re-simulated, so the volume is whole,
//! // at the price of a later T_comp; the trace agrees with the run.
//! assert_eq!(run.lost_workers, vec![3]);
//! assert_eq!(run.result.realizations, 256);
//! assert!(run.result.t_comp > healthy.t_comp);
//! let summary = MonitorSummary::from_events(&sink.snapshot());
//! assert_eq!(summary.total_realizations, Some(256));
//! assert_eq!(summary.messages_received, run.result.messages);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod figure2;
pub mod hybrid;
pub mod model;
pub mod sim;

pub use model::{ClusterConfig, ExchangePolicy, QuotaMode};
pub use sim::{simulate, simulate_with, Segment, SimResult, SimRun};
