//! # tilelink-tune
//!
//! A simulator-guided autotuner over the paper's decoupled overlap design
//! space (Section 3.1): communication/computation tile shapes, tile order,
//! transfer mode, resource mapping, barrier channels and pipeline depth.
//!
//! The reproduction previously ran hand-picked [`tilelink::OverlapConfig`]
//! values; this crate makes the *search* part of the system, the way TileLang
//! auto-explores tiling/pipelining schedules:
//!
//! * [`SearchSpace`] — a builder describing per-axis candidate values, with
//!   invalid combinations pruned through [`tilelink::OverlapConfig::validate`]
//!   and per-workload constraints ([`CostOracle::is_supported`]);
//! * [`CostOracle`] — anything that can price one candidate configuration.
//!   The workload crates implement it by compiling the tile program with the
//!   TileLink compiler and measuring the simulated makespan on the
//!   `tilelink-sim` discrete-event cluster;
//! * [`Tuner`] — drives a [`Strategy`]: [`Strategy::Exhaustive`] grid search
//!   for small spaces, or [`Strategy::Beam`] coordinate-descent beam search
//!   that visits a tiny fraction of large spaces while never returning a
//!   config worse than its seed (the default config);
//! * [`TuneCache`] — a persistent on-disk cache keyed by
//!   `(workload, cluster, cost-model revision, config)` so repeated searches
//!   are near-free. The simulator is deterministic, so cached costs never go
//!   stale for a fixed cost model — and because the provider's
//!   [`tilelink_sim::CostProvider::revision`] fingerprint is part of the key,
//!   entries evaluated under an older cost model self-invalidate instead of
//!   serving wrong timings. It also keeps the certified floor of every
//!   candidate branch-and-bound aborted, so a warm re-tune disposes of those
//!   without compiling or simulating them again.
//!
//! Candidate evaluation is embarrassingly parallel (the simulator is pure),
//! so the tuner fans evaluations out over the worker threads of a
//! [`SearchExecutor`] — its own, or one shared by every search in the process.
//!
//! # Example
//!
//! ```
//! use tilelink::exec::BoundedReport;
//! use tilelink::{OverlapConfig, OverlapReport};
//! use tilelink_sim::ClusterSpec;
//! use tilelink_tune::{CostOracle, SearchSpace, Strategy, Tuner};
//!
//! /// A toy oracle: prefers large compute tiles and few comm SMs.
//! struct Toy(ClusterSpec);
//! impl CostOracle for Toy {
//!     fn workload_key(&self) -> String {
//!         "toy".to_string()
//!     }
//!     fn cluster(&self) -> &ClusterSpec {
//!         &self.0
//!     }
//!     fn evaluate_bounded(
//!         &self,
//!         cfg: &OverlapConfig,
//!         cutoff: f64,
//!     ) -> tilelink::Result<BoundedReport> {
//!         let t = 1.0 / cfg.compute_tile.numel() as f64
//!             + cfg.comm_mapping.comm_sms() as f64 * 1e-6;
//!         if t > cutoff {
//!             return Ok(BoundedReport::Exceeded(t));
//!         }
//!         Ok(BoundedReport::Report(OverlapReport::new(t, t / 2.0, t / 2.0)))
//!     }
//! }
//!
//! let oracle = Toy(ClusterSpec::h800_node(8));
//! let space = SearchSpace::standard();
//! let report = Tuner::new(Strategy::Exhaustive).tune(&oracle, &space).unwrap();
//! let default = oracle
//!     .evaluate_bounded(&OverlapConfig::default(), f64::INFINITY)
//!     .unwrap()
//!     .report()
//!     .unwrap();
//! assert!(report.best.report.total_s <= default.total_s);
//! ```

#![deny(missing_docs)]

pub mod cache;
mod error;
mod executor;
mod objective;
mod oracle;
mod search;
mod space;

pub use cache::TuneCache;
pub use error::TuneError;
pub use executor::{ExecutorSession, SearchExecutor};
pub use objective::Objective;
pub use oracle::{cluster_key, CostOracle, FnOracle};
pub use search::{Candidate, FailedBreakdown, RoundProgress, Strategy, TuneReport, Tuner};
pub use space::{AxisConstraint, PruneCounts, SearchSpace, RING_REQUIRES_PUSH};

/// Convenience result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, TuneError>;
