//! # SpotWeb
//!
//! A from-scratch Rust implementation of **SpotWeb** (Ali-Eldin et al.,
//! HPDC 2019): a framework for running latency-sensitive distributed
//! web services on *transient* (revocable, spot-priced) cloud servers
//! while maintaining Quality-of-Service.
//!
//! This crate is a facade that re-exports the subsystem crates:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`linalg`] | `spotweb-linalg` | dense matrices, Cholesky/QR, block-tridiagonal Cholesky, CSR kernels, least squares |
//! | [`solver`] | `spotweb-solver` | ADMM quadratic-program solver |
//! | [`market`] | `spotweb-market` | transient-cloud market simulator (catalog, prices, revocations) |
//! | [`workload`] | `spotweb-workload` | synthetic Wikipedia/VoD workload traces |
//! | [`predict`] | `spotweb-predict` | cubic-spline + AR predictors with 99% CI padding |
//! | [`core`] | `spotweb-core` | multi-period portfolio optimizer, baselines, controller |
//! | [`lb`] | `spotweb-lb` | transiency-aware weighted-round-robin load balancer |
//! | [`sim`] | `spotweb-sim` | discrete-event web-cluster simulator |
//! | [`telemetry`] | `spotweb-telemetry` | deterministic tracing, streaming metrics, decision-explain records |
//!
//! ## Quickstart
//!
//! One optimization step, end to end:
//!
//! ```
//! use spotweb::core::{MpoOptimizer, SpotWebConfig, ForecastBundle, to_server_counts};
//! use spotweb::market::{Catalog, CloudSim, DEFAULT_SHRINKAGE};
//!
//! // A cloud of 9 EC2-style spot markets, warmed up for two days.
//! let catalog = Catalog::ec2_subset(9);
//! let mut cloud = CloudSim::new(catalog.clone(), 42, 336);
//! cloud.warm_up(48);
//! let tick = cloud.current();
//!
//! // Forecasts over a 4-hour horizon (flat here; plug in the
//! // spotweb::predict stack for real traces).
//! let forecast = ForecastBundle {
//!     workload: vec![5_000.0; 4],
//!     prices: vec![tick.prices.clone(); 4],
//!     failures: vec![tick.failure_probs.clone(); 4],
//! };
//! // The risk matrix M: the history keeps it current as it records.
//! let m = cloud.history().correlation(DEFAULT_SHRINKAGE);
//!
//! let mut optimizer = MpoOptimizer::new(SpotWebConfig::default());
//! let decision = optimizer
//!     .optimize(&catalog, &forecast, &m, &vec![0.0; catalog.len()])
//!     .expect("solvable portfolio");
//! let fleet = to_server_counts(&catalog, decision.first(), 5_000.0, 5e-3);
//! let capacity: f64 = fleet
//!     .iter()
//!     .enumerate()
//!     .map(|(i, &n)| n as f64 * catalog.market(i).capacity_rps())
//!     .sum();
//! assert!(capacity >= 5_000.0);
//! ```
//!
//! See `examples/` for larger walkthroughs (`quickstart`,
//! `cost_showdown`, `failover_drill`, `forecasting`, `full_stack`).

#![deny(clippy::unwrap_used)]

pub use spotweb_core as core;
pub use spotweb_lb as lb;
pub use spotweb_linalg as linalg;
pub use spotweb_market as market;
pub use spotweb_predict as predict;
pub use spotweb_sim as sim;
pub use spotweb_solver as solver;
pub use spotweb_telemetry as telemetry;
pub use spotweb_workload as workload;
