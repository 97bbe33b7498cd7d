//! Transient-cloud market substrate.
//!
//! SpotWeb's optimizer consumes, for every *market* (an instance
//! configuration offered either on-demand or as a revocable transient
//! server), three time series: the price, the revocation probability,
//! and — derived from the latter — a covariance matrix of revocation
//! dynamics. The paper measured these on Amazon EC2 (36 us-east-1 spot
//! markets, November 2018). That data is not redistributable, so this
//! crate *simulates* the cloud side:
//!
//! * [`catalog`] — an instance-type catalog modeled on EC2 (m4/c5/r4/r5/
//!   x1e families with their real vCPU/memory/on-demand-price ratios and
//!   the paper's request-capacity scaling of ≈20 req/s per vCPU).
//! * [`price`] — a mean-reverting stochastic spot-price process with
//!   demand-surge regimes; surges are what make the *cheapest market
//!   change over time*, the effect Fig. 5(a) of the paper depends on.
//! * [`revocation`] — per-market revocation probabilities driven by a
//!   shared demand factor (correlated within an instance family, like
//!   real spot pools) plus idiosyncratic noise, and sampling of
//!   revocation events with an advance warning period.
//! * [`covariance`] — estimation of the paper's matrix `M` from
//!   revocation-probability histories, with shrinkage so it is always
//!   usable as a quadratic risk term, plus correlation-threshold
//!   grouping of markets into failure domains.
//! * [`index`] — the capacity-weighted "spot index" that Cloud Index
//!   Tracking style policies rebalance toward.
//! * [`history`] — rolling per-market failure-probability record that
//!   also owns the running risk matrix `M`
//!   ([`MarketHistory::correlation`]), which the optimizer reads.
//! * [`cloud`] — a stepped façade combining all of the above, which the
//!   discrete-event simulator and the benchmark harness drive.
//! * [`billing`] — cost accounting (per-second billing, as on EC2).
//!
//! Everything is seeded ([`rand_chacha`]) so every experiment in
//! EXPERIMENTS.md is exactly reproducible.

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used)]
#![deny(missing_docs)]

pub mod billing;
pub mod catalog;
pub mod cloud;
pub mod covariance;
pub mod history;
pub mod index;
pub mod io;
pub mod price;
pub mod providers;
pub mod revocation;

pub use billing::{BillingLedger, CostMeter};
pub use catalog::{Catalog, InstanceType, Market, MarketId, MarketKind};
pub use cloud::CloudSim;
pub use covariance::{
    correlation_groups, estimate_correlation, estimate_covariance, DEFAULT_SHRINKAGE,
};
pub use history::MarketHistory;
pub use index::spot_index_weights;
pub use price::SpotPriceProcess;
pub use providers::Provider;
pub use revocation::RevocationModel;
