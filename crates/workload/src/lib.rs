//! Web-workload traces for SpotWeb experiments.
//!
//! The paper evaluates on two three-week request-rate traces (Fig. 3):
//! the English Wikipedia (June 2008) and TV4's premium VoD service
//! (January 2013). Neither is redistributable here, so this crate
//! generates *synthetic equivalents* that preserve the features the
//! paper's experiments exercise:
//!
//! * [`wikipedia`] — strong diurnal + weekly seasonality, smooth, very
//!   few spikes (the trace the spline predictor handles almost
//!   perfectly).
//! * [`vod`] — diurnal with evening prime-time concentration plus
//!   frequent, large, hard-to-predict flash spikes (the trace that
//!   stresses the over-provisioning logic; the paper reports ~25%
//!   savings there vs ~50% on Wikipedia).
//!
//! Support modules: [`trace`] (the time-series container), [`spikes`]
//! (flash-crowd injection), [`stats`] (summary statistics used by
//! EXPERIMENTS.md), [`io`] (CSV round-tripping so traces can be
//! exported for external plotting), and [`rng`] (the counter-based,
//! draw-order-free generator behind every randomized draw in this
//! crate and the simulator's arrivals and faults).

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used)]
#![warn(missing_docs)]

pub mod io;
pub mod rng;
pub mod spikes;
pub mod stats;
pub mod trace;
pub mod vod;
pub mod wikipedia;

pub use trace::Trace;
pub use vod::vod_like;
pub use wikipedia::wikipedia_like;
