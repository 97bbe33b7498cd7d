//! Transiency-aware load balancing (paper §4.4, §6.1).
//!
//! SpotWeb's load balancer is an adaptive weighted-round-robin (WRR)
//! router that additionally understands *transiency*: cloud revocation
//! warnings, heterogeneous and changing backend capacities, server
//! startup delays, and overload admission control. The paper built it
//! as a wrapper around HAProxy; here the balancer is a native library
//! the discrete-event simulator (and any embedding application) drives.
//!
//! Key behaviours reproduced from the paper:
//!
//! * **Adaptive WRR** ([`wrr`]): smooth weighted round robin whose
//!   weights can be re-programmed online each time the optimizer
//!   computes a new portfolio ("the weights are set to be equal to the
//!   relative weight of a market within the portfolio").
//! * **Revocation warnings** ([`balancer`]): on a warning the backend
//!   enters *draining* — no new requests or sessions are routed to it,
//!   and its sessions migrate to surviving backends with spare
//!   capacity within the warning window `W`.
//! * **Reactive reprovisioning hook**: when the survivors cannot absorb
//!   the drained load, the balancer reports the capacity gap so the
//!   controller can start replacement servers.
//! * **Admission control** ([`admission`]): when utilization exceeds a
//!   threshold (replacements still booting), excess requests are
//!   dropped/delayed to protect the remaining servers.
//! * **Vanilla mode**: the Fig. 4(a) baseline — a WRR that ignores
//!   warnings and keeps routing to a revoked server until it dies.

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used)]
#![deny(missing_docs)]

pub mod admission;
pub mod backend;
pub mod balancer;
pub mod monitor;
pub mod session;
pub mod wrr;

pub use admission::AdmissionController;
pub use backend::{Backend, BackendId, BackendState};
pub use balancer::{LbStats, LoadBalancer, LoadBalancerConfig, RouteOutcome, WarningReport};
pub use monitor::{MonitorRates, MonitorSnapshot, MonitorWindow};
pub use session::SessionTable;
pub use spotweb_telemetry::{TelemetrySink, TraceEvent};
pub use wrr::SmoothWrr;
