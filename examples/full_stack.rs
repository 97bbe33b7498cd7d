//! Full stack: the real SpotWeb policy driving a request-level cluster.
//!
//! Everything at once — the MPO optimizer re-plans every 10 minutes,
//! the transiency-aware balancer routes every single request, spot
//! prices move, revocations strike with 120 s warnings, replacements
//! boot and warm their caches. The paper's Fig. 2 architecture, live.
//!
//! Run with: `cargo run --release --example full_stack`

use spotweb::core::{SpotWebConfig, SpotWebPolicy};
use spotweb::market::{Catalog, CloudSim};
use spotweb::sim::runner::{run_full_stack, RunnerConfig};
use spotweb::workload::wikipedia_like;
use spotweb_bench::cell::PolicyBridge;

fn main() {
    let catalog = Catalog::fig4_testbed();
    let config = RunnerConfig {
        interval_secs: 600.0, // re-optimize every 10 minutes
        intervals: 36,        // a 6-hour run
        seed: 11,
        ..RunnerConfig::default()
    };

    // A diurnal workload compressed so the 6 simulated hours span a
    // rise-and-fall (mean 400 req/s against an ~1100 req/s catalog).
    let trace = wikipedia_like(config.intervals + 4, 5).with_mean(400.0);
    let mut cloud = CloudSim::new(catalog.clone(), 17, 128);
    cloud.warm_up(24);

    let policy = SpotWebPolicy::new(
        SpotWebConfig {
            interval_secs: config.interval_secs,
            ..SpotWebConfig::default()
        },
        catalog.len(),
    );
    let mut bridge = PolicyBridge::new(Box::new(policy), catalog);
    let report = run_full_stack(&mut bridge, &mut cloud, &trace, &config);

    println!("6-hour full-stack run (10-minute re-optimization):");
    println!("  requests served   {:>9}", report.served);
    println!(
        "  requests dropped  {:>9}  ({:.3}%)",
        report.dropped,
        100.0 * report.drop_fraction
    );
    println!(
        "  latency p50/p90/p99  {:>4.0} / {:>4.0} / {:>4.0} ms",
        1000.0 * report.p50,
        1000.0 * report.p90,
        1000.0 * report.p99
    );
    println!(
        "  revocation warnings  {:>3}   sessions migrated {:>5}",
        report.revocations, report.migrated_sessions
    );
    println!(
        "  provisioning spend   ${:.3} (per-second billing at spot prices)",
        report.cost
    );
    println!("  fleet size per interval: {:?}", report.fleet_sizes);
}
