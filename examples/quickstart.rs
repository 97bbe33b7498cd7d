//! Quickstart: pick a portfolio of transient servers for a web service.
//!
//! Walks the core SpotWeb loop once by hand:
//! 1. describe the cloud (market catalog),
//! 2. observe market dynamics (prices + revocation probabilities),
//! 3. forecast the workload,
//! 4. run the multi-period optimizer,
//! 5. convert the fractional allocation into servers to launch.
//!
//! Run with: `cargo run --release --example quickstart`

use spotweb::core::{to_server_counts, ForecastBundle, MpoOptimizer, SpotWebConfig};
use spotweb::market::{estimate_covariance, Catalog, CloudSim, DEFAULT_SHRINKAGE};

fn main() {
    // 1. A catalog of 9 EC2-style spot markets.
    let catalog = Catalog::ec2_subset(9);
    println!("markets:");
    for m in catalog.markets() {
        println!(
            "  [{}] {:<13} {:>4} vCPU  {:>6.0} req/s  ${:.3}/h on-demand  f={:.2}",
            m.id,
            m.instance.name,
            m.instance.vcpus,
            m.capacity_rps(),
            m.instance.on_demand_price,
            m.base_revocation_prob
        );
    }

    // 2. Simulate the market for two days to build up history, then
    //    read the current prices and revocation probabilities.
    let mut cloud = CloudSim::new(catalog.clone(), 42, 24 * 14);
    cloud.warm_up(48);
    let tick = cloud.current();
    let covariance = estimate_covariance(&cloud.history().failure_matrix(), DEFAULT_SHRINKAGE);

    // 3. Forecast: 5 000 req/s now, rising over the next 4 hours
    //    (plug in `spotweb::predict::SpotWebPredictor` for real traces).
    let forecast = ForecastBundle {
        workload: vec![5_000.0, 5_600.0, 6_300.0, 7_000.0],
        prices: vec![tick.prices.clone(); 4],
        failures: vec![tick.failure_probs.clone(); 4],
    };

    // 4. Optimize over the 4-hour horizon (paper defaults: α = 5,
    //    A_max = 1.6). We cap any single market at 40% of the traffic —
    //    the paper's Eq. 10 diversification knob — so one revocation
    //    can never take out the whole front-end tier.
    let config = SpotWebConfig {
        a_max_per_market: 0.4,
        ..SpotWebConfig::default()
    };
    let mut optimizer = MpoOptimizer::new(config.clone());
    let decision = optimizer
        .optimize(&catalog, &forecast, &covariance, &vec![0.0; catalog.len()])
        .expect("portfolio optimization");
    println!(
        "\nsolved in {} ADMM iterations, objective {:.4}",
        decision.iterations, decision.objective
    );

    // 5. Deploy the first interval of the plan.
    let allocation = decision.first();
    let fleet = to_server_counts(
        &catalog,
        allocation,
        forecast.workload[0],
        config.min_allocation,
    );
    println!(
        "\nportfolio for the next hour (λ̂ = {} req/s):",
        forecast.workload[0]
    );
    for (i, (&a, &n)) in allocation.iter().zip(&fleet).enumerate() {
        if n > 0 {
            println!(
                "  {:<13} share {:>5.1}%  → {} server(s) @ ${:.3}/h spot",
                catalog.market(i).instance.name,
                100.0 * a,
                n,
                tick.prices[i]
            );
        }
    }
    let capacity: f64 = fleet
        .iter()
        .enumerate()
        .map(|(i, &n)| n as f64 * catalog.market(i).capacity_rps())
        .sum();
    println!(
        "total capacity {:.0} req/s for a predicted peak of {:.0} req/s",
        capacity, forecast.workload[0]
    );
}
