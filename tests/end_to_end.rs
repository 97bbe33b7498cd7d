//! End-to-end integration: market substrate → predictors → optimizer →
//! cost evaluation, across crate boundaries through the `spotweb`
//! facade, and the optimizer's policy driving the request-level
//! simulator through `bench::cell`'s bridge.

use spotweb::core::evaluate::EvalOptions;
use spotweb::core::{
    simulate_costs, ExoSpherePolicy, OnDemandPolicy, SpotWebConfig, SpotWebPolicy,
};
use spotweb::market::{estimate_correlation, Catalog, CloudSim, DEFAULT_SHRINKAGE};
use spotweb::predict::{SeriesPredictor, SpotWebPredictor};
use spotweb::sim::runner::{run_full_stack, RunnerConfig};
use spotweb::workload::{wikipedia_like, Trace};
use spotweb_bench::cell::PolicyBridge;

fn options(intervals: usize, seed: u64) -> EvalOptions {
    EvalOptions {
        intervals,
        cloud_warmup: 24,
        seed,
        ..EvalOptions::default()
    }
}

#[test]
fn spotweb_beats_exosphere_and_on_demand() {
    let catalog = Catalog::ec2_subset(9).with_on_demand();
    let n = catalog.len();
    let trace = wikipedia_like(6 * 24, 3).with_mean(20_000.0);
    let opts = options(5 * 24, 11);

    let mut sw = SpotWebPolicy::new(SpotWebConfig::default(), n);
    let r_sw = simulate_costs(&mut sw, &catalog, &trace, &opts);
    let mut exo = ExoSpherePolicy::new(SpotWebConfig::default(), n);
    let r_exo = simulate_costs(&mut exo, &catalog, &trace, &opts);
    let mut od = OnDemandPolicy::new();
    let r_od = simulate_costs(&mut od, &catalog, &trace, &opts);

    assert!(
        r_sw.total_cost() < r_exo.total_cost(),
        "spotweb {} vs exosphere {}",
        r_sw.total_cost(),
        r_exo.total_cost()
    );
    assert!(
        r_sw.savings_vs(&r_od) > 0.5,
        "savings vs on-demand {}",
        r_sw.savings_vs(&r_od)
    );
    // SpotWeb keeps SLO violations (drops) below the 5%-style budget.
    assert!(
        r_sw.drop_fraction() < 0.01,
        "drops {}",
        r_sw.drop_fraction()
    );
}

#[test]
fn spotweb_policy_drives_request_level_simulation() {
    let catalog = Catalog::fig4_testbed();
    let config = RunnerConfig {
        intervals: 5,
        seed: 4,
        ..RunnerConfig::default()
    };
    let mut cloud = CloudSim::new(catalog.clone(), 6, 64);
    cloud.warm_up(8);
    let trace = Trace::new(config.interval_secs, vec![300.0; 7]);
    let policy = SpotWebPolicy::new(
        SpotWebConfig {
            // The testbed intervals are 10 min, not hourly.
            interval_secs: config.interval_secs,
            ..SpotWebConfig::default()
        },
        catalog.len(),
    );
    let mut bridge = PolicyBridge::new(Box::new(policy), catalog);
    let report = run_full_stack(&mut bridge, &mut cloud, &trace, &config);
    assert!(report.served > 10_000, "served {}", report.served);
    assert!(
        report.drop_fraction < 0.05,
        "drops {}",
        report.drop_fraction
    );
    assert!(report.p90 < 1.0, "p90 {}", report.p90);
    assert!(report.cost > 0.0);
}

#[test]
fn full_pipeline_is_deterministic() {
    let run = || {
        let catalog = Catalog::fig5_three_markets();
        let trace = wikipedia_like(72, 5).with_mean(3000.0);
        let mut sw = SpotWebPolicy::new(SpotWebConfig::default(), catalog.len());
        let r = simulate_costs(&mut sw, &catalog, &trace, &options(48, 9));
        (
            r.total_cost(),
            r.dropped_requests,
            r.records.last().unwrap().fleet.clone(),
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn predictor_feeds_optimizer_shapes() {
    // The facade exposes everything needed to hand-build the loop.
    let catalog = Catalog::ec2_subset(9);
    let mut cloud = CloudSim::new(catalog.clone(), 1, 500);
    cloud.warm_up(48);
    let trace = wikipedia_like(400, 2);

    let mut predictor = SpotWebPredictor::new();
    for v in &trace.values[..336] {
        predictor.observe(*v);
    }
    let forecast_workload = predictor.predict(4);
    assert_eq!(forecast_workload.len(), 4);

    let tick = cloud.current();
    let m = estimate_correlation(&cloud.history().failure_matrix(), DEFAULT_SHRINKAGE);
    let bundle = spotweb::core::ForecastBundle {
        workload: forecast_workload,
        prices: vec![tick.prices.clone(); 4],
        failures: vec![tick.failure_probs.clone(); 4],
    };
    assert!(bundle.validate().is_ok());

    let mut opt = spotweb::core::MpoOptimizer::new(SpotWebConfig::default());
    let d = opt
        .optimize(&catalog, &bundle, &m, &vec![0.0; catalog.len()])
        .expect("solves");
    assert!(d.solved);
    assert_eq!(d.plan.len(), 4);
    assert_eq!(d.first().len(), 9);
    // Executable: convert to servers and check capacity covers λ̂.
    let fleet = spotweb::core::to_server_counts(&catalog, d.first(), bundle.workload[0], 5e-3);
    let cap = spotweb::core::total_capacity_rps(&catalog, &fleet);
    assert!(cap >= bundle.workload[0] * 0.99);
}

#[test]
fn lb_and_optimizer_agree_on_weights() {
    // Portfolio → WRR weights → the balancer routes proportionally.
    use spotweb::lb::{LoadBalancer, LoadBalancerConfig, RouteOutcome};

    let catalog = Catalog::fig5_three_markets();
    let counts = vec![1u32, 2, 0];
    let weights = spotweb::core::allocation::wrr_weights(&catalog, &counts);

    let mut lb = LoadBalancer::new(LoadBalancerConfig {
        admission_control: false,
        ..LoadBalancerConfig::default()
    });
    for (market, &c) in counts.iter().enumerate() {
        for _ in 0..c {
            lb.add_backend_up(market, catalog.market(market).capacity_rps());
        }
    }
    lb.update_portfolio_weights(&weights, 0.0);
    let mut per_market = [0u32; 3];
    for _ in 0..300 {
        if let RouteOutcome::Routed(b) = lb.route(None, 0.0) {
            per_market[lb.backends()[b].market] += 1;
            lb.complete(b, None);
        }
    }
    // 1920 : 640 capacity split = 3 : 1 of 300 = 225 : 75.
    assert_eq!(per_market[0], 225);
    assert_eq!(per_market[1], 75);
    assert_eq!(per_market[2], 0);
}

/// The smallest and largest cells of the benchmark's Fig. 7(b) grid
/// (`benchmark/fixtures/solver_scaling.rs` at seed 1234; its catalogs
/// are `fig7::synthetic_catalog`'s), solved cold.
/// ADMM's iteration count moves with the last bit of every sum in
/// set-up and in the KKT solve, so a kernel or assembly change that
/// reassociates one fails here before it can drift the goldens — and
/// if one is made on purpose, the solution's unscaled certificate says
/// whether the answer is still right.
#[test]
fn admm_iteration_counts_are_pinned_on_the_benchmark_cells() {
    use spotweb::core::portfolio::build_sparse_qp;
    use spotweb::core::{ForecastBundle, MpoOptimizer};
    use spotweb::linalg::Matrix;
    use spotweb::solver::{AdmmSolver, Settings};
    use spotweb::workload::rng::{stream_id, CounterStream, DOMAIN_NOISE};
    use spotweb_bench::fig7::synthetic_catalog;

    // (grid index, catalog, horizon, pinned iterations)
    let cells = [
        (0u64, synthetic_catalog(36), 4usize, 190usize),
        (5, synthetic_catalog(144), 10, 430),
    ];
    for (index, catalog, horizon, pinned) in cells {
        let n = catalog.len();
        let markets = catalog.markets();
        let prices: Vec<f64> = markets
            .iter()
            .map(|m| m.instance.on_demand_price * 0.3)
            .collect();
        let failures: Vec<f64> = markets.iter().map(|m| m.base_revocation_prob).collect();
        let draws = CounterStream::new(1234, stream_id(DOMAIN_NOISE, index));
        let variance = 1e-3 * (1.0 + 0.05 * draws.unit_f64_at(0));
        let mut covariance = Matrix::identity(n).scaled(variance);
        for i in 0..n {
            for j in 0..n {
                if i != j && i % 4 == j % 4 {
                    covariance[(i, j)] = 2e-4;
                }
            }
        }
        let forecast = ForecastBundle::flat(20_000.0, &prices, &failures, horizon);
        let config = SpotWebConfig::default().with_horizon(horizon);
        let mut optimizer = MpoOptimizer::new(config.clone());
        let decision = optimizer
            .optimize(&catalog, &forecast, &covariance, &vec![0.0; n])
            .unwrap();
        assert!(decision.solved, "{n} × {horizon} must converge");
        assert_eq!(decision.iterations, pinned, "{n} × {horizon}");

        // The same solve, made directly, for its certificate.
        let qp = build_sparse_qp(&catalog, &forecast, &covariance, &vec![0.0; n], &config).unwrap();
        let sol = AdmmSolver::with_block_structure(qp, Settings::default(), n)
            .unwrap()
            .solve();
        assert_eq!(sol.iterations, pinned, "{n} × {horizon}, solved directly");
        // Unscaled, within ten times what both cells read (at most
        // 9.6e-7 primal, 1.1e-4 dual, a gap of 8.8e-6 of the objective).
        let c = sol.certificate();
        assert!(c.primal_residual <= 1e-5, "{n} × {horizon}: {c:?}");
        assert!(c.dual_residual <= 1e-3, "{n} × {horizon}: {c:?}");
        assert!(
            c.duality_gap <= 1e-4 * sol.objective.abs(),
            "{n} × {horizon}: {c:?}, objective {}",
            sol.objective
        );
    }
}

/// Byte-exact pin of the control plane the benchmark's `control_plane`
/// workload runs (same catalog, horizon, load and seed; its first 72
/// hours — persistence, then 40 refits): every fleet plus the bits of
/// each interval's costs, re-recorded when the optimizer started
/// re-binding one solver per run (see below). A fleet is an allocation
/// rounded to servers, so a one-ulp drift can hide in it: the
/// per-interval ADMM iteration counts and the allocation bits cannot.
#[test]
fn control_plane_decisions_are_pinned() {
    use spotweb::telemetry::json::fnv1a64_hex;
    use spotweb::telemetry::{TelemetrySink, TraceEvent};

    let catalog = Catalog::ec2_subset(36);
    let trace = wikipedia_like(72 + 16, 1234).with_mean(20_000.0);
    let opts = EvalOptions {
        intervals: 72,
        seed: 1234,
        revocations: true,
        ..EvalOptions::default()
    };
    let sink = TelemetrySink::enabled();
    let mut policy = SpotWebPolicy::new(SpotWebConfig::default().with_horizon(4), catalog.len())
        .with_telemetry(sink.clone());
    let report = simulate_costs(&mut policy, &catalog, &trace, &opts);
    assert_eq!(report.records.len(), 72);
    let mut bytes = Vec::new();
    for record in &report.records {
        for &servers in &record.fleet {
            bytes.extend_from_slice(&servers.to_le_bytes());
        }
        for cost in [
            record.provisioning_cost,
            record.penalty_cost,
            record.dropped_requests,
        ] {
            bytes.extend_from_slice(&cost.to_bits().to_le_bytes());
        }
    }
    // Re-pinned from `dff027101f11f369` / 1109.9225060883155 when the
    // optimizer started re-binding one solver per run (fixed Ruiz
    // scaling, ρ reset, one refactor) and `M` became the history's
    // running estimate: of the 2 592 fleet entries one moved, interval
    // 59, market 14, 42 → 43 servers. The parent's unrounded count
    // there was 41.998374: its allocation 0.2352134 sat 9.1e-6 below
    // the 42-server ceiling, and the two solves' allocations differ by
    // 2.5e-5 there. Both are optimal to their certificates: the
    // objectives 90.101619 (parent) and 90.102203 differ by 5.8e-4,
    // inside the parent's duality gap of 6.1e-4.
    assert_eq!(fnv1a64_hex(&bytes), "44c04c93bbfc3e08");
    assert_eq!(report.total_cost(), 1110.025456371138);

    // Each interval's ADMM iteration count and the bits of every
    // first-period allocation `MpoOptimizer::optimize` returned, read
    // back from the decision trace, whose certificate must show a gap
    // within 1e-4 of the objective (≤ 1.0e-5 measured over the
    // benchmark's 504 intervals).
    let (mut iterations, mut bytes) = (Vec::new(), Vec::new());
    for stamped in sink.events() {
        if let TraceEvent::Decision(decision) = stamped.event {
            assert!(decision.solved, "interval {}", decision.interval);
            assert!(
                decision.duality_gap <= 1e-4 * decision.objective.abs(),
                "interval {}: gap {} on objective {}",
                decision.interval,
                decision.duality_gap,
                decision.objective
            );
            iterations.push(decision.iterations);
            for market in &decision.markets {
                bytes.extend_from_slice(&market.allocation.to_bits().to_le_bytes());
            }
        }
    }
    // 82.1 → 68.5 iterations a solve on the same re-pin.
    let pinned: [usize; 72] = [
        60, 80, 50, 70, 50, 60, 60, 50, 70, 70, 70, 80, 80, 80, 60, 70, 60, 60, 70, 60, 70, 70, 80,
        80, 80, 70, 60, 80, 60, 60, 60, 70, 70, 50, 50, 60, 70, 60, 60, 60, 70, 90, 60, 80, 70, 70,
        60, 60, 60, 80, 70, 60, 70, 80, 70, 80, 80, 70, 90, 90, 90, 80, 90, 60, 50, 50, 80, 70, 70,
        60, 70, 70,
    ];
    assert_eq!(iterations, pinned);
    assert_eq!(bytes.len(), 72 * 36 * 8);
    // Re-pinned with the fleet digest above, from `867d58f38691e278`:
    // allocations moved by ≤ 1.2e-4.
    assert_eq!(fnv1a64_hex(&bytes), "6bc8146ef802206f");
}
