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

/// Cell `index` of the benchmark's Fig. 7(b) grid
/// (`benchmark/fixtures/solver_scaling.rs` at seed 1234; its catalogs
/// are `fig7::synthetic_catalog`'s), with its prices scaled per market
/// by `price_scale`: the catalog, forecast, risk matrix and
/// configuration of its cold solve.
fn fig7b_cell(
    index: u64,
    markets: usize,
    horizon: usize,
    price_scale: impl Fn(usize) -> f64,
) -> (
    Catalog,
    spotweb::core::ForecastBundle,
    spotweb::linalg::Matrix,
    SpotWebConfig,
) {
    use spotweb::core::ForecastBundle;
    use spotweb::linalg::Matrix;
    use spotweb::workload::rng::{stream_id, CounterStream, DOMAIN_NOISE};

    let catalog = spotweb_bench::fig7::synthetic_catalog(markets);
    let prices: Vec<f64> = catalog
        .markets()
        .iter()
        .enumerate()
        .map(|(i, m)| m.instance.on_demand_price * 0.3 * price_scale(i))
        .collect();
    let failures: Vec<f64> = catalog
        .markets()
        .iter()
        .map(|m| m.base_revocation_prob)
        .collect();
    let draws = CounterStream::new(1234, stream_id(DOMAIN_NOISE, index));
    let variance = 1e-3 * (1.0 + 0.05 * draws.unit_f64_at(0));
    let mut covariance = Matrix::identity(markets).scaled(variance);
    for i in 0..markets {
        for j in 0..markets {
            if i != j && i % 4 == j % 4 {
                covariance[(i, j)] = 2e-4;
            }
        }
    }
    let forecast = ForecastBundle::flat(20_000.0, &prices, &failures, horizon);
    (
        catalog,
        forecast,
        covariance,
        SpotWebConfig::default().with_horizon(horizon),
    )
}

/// Cold-solve `cell` directly; it must be polished and match the dense
/// KKT oracle. Returns the solution.
fn polished_cold_solve(
    (catalog, forecast, covariance, config): &(
        Catalog,
        spotweb::core::ForecastBundle,
        spotweb::linalg::Matrix,
        SpotWebConfig,
    ),
    what: &str,
) -> spotweb::solver::QpSolution {
    use spotweb::core::portfolio::build_sparse_qp;
    use spotweb::solver::{AdmmSolver, Settings};
    let n = catalog.len();
    let qp = build_sparse_qp(catalog, forecast, covariance, &vec![0.0; n], config).unwrap();
    let dense = qp.to_dense();
    let sol = AdmmSolver::with_block_structure(qp, Settings::default(), n)
        .unwrap()
        .solve();
    assert!(sol.is_solved() && sol.polished, "{what}");
    assert_matches_dense_kkt(&dense, &sol, what);
    sol
}

/// The smallest and largest cells of the benchmark's Fig. 7(b) grid,
/// solved cold. ADMM's iteration count moves with the last bit of
/// every sum in set-up and in the KKT solve, so a kernel or assembly
/// change that reassociates one fails here before it can drift the
/// goldens — and if one is made on purpose, the solution's unscaled
/// certificate and the dense KKT oracle say whether the answer is
/// still right.
#[test]
fn admm_iteration_counts_are_pinned_on_the_benchmark_cells() {
    use spotweb::core::MpoOptimizer;

    // (grid index, markets, horizon, pinned iterations). Re-pinned
    // from 190 and 430 when the solver started polishing: both cells
    // now stop at a loose check and solve the active set's KKT system.
    // Re-pinned from 60 and 50 when every check started polishing, not
    // only one whose residuals pass 1e-3: both cells' first check
    // already guesses the optimum's active set, and its one reduced
    // solve certifies as the later check's did (gaps 2.3e-13 and
    // 3.8e-13 of the objective). The bounds below held unchanged.
    for (index, n, horizon, pinned) in [(0, 36, 4, 10), (5, 144, 10, 10)] {
        let cell = fig7b_cell(index, n, horizon, |_| 1.0);
        let (catalog, forecast, covariance, config) = &cell;
        let decision = MpoOptimizer::new(config.clone())
            .optimize(catalog, forecast, covariance, &vec![0.0; n])
            .unwrap();
        assert!(decision.solved && decision.polished, "{n} × {horizon}");
        assert_eq!(decision.iterations, pinned, "{n} × {horizon}");

        // The same solve, made directly, for its certificate.
        let sol = polished_cold_solve(&cell, &format!("{n} × {horizon}"));
        assert_eq!(sol.iterations, pinned, "{n} × {horizon}, solved directly");
        // Unscaled, within ten times what both polished cells read (at
        // most 2.5e-12 primal, 7.3e-14 dual, a gap of 3.8e-13 of the
        // objective; unpolished they read 9.6e-7, 1.1e-4 and 9.0e-6).
        let c = sol.certificate();
        assert!(c.primal_residual <= 2.5e-11, "{n} × {horizon}: {c:?}");
        assert!(c.dual_residual <= 7.3e-13, "{n} × {horizon}: {c:?}");
        assert!(
            c.duality_gap <= 3.8e-12 * sol.objective.abs(),
            "{n} × {horizon}: {c:?}, objective {}",
            sol.objective
        );
    }
}

/// Every cell of the Fig. 7(b) grid polishes to the dense KKT oracle's
/// optimum, solved cold.
#[test]
fn every_fig7b_cell_polishes_to_the_dense_kkt_optimum() {
    let grid = [(36, 4), (36, 10), (72, 4), (72, 10), (144, 4), (144, 10)];
    for (index, (n, horizon)) in (0..).zip(grid) {
        let sol = polished_cold_solve(
            &fig7b_cell(index, n, horizon, |_| 1.0),
            &format!("{n} × {horizon}"),
        );
        assert!(sol.certificate().duality_gap <= 1e-9 * sol.objective.abs());
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
    use spotweb::telemetry::TraceEvent;

    let catalog = Catalog::ec2_subset(36);
    let trace = wikipedia_like(72 + 16, 1234).with_mean(20_000.0);
    let opts = EvalOptions {
        intervals: 72,
        seed: 1234,
        revocations: true,
        ..EvalOptions::default()
    };
    let mut policy = RecordingPolicy::new(catalog.len());
    let report = simulate_costs(&mut policy, &catalog, &trace, &opts);
    assert_eq!(report.records.len(), 72);
    let sink = policy.sink.clone();
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
    //
    // Re-pinned back from `44c04c93bbfc3e08` / 1110.025456371138 when
    // the solver started polishing, so every decision is the exact
    // optimum: the one fleet entry that moves is that one, 43 → 42.
    // The first record to diverge is interval 59's; every allocation
    // moves from interval 0 on, by at most 1.23e-4 (interval 44,
    // market 15). Interval 59's certificate goes from a primal
    // residual of 4.5e-8, a dual one of 9.0e-5 and a gap of 8.8e-5 to
    // 4.0e-15, 2.1e-14 and 8.5e-14, its objective 90.1022027 →
    // 90.1022263: inside the old gap, and the polished point feasible
    // where the old one was not.
    assert_eq!(fnv1a64_hex(&bytes), "dff027101f11f369");
    assert_eq!(report.total_cost(), 1109.9225060883155);

    // Each interval's ADMM iteration count and the bits of every
    // first-period allocation `MpoOptimizer::optimize` returned, read
    // back from the decision trace: every decision polished, its
    // certificate a gap within 1e-9 of the objective (≤ 3.4e-15
    // measured over the benchmark's 504 intervals; 1.0e-5 unpolished).
    let (mut iterations, mut bytes) = (Vec::new(), Vec::new());
    for stamped in sink.events() {
        if let TraceEvent::Decision(decision) = stamped.event {
            assert!(
                decision.solved && decision.polished,
                "interval {}",
                decision.interval
            );
            assert!(
                decision.duality_gap <= 1e-9 * decision.objective.abs(),
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
    // 82.1 → 68.5 iterations a solve on the first re-pin, 68.5 → 22.2
    // on the polishing one. 22.2 → 0.28 when warm solves started by
    // polishing the previous active set: all 71 warm decisions settle
    // at iteration 0 (one to three polish solves each), only the cold
    // first one iterates. No fleet, cost, allocation bit or oracle
    // bound moved. 20 → 10 for the cold first decision when every ADMM
    // check started polishing; again no fleet, cost, allocation bit or
    // oracle bound moved.
    let mut pinned = [0; 72];
    pinned[0] = 10;
    assert_eq!(iterations, pinned);
    assert_eq!(bytes.len(), 72 * 36 * 8);
    // Every decision the exact optimum, by the dense KKT oracle.
    let worst = policy.check_against_the_oracle();
    assert!(worst <= 1e-9, "first-period allocations off by {worst:e}");
    // Re-pinned with the fleet digest above, from `867d58f38691e278`:
    // allocations moved by ≤ 1.2e-4; and again, from
    // `6bc8146ef802206f`, by ≤ 1.23e-4. Re-pinned alone from
    // `814835c58800e19c` when the spline fit moved from a QR of the
    // stacked window to refined normal equations: the first record
    // to diverge is interval 32's (the first refit), 34 of the 40
    // refit intervals move, workload forecasts by ≤ 1.7e-14 relative
    // (interval 67) and allocations by ≤ 2.8e-15 (interval 60, market
    // 18). No fleet, cost, iteration count or oracle bound moved.
    assert_eq!(fnv1a64_hex(&bytes), "7e525eb49a96db4b");
}

/// The dense KKT oracle over the benchmark's whole `control_plane` run
/// (504 hourly decisions) at seeds 1234 and 7: the numbers
/// EXPERIMENTS.md "Polished solves" reports. Every decision must be
/// polished, at least 99 % of the warm ones at iteration 0 (the polish
/// of the previous active set), none may factor the KKT matrix more
/// than once, and the total cost must keep its bits.
/// Seconds in a release build: `cargo test --release --test end_to_end
/// -- --ignored --nocapture`.
#[test]
#[ignore = "the 504-interval report behind EXPERIMENTS.md; run in release"]
fn polished_control_plane_matches_the_dense_kkt_oracle_over_three_weeks() {
    use spotweb::telemetry::TraceEvent;
    for (seed, total_cost) in [(1234, 7241.984207957162), (7, 7118.273009073732)] {
        let catalog = Catalog::ec2_subset(36);
        let trace = wikipedia_like(504 + 16, seed).with_mean(20_000.0);
        let opts = EvalOptions {
            intervals: 504,
            seed,
            revocations: true,
            ..EvalOptions::default()
        };
        let mut policy = RecordingPolicy::new(catalog.len());
        let report = simulate_costs(&mut policy, &catalog, &trace, &opts);
        let worst_x = policy.check_against_the_oracle();
        let (mut iterations, mut polished, mut worst_gap) = (0, 0, 0.0_f64);
        let (mut polish_solves, mut factored, mut warm_at_zero) = (0, 0, 0);
        let events = policy.sink.events();
        let decisions: Vec<_> = events
            .iter()
            .filter_map(|e| match &e.event {
                TraceEvent::Decision(d) => Some(d),
                _ => None,
            })
            .collect();
        for d in &decisions {
            iterations += d.iterations;
            polished += usize::from(d.polished);
            polish_solves += d.polish_solves;
            factored += usize::from(d.kkt_factorizations > 0);
            assert!(
                d.kkt_factorizations <= 1,
                "seed {seed}, interval {}: {} factorizations",
                d.interval,
                d.kkt_factorizations
            );
            warm_at_zero += usize::from(d.interval > 0 && d.iterations == 0);
            worst_gap = worst_gap.max(d.duality_gap / d.objective.abs());
        }
        println!(
            "seed {seed}: {} decisions, {:.2} ADMM iterations a solve, {polished} polished, \
             {warm_at_zero} warm at iteration 0, {:.2} polish solves a solve, {factored} \
             factored the KKT matrix, worst gap/|objective| {worst_gap:.2e}, worst \
             deployed-vs-oracle {worst_x:.2e}, total cost {}",
            decisions.len(),
            iterations as f64 / decisions.len() as f64,
            polish_solves as f64 / decisions.len() as f64,
            report.total_cost()
        );
        assert_eq!(decisions.len(), 504);
        assert_eq!(polished, 504);
        assert!(warm_at_zero * 100 >= 99 * 503, "{warm_at_zero} / 503");
        assert!(worst_x <= 1e-9 && worst_gap <= 1e-9);
        assert_eq!(report.total_cost(), total_cost, "seed {seed}");
    }
}

/// Fig. 6(a)'s setup (three markets, oracle forecasts, α = 0.2) at
/// both its horizons: its optima are often the vertex where one market
/// sits at its cap of 1 and meets the budget's floor of 1 alone, so the
/// budget row is active with all its variables fixed and its multiplier
/// is the iterate's. The warm start's, from the previous problem, can
/// fit no sign pattern of the new one, and the polish at iteration 0
/// runs out of rounds. ADMM's own iterate at a later check carries a
/// multiplier that fits, so that check must polish again and not skip
/// the guess as turned down: every decision is polished.
#[test]
fn warm_decisions_at_a_vertex_the_budget_floor_holds_polish() {
    use spotweb::telemetry::{TelemetrySink, TraceEvent};
    for horizon in [2, 4] {
        let catalog = Catalog::fig5_three_markets();
        let trace = wikipedia_like(168 + 16, 1234).with_mean(30_000.0);
        let opts = EvalOptions {
            intervals: 168,
            seed: 1234,
            oracle: true,
            oracle_horizon: 12,
            revocations: false,
            ..EvalOptions::default()
        };
        let config = SpotWebConfig {
            alpha: 0.2,
            ..SpotWebConfig::default()
        };
        let sink = TelemetrySink::enabled();
        let mut policy = SpotWebPolicy::new(config.with_horizon(horizon), catalog.len())
            .with_telemetry(sink.clone());
        simulate_costs(&mut policy, &catalog, &trace, &opts);
        let events = sink.events();
        let unpolished: Vec<_> = events
            .iter()
            .filter_map(|e| match &e.event {
                TraceEvent::Decision(d) if !d.polished => Some((d.interval, d.iterations)),
                _ => None,
            })
            .collect();
        assert!(
            unpolished.is_empty(),
            "H = {horizon}: (interval, iterations) of unpolished decisions {unpolished:?}"
        );
    }
}

/// The Fig. 7(b) 144 × 10 cell solved cold under ±2 % per-market price
/// jitter, 50 draws: EXPERIMENTS.md "Polished solves"' jitter row. Every
/// solve must be polished and match the dense KKT oracle, and the
/// polish at every ADMM check must keep the cold cost down: at most 30
/// iterations on average and 60 at worst (24.6 and 50 measured), and
/// a duality gap within 1e-12 of the objective (1.7e-13 measured).
/// Seconds in a release build.
#[test]
#[ignore = "the jitter row of EXPERIMENTS.md; run in release"]
fn cold_solves_under_two_percent_price_jitter_polish() {
    use spotweb::workload::rng::{stream_id, CounterStream, DOMAIN_NOISE};
    const DRAWS: usize = 50;
    let (mut iterations, mut polish_solves, mut worst_gap) = (Vec::new(), 0, 0.0_f64);
    for draw in 0..DRAWS {
        let jitter = CounterStream::new(1234, stream_id(DOMAIN_NOISE, 100 + draw as u64));
        let cell = fig7b_cell(5, 144, 10, |i| {
            1.0 + 0.02 * (2.0 * jitter.unit_f64_at(i as u64) - 1.0)
        });
        let sol = polished_cold_solve(&cell, &format!("draw {draw}"));
        iterations.push(sol.iterations);
        polish_solves += sol.polish_solves;
        worst_gap = worst_gap.max(sol.certificate().duality_gap / sol.objective.abs());
    }
    let mean = iterations.iter().sum::<usize>() as f64 / DRAWS as f64;
    let worst = *iterations.iter().max().unwrap();
    println!(
        "144 × 10 cold, ±2 % jitter, {DRAWS} draws: ADMM iterations mean {mean:.1}, worst \
         {worst}, all polished, {:.2} polish solves a solve; worst gap/|objective| \
         {worst_gap:.2e}",
        polish_solves as f64 / DRAWS as f64
    );
    assert!(mean <= 30.0, "mean {mean} iterations");
    assert!(worst <= 60, "worst {worst} iterations");
    assert!(worst_gap <= 1e-12, "worst gap/|objective| {worst_gap:e}");
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// `SpotWebPolicy` (horizon 4, telemetry on) beside its own copy of the
/// policy's predictors, fed the same observations: it rebuilds the QP
/// every decision solves, for the dense KKT oracle.
struct RecordingPolicy {
    inner: SpotWebPolicy,
    sink: spotweb::telemetry::TelemetrySink,
    config: SpotWebConfig,
    workload: SpotWebPredictor,
    prices: Vec<spotweb::predict::price::MeanRevertingPricePredictor>,
    /// The first-period allocation in force, as the policy's own.
    deployed: Vec<f64>,
    /// Per decision: its QP, and the first-period allocation it chose.
    decisions: Vec<(spotweb::solver::SparseQp, Vec<f64>)>,
}

impl RecordingPolicy {
    fn new(markets: usize) -> Self {
        use spotweb::predict::price::MeanRevertingPricePredictor;
        let sink = spotweb::telemetry::TelemetrySink::enabled();
        let config = SpotWebConfig::default().with_horizon(4);
        RecordingPolicy {
            inner: SpotWebPolicy::new(config.clone(), markets).with_telemetry(sink.clone()),
            sink,
            config,
            workload: SpotWebPredictor::new(),
            // `SpotWebPolicy`'s price window.
            prices: (0..markets)
                .map(|_| MeanRevertingPricePredictor::new(48))
                .collect(),
            deployed: vec![0.0; markets],
            decisions: Vec::new(),
        }
    }

    /// Solve every recorded QP afresh, cold; check the polished solution
    /// against the dense KKT oracle, and the allocation the policy
    /// deployed against the oracle's. Returns the worst relative
    /// difference of the latter.
    fn check_against_the_oracle(&self) -> f64 {
        use spotweb::solver::{AdmmSolver, Settings};
        let n = self.deployed.len();
        let mut worst: f64 = 0.0;
        for (t, (qp, deployed)) in self.decisions.iter().enumerate() {
            let dense = qp.to_dense();
            let sol = AdmmSolver::with_block_structure(qp.clone(), Settings::default(), n)
                .unwrap()
                .solve();
            assert!(sol.is_solved() && sol.polished, "interval {t}");
            let x = assert_matches_dense_kkt(&dense, &sol, &format!("interval {t}"));
            let scale = x.iter().fold(1.0_f64, |s, v| s.max(v.abs()));
            for (a, b) in deployed.iter().zip(&x[..n]) {
                worst = worst.max((a - b.max(0.0)).abs() / scale);
            }
        }
        worst
    }
}

impl spotweb::core::policy::Policy for RecordingPolicy {
    fn name(&self) -> &str {
        spotweb::core::policy::Policy::name(&self.inner)
    }

    fn decide(
        &mut self,
        catalog: &Catalog,
        obs: &spotweb::core::policy::PolicyObservation<'_>,
    ) -> Vec<u32> {
        use spotweb::core::portfolio::build_sparse_qp;
        use spotweb::core::ForecastBundle;
        use spotweb::telemetry::TraceEvent;
        let h = self.config.horizon;
        self.workload.observe(obs.current_workload);
        for (p, &price) in self.prices.iter_mut().zip(obs.prices) {
            p.observe(price);
        }
        let per_market: Vec<Vec<f64>> = self.prices.iter().map(|p| p.predict(h)).collect();
        let forecast = ForecastBundle {
            workload: self.workload.predict(h),
            prices: (0..h)
                .map(|tau| per_market.iter().map(|f| f[tau]).collect())
                .collect(),
            failures: vec![obs.failure_probs.to_vec(); h],
        };
        let fleet = spotweb::core::policy::Policy::decide(&mut self.inner, catalog, obs);
        let events = self.sink.events();
        let decision = events
            .iter()
            .rev()
            .find_map(|e| match &e.event {
                TraceEvent::Decision(d) => Some(d),
                _ => None,
            })
            .expect("the policy records every decision");
        assert!(decision.solved);
        // The mirror must forecast what the policy did, to the bit, or
        // the QP below is not the one the policy solved.
        let t = decision.interval;
        assert_eq!(
            bits(&forecast.workload),
            bits(&decision.predicted_workload),
            "interval {t}: the mirror's workload forecast is not the policy's"
        );
        let opened: Vec<f64> = decision.markets.iter().map(|m| m.price).collect();
        assert_eq!(
            bits(&forecast.prices[0]),
            bits(&opened),
            "interval {t}: the mirror's first-period prices are not the policy's"
        );
        let qp = build_sparse_qp(
            catalog,
            &forecast,
            obs.covariance,
            &self.deployed,
            &self.config,
        )
        .unwrap();
        self.deployed = decision.markets.iter().map(|m| m.allocation).collect();
        self.decisions.push((qp, self.deployed.clone()));
        fleet
    }
}

/// An oracle for a polished solution of `qp` that shares no code with
/// the solver. The active set is read off the solution on the unscaled
/// problem (a row within 1e-9 of a bound), its equality KKT system is
/// solved densely by QR (`linalg::lstsq`) with the variables of active
/// one-entry rows fixed at their bounds, and the solution must match:
/// `x` to 1e-9 relative, every row within its bounds, every active
/// row's multiplier of the sign its bound asks (≤ 0 at a lower, ≥ 0 at
/// an upper bound) and every inactive row's zero — complementary
/// slackness — the last two to 1e-9 of `‖y‖∞`. Returns the oracle's `x`.
fn assert_matches_dense_kkt(
    qp: &spotweb::solver::QpProblem,
    sol: &spotweb::solver::QpSolution,
    what: &str,
) -> Vec<f64> {
    use spotweb::linalg::{lstsq, Matrix};
    let n = qp.num_vars();
    let ax = qp.a.matvec(&sol.x).unwrap();
    let inf = |v: &[f64]| v.iter().fold(0.0_f64, |s, x| s.max(x.abs()));
    let (row_tol, y_tol) = (1e-9 * (1.0 + inf(&ax)), 1e-9 * (1.0 + inf(&sol.y)));
    let at =
        |v: f64, bound: f64| bound.is_finite() && (v - bound).abs() <= 1e-9 * (1.0 + bound.abs());
    let mut fixed: Vec<Option<f64>> = vec![None; n];
    let mut equalities = Vec::new();
    for (i, (&a, &y)) in ax.iter().zip(&sol.y).enumerate() {
        let (lo, hi) = (qp.l[i], qp.u[i]);
        assert!(
            a >= lo - row_tol && a <= hi + row_tol,
            "{what}: row {i} at {a} outside [{lo}, {hi}]"
        );
        let bound = if at(a, lo) {
            assert!(
                lo == hi || y <= y_tol,
                "{what}: row {i} at its lower bound, y {y}"
            );
            lo
        } else if at(a, hi) {
            assert!(y >= -y_tol, "{what}: row {i} at its upper bound, y {y}");
            hi
        } else {
            assert!(y.abs() <= y_tol, "{what}: row {i} inactive, y {y}");
            continue;
        };
        let cols: Vec<usize> = (0..n).filter(|&j| qp.a[(i, j)] != 0.0).collect();
        match cols[..] {
            [j] => fixed[j] = Some(bound / qp.a[(i, j)]),
            _ => equalities.push((i, bound)),
        }
    }
    // Each free variable's row and column in the system.
    let free: Vec<usize> = (0..n).filter(|&j| fixed[j].is_none()).collect();
    // A row whose variables are all fixed is met by them (checked
    // above) and adds nothing to the system.
    equalities.retain(|&(i, _)| free.iter().any(|&j| qp.a[(i, j)] != 0.0));
    let (f, k) = (free.len(), equalities.len());
    let mut kkt = Matrix::zeros(f + k, f + k);
    let mut rhs = vec![0.0; f + k];
    // `[P_FF A_EFᵀ; A_EF 0] [x_F; y_E] = [−q_F − P_FX·x_X; b_E − A_EX·x_X]`.
    let fixed_part = |row: &dyn Fn(usize) -> f64| -> f64 {
        fixed
            .iter()
            .enumerate()
            .filter_map(|(j, v)| v.map(|v| row(j) * v))
            .sum()
    };
    for (r, &i) in free.iter().enumerate() {
        rhs[r] = -qp.q[i] - fixed_part(&|j| qp.p[(i, j)]);
        for (c, &j) in free.iter().enumerate() {
            kkt[(r, c)] = qp.p[(i, j)];
        }
    }
    for (e, &(i, bound)) in equalities.iter().enumerate() {
        rhs[f + e] = bound - fixed_part(&|j| qp.a[(i, j)]);
        for (c, &j) in free.iter().enumerate() {
            kkt[(f + e, c)] = qp.a[(i, j)];
            kkt[(c, f + e)] = qp.a[(i, j)];
        }
    }
    let solved = lstsq(&kkt, &rhs).unwrap();
    let mut x: Vec<f64> = fixed.iter().map(|v| v.unwrap_or(0.0)).collect();
    for (&j, &v) in free.iter().zip(&solved) {
        x[j] = v;
    }
    let scale = 1.0 + inf(&x);
    for (j, (a, b)) in x.iter().zip(&sol.x).enumerate() {
        assert!(
            (a - b).abs() <= 1e-9 * scale,
            "{what}: x[{j}] oracle {a} vs polished {b}"
        );
    }
    x
}
