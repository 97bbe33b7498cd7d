//! `event_loops`: the two discrete-event loops `request_path` does not
//! touch — every named chaos scenario and the Fig. 4(a) failover
//! scenario, aware and vanilla. Same `lb` and `sim` layers, but on the
//! `BinaryHeap` event queue, with vanilla routing, zero-warning kills,
//! flaps and admission drops at ~600 req/s.

use spotweb_sim::{nproc, parallel_map, ChaosScenario, FailoverScenario, NAMED_SCENARIOS};
use spotweb_telemetry::prof::{self, MergedNode};

use crate::ledger::Ledger;
use crate::measure::{median, repeat_for, timed_wall, Digest, Stopwatch};
use crate::{Outcome, SimOutcome, Tally, Workload};

/// Consecutive seeds each scenario replays at.
const SEEDS: u64 = 2;

enum Cell {
    Chaos(ChaosScenario),
    Failover(FailoverScenario),
}

struct CellResult {
    /// CPU seconds the run took.
    secs: f64,
    served: u64,
    dropped: u64,
    p99_s: f64,
    invariants_ok: bool,
}

impl Cell {
    fn run(&self) -> CellResult {
        let mut watch = Stopwatch::start();
        let (served, dropped, p99_s, invariants_ok) = match self {
            Cell::Chaos(scenario) => {
                let report = scenario.run();
                let ok = report.invariants_ok();
                (report.served as u64, report.dropped, report.p99, ok)
            }
            Cell::Failover(scenario) => {
                let report = scenario.run();
                // The failover loop carries no invariant checker; its
                // aware/vanilla pair is cross-checked below.
                (report.served as u64, report.dropped, report.p99, true)
            }
        };
        CellResult {
            secs: watch.lap(),
            served,
            dropped,
            p99_s,
            invariants_ok,
        }
    }
}

pub struct EventLoops {
    cells: Vec<Cell>,
}

/// Host seconds and simulated requests of each loop in one pass.
#[derive(Default)]
struct LoopCosts {
    chaos_secs: f64,
    chaos_requests: u64,
    failover_secs: f64,
    failover_requests: u64,
}

impl EventLoops {
    fn outcome(&self, results: &[CellResult]) -> Outcome {
        let mut digest = Digest::new();
        let mut failed = 0;
        let (mut served, mut dropped, mut p99_sum) = (0, 0, 0.0);
        for result in results {
            digest.u64(result.served);
            digest.u64(result.dropped);
            digest.f64(result.p99_s);
            failed += u64::from(!result.invariants_ok);
            served += result.served;
            dropped += result.dropped;
            p99_sum += result.p99_s;
        }
        // A failover pair replays one arrival sequence under two
        // balancers: both must account for every arrival.
        let failovers: Vec<&CellResult> = self
            .cells
            .iter()
            .zip(results)
            .filter(|(cell, _)| matches!(cell, Cell::Failover(_)))
            .map(|(_, result)| result)
            .collect();
        for pair in failovers.chunks(2) {
            let arrivals = |r: &CellResult| r.served + r.dropped;
            failed += u64::from(arrivals(pair[0]) != arrivals(pair[1]));
        }
        Outcome {
            digest: digest.finish(),
            ops: results.len() as u64,
            failed,
            requests: served + dropped,
            parts: results.iter().map(|r| r.secs).collect(),
            decisions: 0,
            sim: Some(SimOutcome {
                cost_usd: None,
                drop_frac: dropped as f64 / (served + dropped) as f64,
                // Mean over the runs: moves if any one run's tail does.
                p99_s: Some(p99_sum / results.len() as f64),
            }),
        }
    }

    /// Every cell once on this thread, adding each loop's cost to `costs`.
    fn pass(&self, costs: &mut LoopCosts) -> Outcome {
        let results: Vec<CellResult> = self
            .cells
            .iter()
            .map(|cell| {
                let _span = prof::ScopeGuard::enter(match cell {
                    Cell::Chaos(_) => "bench.sim.faults.chaos_run",
                    Cell::Failover(_) => "bench.sim.scenario.failover_run",
                });
                let result = cell.run();
                let secs = result.secs;
                let requests = result.served + result.dropped;
                match cell {
                    Cell::Chaos(_) => {
                        costs.chaos_secs += secs;
                        costs.chaos_requests += requests;
                    }
                    Cell::Failover(_) => {
                        costs.failover_secs += secs;
                        costs.failover_requests += requests;
                    }
                }
                result
            })
            .collect();
        self.outcome(&results)
    }
}

impl Workload for EventLoops {
    fn setup(seed: u64) -> Self {
        let mut cells = Vec::new();
        for seed in seed..seed + SEEDS {
            for name in NAMED_SCENARIOS {
                cells.push(Cell::Chaos(ChaosScenario {
                    seed,
                    ..ChaosScenario::named(name)
                }));
            }
            for transiency_aware in [true, false] {
                cells.push(Cell::Failover(FailoverScenario {
                    seed,
                    transiency_aware,
                    ..FailoverScenario::default()
                }));
            }
        }
        EventLoops { cells }
    }

    fn rep(&self) -> Outcome {
        self.pass(&mut LoopCosts::default())
    }

    fn traced(
        &self,
        seconds: f64,
        reference: &Outcome,
        ledger: &mut Ledger,
        tally: &mut Tally,
    ) -> MergedNode {
        // The grid on one worker against one per core, tracing off.
        let (mut serial, mut parallel) = (Vec::new(), Vec::new());
        repeat_for(seconds * 0.4, 2, || {
            for (walls, jobs) in [(&mut serial, 1), (&mut parallel, nproc())] {
                let (results, wall) = timed_wall(|| {
                    parallel_map(jobs, self.cells.iter().collect(), |_, cell| cell.run())
                });
                walls.push(wall);
                tally.check(&self.outcome(&results), reference);
            }
        });
        ledger.layer(
            "sim.sweep.parallel_speedup_at_nproc",
            "x",
            median(&serial) / median(&parallel),
        );

        let session = prof::begin();
        let mut costs = LoopCosts::default();
        repeat_for(seconds * 0.5, 2, || {
            tally.check(&self.pass(&mut costs), reference);
        });
        ledger.layer(
            "sim.faults.chaos_ns_per_req",
            "ns",
            costs.chaos_secs * 1e9 / costs.chaos_requests as f64,
        );
        ledger.layer(
            "sim.scenario.failover_ns_per_req",
            "ns",
            costs.failover_secs * 1e9 / costs.failover_requests as f64,
        );
        session.finish().merged()
    }
}
