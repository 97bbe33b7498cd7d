//! Sharded execution for the full-stack runner.
//!
//! `RunnerConfig::shards > 1` splits one simulation across cores
//! without changing a single byte of its output. The design follows
//! from what the serial loop actually spends its time on: the arrival
//! process (counter-RNG draws, exponential gaps) and the metrics fold
//! (latency histograms) are both free of feedback into the control
//! loop, while everything between them — balancer routing, service
//! queues, policy decisions, billing — is a serial dependency chain
//! (interval `i+1`'s policy reads interval `i`'s monitor). So the run
//! becomes a three-stage pipeline:
//!
//! 1. **Generation shards** (this module, `ArrivalPipeline`): a pool
//!    of `min(shards, nproc, intervals)` workers pre-generates each
//!    decision interval's arrival batch `(time, session)` from the
//!    counter-based `sim::rng` streams keyed by interval. Because the
//!    generator is draw-order-free, window `w`'s batch never depends
//!    on windows `0..w` — any worker can produce any window, bounded
//!    by a lookahead so memory stays O(shards × window).
//! 2. **The simulation thread**: the unchanged control loop consumes
//!    batches in interval order through `ArrivalSupply`. At
//!    `shards = 1` the same generator runs inline and lazily
//!    (`InlineArrivals`) — no batch materialization, which is what
//!    keeps day-scale runs inside the memory gate.
//! 3. **The metrics fold** (`FoldWorker`): latency/drop recording is
//!    buffered per window and applied by one worker in ascending
//!    window order — the exact call sequence the serial run makes, so
//!    float accumulation order (histogram sums are not associative)
//!    is invariant in the shard count.
//!
//! Byte-identity between `shards = 1` and `shards = K` is therefore
//! structural, not approximate: both paths execute the same draws, the
//! same routing, and the same fold sequence. `tests/shard.rs` locks it
//! in across all five chaos scenarios and three seeds, and
//! [`report_json`] / [`report_digest`] are the canonical renderings
//! the proof compares.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use spotweb_telemetry::json::{fnv1a64_hex, json_f64, json_string, json_u32_array};

use crate::metrics::{BucketStats, LatencyRecorder};
use crate::rng::{stream_id, CounterStream, DOMAIN_ARRIVAL_GAP, DOMAIN_ARRIVAL_SESSION};
use crate::runner::RunnerReport;

/// Number of logical cores the runtime reports. Centralized here so
/// the runner, the sweep pool, and the bench reports all agree on the
/// figure they record (satellite: `nproc` lands in every BENCH file).
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

// ---------------------------------------------------------------------------
// Arrival generation
// ---------------------------------------------------------------------------

/// One decision interval's arrival parameters, fixed at run start
/// (the trace rate is sampled at the interval boundary, exactly as the
/// serial loop samples it).
#[derive(Debug, Clone, Copy)]
pub(crate) struct WindowSpec {
    pub t0: f64,
    pub t_end: f64,
    pub rate: f64,
}

/// The arrival generator for one window: a lazy walk of the
/// counter-RNG streams keyed by the interval index. Both execution
/// modes use this exact type — the inline path iterates it on the
/// simulation thread, the pipeline path iterates it on a gen worker —
/// so the draw sequence is identical by construction.
#[derive(Debug, Clone, Copy)]
pub(crate) struct WindowGen {
    gaps: CounterStream,
    sessions_stream: CounterStream,
    sessions: u64,
    t: f64,
    t_end: f64,
    rate: f64,
    k: u64,
}

impl WindowGen {
    pub(crate) fn new(seed: u64, interval: usize, sessions: u64, spec: WindowSpec) -> Self {
        WindowGen {
            gaps: CounterStream::new(seed, stream_id(DOMAIN_ARRIVAL_GAP, interval as u64)),
            sessions_stream: CounterStream::new(
                seed,
                stream_id(DOMAIN_ARRIVAL_SESSION, interval as u64),
            ),
            sessions,
            t: spec.t0,
            t_end: spec.t_end,
            rate: spec.rate,
            k: 0,
        }
    }

    /// Next arrival `(time, session)` strictly before the window end,
    /// or `None` once the gap walk crosses it. Draw `k` of the gap
    /// stream and draw `k` of the session stream belong to arrival
    /// `k`; the counter advances only on yielded arrivals, so the
    /// sequence is a pure function of `(seed, interval)`.
    pub(crate) fn next(&mut self) -> Option<(f64, u64)> {
        let t = self.t + self.gaps.exp_at(self.k, self.rate);
        if t >= self.t_end {
            return None;
        }
        let session = self.sessions_stream.range_at(self.k, self.sessions);
        self.t = t;
        self.k += 1;
        Some((t, session))
    }
}

/// A window's arrivals, consumed in time order by the control loop.
pub(crate) trait WindowArrivals {
    /// Next arrival `(time, session)` in this window, if any.
    fn next(&mut self) -> Option<(f64, u64)>;
}

impl WindowArrivals for WindowGen {
    fn next(&mut self) -> Option<(f64, u64)> {
        WindowGen::next(self)
    }
}

/// Source of per-interval arrival windows. The control loop requests
/// windows strictly in interval order.
pub(crate) trait ArrivalSupply {
    /// The window iterator type this supply hands out.
    type Window: WindowArrivals;
    /// Open interval `interval`'s arrival window.
    fn window(&mut self, interval: usize, spec: WindowSpec) -> Self::Window;
}

/// `shards = 1`: generate arrivals lazily on the simulation thread.
/// No batch is ever materialized — at day scale a single window is
/// tens of millions of arrivals, and the serial path must stay inside
/// the memory gate.
pub(crate) struct InlineArrivals {
    pub(crate) seed: u64,
    pub(crate) sessions: u64,
}

impl ArrivalSupply for InlineArrivals {
    type Window = WindowGen;
    fn window(&mut self, interval: usize, spec: WindowSpec) -> WindowGen {
        WindowGen::new(self.seed, interval, self.sessions, spec)
    }
}

struct GenState {
    /// Next window index a worker may claim.
    next_claim: usize,
    /// Windows the simulation thread has consumed (`take` watermark).
    consumed: usize,
    /// Finished batches, indexed by window.
    ready: Vec<Option<Vec<(f64, u64)>>>,
    abort: bool,
}

struct GenShared {
    state: Mutex<GenState>,
    /// Workers wait here for lookahead room.
    gen_cv: Condvar,
    /// The simulation thread waits here for its next batch.
    ready_cv: Condvar,
}

/// The generation worker pool: pre-computes per-window arrival batches
/// ahead of the simulation thread, bounded by a lookahead of
/// `2 × shards` windows so memory stays proportional to the shard
/// count rather than the horizon.
pub(crate) struct ArrivalPipeline {
    shared: Arc<GenShared>,
    workers: Vec<JoinHandle<()>>,
}

impl ArrivalPipeline {
    /// Spawn `min(shards, nproc, windows)` workers over `specs`.
    pub(crate) fn spawn(seed: u64, sessions: u64, specs: Vec<WindowSpec>, shards: usize) -> Self {
        let n = specs.len();
        let lookahead = (2 * shards).max(2);
        let shared = Arc::new(GenShared {
            state: Mutex::new(GenState {
                next_claim: 0,
                consumed: 0,
                ready: (0..n).map(|_| None).collect(),
                abort: false,
            }),
            gen_cv: Condvar::new(),
            ready_cv: Condvar::new(),
        });
        let specs = Arc::new(specs);
        let n_workers = shards.min(nproc()).min(n.max(1)).max(1);
        let workers = (0..n_workers)
            .map(|w| {
                let shared = Arc::clone(&shared);
                let specs = Arc::clone(&specs);
                std::thread::Builder::new()
                    .name(format!("shard-gen-{w}"))
                    .spawn(move || loop {
                        let claimed = {
                            let mut st = shared.state.lock().expect("gen pool lock");
                            loop {
                                if st.abort || st.next_claim >= n {
                                    return;
                                }
                                if st.next_claim < st.consumed + lookahead {
                                    let c = st.next_claim;
                                    st.next_claim += 1;
                                    break c;
                                }
                                st = shared.gen_cv.wait(st).expect("gen pool lock");
                            }
                        };
                        // Generation is pure arithmetic over the
                        // counter streams, with no lock held. It panics
                        // only on a zero session count (`range_at`
                        // divides by it), and a worker that panics
                        // never fills its window, so `take` would wait
                        // forever: `run_full_stack_observed` rejects
                        // `sessions = 0` before spawning.
                        let mut gen = WindowGen::new(seed, claimed, sessions, specs[claimed]);
                        let mut batch = Vec::new();
                        while let Some(a) = gen.next() {
                            batch.push(a);
                        }
                        let mut st = shared.state.lock().expect("gen pool lock");
                        st.ready[claimed] = Some(batch);
                        shared.ready_cv.notify_all();
                    })
                    .expect("spawn shard-gen worker")
            })
            .collect();
        ArrivalPipeline { shared, workers }
    }

    /// Block until window `w`'s batch is ready and take it. Windows
    /// must be taken in ascending order (the control loop's order).
    fn take(&self, w: usize) -> Vec<(f64, u64)> {
        let mut st = self.shared.state.lock().expect("gen pool lock");
        debug_assert_eq!(st.consumed, w, "windows must be taken in order");
        loop {
            if let Some(batch) = st.ready[w].take() {
                st.consumed = w + 1;
                self.shared.gen_cv.notify_all();
                return batch;
            }
            st = self.shared.ready_cv.wait(st).expect("gen pool lock");
        }
    }
}

impl Drop for ArrivalPipeline {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock().expect("gen pool lock");
            st.abort = true;
        }
        self.shared.gen_cv.notify_all();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

/// `shards > 1`: windows come pre-generated from the pipeline.
pub(crate) struct PipelineArrivals {
    pipeline: ArrivalPipeline,
}

impl PipelineArrivals {
    pub(crate) fn new(pipeline: ArrivalPipeline) -> Self {
        PipelineArrivals { pipeline }
    }
}

/// A materialized window batch, replayed in generation order.
pub(crate) struct BatchWindow {
    batch: Vec<(f64, u64)>,
    idx: usize,
}

impl WindowArrivals for BatchWindow {
    fn next(&mut self) -> Option<(f64, u64)> {
        let a = self.batch.get(self.idx).copied();
        self.idx += 1;
        a
    }
}

impl ArrivalSupply for PipelineArrivals {
    type Window = BatchWindow;
    fn window(&mut self, interval: usize, _spec: WindowSpec) -> BatchWindow {
        BatchWindow {
            batch: self.pipeline.take(interval),
            idx: 0,
        }
    }
}

// ---------------------------------------------------------------------------
// Metrics fold
// ---------------------------------------------------------------------------

/// One latency/drop observation, buffered per window when the fold is
/// deferred. Only the recorder-bound effects are deferred; monitor,
/// invariant checker, and balancer bookkeeping are control-loop state
/// and stay inline.
#[derive(Debug, Clone, Copy)]
pub(crate) enum ObsEvent {
    /// A request served: bucket by arrival, record `latency` seconds.
    Served { arrived: f64, latency: f64 },
    /// A request dropped (admission or killed in flight).
    Dropped { arrived: f64 },
}

/// Destination for latency/drop observations. The control loop calls
/// it identically in both modes; the implementations differ only in
/// *when* the recorder mutation happens, never in what order.
pub(crate) trait ObsSink {
    /// A request was served.
    fn served(&mut self, arrived: f64, latency: f64);
    /// A request was dropped.
    fn dropped(&mut self, arrived: f64);
    /// Interval `interval`'s control work is complete; flush.
    fn end_window(&mut self, interval: usize);
    /// Interval stats for the telemetry rollup (synchronizes the fold
    /// up to `interval` first when deferred).
    fn bucket_stats(&mut self, interval: usize) -> BucketStats;
    /// Tear down and hand back the recorder for report assembly.
    fn finish(self) -> LatencyRecorder;
}

/// `shards = 1`: the recorder itself is the sink — observations apply
/// immediately, exactly as the pre-shard runner did.
impl ObsSink for LatencyRecorder {
    fn served(&mut self, arrived: f64, latency: f64) {
        self.record(arrived, latency);
    }
    fn dropped(&mut self, arrived: f64) {
        self.record_drop(arrived);
    }
    fn end_window(&mut self, _interval: usize) {}
    fn bucket_stats(&mut self, interval: usize) -> BucketStats {
        LatencyRecorder::bucket_stats(self, interval)
    }
    fn finish(self) -> LatencyRecorder {
        self
    }
}

struct FoldQueue {
    batches: VecDeque<Vec<ObsEvent>>,
    closed: bool,
    /// Window batches the fold worker has fully applied.
    folded: usize,
}

struct FoldShared {
    q: Mutex<FoldQueue>,
    /// The fold worker waits here for batches.
    work_cv: Condvar,
    /// The simulation thread waits here for `folded` to advance.
    done_cv: Condvar,
    recorder: Mutex<LatencyRecorder>,
}

/// The single fold worker: applies buffered observation batches to the
/// recorder strictly in window order. One worker, ascending windows ⇒
/// the recorder sees the exact call sequence the serial run makes, so
/// non-associative float accumulation cannot diverge with the shard
/// count. (The telemetry latency histogram is fed by
/// [`crate::cluster::Cluster`] on the simulation thread, in completion
/// order — the same sequence.)
pub(crate) struct FoldWorker {
    shared: Arc<FoldShared>,
    handle: Option<JoinHandle<()>>,
}

/// Bound on unapplied window batches before the simulation thread
/// blocks in `submit` (the fold is cheap; this only matters if a
/// profiler stalls the worker).
const FOLD_MAX_PENDING: usize = 8;

impl FoldWorker {
    pub(crate) fn spawn(recorder: LatencyRecorder) -> Self {
        let shared = Arc::new(FoldShared {
            q: Mutex::new(FoldQueue {
                batches: VecDeque::new(),
                closed: false,
                folded: 0,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            recorder: Mutex::new(recorder),
        });
        let worker_shared = Arc::clone(&shared);
        let handle = std::thread::Builder::new()
            .name("shard-fold".to_string())
            .spawn(move || loop {
                let batch = {
                    let mut q = worker_shared.q.lock().expect("fold lock");
                    loop {
                        if let Some(b) = q.batches.pop_front() {
                            break b;
                        }
                        if q.closed {
                            return;
                        }
                        q = worker_shared.work_cv.wait(q).expect("fold lock");
                    }
                };
                {
                    let mut rec = worker_shared.recorder.lock().expect("fold recorder lock");
                    for ev in &batch {
                        match *ev {
                            ObsEvent::Served { arrived, latency } => rec.record(arrived, latency),
                            ObsEvent::Dropped { arrived } => rec.record_drop(arrived),
                        }
                    }
                }
                let mut q = worker_shared.q.lock().expect("fold lock");
                q.folded += 1;
                worker_shared.done_cv.notify_all();
            })
            .expect("spawn shard-fold worker");
        FoldWorker {
            shared,
            handle: Some(handle),
        }
    }

    fn submit(&self, batch: Vec<ObsEvent>) {
        let mut q = self.shared.q.lock().expect("fold lock");
        while q.batches.len() >= FOLD_MAX_PENDING {
            q = self.shared.done_cv.wait(q).expect("fold lock");
        }
        q.batches.push_back(batch);
        self.shared.work_cv.notify_all();
    }

    /// Block until at least `windows` batches have been applied.
    fn sync(&self, windows: usize) {
        let mut q = self.shared.q.lock().expect("fold lock");
        while q.folded < windows {
            q = self.shared.done_cv.wait(q).expect("fold lock");
        }
    }

    fn finish(mut self) -> LatencyRecorder {
        {
            let mut q = self.shared.q.lock().expect("fold lock");
            q.closed = true;
        }
        self.shared.work_cv.notify_all();
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
        // `Drop` is a no-op now (handle taken); release self's Arc so
        // the unwrap below holds the only reference.
        let shared = Arc::clone(&self.shared);
        drop(self);
        let shared = Arc::try_unwrap(shared)
            .ok()
            .expect("fold worker joined; no other refs");
        shared.recorder.into_inner().expect("fold recorder lock")
    }
}

impl Drop for FoldWorker {
    fn drop(&mut self) {
        if let Some(h) = self.handle.take() {
            {
                let mut q = self.shared.q.lock().expect("fold lock");
                q.closed = true;
            }
            self.shared.work_cv.notify_all();
            let _ = h.join();
        }
    }
}

/// `shards > 1`: buffer observations per window, flush at window end.
pub(crate) struct DeferredObs {
    fold: FoldWorker,
    buf: Vec<ObsEvent>,
    windows_ended: usize,
}

impl DeferredObs {
    pub(crate) fn new(fold: FoldWorker) -> Self {
        DeferredObs {
            fold,
            buf: Vec::new(),
            windows_ended: 0,
        }
    }
}

impl ObsSink for DeferredObs {
    fn served(&mut self, arrived: f64, latency: f64) {
        self.buf.push(ObsEvent::Served { arrived, latency });
    }
    fn dropped(&mut self, arrived: f64) {
        self.buf.push(ObsEvent::Dropped { arrived });
    }
    fn end_window(&mut self, _interval: usize) {
        self.fold.submit(std::mem::take(&mut self.buf));
        self.windows_ended += 1;
    }
    fn bucket_stats(&mut self, interval: usize) -> BucketStats {
        self.fold.sync(self.windows_ended);
        let rec = self
            .fold
            .shared
            .recorder
            .lock()
            .expect("fold recorder lock");
        rec.bucket_stats(interval)
    }
    fn finish(mut self) -> LatencyRecorder {
        if !self.buf.is_empty() {
            self.fold.submit(std::mem::take(&mut self.buf));
        }
        self.fold.finish()
    }
}

// ---------------------------------------------------------------------------
// Canonical report rendering
// ---------------------------------------------------------------------------

fn bucket_json(b: &BucketStats) -> String {
    format!(
        concat!(
            "{{\"start\":{},\"count\":{},\"mean\":{},\"min\":{},",
            "\"p25\":{},\"p50\":{},\"p75\":{},\"p90\":{},\"p99\":{},",
            "\"max\":{},\"dropped\":{}}}"
        ),
        json_f64(b.start),
        b.count,
        json_f64(b.mean),
        json_f64(b.min),
        json_f64(b.p25),
        json_f64(b.p50),
        json_f64(b.p75),
        json_f64(b.p90),
        json_f64(b.p99),
        json_f64(b.max),
        b.dropped,
    )
}

/// Canonical single-line JSON rendering of a [`RunnerReport`] — every
/// field, hand-rolled through the workspace's byte-stable float
/// helpers. String equality of two renderings is the shard-invariance
/// proof (`shards = 1` vs `shards = K`), so this is the only sanctioned
/// serialization of a report.
pub fn report_json(r: &RunnerReport) -> String {
    let buckets: Vec<String> = r.buckets.iter().map(bucket_json).collect();
    let violations: Vec<String> = r
        .invariant_violations
        .iter()
        .map(|v| json_string(v))
        .collect();
    format!(
        concat!(
            "{{\"served\":{},\"dropped\":{},\"drop_fraction\":{},",
            "\"p50\":{},\"p90\":{},\"p99\":{},\"cost\":{},",
            "\"revocations\":{},\"migrated_sessions\":{},",
            "\"lifetime_relinquishments\":{},\"fleet_sizes\":{},",
            "\"buckets\":[{}],\"faults_fired\":{},",
            "\"invariant_violations\":[{}]}}"
        ),
        r.served,
        r.dropped,
        json_f64(r.drop_fraction),
        json_f64(r.p50),
        json_f64(r.p90),
        json_f64(r.p99),
        json_f64(r.cost),
        r.revocations,
        r.migrated_sessions,
        r.lifetime_relinquishments,
        json_u32_array(&r.fleet_sizes),
        buckets.join(","),
        r.faults_fired,
        violations.join(","),
    )
}

/// FNV-1a 64 digest of a report's canonical JSON (the same hash the
/// sweep digests use), newline-terminated so digests of concatenated
/// reports compose.
pub fn report_digest(r: &RunnerReport) -> String {
    fnv1a64_hex(format!("{}\n", report_json(r)).as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn specs(n: usize, interval_secs: f64, rate: f64) -> Vec<WindowSpec> {
        (0..n)
            .map(|i| {
                let t0 = i as f64 * interval_secs;
                WindowSpec {
                    t0,
                    t_end: t0 + interval_secs,
                    rate,
                }
            })
            .collect()
    }

    #[test]
    fn pipeline_batches_match_inline_generation() {
        let specs = specs(6, 50.0, 80.0);
        for shards in [2usize, 3, 8] {
            let pipeline = ArrivalPipeline::spawn(1234, 500, specs.clone(), shards);
            for (i, spec) in specs.iter().enumerate() {
                let mut inline = WindowGen::new(1234, i, 500, *spec);
                let batch = pipeline.take(i);
                let mut expect = Vec::new();
                while let Some(a) = inline.next() {
                    expect.push(a);
                }
                assert_eq!(batch, expect, "window {i} at {shards} shards");
            }
        }
    }

    #[test]
    fn pipeline_drop_mid_run_joins_cleanly() {
        let specs = specs(64, 10.0, 200.0);
        let pipeline = ArrivalPipeline::spawn(7, 100, specs, 4);
        let _ = pipeline.take(0);
        drop(pipeline); // 63 windows unconsumed: abort must unblock workers
    }

    #[test]
    fn fold_matches_direct_application() {
        let mut direct = LatencyRecorder::new(10.0, 40.0);
        let fold = FoldWorker::spawn(LatencyRecorder::new(10.0, 40.0));
        let mut deferred = DeferredObs::new(fold);
        let events: Vec<(usize, ObsEvent)> = vec![
            (
                0,
                ObsEvent::Served {
                    arrived: 1.0,
                    latency: 0.25,
                },
            ),
            (0, ObsEvent::Dropped { arrived: 2.0 }),
            (
                1,
                ObsEvent::Served {
                    arrived: 12.0,
                    latency: 0.125,
                },
            ),
            (
                3,
                ObsEvent::Served {
                    arrived: 31.0,
                    latency: 0.5,
                },
            ),
        ];
        let mut window = 0usize;
        for (w, ev) in events {
            while window < w {
                deferred.end_window(window);
                window += 1;
            }
            match ev {
                ObsEvent::Served { arrived, latency } => {
                    direct.record(arrived, latency);
                    deferred.served(arrived, latency);
                }
                ObsEvent::Dropped { arrived } => {
                    direct.record_drop(arrived);
                    deferred.dropped(arrived);
                }
            }
        }
        let folded = deferred.finish();
        assert_eq!(folded.totals(), direct.totals());
        assert_eq!(
            folded.overall_percentile(50.0).to_bits(),
            direct.overall_percentile(50.0).to_bits()
        );
    }

    #[test]
    fn report_json_is_byte_stable() {
        let r = RunnerReport {
            served: 10,
            dropped: 2,
            drop_fraction: 1.0 / 6.0,
            p50: 0.125,
            p90: 0.25,
            p99: 0.5,
            cost: 3.0,
            revocations: 1,
            migrated_sessions: 4,
            lifetime_relinquishments: 0,
            fleet_sizes: vec![2, 3],
            buckets: Vec::new(),
            faults_fired: 1,
            invariant_violations: vec!["x".to_string()],
            route_epoch_rebuilds: 7,
        };
        let a = report_json(&r);
        assert_eq!(a, report_json(&r.clone()));
        assert!(a.starts_with("{\"served\":10,\"dropped\":2,"));
        assert!(a.contains("\"fleet_sizes\":[2,3]"));
        assert!(a.contains("\"invariant_violations\":[\"x\"]"));
        assert_eq!(report_digest(&r), report_digest(&r.clone()));
    }
}
