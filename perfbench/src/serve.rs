//! The serving workloads on `funnelpq-server` (1 shard, 1 client thread,
//! `service_ns = 1`):
//!
//! * `server_saturated` — a capacity-bounded closed loop (256 jobs in
//!   flight; refusals yield and retry), so the dispatcher is never idle;
//! * `server_trickle` — one job outstanding at a time, so the dispatcher
//!   is idle almost always and latency is its idle poll plus wake-up.

use std::sync::Arc;
use std::time::{Duration, Instant};

use funnelpq::obs::{AtomicRecorder, CounterEvent, NoopRecorder, OpKind, Recorder};
use funnelpq::{MultiQueueConfig, PqConfig};
use funnelpq_server::{
    AdmitError, JobSpec, Scheduler, ServerConfig, ServerError, ServerReport, StopOutcome,
};
use funnelpq_util::mono_ns;

use crate::host::{self, ThreadUsage};
use crate::inputs::{Mix, BANDS, BAND_NS, RING, TENANTS};
use crate::report::{geomean, median, p50_p99, quantile, ratio, Report};
use crate::trace::{self, spans, Ev, Log, Tag, Tracer};

/// Jobs in flight in the saturated loop (the global capacity).
const CAPACITY: usize = 256;

/// Longest wait for a stopped client's jobs to drain.
const QUIESCE: Duration = Duration::from_secs(10);

/// Alternating AtomicRecorder/NoopRecorder runs per saturated backend in
/// the traced run.
const COMPANION_ROUNDS: u32 = 4;

/// The trickle decomposition must sum to within this share of its median.
const DECOMPOSITION_TOLERANCE: f64 = 0.10;

/// The saturated backends, with the names their metrics carry.
fn saturated_backends() -> [(&'static str, PqConfig); 2] {
    [
        ("SingleLock", PqConfig::SingleLock),
        (
            "MultiQueue",
            PqConfig::MultiQueue(MultiQueueConfig::default()),
        ),
    ]
}

fn config(backend: PqConfig) -> ServerConfig {
    ServerConfig {
        shards: 1,
        tenants: TENANTS,
        clients: 1,
        bands: BANDS,
        horizon_ns: BANDS as u64 * BAND_NS,
        backend,
        global_capacity: CAPACITY,
        tenant_quota: CAPACITY,
        service_ns: 1,
        ..ServerConfig::default()
    }
}

/// The seeded job rings.
pub struct Inputs {
    saturated: Vec<JobSpec>,
    trickle: Vec<JobSpec>,
}

impl Inputs {
    /// Generates every server input from `seed`.
    pub fn new(mix: &Mix, seed: u64) -> Self {
        Inputs {
            saturated: mix.jobs(seed, 200, true),
            trickle: mix.jobs(seed, 201, false),
        }
    }
}

/// Set-up: both saturated schedulers built, started and stopped empty.
pub fn setup(rep: &mut Report) {
    for (name, backend) in saturated_backends() {
        let s = Scheduler::with_recorder(config(backend), Arc::new(AtomicRecorder::new()))
            .expect("benchmark server config is valid");
        s.start();
        let r = s.stop();
        rep.check(
            r.stops.iter().all(|o| o.outcome == StopOutcome::Clean),
            || format!("{name}: empty scheduler did not stop cleanly"),
        );
    }
}

/// Where the dispatcher thread's `/proc` entry is; its name is set by the
/// thread itself, so look until it appears.
fn dispatcher_dir() -> Option<String> {
    let t0 = Instant::now();
    while t0.elapsed() < Duration::from_secs(1) {
        if let Some(dir) = host::find_thread("funnelpq-shard") {
            return Some(dir);
        }
        std::thread::yield_now();
    }
    None
}

/// What a client loop did.
#[derive(Debug, Default)]
struct ClientOut {
    /// Jobs admitted.
    admitted: u64,
    /// Capacity and quota refusals, each retried.
    refusals: u64,
    /// Submits that failed with a non-retryable error.
    errors: u64,
    /// Per-job latencies in nanoseconds (trickle only).
    latencies: Vec<u64>,
}

/// One scheduler's lifetime around a client loop.
struct Served {
    report: ServerReport,
    client: ClientOut,
    /// Completions per second over the client loop.
    rate: f64,
    /// Dispatcher and client thread usage over the run (traced runs only).
    dispatcher: ThreadUsage,
    client_usage: ThreadUsage,
}

/// Starts a scheduler on `rec`, runs `client` for `window`, quiesces,
/// stops and checks the report.
fn serve<R: Recorder>(
    rep: &mut Report,
    what: &str,
    backend: PqConfig,
    rec: Arc<R>,
    misses: impl FnOnce(&R) -> Option<u64>,
    traced: bool,
    client: impl FnOnce(&Scheduler<R>) -> ClientOut,
) -> Served {
    let s = Scheduler::with_recorder(config(backend), Arc::clone(&rec))
        .expect("benchmark server config is valid");
    // The client (this thread) on the first CPU, the dispatcher — which
    // inherits that affinity at spawn — moved to the second.
    host::pin(0, 0);
    s.start();
    let dir = dispatcher_dir();
    if let Some(tid) = dir.as_deref().and_then(host::tid_of) {
        host::pin(tid, 1);
    }
    let before = dir.as_deref().and_then(host::usage).unwrap_or_default();
    let own_before = host::own_usage().unwrap_or_default();
    let t0 = Instant::now();
    let out = client(&s);
    let admitted = out.admitted;
    let rate = (admitted - s.in_flight() as u64) as f64 / t0.elapsed().as_secs_f64();
    let q0 = Instant::now();
    while s.in_flight() > 0 && q0.elapsed() < QUIESCE {
        std::thread::yield_now();
    }
    let after = dir.as_deref().and_then(host::usage).unwrap_or_default();
    let own_after = host::own_usage().unwrap_or_default();
    let report = s.stop();
    host::unpin(0);
    rep.check(dir.is_some(), || {
        format!("{what}: dispatcher thread not found in /proc")
    });
    if traced {
        trace::flush();
    }
    let recorded_misses = misses(&rec);
    rep.check(report.admitted == admitted, || {
        format!(
            "{what}: report admitted {} but the client saw {admitted}",
            report.admitted
        )
    });
    rep.check(report.admitted == report.completed, || {
        format!(
            "{what}: admitted {} != completed {}",
            report.admitted, report.completed
        )
    });
    rep.check(report.lost == 0, || {
        format!("{what}: lost {} jobs", report.lost)
    });
    rep.check(report.in_flight_at_stop == 0, || {
        format!(
            "{what}: {} jobs in flight at stop",
            report.in_flight_at_stop
        )
    });
    rep.check(
        report.stops.iter().all(|o| o.outcome == StopOutcome::Clean),
        || {
            format!(
                "{what}: dispatcher did not stop cleanly: {:?}",
                report.stops
            )
        },
    );
    if let Some(m) = recorded_misses {
        rep.check(m == report.misses, || {
            format!(
                "{what}: recorder saw {m} deadline misses, report {}",
                report.misses
            )
        });
    }
    rep.tally(
        what,
        admitted + out.errors,
        out.errors + report.lost + report.misses,
    );
    Served {
        report,
        client: out,
        rate,
        dispatcher: after.since(before),
        client_usage: own_after.since(own_before),
    }
}

/// The saturated client: keeps submitting from the ring for `window`;
/// capacity and quota refusals yield and retry the same job.
fn saturated_client<'a, R: Recorder>(
    specs: &'a [JobSpec],
    cursor: &'a mut usize,
    window: Duration,
    traced: bool,
) -> impl FnOnce(&Scheduler<R>) -> ClientOut + 'a {
    move |s| {
        let mut out = ClientOut::default();
        let t0 = Instant::now();
        'run: loop {
            for _ in 0..64 {
                let spec = specs[*cursor & (RING - 1)];
                *cursor += 1;
                loop {
                    let start = if traced { mono_ns() } else { 0 };
                    match s.submit(0, spec) {
                        Ok(_) => {
                            if traced {
                                trace::client(Tag::Submit, start, mono_ns(), 0);
                            }
                            out.admitted += 1;
                            break;
                        }
                        Err(ServerError::Admit(
                            AdmitError::Capacity { .. } | AdmitError::TenantQuota { .. },
                        )) => {
                            out.refusals += 1;
                            std::thread::yield_now();
                        }
                        Err(_) => {
                            out.errors += 1;
                            break;
                        }
                    }
                }
            }
            if t0.elapsed() >= window {
                break 'run;
            }
        }
        out
    }
}

/// The trickle client: one job at a time, timed from just before `submit`
/// until the client sees `in_flight() == 0`.
fn trickle_client<R: Recorder>(
    specs: &[JobSpec],
    window: Duration,
    traced: bool,
) -> impl FnOnce(&Scheduler<R>) -> ClientOut + '_ {
    move |s| {
        let mut out = ClientOut::default();
        let t0 = Instant::now();
        let mut i = 0usize;
        while t0.elapsed() < window {
            let spec = specs[i & (RING - 1)];
            i += 1;
            let start = mono_ns();
            let submitted = s.submit(0, spec);
            let returned = mono_ns();
            if submitted.is_err() {
                out.errors += 1;
                continue;
            }
            out.admitted += 1;
            while s.in_flight() != 0 {
                std::hint::spin_loop();
            }
            let seen = mono_ns();
            out.latencies.push(seen - start);
            if traced {
                trace::client(Tag::Job, start, returned, seen);
            }
        }
        out
    }
}

fn atomic_misses(r: &AtomicRecorder) -> Option<u64> {
    Some(r.snapshot().event(CounterEvent::DeadlineMiss))
}

fn traced_misses(_: &Tracer) -> Option<u64> {
    Some(trace::pooled_count(CounterEvent::DeadlineMiss))
}

/// The end-to-end saturated measurement, one round at a time: each round
/// serves both backends once with the `AtomicRecorder` attached, and
/// `jobs_per_s.<backend>` is the median round.
#[derive(Default)]
pub struct Saturated {
    cursor: usize,
    rates: [Vec<f64>; 2],
}

impl Saturated {
    /// One round: `budget` split evenly over the backends.
    pub fn round(&mut self, rep: &mut Report, inputs: &Inputs, budget: Duration) {
        let backends = saturated_backends();
        let window = budget / backends.len() as u32;
        for ((name, backend), r) in backends.into_iter().zip(&mut self.rates) {
            let client = saturated_client(&inputs.saturated, &mut self.cursor, window, false);
            let what = format!("server_saturated {name}");
            let rec = Arc::new(AtomicRecorder::new());
            r.push(serve(rep, &what, backend, rec, atomic_misses, false, client).rate);
        }
    }

    /// Reports the medians.
    pub fn finish(self, rep: &mut Report) {
        for ((name, _), r) in saturated_backends().iter().zip(&self.rates) {
            rep.median_of(format!("jobs_per_s.{name}"), r, "1/s");
        }
    }
}

/// The end-to-end trickle measurement, one round at a time (a fresh
/// scheduler each). The p50 is taken over every round's jobs; the p99 is
/// the median of the rounds' own p99s (a round of ~0.15 s holds about 2000
/// jobs, so 20 lie beyond its p99), which a burst of host interference in
/// one round cannot move.
#[derive(Default)]
pub struct Trickle {
    latencies: Vec<u64>,
    round_p99s: Vec<f64>,
}

impl Trickle {
    /// One round of `budget`.
    pub fn round(&mut self, rep: &mut Report, inputs: &Inputs, budget: Duration) {
        let client = trickle_client(&inputs.trickle, budget, false);
        let rec = Arc::new(AtomicRecorder::new());
        let mut served = serve(
            rep,
            "server_trickle",
            PqConfig::SingleLock,
            rec,
            atomic_misses,
            false,
            client,
        );
        let (_, p99) = p50_p99(&mut served.client.latencies);
        self.round_p99s.push(p99 as f64 / 1e3);
        self.latencies.extend(served.client.latencies);
    }

    /// Reports the percentiles and the sample count.
    pub fn finish(mut self, rep: &mut Report) {
        let (p50, _) = p50_p99(&mut self.latencies);
        println!("  server_trickle: {} latency samples", self.latencies.len());
        rep.metric("job_latency_p50_us", p50 as f64 / 1e3, "us");
        rep.median_of("job_latency_p99_us", &self.round_p99s, "us");
    }
}

/// Dispatcher drains in order: `(start, end, items)` per
/// `delete_min_batch`, pairing each span with the batch size recorded
/// right after it on the same thread.
fn drains(log: &Log) -> Vec<(u64, u64, u64)> {
    let mut out = Vec::new();
    let mut open: Option<&Ev> = None;
    for e in &log.evs {
        match e.tag {
            Tag::Op => open = Some(e).filter(|e| e.is_op(OpKind::DeleteMinBatch)),
            Tag::Batch => {
                if let Some(d) = open.take() {
                    out.push((d.a, d.b, e.a));
                }
            }
            _ => {}
        }
    }
    out
}

/// The dispatcher's own metrics for one traced server run, suffixed by
/// `tag`: CPU, self time, switches, empty drains and batch size per job,
/// plus the queue drain/replace costs. Returns the non-empty drains.
fn dispatcher_metrics(
    rep: &mut Report,
    tag: &str,
    logs: &[Log],
    served: &Served,
) -> Vec<(u64, u64, u64)> {
    let Some(disp) = logs.iter().find(|l| l.thread.starts_with("funnelpq-shard")) else {
        rep.check(false, || format!("{tag}: no dispatcher trace log"));
        return Vec::new();
    };
    if disp.dropped > 0 {
        println!(
            "  {tag}: dispatcher kept its first events only ({} dropped)",
            disp.dropped
        );
    }
    let all = drains(disp);
    let drain_ns: u64 = all.iter().map(|d| d.1 - d.0).sum();
    let replace_ns: u64 = spans(logs, OpKind::ReplaceMin).iter().sum();
    let full: Vec<(u64, u64, u64)> = all.iter().copied().filter(|d| d.2 > 0).collect();
    let items: u64 = full.iter().map(|d| d.2).sum();
    let jobs = served.report.dispatched as f64;
    let cpu = served.dispatcher.cpu_ns as f64;
    rep.metric(
        format!("dispatcher.cpu_ns_per_job.{tag}"),
        ratio(cpu, jobs),
        "ns",
    );
    let own = (cpu - drain_ns as f64 - replace_ns as f64).max(0.0);
    rep.metric(
        format!("dispatcher.self_ns_per_job.{tag}"),
        ratio(own, jobs),
        "ns",
    );
    rep.metric(
        format!("dispatcher.batch_items_mean.{tag}"),
        ratio(items as f64, full.len() as f64),
        "count",
    );
    let empty = (all.len() - full.len()) as f64;
    rep.metric(
        format!("dispatcher.empty_drains_per_job.{tag}"),
        ratio(empty, jobs),
        "count",
    );
    let client_cpu = served.client_usage.cpu_ns as f64;
    rep.metric(
        format!("client.cpu_ns_per_job.{tag}"),
        ratio(client_cpu, jobs),
        "ns",
    );
    let switches = served.dispatcher.voluntary as f64;
    rep.metric(
        format!("dispatcher.voluntary_switches_per_job.{tag}"),
        ratio(switches, jobs),
        "count",
    );
    let full_ns: u64 = full.iter().map(|d| d.1 - d.0).sum();
    rep.metric(
        format!("queue.drain_ns_per_item.{tag}"),
        ratio(full_ns as f64, items as f64),
        "ns",
    );
    full
}

/// The client thread's log.
fn client_log(logs: &[Log]) -> &Log {
    logs.iter()
        .find(|l| {
            l.evs
                .iter()
                .any(|e| matches!(e.tag, Tag::Submit | Tag::Job))
        })
        .expect("the client thread flushed its log")
}

/// Per admitted submit: its span minus the queue insert span inside it.
fn submit_self(client: &Log) -> Vec<u64> {
    let mut out = Vec::new();
    let mut insert: Option<u64> = None;
    for e in &client.evs {
        if e.is_op(OpKind::Insert) {
            insert = Some(e.dur());
        } else if matches!(e.tag, Tag::Submit | Tag::Job) {
            if let Some(i) = insert.take() {
                out.push(e.dur().saturating_sub(i));
            }
        }
    }
    out
}

/// The traced serving run: a noop-recorder companion and a traced run
/// beside the `AtomicRecorder` run for each saturated backend, then a
/// traced trickle run beside an untraced one with its latency
/// decomposition gate.
pub fn traced(rep: &mut Report, inputs: &Inputs, sat_budget: Duration, trickle_budget: Duration) {
    let backends = saturated_backends();
    let window = sat_budget / (2 * backends.len()) as u32;
    let mut slowdowns = Vec::new();
    let mut cursor = 0;
    for (name, backend) in &backends {
        let what = format!("server_saturated {name}");
        // The AtomicRecorder runs (as in the end-to-end run) alternate
        // with noop-recorder companions; each side reports its median.
        let (mut atomic, mut noop) = (Vec::new(), Vec::new());
        let (mut refusals, mut admitted) = (0, 0);
        for _ in 0..COMPANION_ROUNDS {
            let w = window / COMPANION_ROUNDS;
            let client = saturated_client(&inputs.saturated, &mut cursor, w, false);
            let rec = Arc::new(AtomicRecorder::new());
            let a = serve(
                rep,
                &what,
                backend.clone(),
                rec,
                atomic_misses,
                false,
                client,
            );
            atomic.push(a.rate);
            refusals += a.client.refusals;
            admitted += a.client.admitted;
            let client = saturated_client(&inputs.saturated, &mut cursor, w, false);
            let n = serve(
                rep,
                &what,
                backend.clone(),
                Arc::new(NoopRecorder),
                |_| None,
                false,
                client,
            );
            noop.push(n.rate);
        }
        let atomic = median(&atomic);
        rep.metric(
            format!("obs.cost_share.{name}"),
            1.0 - atomic / median(&noop),
            "share",
        );
        rep.metric(
            format!("admission.refusals_per_job.saturated.{name}"),
            ratio(refusals as f64, admitted as f64),
            "count",
        );

        trace::reset();
        let client = saturated_client(
            &inputs.saturated,
            &mut cursor,
            window.min(trace::WINDOW),
            true,
        );
        let t = serve(
            rep,
            &what,
            backend.clone(),
            Arc::new(Tracer),
            traced_misses,
            true,
            client,
        );
        let logs = trace::collect();
        slowdowns.push(atomic / t.rate);
        let tag = format!("saturated.{name}");
        let full = dispatcher_metrics(rep, &tag, &logs, &t);
        let (replace50, _) = p50_p99(&mut spans(&logs, OpKind::ReplaceMin));
        rep.metric(
            format!("queue.replace_min_ns_p50.{tag}"),
            replace50 as f64,
            "ns",
        );
        let client = client_log(&logs);
        let (self50, _) = p50_p99(&mut submit_self(client));
        rep.metric(
            format!("admission.submit_self_ns_p50.{tag}"),
            self50 as f64,
            "ns",
        );
        // From each insert's return to the start of the first non-empty
        // drain that ended after it. With 256 jobs in flight that drain
        // need not be the one that returned the job (the trace carries no
        // job ids), so this is not the trickle's wake: it is how long a
        // fresh job waits for the dispatcher to be draining at all.
        let mut ends: Vec<u64> = client
            .evs
            .iter()
            .filter(|e| e.is_op(OpKind::Insert))
            .map(|e| e.b)
            .collect();
        ends.sort_unstable();
        let mut next = Vec::with_capacity(ends.len());
        let mut k = 0;
        for e in ends {
            while k < full.len() && full[k].1 < e {
                k += 1;
            }
            if let Some(d) = full.get(k) {
                next.push(d.0.saturating_sub(e));
            }
        }
        let (n50, n99) = p50_p99(&mut next);
        rep.metric(
            format!("dispatcher.next_drain_ns_p50.{tag}"),
            n50 as f64,
            "ns",
        );
        rep.metric(
            format!("dispatcher.next_drain_ns_p99.{tag}"),
            n99 as f64,
            "ns",
        );
    }
    rep.metric(
        "trace.overhead_share.server_saturated",
        geomean(&slowdowns) - 1.0,
        "share",
    );

    // Trickle: untraced (AtomicRecorder, as in the end-to-end run) beside
    // traced. Both are capped at the trace window: the idle dispatcher logs
    // three events per empty poll, and a longer traced run would overflow
    // its log.
    let half = (trickle_budget / 2).min(trace::WINDOW);
    let client = trickle_client(&inputs.trickle, half, false);
    let mut plain = serve(
        rep,
        "server_trickle",
        PqConfig::SingleLock,
        Arc::new(AtomicRecorder::new()),
        atomic_misses,
        false,
        client,
    );
    trace::reset();
    let client = trickle_client(&inputs.trickle, half, true);
    let mut t = serve(
        rep,
        "server_trickle",
        PqConfig::SingleLock,
        Arc::new(Tracer),
        traced_misses,
        true,
        client,
    );
    let logs = trace::collect();
    let (plain50, _) = p50_p99(&mut plain.client.latencies);
    let (lat50, _) = p50_p99(&mut t.client.latencies);
    rep.metric(
        "trace.overhead_share.server_trickle",
        lat50 as f64 / plain50 as f64 - 1.0,
        "share",
    );
    let full = dispatcher_metrics(rep, "trickle", &logs, &t);
    let client = client_log(&logs);
    let (self50, _) = p50_p99(&mut submit_self(client));
    rep.metric("admission.submit_self_ns_p50.trickle", self50 as f64, "ns");
    decompose(rep, client, &full, lat50);
}

/// The trickle decomposition: with one job outstanding, the k-th job is
/// returned by the k-th non-empty drain. Splits each job into admission
/// self time, queue insert, dispatcher wake, queue drain and dispatcher
/// tail, and checks that the five medians sum to within 10% of the
/// latency median.
fn decompose(rep: &mut Report, client: &Log, full: &[(u64, u64, u64)], lat50: u64) {
    let mut parts: [Vec<i64>; 5] = Default::default();
    let mut insert: Option<&Ev> = None;
    let mut k = 0;
    for e in &client.evs {
        if e.is_op(OpKind::Insert) {
            insert = Some(e);
        } else if e.tag == Tag::Job {
            let (Some(i), Some(d)) = (insert.take(), full.get(k)) else {
                continue;
            };
            k += 1;
            let (t0, t1, t2) = (e.a as i64, e.b as i64, e.c as i64);
            let (i0, i1, d0, d1) = (i.a as i64, i.b as i64, d.0 as i64, d.1 as i64);
            let values = [(t1 - t0) - (i1 - i0), i1 - i0, d0 - i1, d1 - d0, t2 - d1];
            for (p, v) in parts.iter_mut().zip(values) {
                p.push(v);
            }
        }
    }
    let jobs = client.evs.iter().filter(|e| e.tag == Tag::Job).count();
    rep.check(parts[0].len() == jobs && full.len() == jobs, || {
        format!(
            "trickle: {jobs} jobs but {} matched and {} non-empty drains",
            parts[0].len(),
            full.len()
        )
    });
    let names = [
        "admission.self",
        "queue.insert",
        "dispatcher.wake",
        "queue.drain",
        "dispatcher.tail",
    ];
    let mut medians = [0f64; 5];
    for ((m, p), name) in medians.iter_mut().zip(&mut parts).zip(names) {
        p.sort_unstable();
        let sorted: Vec<u64> = p.iter().map(|&v| v.max(0) as u64).collect();
        *m = quantile(&sorted, 0.5) as f64;
        println!(
            "  trickle {name:<18} p50 {:>10.0} ns  share {:.3}",
            m,
            ratio(*m, lat50 as f64)
        );
    }
    let wake: Vec<u64> = parts[2].iter().map(|&v| v.max(0) as u64).collect();
    rep.metric("dispatcher.wake_ns_p50.trickle", medians[2], "ns");
    rep.metric(
        "dispatcher.wake_ns_p99.trickle",
        quantile(&wake, 0.99) as f64,
        "ns",
    );
    rep.metric("dispatcher.tail_ns_p50.trickle", medians[4], "ns");
    let sum: f64 = medians.iter().sum();
    let share = ratio(sum, lat50 as f64);
    println!("  trickle decomposition: medians sum {sum:.0} ns = {share:.3} of the {lat50} ns latency median");
    rep.check((share - 1.0).abs() <= DECOMPOSITION_TOLERANCE, || {
        format!("trickle decomposition sums to {share:.3} of the latency median, outside 1 ± {DECOMPOSITION_TOLERANCE}")
    });
}
