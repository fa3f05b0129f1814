//! `queue_pairs`: the `funnelpq` library on its own. Two worker threads
//! form a closed loop of insert→delete_min pairs on a standing population
//! of 512, one backend at a time; an untimed sequential phase scores the
//! relaxed backends' rank error exactly.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use funnelpq::obs::{CounterEvent, NoopRecorder, OpKind, Recorder};
use funnelpq::{Algorithm, BoundedPq, Consistency, PqBuilder};

use crate::host;
use crate::inputs::{Mix, BANDS, RING};
use crate::report::{geomean, p50_p99, ratio, Report};
use crate::trace::{self, count, spans, Tag, Tracer};

/// The backends, in report order. SkipList is left out: under two-thread
/// contention its `delete_min` now and then returns `None` with hundreds of
/// items present, so its failure count differs from run to run.
pub const BACKENDS: [Algorithm; 5] = [
    Algorithm::SingleLock,
    Algorithm::HuntEtAl,
    Algorithm::FunnelTree,
    Algorithm::MultiQueue,
    Algorithm::NumaPq,
];

/// Standing population, prefilled during set-up.
pub const POPULATION: usize = 512;

/// Worker threads (thread ids `0..WORKERS`).
const WORKERS: usize = 2;

/// Pairs a worker runs between looks at the stop flag.
const CHUNK: usize = 64;

/// Steps of the sequential rank-error phase.
const QUALITY_STEPS: usize = 1 << 17;

/// Input streams: one per worker, one for the prefill, one for the
/// quality phase.
const PREFILL_STREAM: u64 = 100;
const QUALITY_STREAM: u64 = 101;

type Queue = Box<dyn BoundedPq<u64>>;

/// What went into and came out of one queue, for conservation checks.
#[derive(Debug, Default, Clone, Copy)]
struct Ledger {
    inserted: u64,
    removed: u64,
    in_sum: u128,
    out_sum: u128,
    failed_inserts: u64,
    empty_deletes: u64,
}

impl Ledger {
    fn add(&mut self, o: &Ledger) {
        self.inserted += o.inserted;
        self.removed += o.removed;
        self.in_sum += o.in_sum;
        self.out_sum += o.out_sum;
        self.failed_inserts += o.failed_inserts;
        self.empty_deletes += o.empty_deletes;
    }

    fn pairs(&self) -> u64 {
        self.inserted + self.failed_inserts
    }

    fn ops(&self) -> u64 {
        self.inserted + self.failed_inserts + self.removed + self.empty_deletes
    }
}

/// One backend's queue with its ledger and per-worker input cursors.
pub struct Bench {
    algo: Algorithm,
    queue: Queue,
    ledger: Ledger,
    cursors: [usize; WORKERS],
}

/// The seeded inputs: one priority ring per worker plus the prefill and
/// quality rings.
pub struct Inputs {
    workers: Vec<Vec<u8>>,
    prefill: Vec<u8>,
    quality: Vec<u8>,
}

impl Inputs {
    /// Generates every queue_pairs input from `seed`.
    pub fn new(mix: &Mix, seed: u64) -> Self {
        Inputs {
            workers: (0..WORKERS as u64)
                .map(|t| mix.priorities(seed, t))
                .collect(),
            prefill: mix.priorities(seed, PREFILL_STREAM),
            quality: mix.priorities(seed, QUALITY_STREAM),
        }
    }
}

fn build<R: Recorder>(algo: Algorithm, rec: Arc<R>) -> Queue {
    PqBuilder::new(algo, BANDS, WORKERS)
        .recorder(rec)
        .try_build::<u64>()
        .expect("every benchmarked backend builds with its defaults")
}

/// Builds `algo` and prefills the standing population (thread id 0).
pub fn prefilled<R: Recorder>(algo: Algorithm, rec: Arc<R>, inputs: &Inputs) -> Bench {
    let queue = build(algo, rec);
    let mut ledger = Ledger::default();
    for (i, &pri) in inputs.prefill[..POPULATION].iter().enumerate() {
        let id = i as u64 + 1;
        match queue.try_insert(0, pri as usize, id) {
            Ok(()) => {
                ledger.inserted += 1;
                ledger.in_sum += u128::from(id);
            }
            Err(_) => ledger.failed_inserts += 1,
        }
    }
    Bench {
        algo,
        queue,
        ledger,
        cursors: [0; WORKERS],
    }
}

/// Set-up: every backend built and prefilled.
pub fn setup(inputs: &Inputs) -> Vec<Bench> {
    BACKENDS
        .iter()
        .map(|&a| prefilled(a, Arc::new(NoopRecorder), inputs))
        .collect()
}

/// One worker's closed loop: insert→delete_min pairs until `stop`.
fn worker(
    q: &dyn BoundedPq<u64>,
    tid: usize,
    prios: &[u8],
    cursor: &mut usize,
    stop: &AtomicBool,
) -> Ledger {
    let mut l = Ledger::default();
    let tag = (tid as u64 + 1) << 48;
    let mut i = *cursor;
    while !stop.load(Ordering::Relaxed) {
        for _ in 0..CHUNK {
            let pri = prios[i & (RING - 1)] as usize;
            let id = tag | i as u64;
            i += 1;
            match q.try_insert(tid, pri, id) {
                Ok(()) => {
                    l.inserted += 1;
                    l.in_sum += u128::from(id);
                }
                Err(_) => l.failed_inserts += 1,
            }
            match q.delete_min(tid) {
                Some((_, x)) => {
                    l.removed += 1;
                    l.out_sum += u128::from(x);
                }
                None => l.empty_deletes += 1,
            }
        }
    }
    *cursor = i;
    l
}

/// Runs both workers on `b` for `window`; returns pairs per second and
/// the window's ledger. With `traced`, each worker flushes its trace log.
fn timed_round(b: &mut Bench, inputs: &Inputs, window: Duration, traced: bool) -> (f64, Ledger) {
    let stop = AtomicBool::new(false);
    let barrier = Barrier::new(WORKERS + 1);
    let q: &dyn BoundedPq<u64> = &*b.queue;
    let (elapsed, ledgers) = std::thread::scope(|s| {
        let handles: Vec<_> = b
            .cursors
            .iter_mut()
            .enumerate()
            .map(|(tid, cursor)| {
                let (stop, barrier, prios) = (&stop, &barrier, &inputs.workers[tid]);
                s.spawn(move || {
                    host::pin(0, tid);
                    barrier.wait();
                    let l = worker(q, tid, prios, cursor, stop);
                    if traced {
                        trace::flush();
                    }
                    l
                })
            })
            .collect();
        barrier.wait();
        let t0 = Instant::now();
        std::thread::sleep(window);
        stop.store(true, Ordering::Relaxed);
        let ledgers: Vec<Ledger> = handles
            .into_iter()
            .map(|h| h.join().expect("queue_pairs worker panicked"))
            .collect();
        (t0.elapsed(), ledgers)
    });
    let mut round = Ledger::default();
    for l in &ledgers {
        round.add(l);
    }
    b.ledger.add(&round);
    (round.pairs() as f64 / elapsed.as_secs_f64(), round)
}

/// Drains `b` at quiescence and checks conservation: the drain gives back
/// what the ledger holds (inserted minus deleted, by count and by payload
/// sum), in priority order for the strict backends. A spurious empty
/// delete_min leaves one extra item behind; it is counted as a failed
/// operation, and the drain must still return it.
fn drain_and_check(b: &mut Bench, rep: &mut Report) {
    let name = b.algo.name();
    let mut count = 0u64;
    let mut sum = 0u128;
    let mut sorted = true;
    let mut last = 0usize;
    while let Some((p, x)) = b.queue.delete_min(0) {
        count += 1;
        sum += u128::from(x);
        sorted &= p >= last;
        last = p;
    }
    let l = &b.ledger;
    let held = l.inserted - l.removed;
    rep.check(count == held, || {
        format!("{name}: drain gave {count} items, ledger holds {held}")
    });
    rep.check(l.in_sum - l.out_sum == sum, || {
        format!("{name}: drained payload sum differs from inserted minus deleted")
    });
    if b.queue.consistency() != Consistency::Relaxed {
        rep.check(sorted, || {
            format!("{name}: quiescent drain out of priority order")
        });
    }
}

/// Failures: rejected inserts, plus empty delete_mins — every delete runs
/// with at least `POPULATION - WORKERS` items present.
fn tally(rep: &mut Report, phase: &str, l: &Ledger) {
    rep.tally(phase, l.ops(), l.failed_inserts + l.empty_deletes);
}

/// The end-to-end measurement, one round at a time: each round runs every
/// backend once, and `pairs_per_s.<backend>` is the median round.
pub struct Timed<'a> {
    benches: Vec<Bench>,
    inputs: &'a Inputs,
    rates: Vec<Vec<f64>>,
}

impl<'a> Timed<'a> {
    /// Measures on the set-up `benches`.
    pub fn new(benches: Vec<Bench>, inputs: &'a Inputs) -> Self {
        let rates = vec![Vec::new(); benches.len()];
        Timed {
            benches,
            inputs,
            rates,
        }
    }

    /// One round: `budget` split evenly over the backends.
    pub fn round(&mut self, budget: Duration) {
        let window = budget / self.benches.len() as u32;
        for (b, r) in self.benches.iter_mut().zip(&mut self.rates) {
            r.push(timed_round(b, self.inputs, window, false).0);
        }
    }

    /// Reports the medians, then drains and checks every queue.
    pub fn finish(mut self, rep: &mut Report) {
        for (b, r) in self.benches.iter_mut().zip(&self.rates) {
            let name = b.algo.name();
            rep.median_of(format!("pairs_per_s.{name}"), r, "1/s");
            tally(rep, &format!("queue_pairs {name}"), &b.ledger);
            drain_and_check(b, rep);
        }
    }
}

/// The untimed quality phase: one OS thread drives both thread ids in
/// turn, so the history is sequential and deterministic, and each delete
/// is scored by its exact rank — the number of present items of strictly
/// smaller priority.
fn rank_error(algo: Algorithm, inputs: &Inputs, rep: &mut Report) -> f64 {
    let mut b = prefilled(algo, Arc::new(NoopRecorder), inputs);
    let mut present = [0u64; BANDS];
    for &p in &inputs.prefill[..POPULATION] {
        present[p as usize] += 1;
    }
    let mut ranks = 0u64;
    let mut l = Ledger::default();
    for i in 0..QUALITY_STEPS {
        let tid = i % WORKERS;
        let pri = inputs.quality[i & (RING - 1)] as usize;
        let id = (1 << 56) | i as u64;
        if b.queue.try_insert(tid, pri, id).is_ok() {
            l.inserted += 1;
            l.in_sum += u128::from(id);
            present[pri] += 1;
        } else {
            l.failed_inserts += 1;
        }
        match b.queue.delete_min(tid) {
            Some((p, x)) => {
                l.removed += 1;
                l.out_sum += u128::from(x);
                ranks += present[..p].iter().sum::<u64>();
                present[p] -= 1;
            }
            None => l.empty_deletes += 1,
        }
    }
    b.ledger.add(&l);
    drain_and_check(&mut b, rep);
    tally(rep, &format!("queue_pairs quality {}", algo.name()), &l);
    ranks as f64 / l.removed.max(1) as f64
}

/// `rank_error_mean.<backend>` for the relaxed backends, each scored
/// twice to show the phase repeats exactly.
pub fn quality(rep: &mut Report, inputs: &Inputs) {
    for algo in [Algorithm::MultiQueue, Algorithm::NumaPq] {
        let first = rank_error(algo, inputs, rep);
        let again = rank_error(algo, inputs, rep);
        rep.check(first.to_bits() == again.to_bits(), || {
            format!(
                "{}: rank error {first} did not repeat ({again})",
                algo.name()
            )
        });
        rep.metric(format!("rank_error_mean.{}", algo.name()), first, "ranks");
    }
}

/// The traced run: per backend, an untraced round beside a traced one on
/// a queue built with the [`Tracer`]; reports the core-queue and substrate
/// metrics and `trace.overhead_share.queue_pairs`.
pub fn traced(rep: &mut Report, benches: &mut [Bench], inputs: &Inputs, budget: Duration) {
    let window = budget / benches.len() as u32;
    let mut slowdowns = Vec::new();
    let mut total = Ledger::default();
    for b in benches.iter_mut() {
        let name = b.algo.name();
        let (plain, _) = timed_round(b, inputs, window, false);
        total.add(&b.ledger);
        drain_and_check(b, rep);
        if let Some(s) = b.queue.adaptive_stats() {
            rep.metric("numa.mode_switches", s.switches as f64, "count");
            let deletes = b.ledger.removed + b.ledger.empty_deletes;
            rep.metric(
                "numa.delegated_share",
                ratio(s.delegated as f64, deletes as f64),
                "share",
            );
        }

        let mut t = prefilled(b.algo, Arc::new(Tracer), inputs);
        trace::reset();
        let (rate, l) = timed_round(&mut t, inputs, window.min(trace::WINDOW), true);
        let logs = trace::collect();
        total.add(&t.ledger);
        drain_and_check(&mut t, rep);
        slowdowns.push(plain / rate);

        let ops = l.ops() as f64;
        let (ins, _) = p50_p99(&mut spans(&logs, OpKind::Insert));
        let (del50, del99) = p50_p99(&mut spans(&logs, OpKind::DeleteMin));
        rep.metric(format!("queue.insert_ns_p50.{name}"), ins as f64, "ns");
        rep.metric(
            format!("queue.delete_min_ns_p50.{name}"),
            del50 as f64,
            "ns",
        );
        rep.metric(
            format!("queue.delete_min_ns_p99.{name}"),
            del99 as f64,
            "ns",
        );
        let per_op = |e| ratio(count(&logs, e) as f64, ops);
        match b.algo {
            Algorithm::SingleLock | Algorithm::HuntEtAl => {
                let locks = logs
                    .iter()
                    .flat_map(|l| l.evs.iter())
                    .filter(|e| e.tag == Tag::Lock);
                let (mut wait, mut hold): (Vec<u64>, Vec<u64>) =
                    locks.map(|e| (e.b - e.a, e.c - e.b)).unzip();
                rep.metric(
                    format!("mcs.wait_ns_p50.{name}"),
                    p50_p99(&mut wait).0 as f64,
                    "ns",
                );
                rep.metric(
                    format!("mcs.hold_ns_p50.{name}"),
                    p50_p99(&mut hold).0 as f64,
                    "ns",
                );
                rep.metric(
                    format!("mcs.acquires_per_op.{name}"),
                    per_op(CounterEvent::LockAcquire),
                    "count",
                );
            }
            Algorithm::MultiQueue | Algorithm::NumaPq => {
                let deletes = (l.removed + l.empty_deletes) as f64;
                let empty = count(&logs, CounterEvent::EmptyDeleteMin) as f64;
                rep.metric(
                    format!("queue.empty_delete_min_per_op.{name}"),
                    ratio(empty, deletes),
                    "count",
                );
                rep.metric(
                    format!("cas.retries_per_op.{name}"),
                    per_op(CounterEvent::CasRetry),
                    "count",
                );
            }
            Algorithm::FunnelTree => {
                rep.metric(
                    format!("cas.retries_per_op.{name}"),
                    per_op(CounterEvent::CasRetry),
                    "count",
                );
                rep.metric(
                    format!("funnel.collisions_per_op.{name}"),
                    per_op(CounterEvent::FunnelCollision),
                    "count",
                );
                let hits = count(&logs, CounterEvent::ElimHit) as f64;
                let misses = count(&logs, CounterEvent::ElimMiss) as f64;
                rep.metric(
                    format!("funnel.elim_hit_rate.{name}"),
                    ratio(hits, hits + misses),
                    "share",
                );
                let adapt =
                    count(&logs, CounterEvent::AdaptGrow) + count(&logs, CounterEvent::AdaptShrink);
                rep.metric(
                    format!("funnel.adapt_per_kop.{name}"),
                    1000.0 * ratio(adapt as f64, ops),
                    "count",
                );
            }
            _ => {}
        }
    }
    rep.metric(
        "trace.overhead_share.queue_pairs",
        geomean(&slowdowns) - 1.0,
        "share",
    );
    tally(rep, "queue_pairs", &total);
}
