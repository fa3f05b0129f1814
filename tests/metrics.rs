//! Observability conformance: an `AtomicRecorder` attached through
//! `PqBuilder` must count operations *exactly* — every insert and every
//! delete-min call, across threads and algorithms — and its JSON snapshot
//! must carry those counts. Latency is sampled: the histograms hold
//! exactly the `sampled` ops, a bounded share of the count that no
//! periodic op mix can starve.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::thread;

use funnelpq::obs::{
    record_batch_op, timed, AtomicRecorder, CounterEvent, EventSink, OpKind, OpStats, Recorder,
    SinkRef,
};
use funnelpq::{Algorithm, BoundedPq, NumaConfig, PqBuilder, PqConfig};

const THREADS: usize = 4;
const INSERTS_PER_THREAD: usize = 250;
const DELETES_PER_THREAD: usize = 200;

/// Seeded multi-threaded stress: every thread performs a fixed, known
/// number of operations; the recorder must report exactly those totals for
/// every algorithm (op counts are exact even though which items the
/// delete-mins return is racy).
#[test]
fn atomic_recorder_counts_exact_op_totals() {
    for a in Algorithm::ALL {
        let rec = Arc::new(AtomicRecorder::new());
        let q: Arc<dyn BoundedPq<u64>> = Arc::from(
            PqBuilder::new(a, 16, THREADS)
                .recorder(Arc::clone(&rec))
                .build::<u64>(),
        );
        let barrier = Arc::new(Barrier::new(THREADS));
        let handles: Vec<_> = (0..THREADS)
            .map(|tid| {
                let q = Arc::clone(&q);
                let barrier = Arc::clone(&barrier);
                thread::spawn(move || {
                    barrier.wait();
                    // Deterministic per-thread op sequence (seeded by tid).
                    for i in 0..INSERTS_PER_THREAD {
                        q.insert(tid, (tid * 7 + i * 3) % 16, (tid * 1000 + i) as u64);
                        if i < DELETES_PER_THREAD {
                            q.delete_min(tid);
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }

        let snap = rec.snapshot();
        assert_eq!(
            snap.insert.count,
            (THREADS * INSERTS_PER_THREAD) as u64,
            "{a}: insert count must be exact"
        );
        assert_eq!(
            snap.delete_min.count,
            (THREADS * DELETES_PER_THREAD) as u64,
            "{a}: delete_min count must be exact"
        );
        assert_eq!(
            snap.total_ops(),
            (THREADS * (INSERTS_PER_THREAD + DELETES_PER_THREAD)) as u64,
            "{a}: total op count must be exact"
        );
        // Latency totals are nonzero once anything was timed.
        assert!(snap.insert.total_nanos > 0, "{a}: insert latency recorded");
        assert!(
            snap.delete_min.total_nanos > 0,
            "{a}: delete_min latency recorded"
        );
        // Histogram mass equals the sampled op count.
        assert_eq!(
            snap.insert.buckets.iter().sum::<u64>(),
            snap.insert.sampled,
            "{a}: insert histogram mass"
        );
        assert_eq!(
            snap.delete_min.buckets.iter().sum::<u64>(),
            snap.delete_min.sampled,
            "{a}: delete_min histogram mass"
        );

        // The snapshot serializes with the exact counts embedded.
        let json = snap.to_json(a.name());
        assert!(json.contains(&format!("\"algorithm\": \"{}\"", a.name())));
        assert!(json.contains(&format!("\"count\": {}", snap.insert.count)));
    }
}

/// An `AtomicRecorder` seen through a wrapper that tallies, per
/// [`OpKind`], how many ops began and how many of them the inner recorder
/// chose to time. The wrapper forwards everything, so the queue runs the
/// inner recorder's real sampling and counting paths.
#[derive(Default)]
struct Probe {
    inner: AtomicRecorder,
    begun: [AtomicU64; 5],
    timed: [AtomicU64; 5],
}

impl Probe {
    fn tally(&self, of: &[AtomicU64; 5], kinds: &[OpKind]) -> u64 {
        kinds
            .iter()
            .map(|k| of[k.index()].load(Ordering::Relaxed))
            .sum()
    }
}

impl Recorder for Probe {
    const ENABLED: bool = true;

    fn record_event_n(&self, event: CounterEvent, n: u64) {
        self.inner.record_event_n(event, n);
    }

    fn record_op(&self, kind: OpKind, nanos: u64) {
        self.inner.record_op(kind, nanos);
    }

    fn begin_op(&self, kind: OpKind) -> bool {
        self.begun[kind.index()].fetch_add(1, Ordering::Relaxed);
        let timed = self.inner.begin_op(kind);
        if timed {
            self.timed[kind.index()].fetch_add(1, Ordering::Relaxed);
        }
        timed
    }

    fn record_batch(&self, size: u64) {
        self.inner.record_batch(size);
    }

    fn sink(self: &Arc<Self>) -> Option<SinkRef> {
        Some(Arc::clone(self) as SinkRef)
    }
}

impl EventSink for Probe {
    fn event_n(&self, event: CounterEvent, n: u64) {
        self.inner.event_n(event, n);
    }

    fn wants_lock_spans(&self) -> bool {
        self.inner.wants_lock_spans()
    }
}

/// The invariants of one kind's sampled aggregate: `count` is exact,
/// `1 <= sampled <= count`, and the histogram holds exactly the samples.
fn assert_sampled(what: &str, s: &OpStats, count: u64) {
    assert_eq!(s.count, count, "{what}: count must be exact");
    assert!(
        (1..=s.count).contains(&s.sampled),
        "{what}: sampled {} outside 1..={}",
        s.sampled,
        s.count
    );
    assert_eq!(
        s.buckets.iter().sum::<u64>(),
        s.sampled,
        "{what}: histogram mass"
    );
}

/// Sampled timing keeps every count exact and cannot alias with a periodic
/// op mix. A strictly alternating insert/delete_min loop must time both
/// kinds at about 1 in 64 (within 1/128..1/32); then a drain loop where
/// every 16th delete-side call is a `replace_min` instead of a
/// `delete_min_batch` must time some of each op kind, not only the one a
/// fixed countdown would land on.
#[test]
fn sampled_timing_is_exact_and_does_not_alias() {
    const PAIRS: u64 = 32 * 1024;
    const DRAINS: u64 = 16 * 1024;
    let inserts = [OpKind::Insert, OpKind::InsertBatch];
    let deletes = [
        OpKind::DeleteMin,
        OpKind::DeleteMinBatch,
        OpKind::ReplaceMin,
    ];
    for a in Algorithm::ALL {
        let probe = Arc::new(Probe::default());
        let q = PqBuilder::new(a, 16, 1)
            .recorder(Arc::clone(&probe))
            .build::<u64>();
        for i in 0..PAIRS {
            q.insert(0, (i % 16) as usize, i);
            q.delete_min(0);
        }
        let snap = probe.inner.snapshot();
        for (what, s) in [("insert", &snap.insert), ("delete_min", &snap.delete_min)] {
            assert_sampled(&format!("{a} {what}"), s, PAIRS);
            assert!(
                (PAIRS / 128..=PAIRS / 32).contains(&s.sampled),
                "{a} {what}: {} of {PAIRS} ops timed, want about 1 in 64",
                s.sampled
            );
        }

        let mut out = Vec::new();
        for i in 0..DRAINS {
            q.insert(0, (i % 16) as usize, i);
            if i % 16 == 15 {
                q.replace_min(0, (i % 16) as usize, i);
            } else {
                q.delete_min_batch(0, 1, &mut out);
            }
        }
        let snap = probe.inner.snapshot();
        let begun = |kinds: &[OpKind]| probe.tally(&probe.begun, kinds);
        assert_sampled(&format!("{a} insert"), &snap.insert, begun(&inserts));
        assert_sampled(
            &format!("{a} delete_min"),
            &snap.delete_min,
            begun(&deletes),
        );
        assert_eq!(snap.delete_min.count, PAIRS + DRAINS, "{a}: one per call");
        assert_eq!(
            snap.insert.sampled + snap.delete_min.sampled,
            probe.tally(&probe.timed, &OpKind::ALL),
            "{a}: every timed op is one sample"
        );
        for kind in OpKind::ALL {
            let begun = probe.begun[kind.index()].load(Ordering::Relaxed);
            if begun >= 1_000 {
                assert!(
                    probe.timed[kind.index()].load(Ordering::Relaxed) > 0,
                    "{a}: none of {begun} {} ops was timed",
                    kind.name()
                );
            }
        }
    }
}

/// Lock-based algorithms must report substrate traffic (lock acquisitions);
/// an insert/delete pair on `SingleLock` takes the one heap lock exactly
/// once per operation.
#[test]
fn single_lock_lock_acquisitions_are_exact() {
    let rec = Arc::new(AtomicRecorder::with_shards(2));
    let q = PqBuilder::new(Algorithm::SingleLock, 8, 1)
        .recorder(Arc::clone(&rec))
        .build::<u8>();
    for i in 0..10 {
        q.insert(0, i % 8, i as u8);
    }
    for _ in 0..10 {
        q.delete_min(0);
    }
    // 10 inserts + 10 delete_mins, one lock() each; is_empty not called.
    let snap = rec.snapshot();
    assert_eq!(snap.event(CounterEvent::LockAcquire), 20);
    assert_eq!(snap.event(CounterEvent::EmptyDeleteMin), 0);
    // One more delete on the now-empty queue: counted as an op, flagged
    // empty, and still takes the lock once.
    q.delete_min(0);
    let snap = rec.snapshot();
    assert_eq!(snap.event(CounterEvent::LockAcquire), 21);
    assert_eq!(snap.event(CounterEvent::EmptyDeleteMin), 1);
    assert_eq!(snap.delete_min.count, 11);
}

/// Funnel algorithms under contention surface funnel-specific events; at
/// the very least the event channel is wired (counts are workload-dependent
/// so only structural properties are asserted).
#[test]
fn funnel_events_flow_into_the_recorder() {
    let rec = Arc::new(AtomicRecorder::new());
    let q: Arc<dyn BoundedPq<u64>> = Arc::from(
        PqBuilder::new(Algorithm::FunnelTree, 8, THREADS)
            .recorder(Arc::clone(&rec))
            .build::<u64>(),
    );
    let handles: Vec<_> = (0..THREADS)
        .map(|tid| {
            let q = Arc::clone(&q);
            thread::spawn(move || {
                for i in 0..400 {
                    q.insert(tid, (tid + i) % 8, i as u64);
                    q.delete_min(tid);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let snap = rec.snapshot();
    assert_eq!(snap.insert.count, (THREADS * 400) as u64);
    assert_eq!(snap.delete_min.count, (THREADS * 400) as u64);
    // FunnelTree's deeper counters are MCS-locked: lock traffic must show.
    assert!(snap.event(CounterEvent::LockAcquire) > 0);
    // Every event named in the JSON output round-trips.
    let json = snap.to_json("FunnelTree");
    for ev in CounterEvent::ALL {
        assert!(json.contains(ev.name()), "{} missing from JSON", ev.name());
    }
}

/// Sharded aggregation is exact under concurrent writers: eight threads
/// hammer one recorder (more threads than shards, so shards are shared)
/// with a fixed per-thread schedule of events, batch samples and timed
/// ops; the merged snapshot must report precisely the schedule times
/// eight — counts, item totals, and every size bucket.
#[test]
fn concurrent_writers_aggregate_exactly_across_shards() {
    const WRITERS: usize = 8;
    // Per-thread schedule: (batch size, how many batches). Log₂ buckets:
    // size 0 → bucket 0, 1 → 1, 6 → 3, 1000 → 10.
    const BATCHES: [(u64, u64); 4] = [(0, 3), (1, 5), (6, 4), (1000, 2)];
    for shards in [1, 4] {
        let rec = Arc::new(AtomicRecorder::with_shards(shards));
        let barrier = Arc::new(Barrier::new(WRITERS));
        let handles: Vec<_> = (0..WRITERS)
            .map(|_| {
                let rec = Arc::clone(&rec);
                let barrier = Arc::clone(&barrier);
                thread::spawn(move || {
                    barrier.wait();
                    for _ in 0..300 {
                        rec.record_event(CounterEvent::CasRetry);
                    }
                    rec.record_event_n(CounterEvent::ElimHit, 7);
                    for _ in 0..17 {
                        rec.record_event(CounterEvent::DeadlineMiss);
                    }
                    for (size, n) in BATCHES {
                        for _ in 0..n {
                            record_batch_op(&*rec, size);
                        }
                    }
                    for i in 0..1_000 {
                        timed(&*rec, OpKind::Insert, || ());
                        if i % 2 == 0 {
                            timed(&*rec, OpKind::ReplaceMin, || ());
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }

        let snap = rec.snapshot();
        let w = WRITERS as u64;
        assert_eq!(snap.event(CounterEvent::CasRetry), 300 * w);
        assert_eq!(snap.event(CounterEvent::ElimHit), 7 * w);
        assert_eq!(snap.event(CounterEvent::DeadlineMiss), 17 * w);
        // Events the schedule never fired stay zero.
        assert_eq!(snap.event(CounterEvent::FunnelCollision), 0);
        assert_eq!(snap.event(CounterEvent::LockAcquire), 0);

        let batches_per_thread: u64 = BATCHES.iter().map(|&(_, n)| n).sum();
        let items_per_thread: u64 = BATCHES.iter().map(|&(s, n)| s * n).sum();
        assert_eq!(snap.event(CounterEvent::BatchOp), batches_per_thread * w);
        assert_eq!(snap.batch.count, batches_per_thread * w);
        assert_eq!(snap.batch.total_items, items_per_thread * w);
        assert_eq!(snap.batch.size_buckets[0], 3 * w, "empty batches");
        assert_eq!(snap.batch.size_buckets[1], 5 * w, "size-1 batches");
        assert_eq!(snap.batch.size_buckets[3], 4 * w, "size-6 batches");
        assert_eq!(snap.batch.size_buckets[10], 2 * w, "size-1000 batches");
        assert_eq!(
            snap.batch.size_buckets.iter().sum::<u64>(),
            snap.batch.count,
            "size-histogram mass ({shards} shards)"
        );
        assert_sampled("timed insert", &snap.insert, 1_000 * w);
        assert_sampled("timed replace_min", &snap.delete_min, 500 * w);
    }
}

/// Queue-level batch APIs report exactly one [`CounterEvent::BatchOp`] per
/// call (never per item) even when batch calls from several threads race:
/// the counts are per-call deterministic although which items each drain
/// returns is not.
#[test]
fn batch_ops_through_queues_count_once_per_call_under_contention() {
    const CALLS: usize = 40;
    const K: usize = 8;
    for a in [
        Algorithm::SingleLock,
        Algorithm::MultiQueue,
        Algorithm::NumaPq,
    ] {
        let rec = Arc::new(AtomicRecorder::new());
        let q: Arc<dyn BoundedPq<u64>> = Arc::from(
            PqBuilder::new(a, 64, THREADS)
                .recorder(Arc::clone(&rec))
                .build::<u64>(),
        );
        let barrier = Arc::new(Barrier::new(THREADS));
        let handles: Vec<_> = (0..THREADS)
            .map(|tid| {
                let q = Arc::clone(&q);
                let barrier = Arc::clone(&barrier);
                thread::spawn(move || {
                    barrier.wait();
                    let mut out = Vec::new();
                    for i in 0..CALLS {
                        let batch: Vec<_> =
                            (0..K).map(|j| ((tid + i + j) % 64, j as u64)).collect();
                        q.insert_batch(tid, batch).expect("unbounded backend");
                        q.delete_min_batch(tid, K, &mut out);
                        q.replace_min(tid, (tid + i) % 64, i as u64);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }

        // 3 batched calls per iteration per thread, each counted once.
        let calls = (THREADS * CALLS * 3) as u64;
        let snap = rec.snapshot();
        assert_eq!(snap.event(CounterEvent::BatchOp), calls, "{a}");
        assert_eq!(snap.batch.count, calls, "{a}");
        assert_eq!(
            snap.batch.size_buckets.iter().sum::<u64>(),
            calls,
            "{a}: size-histogram mass"
        );
        // Item totals: every insert_batch files exactly K, every
        // replace_min exactly 1; each drain takes 0..=K (racy), so the
        // aggregate is exactly bracketed.
        let floor = (THREADS * CALLS * (K + 1)) as u64;
        let ceil = (THREADS * CALLS * (2 * K + 1)) as u64;
        assert!(
            (floor..=ceil).contains(&snap.batch.total_items),
            "{a}: total_items {} outside [{floor}, {ceil}]",
            snap.batch.total_items
        );
    }
}

/// The NUMA-adaptive queue reports every controller switch-over both as a
/// [`CounterEvent::ModeSwitch`] on the attached recorder and in its
/// [`funnelpq::AdaptiveStats`] — and the two counts agree exactly.
#[test]
fn numa_mode_switches_are_counted_once_per_switch() {
    let rec = Arc::new(AtomicRecorder::new());
    let cfg = PqConfig::NumaPq(NumaConfig {
        nodes: 2,
        epoch_ops: 16,
        // Expensive emulated remote transfers: the controller must leave
        // oblivious mode within a few epochs.
        remote_ns: 2_000,
        ..NumaConfig::default()
    });
    // Two declared threads so the two-node topology survives clamping;
    // all operations still come from thread 0.
    let q = PqBuilder::from_config(cfg, 64, 2)
        .recorder(Arc::clone(&rec))
        .build::<u64>();
    for i in 0..400u64 {
        q.insert(0, (i % 64) as usize, i);
        q.delete_min(0);
    }
    let stats = q.adaptive_stats().expect("NumaPq exposes adaptive stats");
    let snap = rec.snapshot();
    assert!(
        stats.switches >= 1,
        "remote pressure must force at least one switch-over, got {stats:?}"
    );
    assert_eq!(
        snap.event(CounterEvent::ModeSwitch),
        stats.switches,
        "recorder and controller must agree on switch count"
    );
}
