//! One shard: a priority queue of jobs plus its dispatch accounting.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::Thread;

use funnelpq::BoundedPq;
use funnelpq_util::{Acc, Backoff, CachePadded};

use crate::job::{Job, JobId, TenantId};
use crate::telemetry::ShardTelemetry;

/// The wake-up protocol between a shard's submitters and its idle
/// dispatcher. Submitters write it on every insert, so a shard keeps it on
/// a cache line of its own, away from the telemetry cell the dispatcher
/// writes on every dispatch.
#[derive(Default)]
pub(crate) struct Wake {
    /// Wake-up sequence, bumped by [`Wake::notify`] *after* every insert
    /// from another thread. Unlike [`Shard::enqueued`], which must rise
    /// before the insert so the dispatcher's decrement never underflows
    /// it, a wake must follow the insert: a dispatcher woken earlier would
    /// drain before the job is there and park again.
    ready: AtomicU64,
    /// Set while the dispatcher is about to park or parked; tells
    /// [`Wake::notify`] it must `unpark` rather than just bump `ready`.
    parked: AtomicBool,
    /// The dispatcher thread, published before it first parks.
    thread: Mutex<Option<Thread>>,
}

impl Wake {
    /// Records the calling thread as the one to unpark. The dispatcher
    /// calls this before it can first park.
    pub(crate) fn register(&self) {
        *self.thread.lock().unwrap_or_else(PoisonError::into_inner) = Some(std::thread::current());
    }

    /// The current wake-up sequence. Read it *before* a drain; if that
    /// drain comes back empty, [`Wake::wait_past`] with this value cannot
    /// miss an insert the drain missed.
    pub(crate) fn seq(&self) -> u64 {
        self.ready.load(Ordering::SeqCst)
    }

    /// Wakes the dispatcher after an insert into this shard from another
    /// thread (or after `stop` raises its flag). An awake dispatcher costs
    /// one `fetch_add` and one load; only a parked one costs an `unpark`.
    ///
    /// The `ready` bump here and the `parked` store in [`Wake::wait_past`]
    /// form a Dekker pair under `SeqCst`: either this load sees `parked`
    /// and unparks, or the dispatcher's re-check of `ready` sees the bump
    /// and does not park. No wake-up is lost.
    pub(crate) fn notify(&self) {
        self.ready.fetch_add(1, Ordering::SeqCst);
        if self.parked.load(Ordering::SeqCst) {
            if let Some(t) = &*self.thread.lock().unwrap_or_else(PoisonError::into_inner) {
                t.unpark();
            }
        }
    }

    /// Waits until the sequence moves past `seen`: a bounded `Backoff`
    /// spin first (a few µs, which is all a closed-loop client's next
    /// submit usually takes), then `park` with no timeout. The loop
    /// absorbs spurious unparks.
    pub(crate) fn wait_past(&self, seen: u64) {
        let backoff = Backoff::new();
        while self.seq() == seen {
            if !backoff.is_completed() {
                backoff.snooze();
                continue;
            }
            self.parked.store(true, Ordering::SeqCst);
            if self.seq() == seen {
                std::thread::park();
            }
            self.parked.store(false, Ordering::SeqCst);
        }
    }
}

/// A shard's queue plus the shared state its dispatcher and submitters
/// both touch.
pub(crate) struct Shard {
    /// The backing priority queue; priorities are deadline bands.
    pub(crate) queue: Arc<dyn BoundedPq<Job>>,
    /// Count of dispatches this shard has performed — the shard's *virtual
    /// service clock*. Submitters stamp its current value into
    /// [`Job::enqueued_slot`]; the dispatcher evaluates deadline misses
    /// against it (see `docs/SERVER.md`).
    pub(crate) dispatched: CachePadded<AtomicU64>,
    /// Live queue depth: incremented by submitters *before* an insert (and
    /// undone if it fails), decremented by the dispatcher as it drains.
    /// Lock-free so submit never touches the telemetry mutex.
    pub(crate) enqueued: CachePadded<AtomicU64>,
    /// How submitters wake the idle dispatcher.
    pub(crate) wake: CachePadded<Wake>,
    /// The shard's telemetry cell. Written only by the shard's dispatcher
    /// (so the lock is uncontended on the hot path); read by
    /// [`Scheduler::telemetry`](crate::Scheduler::telemetry).
    pub(crate) telemetry: Mutex<ShardTelemetry>,
    /// Cleared when the shard's dispatcher exhausts its restart budget and
    /// gives up. Submitters route around dark shards; the give-up path
    /// drains the queue into healthy ones.
    pub(crate) healthy: AtomicBool,
    /// Jobs shed at admission for this shard (deadline unmeetable given
    /// backlog × dispatch rate). Written by submitters, so it lives here
    /// as a lock-free counter rather than in the telemetry cell.
    pub(crate) shed: CachePadded<AtomicU64>,
    /// The dispatcher's windowed estimate of nanoseconds per dispatch,
    /// published for the submit-side shed check. `0` means "no estimate
    /// yet" (callers fall back to the configured `service_ns`).
    pub(crate) rate_ns: CachePadded<AtomicU64>,
}

impl Shard {
    /// The telemetry cell, recovering from poisoning: a dispatcher that
    /// panicked while holding the lock leaves behind nothing worse than a
    /// half-filed dispatch (all fields are plain counters/histograms), and
    /// the supervisor must still be able to file restarts afterwards.
    pub(crate) fn telemetry_cell(&self) -> MutexGuard<'_, ShardTelemetry> {
        match self.telemetry.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }
}

/// One dispatched job, as remembered by a shard running with
/// `record_dispatches` on (integration tests reconstruct conservation and
/// ordering from these).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DispatchRecord {
    /// The dispatched job's id.
    pub job: JobId,
    /// Its tenant.
    pub tenant: TenantId,
    /// The deadline band (queue priority) it was dequeued under.
    pub band: usize,
    /// Its absolute deadline.
    pub deadline_ns: u64,
    /// Whether it missed its deadline on the virtual service clock.
    pub missed: bool,
}

/// What one shard's dispatcher thread hands back when it exits.
#[derive(Debug, Clone, Default)]
pub struct ShardReport {
    /// Which shard this is.
    pub shard: usize,
    /// Total dispatches (periodic re-arms count once per firing).
    pub dispatched: u64,
    /// Jobs fully finished (a periodic job completes only on its last
    /// firing, releasing its admission slot).
    pub completed: u64,
    /// Dispatches that missed their deadline on the virtual service clock.
    pub misses: u64,
    /// Periodic re-arms performed via the fused `replace_min`.
    pub rearmed: u64,
    /// Wall-clock enqueue→dispatch latency histogram (nanoseconds).
    pub latency_ns: Acc,
    /// Dispatch-slot delay histogram: how many dispatches each job waited
    /// beyond its enqueue stamp. Strict backends keep this bounded by the
    /// in-flight population; relaxed backends add rank error on top.
    pub delay_slots: Acc,
    /// Per-dispatch log, populated only when the server runs with
    /// `record_dispatches` (conservation/ordering tests).
    pub dispatch_log: Vec<DispatchRecord>,
    /// Times the dispatcher panicked (injected or genuine).
    pub panics: u64,
    /// Times the supervisor restarted the dispatcher after a panic.
    pub restarts: u32,
    /// Jobs requeued after panics: survivors put back into this shard on a
    /// restart, plus the queue handed to healthy shards on a give-up.
    pub requeued: u64,
    /// Jobs that could not be placed anywhere after a give-up (no healthy
    /// shard left); their admission slots were released.
    pub lost: u64,
    /// Whether the dispatcher exhausted its restart budget and went dark.
    pub gave_up: bool,
    /// The most recent panic's message, if any panic occurred.
    pub last_panic: Option<String>,
}

impl ShardReport {
    pub(crate) fn new(shard: usize) -> Self {
        ShardReport {
            shard,
            ..ShardReport::default()
        }
    }
}
