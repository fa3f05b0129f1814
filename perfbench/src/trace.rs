//! The traced run's hooks: a benchmark-owned [`Recorder`] and
//! [`EventSink`] that keep op spans, lock spans, batch sizes and counter
//! events in per-thread memory, plus client-side spans. Per-thread CPU
//! time and context switches come from [`crate::host`].
//!
//! Each thread appends to its own thread-local [`Log`], so recording never
//! contends. A thread's log reaches the shared pool when it calls
//! [`flush`] (benchmark threads do, before they return) or when it exits
//! (the server's dispatcher threads, joined by `Scheduler::stop`).

use std::cell::RefCell;
use std::sync::{Arc, Mutex};

use funnelpq::obs::{CounterEvent, EventSink, OpKind, Recorder, SinkRef};

/// Events a thread keeps before it only counts; bounds memory at about
/// 32 MiB per thread. Counter events are always exact.
const CAP: usize = 1 << 20;

/// Longest traced measurement window: short enough that the busiest
/// thread (a saturated dispatcher, or a MultiQueue worker at ~5 M ops/s)
/// keeps every event under [`CAP`].
pub const WINDOW: std::time::Duration = std::time::Duration::from_millis(200);

/// What an [`Ev`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tag {
    /// A queue operation span `[a, b)`; `c` is the [`OpKind`] index.
    Op,
    /// A lock interval: wait from `a`, acquired at `b`, released at `c`.
    Lock,
    /// Items moved by the batched operation just recorded (`a`).
    Batch,
    /// A client's admitted `submit` span `[a, b)`.
    Submit,
    /// A trickle job: submitted at `a`, `submit` returned at `b`, the
    /// client saw completion at `c`.
    Job,
}

/// One recorded event, on the `funnelpq_util::mono_ns` timeline.
#[derive(Debug, Clone, Copy)]
pub struct Ev {
    /// What the fields mean.
    pub tag: Tag,
    /// First timestamp or value.
    pub a: u64,
    /// Second timestamp.
    pub b: u64,
    /// Third timestamp, or the op kind.
    pub c: u64,
}

impl Ev {
    /// The span's duration for `Op` and `Submit` events.
    pub fn dur(&self) -> u64 {
        self.b.saturating_sub(self.a)
    }

    /// Whether this is an op span of `kind`.
    pub fn is_op(&self, kind: OpKind) -> bool {
        self.tag == Tag::Op && self.c == kind.index() as u64
    }
}

/// One thread's recording.
#[derive(Debug)]
pub struct Log {
    /// The thread's name (`funnelpq-shard-0` for a dispatcher).
    pub thread: String,
    /// Events in the order the thread recorded them.
    pub evs: Vec<Ev>,
    /// Exact counter-event totals, indexed by [`CounterEvent::index`].
    pub counts: [u64; CounterEvent::COUNT],
    /// Events not kept once `evs` reached its cap.
    pub dropped: u64,
}

impl Log {
    /// An empty log named after the calling thread.
    fn new() -> Self {
        Log {
            thread: std::thread::current().name().unwrap_or("?").to_string(),
            evs: Vec::new(),
            counts: [0; CounterEvent::COUNT],
            dropped: 0,
        }
    }

    /// The count of one counter event.
    pub fn count(&self, e: CounterEvent) -> u64 {
        self.counts[e.index()]
    }
}

/// Logs of threads that flushed or exited.
static POOL: Mutex<Vec<Log>> = Mutex::new(Vec::new());

/// The thread-local slot; its destructor hands the log to the pool.
struct Slot(RefCell<Option<Log>>);

impl Drop for Slot {
    fn drop(&mut self) {
        if let Some(log) = self.0.borrow_mut().take() {
            if let Ok(mut pool) = POOL.lock() {
                pool.push(log);
            }
        }
    }
}

thread_local! {
    static LOCAL: Slot = const { Slot(RefCell::new(None)) };
}

fn with_log(f: impl FnOnce(&mut Log)) {
    // During thread teardown the slot may already be gone; such late
    // events are dropped.
    let _ = LOCAL.try_with(|slot| f(slot.0.borrow_mut().get_or_insert_with(Log::new)));
}

fn push(ev: Ev) {
    with_log(|log| {
        if log.evs.len() < CAP {
            log.evs.push(ev);
        } else {
            log.dropped += 1;
        }
    });
}

/// Records a client-side event on the calling thread.
pub fn client(tag: Tag, a: u64, b: u64, c: u64) {
    push(Ev { tag, a, b, c });
}

/// Hands the calling thread's log to the pool.
pub fn flush() {
    let log = LOCAL.with(|slot| slot.0.borrow_mut().take());
    if let Some(log) = log {
        POOL.lock().expect("trace pool poisoned").push(log);
    }
}

/// Discards the pool and the calling thread's log (between phases).
pub fn reset() {
    LOCAL.with(|slot| slot.0.borrow_mut().take());
    POOL.lock().expect("trace pool poisoned").clear();
}

/// The pooled total of one counter event.
pub fn pooled_count(e: CounterEvent) -> u64 {
    POOL.lock()
        .expect("trace pool poisoned")
        .iter()
        .map(|l| l.count(e))
        .sum()
}

/// Takes every pooled log.
pub fn collect() -> Vec<Log> {
    std::mem::take(&mut *POOL.lock().expect("trace pool poisoned"))
}

/// Span durations of one op kind across `logs`.
pub fn spans(logs: &[Log], kind: OpKind) -> Vec<u64> {
    logs.iter()
        .flat_map(|l| l.evs.iter())
        .filter(|e| e.is_op(kind))
        .map(|e| e.dur())
        .collect()
}

/// The total of one counter event across `logs`.
pub fn count(logs: &[Log], e: CounterEvent) -> u64 {
    logs.iter().map(|l| l.count(e)).sum()
}

/// The benchmark's tracing recorder, attached through
/// `PqBuilder::recorder` or `Scheduler::with_recorder`.
#[derive(Debug, Default)]
pub struct Tracer;

impl Recorder for Tracer {
    const ENABLED: bool = true;

    fn record_event_n(&self, event: CounterEvent, n: u64) {
        with_log(|log| log.counts[event.index()] += n);
    }

    fn record_op(&self, kind: OpKind, nanos: u64) {
        // Queues report spans through `record_op_span`; a bare duration
        // keeps its length on a zero start.
        self.record_op_span(kind, 0, nanos);
    }

    fn record_op_span(&self, kind: OpKind, start_ns: u64, end_ns: u64) {
        push(Ev {
            tag: Tag::Op,
            a: start_ns,
            b: end_ns,
            c: kind.index() as u64,
        });
    }

    fn record_batch(&self, size: u64) {
        push(Ev {
            tag: Tag::Batch,
            a: size,
            b: 0,
            c: 0,
        });
    }

    fn sink(self: &Arc<Self>) -> Option<SinkRef> {
        Some(Arc::new(TraceSink))
    }
}

/// The substrate side of [`Tracer`]: MCS lock spans and counter events
/// from locks, CAS counters and funnels.
struct TraceSink;

impl EventSink for TraceSink {
    fn event_n(&self, event: CounterEvent, n: u64) {
        with_log(|log| log.counts[event.index()] += n);
    }

    fn lock_span(&self, wait_start_ns: u64, acquired_ns: u64, released_ns: u64) {
        push(Ev {
            tag: Tag::Lock,
            a: wait_start_ns,
            b: acquired_ns,
            c: released_ns,
        });
    }
}
