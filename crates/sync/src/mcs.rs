//! The list-based queue lock of Mellor-Crummey and Scott (TOCS 1991).
//!
//! Each acquiring thread appends a queue node to a tail pointer with an
//! atomic swap and then spins on a flag *in its own node*, so under
//! contention every waiter spins on a distinct cache line and lock handoff
//! causes a single remote write. This is the lock the paper uses for every
//! "bin" and for the non-funnel counters.

use std::cell::UnsafeCell;
use std::ptr;
use std::sync::atomic::{AtomicBool, AtomicPtr, Ordering};

use funnelpq_util::{mono_ns, Backoff, CachePadded};

use crate::probe::{CounterEvent, SinkRef};

struct QNode {
    locked: AtomicBool,
    next: AtomicPtr<QNode>,
}

// The sink rides inside the padded block: acquirers must touch the tail's
// cache line anyway, so keeping the (read-only) sink there costs no extra
// line on the lock fast path while the padding still isolates neighbours.
struct LockInner {
    tail: AtomicPtr<QNode>,
    sink: Option<SinkRef>,
    /// The sink's `wants_lock_spans`, read once at construction: whether
    /// to take the wait/acquire/release stamps at all.
    spans: bool,
}

/// A raw MCS queue lock (no data). See [`McsMutex`] for the RAII wrapper
/// most callers want.
///
/// # Examples
///
/// ```
/// use funnelpq_sync::McsLock;
/// let lock = McsLock::new();
/// let g = lock.lock();
/// drop(g); // releases
/// ```
pub struct McsLock {
    inner: CachePadded<LockInner>,
}

impl Default for McsLock {
    fn default() -> Self {
        Self::new()
    }
}

impl McsLock {
    /// Creates an unlocked MCS lock.
    pub fn new() -> Self {
        Self::with_sink(None)
    }

    /// Creates an unlocked MCS lock reporting each acquisition as a
    /// [`CounterEvent::LockAcquire`] to `sink` (when present), and each
    /// wait→hold→release interval too when the sink
    /// [wants lock spans](crate::probe::EventSink::wants_lock_spans).
    pub fn with_sink(sink: Option<SinkRef>) -> Self {
        McsLock {
            inner: CachePadded::new(LockInner {
                tail: AtomicPtr::new(ptr::null_mut()),
                spans: sink.as_ref().is_some_and(|s| s.wants_lock_spans()),
                sink,
            }),
        }
    }

    // Out-of-line so the sink-absent fast path of `lock`/`try_lock` pays
    // only a predictable not-taken branch, not the inlined dyn-call code
    // (measurable on the cheapest queues' ns/op). Returns the wait-start
    // stamp when the sink keeps spans.
    #[cold]
    #[inline(never)]
    fn note_acquire(&self) -> Option<u64> {
        if let Some(s) = &self.inner.sink {
            s.event(CounterEvent::LockAcquire);
        }
        self.inner.spans.then(mono_ns)
    }

    // Span reporting happens after the handoff in `McsGuard::drop`, so the
    // sink call never extends the critical section.
    #[cold]
    #[inline(never)]
    fn note_span(&self, wait_start_ns: u64, acquired_ns: u64, released_ns: u64) {
        if let Some(s) = &self.inner.sink {
            s.lock_span(wait_start_ns, acquired_ns, released_ns);
        }
    }

    /// Acquires the lock, spinning in FIFO order behind current holders.
    #[inline]
    pub fn lock(&self) -> McsGuard<'_> {
        let wait_start = if self.inner.sink.is_some() {
            self.note_acquire()
        } else {
            None
        };
        let node = Box::into_raw(Box::new(QNode {
            locked: AtomicBool::new(true),
            next: AtomicPtr::new(ptr::null_mut()),
        }));
        let pred = self.inner.tail.swap(node, Ordering::AcqRel);
        if !pred.is_null() {
            // SAFETY: `pred` was the previous tail; its owner cannot free it
            // until it has signalled its successor, and it cannot signal us
            // before we link ourselves in below.
            unsafe { (*pred).next.store(node, Ordering::Release) };
            let backoff = Backoff::new();
            // SAFETY: `node` is owned by this call until unlock.
            while unsafe { (*node).locked.load(Ordering::Acquire) } {
                backoff.snooze();
            }
        }
        let stamps = wait_start.map(|wait| (wait, mono_ns()));
        McsGuard {
            lock: self,
            node,
            stamps,
        }
    }

    /// Attempts to acquire the lock without waiting. Succeeds only when the
    /// queue is empty.
    #[inline]
    pub fn try_lock(&self) -> Option<McsGuard<'_>> {
        if !self.inner.tail.load(Ordering::Relaxed).is_null() {
            return None;
        }
        let node = Box::into_raw(Box::new(QNode {
            locked: AtomicBool::new(true),
            next: AtomicPtr::new(ptr::null_mut()),
        }));
        match self.inner.tail.compare_exchange(
            ptr::null_mut(),
            node,
            Ordering::AcqRel,
            Ordering::Relaxed,
        ) {
            Ok(_) => {
                // No queueing on the try path: wait == acquire instant.
                let stamps = if self.inner.sink.is_some() {
                    self.note_acquire().map(|now| (now, now))
                } else {
                    None
                };
                Some(McsGuard {
                    lock: self,
                    node,
                    stamps,
                })
            }
            Err(_) => {
                // SAFETY: `node` never became visible to other threads.
                drop(unsafe { Box::from_raw(node) });
                None
            }
        }
    }

    /// Whether some thread currently holds or waits for the lock. Racy by
    /// nature; useful for heuristics only.
    pub fn is_locked(&self) -> bool {
        !self.inner.tail.load(Ordering::Relaxed).is_null()
    }
}

// SAFETY: the lock protocol only shares heap-allocated queue nodes through
// atomics; the lock itself holds no interior data.
unsafe impl Send for McsLock {}
unsafe impl Sync for McsLock {}

impl std::fmt::Debug for McsLock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("McsLock")
            .field("locked", &self.is_locked())
            .finish()
    }
}

/// RAII guard for [`McsLock`]; releasing hands the lock to the next queued
/// thread.
pub struct McsGuard<'a> {
    lock: &'a McsLock,
    node: *mut QNode,
    /// `(wait_start_ns, acquired_ns)` when the lock's sink keeps spans;
    /// the release stamp completes the span in `drop`.
    stamps: Option<(u64, u64)>,
}

impl Drop for McsGuard<'_> {
    fn drop(&mut self) {
        // Hold time ends here, before the handoff protocol (a successor's
        // linking race is the lock's cost, not this holder's).
        let released = if self.stamps.is_some() { mono_ns() } else { 0 };
        let node = self.node;
        // SAFETY: `node` is this guard's own queue node.
        let next = unsafe { (*node).next.load(Ordering::Acquire) };
        if next.is_null() {
            // No known successor: try to swing the tail back to null.
            if self
                .lock
                .inner
                .tail
                .compare_exchange(node, ptr::null_mut(), Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                // SAFETY: tail no longer references the node and no
                // successor ever linked in, so we hold the only pointer.
                drop(unsafe { Box::from_raw(node) });
                if let Some((wait, acq)) = self.stamps {
                    self.lock.note_span(wait, acq, released);
                }
                return;
            }
            // A successor swapped the tail but has not linked in yet; wait.
            let backoff = Backoff::new();
            // SAFETY: as above, node is still ours until handoff.
            while unsafe { (*node).next.load(Ordering::Acquire).is_null() } {
                backoff.snooze();
            }
        }
        // SAFETY: re-load is non-null now; the successor node stays alive
        // until *it* unlocks, which cannot happen before this store.
        let next = unsafe { (*node).next.load(Ordering::Acquire) };
        unsafe { (*next).locked.store(false, Ordering::Release) };
        // SAFETY: after signalling, no thread references our node.
        drop(unsafe { Box::from_raw(node) });
        if let Some((wait, acq)) = self.stamps {
            self.lock.note_span(wait, acq, released);
        }
    }
}

/// A value protected by an [`McsLock`], in the style of `std::sync::Mutex`.
///
/// # Examples
///
/// ```
/// use funnelpq_sync::McsMutex;
/// let m = McsMutex::new(vec![1, 2]);
/// m.lock().push(3);
/// assert_eq!(m.lock().len(), 3);
/// ```
pub struct McsMutex<T> {
    lock: McsLock,
    data: UnsafeCell<T>,
}

impl<T> McsMutex<T> {
    /// Wraps `data` in a new mutex.
    pub fn new(data: T) -> Self {
        Self::with_sink(data, None)
    }

    /// Wraps `data` in a mutex whose lock reports acquisitions to `sink`.
    pub fn with_sink(data: T, sink: Option<SinkRef>) -> Self {
        McsMutex {
            lock: McsLock::with_sink(sink),
            data: UnsafeCell::new(data),
        }
    }

    /// Acquires the lock and returns a guard dereferencing to the data.
    pub fn lock(&self) -> McsMutexGuard<'_, T> {
        McsMutexGuard {
            _guard: self.lock.lock(),
            data: self.data.get(),
        }
    }

    /// Attempts to acquire without waiting (fails if any thread is queued).
    pub fn try_lock(&self) -> Option<McsMutexGuard<'_, T>> {
        self.lock.try_lock().map(|g| McsMutexGuard {
            _guard: g,
            data: self.data.get(),
        })
    }

    /// Returns a mutable reference without locking (requires `&mut self`).
    pub fn get_mut(&mut self) -> &mut T {
        self.data.get_mut()
    }

    /// Consumes the mutex and returns the inner value.
    pub fn into_inner(self) -> T {
        self.data.into_inner()
    }
}

// SAFETY: standard mutex reasoning — the guard provides exclusive access.
unsafe impl<T: Send> Send for McsMutex<T> {}
unsafe impl<T: Send> Sync for McsMutex<T> {}

impl<T: std::fmt::Debug> std::fmt::Debug for McsMutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("McsMutex")
            .field("locked", &self.lock.is_locked())
            .finish_non_exhaustive()
    }
}

/// Guard for [`McsMutex`].
pub struct McsMutexGuard<'a, T> {
    _guard: McsGuard<'a>,
    data: *mut T,
}

impl<T> std::ops::Deref for McsMutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        // SAFETY: the MCS guard guarantees exclusive access.
        unsafe { &*self.data }
    }
}

impl<T> std::ops::DerefMut for McsMutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: the MCS guard guarantees exclusive access.
        unsafe { &mut *self.data }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn uncontended_lock_unlock() {
        let l = McsLock::new();
        assert!(!l.is_locked());
        let g = l.lock();
        assert!(l.is_locked());
        drop(g);
        assert!(!l.is_locked());
    }

    #[test]
    fn try_lock_conflicts() {
        let l = McsLock::new();
        let g = l.lock();
        assert!(l.try_lock().is_none());
        drop(g);
        assert!(l.try_lock().is_some());
    }

    #[test]
    fn mutex_counter_stress() {
        const T: usize = 8;
        const N: usize = 2_000;
        let m = Arc::new(McsMutex::new(0u64));
        let mut handles = Vec::new();
        for _ in 0..T {
            let m = Arc::clone(&m);
            handles.push(thread::spawn(move || {
                for _ in 0..N {
                    *m.lock() += 1;
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*m.lock(), (T * N) as u64);
    }

    #[test]
    fn mutex_into_inner_and_get_mut() {
        let mut m = McsMutex::new(5);
        *m.get_mut() += 1;
        assert_eq!(m.into_inner(), 6);
    }

    #[test]
    fn sink_counts_acquisitions() {
        use crate::probe::{CounterEvent, EventSink};
        use std::sync::atomic::{AtomicU64, Ordering};

        #[derive(Default)]
        struct Count(AtomicU64);
        impl EventSink for Count {
            fn event_n(&self, event: CounterEvent, n: u64) {
                assert_eq!(event, CounterEvent::LockAcquire);
                self.0.fetch_add(n, Ordering::Relaxed);
            }
        }

        let sink = Arc::new(Count::default());
        let m = McsMutex::with_sink(0u32, Some(sink.clone()));
        *m.lock() += 1;
        *m.lock() += 1;
        assert!(m.try_lock().is_some());
        assert_eq!(sink.0.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn sink_sees_ordered_lock_spans() {
        use crate::probe::{CounterEvent, EventSink};
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Mutex;

        #[derive(Default)]
        struct Spans {
            acquires: AtomicU64,
            spans: Mutex<Vec<(u64, u64, u64)>>,
        }
        impl EventSink for Spans {
            fn event_n(&self, event: CounterEvent, n: u64) {
                assert_eq!(event, CounterEvent::LockAcquire);
                self.acquires.fetch_add(n, Ordering::Relaxed);
            }
            fn lock_span(&self, wait_start_ns: u64, acquired_ns: u64, released_ns: u64) {
                self.spans
                    .lock()
                    .unwrap()
                    .push((wait_start_ns, acquired_ns, released_ns));
            }
        }

        let sink = Arc::new(Spans::default());
        let l = McsLock::with_sink(Some(sink.clone()));
        drop(l.lock());
        let g = l.try_lock().expect("uncontended try_lock");
        std::hint::black_box(&g);
        drop(g);
        let spans = sink.spans.lock().unwrap();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans.len() as u64, sink.acquires.load(Ordering::Relaxed));
        for &(wait, acq, rel) in spans.iter() {
            assert!(wait <= acq && acq <= rel, "span out of order");
        }
        // Spans from one thread lie on one monotonic timeline.
        assert!(spans[0].2 <= spans[1].1);
    }

    #[test]
    fn counting_only_sink_gets_every_acquire_and_no_span() {
        use crate::probe::{CounterEvent, EventSink};
        use std::sync::atomic::{AtomicU64, Ordering};

        #[derive(Default)]
        struct CountOnly(AtomicU64);
        impl EventSink for CountOnly {
            fn event_n(&self, event: CounterEvent, n: u64) {
                assert_eq!(event, CounterEvent::LockAcquire);
                self.0.fetch_add(n, Ordering::Relaxed);
            }
            fn lock_span(&self, _: u64, _: u64, _: u64) {
                panic!("a sink that declines spans must never get one");
            }
            fn wants_lock_spans(&self) -> bool {
                false
            }
        }

        let sink = Arc::new(CountOnly::default());
        let l = McsLock::with_sink(Some(sink.clone()));
        for _ in 0..5 {
            drop(l.lock());
        }
        assert_eq!(sink.0.load(Ordering::Relaxed), 5);
        let g = l.try_lock().expect("uncontended try_lock");
        // A failed try_lock acquires nothing and reports nothing.
        assert!(l.try_lock().is_none());
        drop(g);
        assert_eq!(sink.0.load(Ordering::Relaxed), 6);

        // Contended handoffs report one acquire per lock() as well.
        const T: u64 = 4;
        const N: u64 = 500;
        let m = Arc::new(McsMutex::with_sink(0u64, Some(sink.clone())));
        let handles: Vec<_> = (0..T)
            .map(|_| {
                let m = Arc::clone(&m);
                thread::spawn(move || {
                    for _ in 0..N {
                        *m.lock() += 1;
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*m.lock(), T * N);
        assert_eq!(sink.0.load(Ordering::Relaxed), 6 + T * N + 1);
    }

    #[test]
    fn guards_are_exclusive_across_threads() {
        // Two threads alternate appending; both observe a consistent Vec.
        let m = Arc::new(McsMutex::new(Vec::new()));
        let mut handles = Vec::new();
        for t in 0..2 {
            let m = Arc::clone(&m);
            handles.push(thread::spawn(move || {
                for i in 0..500 {
                    let mut v = m.lock();
                    let len = v.len();
                    v.push((t, i, len));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let v = m.lock();
        assert_eq!(v.len(), 1000);
        for (k, &(_, _, len)) in v.iter().enumerate() {
            assert_eq!(k, len, "no two pushes observed the same length");
        }
    }
}
