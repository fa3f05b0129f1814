//! `MultiQueue`: a *relaxed* priority queue — `c·T` sequential heaps behind
//! try-locks, with two-choice delete-min (Williams, Sanders & Dementiev,
//! *Engineering MultiQueues*).
//!
//! This is the one post-paper algorithm in the crate: instead of diffusing
//! the delete-min hot spot through combining funnels while keeping strict
//! semantics, it abandons strictness. `delete_min` samples two random heaps
//! and pops from the one whose cached top is smaller, so the returned item
//! is only *near* the minimum ([`Consistency::Relaxed`]); in exchange,
//! operations touch one uncontended cache line each and throughput scales
//! almost linearly with threads. The simulator's audit layer quantifies the
//! slack as per-operation *rank error* instead of asserting sortedness.

use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::Arc;

use funnelpq_util::{AtomicRng, CachePadded};

use crate::algorithm::Algorithm;
use crate::heap::BinaryHeap;
use crate::obs::{self, CounterEvent, NoopRecorder, OpKind, Recorder};
use crate::slot_array::{SlotArray, EMPTY_TOP};
use crate::traits::{checked_sorted_batch, reject, BoundedPq, Consistency, PqBatchError, PqError};

/// Default ratio of internal heaps to threads (`c` in the MultiQueues
/// papers; `c = 2` is their baseline configuration).
pub const DEFAULT_MQ_FACTOR: usize = 2;

/// Default stickiness: how many consecutive operations a thread re-uses its
/// last queue choice before re-drawing, amortizing lock acquisitions and
/// cache misses (the MultiQueues paper's batching/stickiness optimisation).
/// `1` disables stickiness (every operation draws fresh).
pub const DEFAULT_MQ_STICKINESS: u32 = 8;

/// Default seed for the per-thread choice RNGs.
pub const DEFAULT_MQ_SEED: u64 = 0x5EED_3141;

/// A sticky queue choice — slot `a`, plus `b` for a delete pair — and how
/// many more operations reuse it. Owned by one thread (the queue's
/// thread-id contract) but stored in a shared padded array, hence the
/// single-owner `Relaxed` atomics — the same pattern as the funnel
/// collision records.
#[derive(Debug, Default)]
struct Sticky {
    a: AtomicUsize,
    b: AtomicUsize,
    left: AtomicU32,
}

/// One attempt's queue choice and whether it reuses a sticky one.
#[derive(Clone, Copy)]
struct Pick {
    a: usize,
    b: usize,
    sticky: bool,
}

impl Sticky {
    /// The kept choice while its budget lasts, else `draw()`'s fresh one.
    #[inline]
    fn pick(&self, stickiness: u32, draw: impl FnOnce() -> (usize, usize)) -> Pick {
        if stickiness > 1 && self.left.load(Ordering::Relaxed) > 0 {
            Pick {
                a: self.a.load(Ordering::Relaxed),
                b: self.b.load(Ordering::Relaxed),
                sticky: true,
            }
        } else {
            let (a, b) = draw();
            Pick {
                a,
                b,
                sticky: false,
            }
        }
    }

    /// Settles an attempt. A hit spends one reuse of a kept choice, or
    /// keeps a fresh one for `stickiness - 1` more operations; a miss (a
    /// held lock, or a heap that raced empty) drops stickiness so the next
    /// attempt re-draws.
    #[inline]
    fn commit(&self, stickiness: u32, p: Pick, hit: bool) {
        if !hit {
            self.left.store(0, Ordering::Relaxed);
        } else if stickiness > 1 {
            if p.sticky {
                self.left
                    .store(self.left.load(Ordering::Relaxed) - 1, Ordering::Relaxed);
            } else {
                self.a.store(p.a, Ordering::Relaxed);
                self.b.store(p.b, Ordering::Relaxed);
                self.left.store(stickiness - 1, Ordering::Relaxed);
            }
        }
    }
}

/// Per-thread choice state: the RNG plus the insert and delete sides'
/// sticky choices.
#[derive(Debug)]
struct ThreadCtx {
    rng: AtomicRng,
    ins: Sticky,
    del: Sticky,
}

/// Outcome of one two-choice delete attempt.
enum Attempt<O> {
    /// Both sampled tops read empty: the caller's cue to sweep.
    Empty,
    /// The winner's lock was held.
    Busy,
    /// The winner's heap ran the caller's episode.
    Done(O),
}

/// The relaxed MultiQueue: `c·T` binary heaps, each under a test-and-set
/// try-lock, with power-of-two-choices delete-min and sticky queue reuse.
///
/// `insert` picks a random heap (re-drawing if its lock is held);
/// `delete_min` reads the published tops of two random heaps and pops from
/// the smaller. Neither guarantee strict ordering — see
/// [`Consistency::Relaxed`] — but element conservation is exact, and at
/// quiescence an empty return means the queue really is empty (a full
/// lock-sweep fallback backs the sampled fast path).
///
/// # Examples
///
/// ```
/// use funnelpq::{BoundedPq, MultiQueuePq};
/// let q = MultiQueuePq::new(16, 4);
/// q.insert(0, 3, "c");
/// q.insert(1, 1, "a");
/// let mut got = vec![q.delete_min(2).unwrap(), q.delete_min(3).unwrap()];
/// got.sort();
/// assert_eq!(got, vec![(1, "a"), (3, "c")]);
/// assert_eq!(q.delete_min(0), None);
/// ```
#[derive(Debug)]
pub struct MultiQueuePq<T, R: Recorder = NoopRecorder> {
    slots: SlotArray<T>,
    threads: Box<[CachePadded<ThreadCtx>]>,
    num_priorities: usize,
    max_threads: usize,
    stickiness: u32,
    recorder: Arc<R>,
}

impl<T: Send> MultiQueuePq<T> {
    /// Creates a queue for priorities `0..num_priorities` with the default
    /// factor, stickiness, and seed.
    ///
    /// # Panics
    ///
    /// Panics if `num_priorities` or `max_threads` is zero.
    pub fn new(num_priorities: usize, max_threads: usize) -> Self {
        Self::with_recorder(num_priorities, max_threads, Arc::new(NoopRecorder))
    }
}

impl<T: Send, R: Recorder> MultiQueuePq<T, R> {
    /// Creates a queue reporting metrics to `recorder`, with the default
    /// factor, stickiness, and seed.
    ///
    /// # Panics
    ///
    /// Panics if `num_priorities` or `max_threads` is zero.
    pub fn with_recorder(num_priorities: usize, max_threads: usize, recorder: Arc<R>) -> Self {
        Self::with_config(
            num_priorities,
            max_threads,
            DEFAULT_MQ_FACTOR,
            DEFAULT_MQ_STICKINESS,
            DEFAULT_MQ_SEED,
            recorder,
        )
    }

    /// Fully parameterized constructor: `factor · max_threads` internal
    /// heaps (at least two), `stickiness` consecutive reuses of a queue
    /// choice (`1` disables stickiness), and `seed` for the per-thread
    /// choice RNGs.
    ///
    /// # Panics
    ///
    /// Panics if `num_priorities`, `max_threads`, `factor`, or `stickiness`
    /// is zero, or if `num_priorities == usize::MAX` (reserved sentinel).
    pub fn with_config(
        num_priorities: usize,
        max_threads: usize,
        factor: usize,
        stickiness: u32,
        seed: u64,
        recorder: Arc<R>,
    ) -> Self {
        assert!(num_priorities > 0, "need at least one priority");
        assert!(num_priorities < EMPTY_TOP, "priority range too large");
        assert!(max_threads > 0, "need at least one thread");
        assert!(factor > 0, "need a positive queue factor");
        assert!(stickiness > 0, "stickiness counts operations; minimum 1");
        let threads = (0..max_threads)
            .map(|tid| {
                CachePadded::new(ThreadCtx {
                    rng: AtomicRng::new(seed.wrapping_add(tid as u64)),
                    ins: Sticky::default(),
                    del: Sticky::default(),
                })
            })
            .collect();
        MultiQueuePq {
            slots: SlotArray::new((factor * max_threads).max(2)),
            threads,
            num_priorities,
            max_threads,
            stickiness,
            recorder,
        }
    }

    /// Number of internal heaps (`factor · max_threads`, at least two).
    pub fn num_queues(&self) -> usize {
        self.slots.len()
    }

    /// Files `fill`'s items into the sticky (or a freshly drawn) heap in
    /// one try-lock episode, re-drawing on contention. A whole batch
    /// counts as one operation against the stickiness budget.
    #[inline]
    fn insert_with(&self, tid: usize, mut fill: impl FnMut(&mut BinaryHeap<T>)) {
        let t = &*self.threads[tid];
        loop {
            let p = t.ins.pick(self.stickiness, || {
                let q = self.slots.draw_one(&t.rng, 0, self.slots.len());
                (q, q)
            });
            let hit = self
                .slots
                .try_with(&*self.recorder, p.a, &mut fill)
                .is_some();
            t.ins.commit(self.stickiness, p, hit);
            if hit {
                return;
            }
        }
    }

    fn insert_inner(&self, tid: usize, pri: usize, item: T) {
        let mut item = Some(item);
        self.insert_with(tid, |h| h.push(pri, item.take().expect("item filed once")));
    }

    /// One two-choice delete attempt: the sticky (or a freshly drawn)
    /// pair's winner runs `episode` under its try-lock, and `hit` on the
    /// episode's result settles stickiness.
    #[inline]
    fn try_delete<O>(
        &self,
        t: &ThreadCtx,
        episode: impl FnOnce(&mut BinaryHeap<T>) -> O,
        hit: impl FnOnce(&O) -> bool,
    ) -> Attempt<O> {
        let p = t.del.pick(self.stickiness, || {
            self.slots.draw_pair(&t.rng, 0, self.slots.len())
        });
        let Some(q) = self.slots.winner(p.a, p.b) else {
            t.del.commit(self.stickiness, p, false);
            return Attempt::Empty;
        };
        match self.slots.try_with(&*self.recorder, q, episode) {
            Some(out) => {
                t.del.commit(self.stickiness, p, hit(&out));
                Attempt::Done(out)
            }
            None => {
                t.del.commit(self.stickiness, p, false);
                Attempt::Busy
            }
        }
    }

    fn delete_min_inner(&self, tid: usize) -> Option<(usize, T)> {
        let t = &*self.threads[tid];
        loop {
            match self.try_delete(t, |h| h.pop(), Option::is_some) {
                // Both samples look empty: fall back to a definitive sweep
                // so quiescent callers get an exact answer.
                Attempt::Empty => return self.sweep(),
                Attempt::Done(Some(out)) => return Some(out),
                // Contended, or raced empty under a stale top (repaired by
                // the episode): re-draw.
                Attempt::Busy | Attempt::Done(None) => {}
            }
        }
    }

    /// Blocking sweep of every heap; see [`SlotArray::sweep`].
    fn sweep(&self) -> Option<(usize, T)> {
        self.slots
            .sweep(&*self.recorder, 0, self.slots.len())
            .map(|(_, out)| out)
    }
}

impl<T: Send, R: Recorder> BoundedPq<T> for MultiQueuePq<T, R> {
    fn algorithm(&self) -> Algorithm {
        Algorithm::MultiQueue
    }

    fn num_priorities(&self) -> usize {
        self.num_priorities
    }

    fn max_threads(&self) -> usize {
        self.max_threads
    }

    #[inline]
    fn try_insert(&self, tid: usize, pri: usize, item: T) -> Result<(), PqError<T>> {
        if tid >= self.max_threads {
            return Err(PqError::TidOutOfRange {
                tid,
                max_threads: self.max_threads,
                item,
            });
        }
        if pri >= self.num_priorities {
            return Err(PqError::PriorityOutOfRange {
                pri,
                num_priorities: self.num_priorities,
                item,
            });
        }
        obs::timed(&*self.recorder, OpKind::Insert, || {
            self.insert_inner(tid, pri, item)
        });
        Ok(())
    }

    fn delete_min(&self, tid: usize) -> Option<(usize, T)> {
        assert!(tid < self.max_threads, "tid {tid} out of range");
        let out = obs::timed(&*self.recorder, OpKind::DeleteMin, || {
            self.delete_min_inner(tid)
        });
        if R::ENABLED && out.is_none() {
            self.recorder.record_event(CounterEvent::EmptyDeleteMin);
        }
        out
    }

    // The sticky (or freshly drawn) queue absorbs the whole batch in one
    // try-lock episode: one CAS, one top publication, k pushes.
    fn insert_batch(&self, tid: usize, batch: Vec<(usize, T)>) -> Result<(), PqBatchError<T>> {
        if batch.is_empty() {
            return Ok(());
        }
        let batch = checked_sorted_batch(tid, self.max_threads, self.num_priorities, batch)?;
        let n = batch.len() as u64;
        obs::timed(&*self.recorder, OpKind::InsertBatch, || {
            let mut batch = Some(batch);
            self.insert_with(tid, |h| {
                for (pri, item) in batch.take().expect("batch consumed once") {
                    h.push(pri, item);
                }
            });
        });
        obs::record_batch_op(&*self.recorder, n);
        Ok(())
    }

    // Pops up to `k` items from the two-choice winner under one lock hold,
    // publishing its top once at the end; re-draws (or sweeps) only if the
    // winner runs dry early. Relaxation grows with `k` — the winner's
    // items are taken en bloc while other heaps may hold smaller ones —
    // which is exactly what the simulator's rank-error audit quantifies.
    fn delete_min_batch(&self, tid: usize, k: usize, out: &mut Vec<(usize, T)>) -> usize {
        assert!(tid < self.max_threads, "tid {tid} out of range");
        if k == 0 {
            return 0;
        }
        let taken = obs::timed(&*self.recorder, OpKind::DeleteMinBatch, || {
            let t = &*self.threads[tid];
            let mut taken = 0;
            while taken < k {
                let drain = |h: &mut BinaryHeap<T>| {
                    let mut n = 0;
                    while taken + n < k {
                        match h.pop() {
                            Some(e) => {
                                out.push(e);
                                n += 1;
                            }
                            None => break,
                        }
                    }
                    n
                };
                match self.try_delete(t, drain, |&n| n > 0) {
                    Attempt::Empty => match self.sweep() {
                        Some(e) => {
                            out.push(e);
                            taken += 1;
                        }
                        None => break,
                    },
                    Attempt::Done(n) => taken += n,
                    Attempt::Busy => {}
                }
            }
            taken
        });
        obs::record_batch_op(&*self.recorder, taken as u64);
        if R::ENABLED && taken == 0 {
            self.recorder.record_event(CounterEvent::EmptyDeleteMin);
        }
        taken
    }

    // Fused root swap on the two-choice winner: one try-lock episode, one
    // sift, one top publication — versus two full episodes for the unfused
    // delete+insert pair.
    fn replace_min(&self, tid: usize, pri: usize, item: T) -> Option<(usize, T)> {
        assert!(tid < self.max_threads, "tid {tid} out of range");
        if pri >= self.num_priorities {
            reject(&PqError::PriorityOutOfRange {
                pri,
                num_priorities: self.num_priorities,
                item: (),
            });
        }
        let out = obs::timed(&*self.recorder, OpKind::ReplaceMin, || {
            let t = &*self.threads[tid];
            let mut item = Some(item);
            loop {
                let swap = |h: &mut BinaryHeap<T>| {
                    h.replace_min(pri, item.take().expect("item filed once"))
                };
                match self.try_delete(t, swap, Option::is_some) {
                    // Queue looks empty: definitive sweep for the removal,
                    // then file the new item on the ordinary insert path.
                    Attempt::Empty => {
                        let removed = self.sweep();
                        self.insert_inner(tid, pri, item.take().expect("item filed once"));
                        return removed;
                    }
                    // A stale top over an empty heap still files the new
                    // item there; the removal reports empty.
                    Attempt::Done(removed) => return removed,
                    Attempt::Busy => {}
                }
            }
        });
        obs::record_batch_op(&*self.recorder, 1);
        if R::ENABLED && out.is_none() {
            self.recorder.record_event(CounterEvent::EmptyDeleteMin);
        }
        out
    }

    // Batch items are en-bloc pops from whole heaps (plus redraws): every
    // inversion inside one batch is this queue's own two-choice
    // relaxation, which is precisely what an online rank-error sampler
    // should see.
    fn ordered_batch_drain(&self) -> bool {
        true
    }

    fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    fn consistency(&self) -> Consistency {
        Consistency::Relaxed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn conserves_elements_single_thread() {
        let q = MultiQueuePq::new(32, 1);
        assert!(q.is_empty());
        for i in 0..100usize {
            q.insert(0, (i * 7) % 32, i);
        }
        assert!(!q.is_empty());
        let mut got = BTreeSet::new();
        while let Some((pri, item)) = q.delete_min(0) {
            assert_eq!(pri, (item * 7) % 32);
            assert!(got.insert(item), "item {item} returned twice");
        }
        assert_eq!(got.len(), 100, "every insert must drain");
        assert!(q.is_empty());
        assert_eq!(q.delete_min(0), None);
    }

    #[test]
    fn drain_is_near_sorted_with_bounded_rank_error() {
        // Sequentially, each delete-min returns the min of two sampled heap
        // tops: the result can skip the global minimum, but never by more
        // than the number of heaps' worth of "stuck" smaller items.
        let q = MultiQueuePq::new(64, 2);
        for i in 0..200usize {
            q.insert(i % 2, (i * 13) % 64, i);
        }
        let mut drained = Vec::new();
        while let Some((pri, _)) = q.delete_min(0) {
            drained.push(pri);
        }
        assert_eq!(drained.len(), 200);
        // Rank error of each pop: smaller items still in the queue. Far
        // from sorted-strict, but two-choice keeps it well away from the
        // worst case (a fully random drain of this sequence lands near 60).
        let mut worst = 0usize;
        for (i, &p) in drained.iter().enumerate() {
            let rank = drained[i + 1..].iter().filter(|&&x| x < p).count();
            worst = worst.max(rank);
        }
        assert!(worst > 0, "a 4-heap sampled drain is not exactly sorted");
        assert!(worst < 40, "rank error {worst} out of line for 4 queues");
    }

    #[test]
    fn two_choice_prefers_the_smaller_top() {
        // With exactly two queues, a sequential delete-min always sees both
        // tops and must return the true minimum every time.
        let q: MultiQueuePq<usize> =
            MultiQueuePq::with_config(128, 1, 2, 1, 7, Arc::new(NoopRecorder));
        assert_eq!(q.num_queues(), 2);
        for i in 0..64usize {
            q.insert(0, (i * 37) % 128, i);
        }
        let mut pris = Vec::new();
        while let Some((pri, _)) = q.delete_min(0) {
            pris.push(pri);
        }
        let mut sorted = pris.clone();
        sorted.sort_unstable();
        assert_eq!(pris, sorted, "two queues sampled exhaustively = strict");
    }

    #[test]
    fn concurrent_conservation() {
        use std::sync::Arc as StdArc;
        const T: usize = 4;
        const N: usize = 500;
        let q = StdArc::new(MultiQueuePq::new(16, T));
        let handles: Vec<_> = (0..T)
            .map(|tid| {
                let q = StdArc::clone(&q);
                std::thread::spawn(move || {
                    let mut got = Vec::new();
                    for i in 0..N {
                        q.insert(tid, (tid + i) % 16, tid * N + i);
                        if i % 2 == 1 {
                            if let Some((_, item)) = q.delete_min(tid) {
                                got.push(item);
                            }
                        }
                    }
                    got
                })
            })
            .collect();
        let mut seen = BTreeSet::new();
        for h in handles {
            for item in h.join().unwrap() {
                assert!(seen.insert(item), "item {item} returned twice");
            }
        }
        while let Some((_, item)) = q.delete_min(0) {
            assert!(seen.insert(item), "item {item} returned twice");
        }
        assert_eq!(seen.len(), T * N, "inserted and drained counts must match");
        assert!(q.is_empty());
    }

    #[test]
    fn batch_ops_conserve_elements() {
        let q = MultiQueuePq::new(32, 1);
        let batch: Vec<(usize, usize)> = (0..100).map(|i| ((i * 7) % 32, i)).collect();
        q.insert_batch(0, batch).unwrap();
        let swapped = q.replace_min(0, 31, 1000).expect("queue is non-empty");
        let mut got = BTreeSet::new();
        got.insert(swapped.1);
        let mut out = Vec::new();
        loop {
            out.clear();
            let n = q.delete_min_batch(0, 8, &mut out);
            for (_, item) in out.drain(..) {
                assert!(got.insert(item), "item {item} returned twice");
            }
            if n == 0 {
                break;
            }
        }
        assert_eq!(got.len(), 101, "100 batched + 1 via replace_min");
        assert!(q.is_empty());
    }

    #[test]
    fn replace_min_on_empty_queue_still_files() {
        let q = MultiQueuePq::new(8, 1);
        assert_eq!(q.replace_min(0, 3, "x"), None);
        assert_eq!(q.delete_min(0), Some((3, "x")));
        assert!(q.is_empty());
    }

    #[test]
    fn batch_insert_validates_without_filing() {
        let q = MultiQueuePq::new(4, 1);
        let err = q.insert_batch(0, vec![(0, 'a'), (9, 'x')]).unwrap_err();
        assert_eq!(err.failed_pri, 9);
        assert_eq!(err.unconsumed_len(), 2);
        assert!(q.is_empty());
    }

    #[test]
    fn reports_relaxed_consistency() {
        let q: MultiQueuePq<()> = MultiQueuePq::new(4, 1);
        assert_eq!(q.algorithm(), Algorithm::MultiQueue);
        assert_eq!(q.consistency(), Consistency::Relaxed);
    }

    #[test]
    fn try_insert_returns_the_item() {
        let q = MultiQueuePq::new(4, 1);
        let err = q.try_insert(0, 9, "hot").unwrap_err();
        assert_eq!(err.into_item(), "hot");
        let err = q.try_insert(5, 0, "tid").unwrap_err();
        assert_eq!(err.into_item(), "tid");
        assert!(q.is_empty());
    }
}
