//! The slot array under both relaxed queues: cache-padded sequential heaps
//! behind test-and-set try-locks, each with a published top priority that
//! a two-choice sampler reads without locking (the MultiQueue substrate of
//! Williams, Sanders & Dementiev, *Engineering MultiQueues*).
//!
//! [`crate::MultiQueuePq`] layers stickiness over one array;
//! [`crate::NumaPq`] partitions one over a [`crate::Topology`] and adds
//! delegation. The array owns the published-top protocol — a slot's top is
//! written only under its lock, at the end of every locked episode — so no
//! caller can forget to republish it.

use std::sync::atomic::{AtomicUsize, Ordering};

use funnelpq_sync::TtasMutex;
use funnelpq_util::{AtomicRng, CachePadded};

use crate::heap::BinaryHeap;
use crate::obs::{CounterEvent, Recorder};

/// Published top of an empty heap. Compares greater than any real
/// priority, so the two-choice `min` needs no special casing.
pub(crate) const EMPTY_TOP: usize = usize::MAX;

/// One internal sequential heap plus its published minimum. Each slot is
/// cache-padded so two threads working distinct slots never share a line.
#[derive(Debug)]
struct Slot<T> {
    /// Smallest priority in `heap`, or [`EMPTY_TOP`]; written only while
    /// holding the lock, read locklessly by the two-choice sampler.
    top: AtomicUsize,
    heap: TtasMutex<BinaryHeap<T>>,
}

/// A fixed array of try-locked heaps with published tops.
#[derive(Debug)]
pub(crate) struct SlotArray<T> {
    slots: Box<[CachePadded<Slot<T>>]>,
}

impl<T> SlotArray<T> {
    /// `len` empty slots.
    pub(crate) fn new(len: usize) -> Self {
        let slots = (0..len)
            .map(|_| {
                CachePadded::new(Slot {
                    top: AtomicUsize::new(EMPTY_TOP),
                    heap: TtasMutex::new(BinaryHeap::new()),
                })
            })
            .collect();
        SlotArray { slots }
    }

    /// Number of slots.
    pub(crate) fn len(&self) -> usize {
        self.slots.len()
    }

    /// A uniformly drawn slot index in `lo..hi`.
    pub(crate) fn draw_one(&self, rng: &AtomicRng, lo: usize, hi: usize) -> usize {
        lo + rng.below((hi - lo) as u64) as usize
    }

    /// Two distinct slot indices in `lo..hi` (`(lo, lo)` when the range
    /// has a single slot).
    pub(crate) fn draw_pair(&self, rng: &AtomicRng, lo: usize, hi: usize) -> (usize, usize) {
        let n = (hi - lo) as u64;
        if n < 2 {
            return (lo, lo);
        }
        let a = rng.below(n) as usize;
        let mut b = rng.below(n - 1) as usize;
        if b >= a {
            b += 1;
        }
        (lo + a, lo + b)
    }

    /// The two-choice winner of slots `a` and `b` by published top (`a` on
    /// ties), or `None` when both read empty.
    pub(crate) fn winner(&self, a: usize, b: usize) -> Option<usize> {
        let top_a = self.slots[a].top.load(Ordering::Acquire);
        let top_b = self.slots[b].top.load(Ordering::Acquire);
        if top_a == EMPTY_TOP && top_b == EMPTY_TOP {
            return None;
        }
        Some(if top_b < top_a { b } else { a })
    }

    /// One try-lock episode on slot `q`: runs `f` on its heap and
    /// republishes the top before unlocking. `None` if the lock was held.
    /// Records one [`CounterEvent::LockAcquire`] or
    /// [`CounterEvent::CasRetry`].
    #[inline]
    pub(crate) fn try_with<R: Recorder, O>(
        &self,
        rec: &R,
        q: usize,
        f: impl FnOnce(&mut BinaryHeap<T>) -> O,
    ) -> Option<O> {
        let slot = &*self.slots[q];
        match slot.heap.try_lock() {
            Some(mut g) => {
                let out = f(&mut g);
                Self::publish_top(slot, &g);
                if R::ENABLED {
                    rec.record_event(CounterEvent::LockAcquire);
                }
                Some(out)
            }
            None => {
                if R::ENABLED {
                    rec.record_event(CounterEvent::CasRetry);
                }
                None
            }
        }
    }

    /// Slow path: blocking-locks slots `lo..hi` in order and pops from the
    /// first non-empty heap, returning its slot index too. Reached only
    /// when a sampled pair looked empty; `None` means every slot of the
    /// range was seen empty — the quiescent-emptiness guarantee.
    #[cold]
    pub(crate) fn sweep<R: Recorder>(
        &self,
        rec: &R,
        lo: usize,
        hi: usize,
    ) -> Option<(usize, (usize, T))> {
        for (q, slot) in self.slots[lo..hi].iter().enumerate() {
            let mut g = slot.heap.lock();
            if R::ENABLED {
                rec.record_event(CounterEvent::LockAcquire);
            }
            let out = g.pop();
            Self::publish_top(slot, &g);
            if let Some(out) = out {
                return Some((lo + q, out));
            }
        }
        None
    }

    /// Whether every published top reads empty.
    pub(crate) fn is_empty(&self) -> bool {
        self.slots
            .iter()
            .all(|s| s.top.load(Ordering::Acquire) == EMPTY_TOP)
    }

    /// Publishes `heap`'s new minimum for the lockless sampler. Called
    /// only with the slot's lock held.
    fn publish_top(slot: &Slot<T>, heap: &BinaryHeap<T>) {
        slot.top
            .store(heap.peek_priority().unwrap_or(EMPTY_TOP), Ordering::Release);
    }
}
