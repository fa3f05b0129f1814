//! The simulated heap array under both relaxed queues: sequential heaps
//! behind per-queue try-locks, each with a published top priority that a
//! two-choice probe reads without locking. The sim mirror of the native
//! `slot_array` module: [`super::SimMultiQueue`] layers stickiness over one
//! array, [`super::SimNumaPq`] homes one across NUMA nodes and adds a mode
//! word.
//!
//! Each queue's words live in their own allocation (allocations are
//! line-aligned, so distinct queues never share a cache line): a lock word,
//! a published `top` priority (the root of the heap, or [`EMPTY`]), a size
//! word, and the `[pri, item]` heap entries. The heap itself is a
//! [`SimHeap`], which [`super::SimSingleLock`] also uses.

use funnelpq_sim::{Addr, Machine, ProcCtx};

use crate::costs;
use crate::error::SimPqError;

/// Published-top sentinel for an empty queue; orders after every real
/// priority.
pub(super) const EMPTY: u64 = u64::MAX;

/// Per-queue header words before the heap entries: lock, top, size.
const HDR: usize = 3;

/// Random try-lock attempts before an insert falls back to
/// [`SimHeapArray::probe_push`].
pub(super) const INSERT_TRIES: usize = 4;

/// One binary heap in simulated memory: a size word and `cap` `[pri, item]`
/// entries, plus optionally a published `top` word (the root's priority,
/// or [`EMPTY`]) rewritten at the end of every push and pop. The caller
/// serializes access by holding the heap's lock.
#[derive(Debug, Clone, Copy)]
pub(super) struct SimHeap {
    size: Addr,
    entries: Addr,
    cap: usize,
    top: Option<Addr>,
}

impl SimHeap {
    /// A heap over already-allocated words.
    pub(super) fn new(size: Addr, entries: Addr, cap: usize, top: Option<Addr>) -> Self {
        SimHeap {
            size,
            entries,
            cap,
            top,
        }
    }

    fn pri_addr(&self, i: u64) -> Addr {
        self.entries + 2 * i as usize
    }
    fn item_addr(&self, i: u64) -> Addr {
        self.entries + 2 * i as usize + 1
    }

    /// Rewrites the published top, if there is one, for a heap of `len`
    /// entries.
    async fn publish(&self, ctx: &ProcCtx, len: u64) {
        if let Some(top) = self.top {
            let root = if len == 0 {
                EMPTY
            } else {
                ctx.read(self.pri_addr(0)).await
            };
            ctx.write(top, root).await;
        }
    }

    /// Pushes `(pri, item)`, sifting up. False if the heap is full
    /// (unchanged).
    pub(super) async fn push(&self, ctx: &ProcCtx, pri: u64, item: u64) -> bool {
        let n = ctx.read(self.size).await;
        if n as usize >= self.cap {
            return false;
        }
        ctx.write(self.pri_addr(n), pri).await;
        ctx.write(self.item_addr(n), item).await;
        ctx.write(self.size, n + 1).await;
        {
            let _bubble = ctx.span("heap-bubble");
            let mut i = n;
            while i > 0 {
                ctx.work(costs::SIFT_STEP).await;
                let parent = (i - 1) / 2;
                let ppri = ctx.read(self.pri_addr(parent)).await;
                if pri < ppri {
                    // Swap child and parent entries.
                    let pitem = ctx.read(self.item_addr(parent)).await;
                    ctx.write(self.pri_addr(i), ppri).await;
                    ctx.write(self.item_addr(i), pitem).await;
                    ctx.write(self.pri_addr(parent), pri).await;
                    ctx.write(self.item_addr(parent), item).await;
                    i = parent;
                } else {
                    break;
                }
            }
        }
        self.publish(ctx, n + 1).await;
        true
    }

    /// Pops the minimum, sifting down. `None` still republishes the top,
    /// which repairs a stale one so later probes skip this heap.
    pub(super) async fn pop(&self, ctx: &ProcCtx) -> Option<(u64, u64)> {
        let n = ctx.read(self.size).await;
        if n == 0 {
            self.publish(ctx, 0).await;
            return None;
        }
        let min_pri = ctx.read(self.pri_addr(0)).await;
        let min_item = ctx.read(self.item_addr(0)).await;
        let last = n - 1;
        ctx.write(self.size, last).await;
        if last > 0 {
            let _bubble = ctx.span("heap-bubble");
            let pri = ctx.read(self.pri_addr(last)).await;
            let item = ctx.read(self.item_addr(last)).await;
            ctx.write(self.pri_addr(0), pri).await;
            ctx.write(self.item_addr(0), item).await;
            let mut i = 0u64;
            loop {
                ctx.work(costs::SIFT_STEP).await;
                let l = 2 * i + 1;
                let r = 2 * i + 2;
                if l >= last {
                    break;
                }
                let lpri = ctx.read(self.pri_addr(l)).await;
                let (c, cpri) = if r < last {
                    let rpri = ctx.read(self.pri_addr(r)).await;
                    if rpri < lpri {
                        (r, rpri)
                    } else {
                        (l, lpri)
                    }
                } else {
                    (l, lpri)
                };
                if cpri < pri {
                    let citem = ctx.read(self.item_addr(c)).await;
                    ctx.write(self.pri_addr(i), cpri).await;
                    ctx.write(self.item_addr(i), citem).await;
                    ctx.write(self.pri_addr(c), pri).await;
                    ctx.write(self.item_addr(c), item).await;
                    // Our entry's values are unchanged; its position is now c.
                    i = c;
                } else {
                    break;
                }
            }
            self.publish(ctx, last).await;
        } else {
            self.publish(ctx, 0).await;
        }
        Some((min_pri, min_item))
    }

    /// Host-side item count (no simulated cost; meaningful at quiescence).
    pub(super) fn len(&self, m: &Machine) -> u64 {
        m.peek(self.size)
    }

    /// Structural validation at quiescence: size within capacity, the heap
    /// property, and the published top (if any) equal to the root or
    /// [`EMPTY`]. `who` prefixes every error. Returns the item count.
    pub(super) fn validate(&self, m: &Machine, who: impl std::fmt::Display) -> Result<u64, String> {
        let n = m.peek(self.size);
        if n as usize > self.cap {
            return Err(format!("{who} size {n} exceeds capacity {}", self.cap));
        }
        for i in 1..n {
            let parent = (i - 1) / 2;
            let ppri = m.peek(self.pri_addr(parent));
            let cpri = m.peek(self.pri_addr(i));
            if ppri > cpri {
                return Err(format!(
                    "{who} heap violation at entry {i}: parent pri {ppri} > child pri {cpri}"
                ));
            }
        }
        if let Some(top) = self.top.map(|a| m.peek(a)) {
            let want = if n == 0 {
                EMPTY
            } else {
                m.peek(self.pri_addr(0))
            };
            if top != want {
                return Err(format!(
                    "{who} published top {top} disagrees with heap root {want}"
                ));
            }
        }
        Ok(n)
    }
}

/// The simulated heap array. See the module docs.
#[derive(Debug, Clone)]
pub(super) struct SimHeapArray {
    /// Base address of each queue's region (`HDR + 2 * cap_q` words).
    queues: Vec<Addr>,
    /// Per-queue heap capacity; total capacity is `queues.len() * cap_q`.
    cap_q: usize,
    /// Owning queue's name, for errors.
    what: &'static str,
}

impl SimHeapArray {
    /// Allocates `nqueues` heaps whose combined capacity is at least
    /// `capacity`. `place(qi)` gives queue `qi`'s home node (`None`: the
    /// machine's default line interleaving) and its region label.
    pub(super) fn build(
        m: &mut Machine,
        nqueues: usize,
        capacity: usize,
        what: &'static str,
        place: impl Fn(usize) -> (Option<usize>, String),
    ) -> Self {
        let cap_q = capacity.max(1).div_ceil(nqueues);
        let words = HDR + 2 * cap_q;
        let queues = (0..nqueues)
            .map(|qi| {
                let (node, label) = place(qi);
                let base = match node {
                    Some(node) => m.alloc_on_node(words, node),
                    None => m.alloc(words),
                };
                m.label(base, words, label);
                // Fresh memory is zeroed; an all-zero top would read as "a
                // priority-0 item is present".
                m.poke(base + 1, EMPTY);
                base
            })
            .collect();
        SimHeapArray {
            queues,
            cap_q,
            what,
        }
    }

    /// Number of queues.
    pub(super) fn len(&self) -> usize {
        self.queues.len()
    }

    fn lock_addr(&self, q: usize) -> Addr {
        self.queues[q]
    }
    pub(super) fn top_addr(&self, q: usize) -> Addr {
        self.queues[q] + 1
    }

    /// Queue `q`'s heap; only its lock holder may push or pop.
    pub(super) fn heap(&self, q: usize) -> SimHeap {
        let base = self.queues[q];
        SimHeap::new(base + 2, base + HDR, self.cap_q, Some(base + 1))
    }

    /// One random queue in `lo..hi`.
    pub(super) async fn draw_one(&self, ctx: &ProcCtx, lo: usize, hi: usize) -> usize {
        ctx.work(costs::RNG_DRAW).await;
        lo + ctx.random_below((hi - lo).max(1) as u64) as usize
    }

    /// Two distinct random queues in `lo..hi` (`(lo, lo)`, with no draw,
    /// when the range has a single queue).
    pub(super) async fn draw_pair(&self, ctx: &ProcCtx, lo: usize, hi: usize) -> (usize, usize) {
        let n = (hi - lo) as u64;
        if n < 2 {
            return (lo, lo);
        }
        ctx.work(costs::RNG_DRAW).await;
        let a = ctx.random_below(n);
        ctx.work(costs::RNG_DRAW).await;
        let mut b = ctx.random_below(n - 1);
        if b >= a {
            b += 1;
        }
        (lo + a as usize, lo + b as usize)
    }

    /// One CAS on the lock word; true iff we now hold the lock.
    async fn try_lock(&self, ctx: &ProcCtx, q: usize) -> bool {
        ctx.cas(self.lock_addr(q), 0, ctx.pid() as u64 + 1).await == 0
    }

    /// Spins (test-and-set with backoff work) until the lock is ours. Only
    /// the fallback paths use this; the fast paths never wait.
    async fn lock_blocking(&self, ctx: &ProcCtx, q: usize) {
        while !self.try_lock(ctx, q).await {
            ctx.work(costs::FUNNEL_SPIN_STEP).await;
        }
    }

    /// Runs `f` as queue `q`'s lock holder (a `lock-hold` span) and
    /// unlocks; `wait` spins for the lock instead of giving up at once.
    /// `None` if the one try-lock failed.
    async fn locked<O>(
        &self,
        ctx: &ProcCtx,
        q: usize,
        wait: bool,
        f: impl AsyncFnOnce() -> O,
    ) -> Option<O> {
        if wait {
            self.lock_blocking(ctx, q).await;
        } else if !self.try_lock(ctx, q).await {
            return None;
        }
        let hold = ctx.span("lock-hold");
        let out = f().await;
        hold.end();
        ctx.write(self.lock_addr(q), 0).await;
        Some(out)
    }

    /// One try-lock episode on queue `q` running `f` under the lock.
    /// `None` if the lock was held.
    pub(super) async fn try_locked<O>(
        &self,
        ctx: &ProcCtx,
        q: usize,
        f: impl AsyncFnOnce() -> O,
    ) -> Option<O> {
        self.locked(ctx, q, false, f).await
    }

    /// Insert fallback once random placement keeps failing (locked or full
    /// queues): probes every queue in order from the caller's pid, waiting
    /// for each lock. Crossing any partition here is deliberate — capacity
    /// is a global property. Errs only when no queue has room.
    pub(super) async fn probe_push(
        &self,
        ctx: &ProcCtx,
        pri: u64,
        item: u64,
    ) -> Result<(), SimPqError> {
        let nq = self.queues.len();
        for step in 0..nq {
            let q = (ctx.pid() + step) % nq;
            ctx.work(costs::LOOP_ITER).await;
            let ok = self
                .locked(ctx, q, true, async || {
                    self.heap(q).push(ctx, pri, item).await
                })
                .await;
            if ok == Some(true) {
                return Ok(());
            }
        }
        Err(SimPqError::CapacityExhausted {
            what: self.what,
            capacity: self.cap_q * nq,
            proc: ctx.pid(),
            time: ctx.now(),
        })
    }

    /// Slow path when a sampled pair looks empty: scan every published top
    /// lock-free, from queue `start` around, and pop from the first queue
    /// showing an item. Tops are published under the queue lock, so during
    /// a sequential drain they are exact and a full-EMPTY scan is a true
    /// emptiness proof; during a concurrent phase a racing operation can
    /// make the scan miss — a spurious empty, which relaxed semantics
    /// permits. Locking every queue here instead would turn each
    /// near-empty delete into `O(P)` CAS traffic and convoy concurrent
    /// sweepers behind each other.
    pub(super) async fn sweep(&self, ctx: &ProcCtx, start: usize) -> Option<(u64, u64)> {
        let nq = self.queues.len();
        for step in 0..nq {
            let q = (start + step) % nq;
            ctx.work(costs::LOOP_ITER).await;
            if ctx.read(self.top_addr(q)).await == EMPTY {
                continue;
            }
            // A held lock means its owner is mid-operation; move on.
            let got = self
                .try_locked(ctx, q, async || self.heap(q).pop(ctx).await)
                .await;
            if let Some(Some(x)) = got {
                return Some(x);
            }
        }
        None
    }

    /// Host-side item count (no simulated cost; meaningful at quiescence).
    pub(super) fn peek_len(&self, m: &Machine) -> u64 {
        (0..self.queues.len()).map(|q| self.heap(q).len(m)).sum()
    }

    /// Structural validation at quiescence: every lock free and every
    /// heap sound (see [`SimHeap::validate`]). Returns the total item
    /// count.
    pub(super) fn validate(&self, m: &Machine) -> Result<u64, String> {
        let what = self.what;
        let mut total = 0u64;
        for q in 0..self.queues.len() {
            if m.peek(self.lock_addr(q)) != 0 {
                return Err(format!("{what}: queue {q} lock held at quiescence"));
            }
            total += self
                .heap(q)
                .validate(m, format_args!("{what}: queue {q}"))?;
        }
        Ok(total)
    }
}
