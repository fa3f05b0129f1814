//! Sequential binary min-heap used by the lock-based queues and as the
//! reference model in tests.

/// An array-based binary min-heap of `(priority, item)` pairs, smallest
/// priority first. Ties are broken arbitrarily.
///
/// # Examples
///
/// ```
/// use funnelpq::heap::BinaryHeap;
/// let mut h = BinaryHeap::new();
/// h.push(3, 'c');
/// h.push(1, 'a');
/// h.push(2, 'b');
/// assert_eq!(h.pop(), Some((1, 'a')));
/// assert_eq!(h.peek_priority(), Some(2));
/// ```
#[derive(Debug, Clone, Default)]
pub struct BinaryHeap<T> {
    entries: Vec<(usize, T)>,
}

impl<T> BinaryHeap<T> {
    /// Creates an empty heap.
    pub fn new() -> Self {
        BinaryHeap {
            entries: Vec::new(),
        }
    }

    /// Creates an empty heap with room for `cap` entries.
    pub fn with_capacity(cap: usize) -> Self {
        BinaryHeap {
            entries: Vec::with_capacity(cap),
        }
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Smallest stored priority, if any.
    pub fn peek_priority(&self) -> Option<usize> {
        self.entries.first().map(|e| e.0)
    }

    /// Inserts an item under a priority.
    pub fn push(&mut self, pri: usize, item: T) {
        self.entries.push((pri, item));
        self.sift_up(self.entries.len() - 1);
    }

    /// Fused pop + push: swaps a smallest-priority entry for `(pri, item)`
    /// with a single sift from the root, instead of a pop's sift-down plus
    /// a push's sift-up. Returns the removed entry, or `None` when the heap
    /// was empty (the new entry is still inserted).
    pub fn replace_min(&mut self, pri: usize, item: T) -> Option<(usize, T)> {
        if self.entries.is_empty() {
            self.entries.push((pri, item));
            return None;
        }
        let out = std::mem::replace(&mut self.entries[0], (pri, item));
        self.sift_down(0);
        Some(out)
    }

    /// Removes and returns a smallest-priority entry.
    #[inline]
    pub fn pop(&mut self) -> Option<(usize, T)> {
        if self.entries.is_empty() {
            return None;
        }
        let last = self.entries.len() - 1;
        self.entries.swap(0, last);
        let out = self.entries.pop();
        if !self.entries.is_empty() {
            self.sift_down(0);
        }
        out
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.entries[i].0 < self.entries[parent].0 {
                self.entries.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        let n = self.entries.len();
        loop {
            let l = 2 * i + 1;
            let r = l + 1;
            let mut smallest = i;
            if l < n && self.entries[l].0 < self.entries[smallest].0 {
                smallest = l;
            }
            if r < n && self.entries[r].0 < self.entries[smallest].0 {
                smallest = r;
            }
            if smallest == i {
                return;
            }
            self.entries.swap(i, smallest);
            i = smallest;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_priority_order() {
        let mut h = BinaryHeap::new();
        for (i, p) in [5usize, 3, 9, 1, 7, 3, 0].iter().enumerate() {
            h.push(*p, i);
        }
        let mut pris = Vec::new();
        while let Some((p, _)) = h.pop() {
            pris.push(p);
        }
        assert_eq!(pris, vec![0, 1, 3, 3, 5, 7, 9]);
    }

    #[test]
    fn empty_behaviour() {
        let mut h: BinaryHeap<()> = BinaryHeap::new();
        assert!(h.is_empty());
        assert_eq!(h.pop(), None);
        assert_eq!(h.peek_priority(), None);
        h.push(2, ());
        assert!(!h.is_empty());
        assert_eq!(h.len(), 1);
    }

    #[test]
    fn replace_min_matches_pop_then_push() {
        let seq = [7usize, 2, 9, 2, 0, 5, 8, 1, 6];
        let mut fused = BinaryHeap::new();
        let mut naive = BinaryHeap::new();
        for (k, &p) in seq.iter().enumerate() {
            fused.push(p, k);
            naive.push(p, k);
        }
        for new_pri in [4usize, 0, 9, 3, 3, 11] {
            let a = fused.replace_min(new_pri, 99);
            let b = naive.pop();
            naive.push(new_pri, 99);
            assert_eq!(a.map(|e| e.0), b.map(|e| e.0));
        }
        let drain = |mut h: BinaryHeap<usize>| {
            let mut v = Vec::new();
            while let Some((p, _)) = h.pop() {
                v.push(p);
            }
            v
        };
        assert_eq!(drain(fused), drain(naive));
    }

    #[test]
    fn replace_min_on_empty_inserts() {
        let mut h = BinaryHeap::new();
        assert_eq!(h.replace_min(3, 'x'), None);
        assert_eq!(h.pop(), Some((3, 'x')));
    }

    #[test]
    fn interleaved_push_pop_matches_sorted_model() {
        let mut h = BinaryHeap::new();
        let mut model: Vec<usize> = Vec::new();
        let seq = [3usize, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5];
        for (k, &p) in seq.iter().enumerate() {
            h.push(p, k);
            model.push(p);
            if k % 3 == 2 {
                model.sort_unstable();
                let want = model.remove(0);
                assert_eq!(h.pop().map(|e| e.0), Some(want));
            }
        }
    }
}
