//! Global top-k merging via a bounded binary heap.

use pmi_metric::Neighbor;
use std::collections::BinaryHeap;

/// A bounded max-heap keeping the `k` smallest [`Neighbor`]s seen so far —
/// exactly the structure the paper's best-first MkNNQ traversals maintain,
/// reused here to merge per-shard top-k lists into the global top-k.
///
/// Ordering follows [`Neighbor`]'s total order `(distance, id)`, so merges
/// are deterministic even across equal distances.
#[derive(Debug, Default)]
pub struct TopK {
    k: usize,
    heap: BinaryHeap<Neighbor>,
}

impl TopK {
    /// An empty collector for the `k` nearest. `k = 0` collects nothing.
    pub fn new(k: usize) -> Self {
        TopK {
            k,
            heap: BinaryHeap::with_capacity(k.saturating_add(1).min(4096)),
        }
    }

    /// Offers a candidate, evicting the current worst if over capacity.
    #[inline]
    pub fn offer(&mut self, n: Neighbor) {
        if self.k == 0 {
            return;
        }
        if self.heap.len() < self.k {
            self.heap.push(n);
        } else if let Some(worst) = self.heap.peek() {
            if n < *worst {
                self.heap.push(n);
                self.heap.pop();
            }
        }
    }

    /// Current pruning threshold: the k-th best distance, or `+∞` while the
    /// heap is not yet full.
    pub fn threshold(&self) -> f64 {
        if self.heap.len() < self.k {
            f64::INFINITY
        } else {
            self.heap.peek().map_or(f64::INFINITY, |n| n.dist)
        }
    }

    /// Number of collected neighbors.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether nothing has been collected.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Re-arms the collector for a new query with bound `k`, keeping the
    /// heap's allocation — the reuse hook for the batch-serving hot loop.
    pub fn reset(&mut self, k: usize) {
        self.k = k;
        self.heap.clear();
    }

    /// Drains the collected neighbors into a fresh exact-size vector sorted
    /// ascending by `(distance, id)`, leaving the collector empty (capacity
    /// intact) for reuse. The only allocation is the returned answer.
    pub fn drain_sorted(&mut self) -> Vec<Neighbor> {
        let mut v = Vec::with_capacity(self.heap.len());
        while let Some(n) = self.heap.pop() {
            v.push(n);
        }
        v.reverse();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(id: u32, d: f64) -> Neighbor {
        Neighbor::new(id, d)
    }

    #[test]
    fn keeps_k_smallest() {
        let mut t = TopK::new(3);
        for x in [n(0, 5.0), n(1, 1.0), n(2, 4.0), n(3, 2.0), n(4, 3.0)] {
            t.offer(x);
        }
        let got = t.drain_sorted();
        assert_eq!(got.iter().map(|x| x.id).collect::<Vec<_>>(), vec![1, 3, 4]);
    }

    #[test]
    fn threshold_tracks_kth() {
        let mut t = TopK::new(2);
        assert_eq!(t.threshold(), f64::INFINITY);
        t.offer(n(0, 7.0));
        assert_eq!(t.threshold(), f64::INFINITY);
        t.offer(n(1, 3.0));
        assert_eq!(t.threshold(), 7.0);
        t.offer(n(2, 1.0));
        assert_eq!(t.threshold(), 3.0);
    }

    #[test]
    fn ties_break_by_id() {
        let mut t = TopK::new(2);
        for x in [n(9, 1.0), n(3, 1.0), n(5, 1.0)] {
            t.offer(x);
        }
        let got = t.drain_sorted();
        assert_eq!(got.iter().map(|x| x.id).collect::<Vec<_>>(), vec![3, 5]);
    }

    #[test]
    fn zero_k_collects_nothing() {
        let mut t = TopK::new(0);
        t.offer(n(1, 1.0));
        assert!(t.is_empty());
        assert!(t.drain_sorted().is_empty());
    }

    #[test]
    fn reset_and_drain_reuse_the_collector() {
        let mut t = TopK::new(2);
        for x in [n(0, 5.0), n(1, 1.0), n(2, 3.0)] {
            t.offer(x);
        }
        let first = t.drain_sorted();
        assert_eq!(first.iter().map(|x| x.id).collect::<Vec<_>>(), vec![1, 2]);
        assert_eq!(first.capacity(), first.len(), "exact-size answer");
        assert!(t.is_empty());
        t.reset(1);
        for x in [n(7, 9.0), n(8, 2.0)] {
            t.offer(x);
        }
        assert_eq!(t.drain_sorted()[0].id, 8);
    }
}
