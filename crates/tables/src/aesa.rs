//! AESA (paper §3.1): the full `n × n` distance table.
//!
//! AESA pre-computes *every* pairwise distance, which makes each already-
//! verified object usable as a pivot during search — queries typically need
//! only a handful of distance computations. Its `O(n²)` storage is why the
//! paper calls it "a theoretical metric index"; it is implemented here for
//! completeness and as a strong lower bound on query compdists.

use pmi_metric::{
    Counters, CountingMetric, KnnBest, Metric, MetricIndex, Neighbor, ObjId, ObjTable, Object,
    QueryScratch, StorageFootprint,
};
use std::borrow::Cow;

/// AESA over a triangular distance matrix.
///
/// Cloning — the [`MetricIndex::fork`] — copies the whole `O(n²)` matrix
/// (the object table's chunks and the distance counter are shared); an
/// AESA insert is `O(n)` distances already and no workload commits to it.
#[derive(Clone)]
pub struct Aesa<O: Object, M> {
    metric: CountingMetric<M>,
    /// Lower-triangular matrix: `tri[i][j]` = d(i, j) for j < i. Rows are
    /// kept for tombstoned slots so surviving indexes stay valid.
    tri: Vec<Vec<f64>>,
    table: ObjTable<O>,
}

impl<O, M> Aesa<O, M>
where
    O: Object,
    M: Metric<O>,
{
    /// Builds the full distance table: `n(n−1)/2` distance computations.
    pub fn build(objects: impl Into<ObjTable<O>>, metric: M) -> Self {
        let table = ObjTable::fresh(objects);
        let metric = CountingMetric::new(metric);
        let tri = table
            .iter()
            .map(|(i, o)| {
                table
                    .iter()
                    .take(i as usize)
                    .map(|(_, p)| metric.dist(o, p))
                    .collect()
            })
            .collect();
        Aesa { metric, tri, table }
    }

    #[inline]
    fn pair(&self, a: usize, b: usize) -> f64 {
        match a.cmp(&b) {
            std::cmp::Ordering::Greater => self.tri[a][b],
            std::cmp::Ordering::Less => self.tri[b][a],
            std::cmp::Ordering::Equal => 0.0,
        }
    }

    /// Successive elimination: repeatedly verify the live object with the
    /// smallest lower bound, then tighten every other bound through the
    /// verified object's matrix row. `on_verified` takes each verified
    /// object's distance and returns the radius to prune with from then on.
    fn search<F: FnMut(ObjId, f64) -> f64>(&self, q: &O, mut radius: f64, mut on_verified: F) {
        let n = self.tri.len();
        let mut lb = vec![0.0f64; n];
        let mut state = vec![0u8; n]; // 0 = alive, 1 = computed, 2 = pruned
        for (i, st) in state.iter_mut().enumerate() {
            if self.table.get(i as ObjId).is_none() {
                *st = 2;
            }
        }
        loop {
            let mut pick = None;
            let mut best = f64::INFINITY;
            for i in 0..n {
                if state[i] == 0 && lb[i] < best {
                    best = lb[i];
                    pick = Some(i);
                }
            }
            let Some(s) = pick else { break };
            if best > radius {
                break; // every remaining candidate is pruned
            }
            state[s] = 1;
            let d = self
                .metric
                .dist(q, self.table.get(s as ObjId).expect("live"));
            radius = on_verified(s as ObjId, d);
            for i in 0..n {
                if state[i] == 0 {
                    lb[i] = lb[i].max((d - self.pair(s, i)).abs());
                    if lb[i] > radius {
                        state[i] = 2;
                    }
                }
            }
        }
    }
}

impl<O, M> MetricIndex<O> for Aesa<O, M>
where
    O: Object,
    M: Metric<O> + Clone + 'static,
{
    fn name(&self) -> &str {
        "AESA"
    }

    fn fork(&self) -> Box<dyn MetricIndex<O>> {
        Box::new(self.clone())
    }

    fn len(&self) -> usize {
        self.table.len()
    }

    fn range_query_into(&self, q: &O, r: f64, _scratch: &mut QueryScratch, out: &mut Vec<ObjId>) {
        self.search(q, r, |id, d| {
            if d <= r {
                out.push(id);
            }
            r
        });
    }

    fn knn_query_into_seeded(
        &self,
        q: &O,
        k: usize,
        seed: f64,
        scratch: &mut QueryScratch,
        out: &mut Vec<Neighbor>,
    ) {
        if k == 0 {
            return;
        }
        // Elimination starts from the seed instead of from ∞.
        let mut best = KnnBest::new(&mut scratch.heap, k, seed);
        self.search(q, seed, |id, d| {
            best.offer(id, d);
            best.radius()
        });
        best.finish(out);
    }

    fn insert(&mut self, o: O) -> ObjId {
        // O(n) distance computations: the price of the full table.
        let row: Vec<f64> = (0..self.tri.len())
            .map(|j| match self.table.get(j as ObjId) {
                Some(other) => self.metric.dist(&o, other),
                None => f64::INFINITY, // dead column, never consulted
            })
            .collect();
        let id = self.table.push(&o);
        debug_assert_eq!(id as usize, self.tri.len());
        self.tri.push(row);
        id
    }

    fn remove(&mut self, id: ObjId) -> bool {
        self.table.remove(id)
    }

    fn object(&self, id: ObjId) -> Option<Cow<'_, O::Target>> {
        self.table.get(id).map(Cow::Borrowed)
    }

    fn storage(&self) -> StorageFootprint {
        let tri: u64 = self.tri.iter().map(|r| 8 * r.len() as u64).sum();
        StorageFootprint::mem(tri + self.table.encoded_bytes())
    }

    fn counters(&self) -> Counters {
        Counters {
            compdists: self.metric.count(),
            ..Counters::default()
        }
    }

    fn reset_counters(&self) {
        self.metric.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmi_metric::datasets;
    use pmi_metric::{BruteForce, L2};

    #[test]
    fn matches_brute_force() {
        let pts = datasets::la(250, 9);
        let idx = Aesa::build(pts.clone(), L2);
        let oracle = BruteForce::new(pts.clone(), L2);
        for qi in [0usize, 100, 249] {
            let mut got = idx.range_query(&pts[qi], 1000.0);
            got.sort();
            let mut want = oracle.range_query(&pts[qi], 1000.0);
            want.sort();
            assert_eq!(got, want);
            let gk = idx.knn_query(&pts[qi], 7);
            let wk = oracle.knn_query(&pts[qi], 7);
            for (g, w) in gk.iter().zip(&wk) {
                assert!((g.dist - w.dist).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn query_needs_very_few_distances() {
        let pts = datasets::la(500, 2);
        let idx = Aesa::build(pts.clone(), L2);
        idx.reset_counters();
        let _ = idx.knn_query(&pts[123], 1);
        let cd = idx.counters().compdists;
        // AESA's raison d'être: nearly constant distance computations.
        assert!(
            cd < 50,
            "AESA used {cd} compdists for 1-NN over 500 objects"
        );
    }

    #[test]
    fn construction_cost_is_quadratic() {
        let pts = datasets::la(100, 2);
        let idx = Aesa::build(pts, L2);
        assert_eq!(idx.counters().compdists, 100 * 99 / 2);
    }

    #[test]
    fn update_cycle() {
        let pts = datasets::la(120, 4);
        let mut idx = Aesa::build(pts.clone(), L2);
        let o = idx.get(5).unwrap();
        assert!(idx.remove(5));
        assert_eq!(idx.len(), 119);
        let got = idx.range_query(&pts[5], 1.0);
        assert!(!got.contains(&5));
        let nid = idx.insert(o);
        assert!(idx.range_query(&pts[5], 0.0).contains(&nid));
        // kNN still exact after updates.
        let oracle = BruteForce::new(pts.clone(), L2);
        let gk = idx.knn_query(&pts[60], 5);
        let wk = oracle.knn_query(&pts[60], 5);
        for (g, w) in gk.iter().zip(&wk) {
            assert!((g.dist - w.dist).abs() < 1e-9);
        }
    }
}
