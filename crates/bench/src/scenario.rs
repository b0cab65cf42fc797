//! The paper's four evaluation datasets, with their metrics and analytic
//! distance bounds (Table 2), at harness scale.

use pmi::datasets;
use pmi::{EditDistance, LInf, L1, L2};

/// One of the paper's datasets.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scenario {
    /// LA: 2-d locations, L2.
    La,
    /// Words: strings, edit distance (discrete).
    Words,
    /// Color: 282-d features, L1.
    Color,
    /// Synthetic: 20-d integer vectors, (discrete) L∞.
    Synthetic,
}

impl Scenario {
    /// All four, in the paper's order.
    pub const ALL: [Scenario; 4] = [
        Scenario::La,
        Scenario::Words,
        Scenario::Color,
        Scenario::Synthetic,
    ];

    /// Display name.
    pub fn label(&self) -> &'static str {
        match self {
            Scenario::La => "LA",
            Scenario::Words => "Words",
            Scenario::Color => "Color",
            Scenario::Synthetic => "Synthetic",
        }
    }

    /// Analytic upper bound on distances (`d⁺`): the domain bound, like the
    /// paper's Table 2 MaxD column.
    pub fn d_plus(&self) -> f64 {
        match self {
            Scenario::La => 14143.0, // √2 · 10⁴
            Scenario::Words => 34.0, // longest word
            Scenario::Color => 510.0 * datasets::COLOR_DIM as f64,
            Scenario::Synthetic => 10000.0,
        }
    }

    /// Whether the metric is discrete (BKT/FQT availability).
    pub fn is_discrete(&self) -> bool {
        matches!(self, Scenario::Words | Scenario::Synthetic)
    }

    /// Default cardinality at harness scale 1.0. Color is scaled down — a
    /// 282-dim L1 distance costs ~140× an LA distance.
    pub fn default_n(&self) -> usize {
        match self {
            Scenario::La => 20_000,
            Scenario::Words => 12_000,
            Scenario::Color => 6_000,
            Scenario::Synthetic => 16_000,
        }
    }

    /// Materializes the dataset at `scale` (multiplies the default n).
    pub fn data(&self, scale: f64, seed: u64) -> ScenarioData {
        let n = ((self.default_n() as f64 * scale) as usize).max(200);
        match self {
            Scenario::La => ScenarioData::Vecs {
                scenario: *self,
                objects: datasets::la(n, seed),
                metric: VecMetric::L2(L2),
            },
            Scenario::Words => ScenarioData::Strs {
                scenario: *self,
                objects: datasets::words(n, seed),
                metric: EditDistance,
            },
            Scenario::Color => ScenarioData::Vecs {
                scenario: *self,
                objects: datasets::color(n, seed),
                metric: VecMetric::L1(L1),
            },
            Scenario::Synthetic => ScenarioData::Vecs {
                scenario: *self,
                objects: datasets::synthetic(n, seed),
                metric: VecMetric::LInf(LInf::discrete()),
            },
        }
    }
}

/// A vector metric chosen per dataset (Table 2's distance column).
#[derive(Clone, Copy, Debug)]
pub enum VecMetric {
    /// Manhattan.
    L1(L1),
    /// Euclidean.
    L2(L2),
    /// Chebyshev (discrete on integer data).
    LInf(LInf),
}

impl pmi::Metric<Vec<f32>> for VecMetric {
    fn dist(&self, a: &Vec<f32>, b: &Vec<f32>) -> f64 {
        match self {
            VecMetric::L1(m) => m.dist(a, b),
            VecMetric::L2(m) => m.dist(a, b),
            VecMetric::LInf(m) => m.dist(a, b),
        }
    }
    fn dist4(&self, a: &Vec<f32>, b: [&Vec<f32>; 4]) -> [f64; 4] {
        match self {
            VecMetric::L1(m) => m.dist4(a, b),
            VecMetric::L2(m) => m.dist4(a, b),
            VecMetric::LInf(m) => m.dist4(a, b),
        }
    }
    fn dist8(&self, a: &Vec<f32>, b: [&Vec<f32>; 8]) -> [f64; 8] {
        match self {
            VecMetric::L1(m) => m.dist8(a, b),
            VecMetric::L2(m) => m.dist8(a, b),
            VecMetric::LInf(m) => m.dist8(a, b),
        }
    }
    fn wide(&self, a: &Vec<f32>) -> bool {
        match self {
            VecMetric::L1(m) => pmi::Metric::<Vec<f32>>::wide(m, a),
            VecMetric::L2(m) => pmi::Metric::<Vec<f32>>::wide(m, a),
            VecMetric::LInf(m) => pmi::Metric::<Vec<f32>>::wide(m, a),
        }
    }
    fn is_discrete(&self) -> bool {
        match self {
            VecMetric::L1(m) => pmi::Metric::<Vec<f32>>::is_discrete(m),
            VecMetric::L2(m) => pmi::Metric::<Vec<f32>>::is_discrete(m),
            VecMetric::LInf(m) => pmi::Metric::<Vec<f32>>::is_discrete(m),
        }
    }
    fn name(&self) -> &'static str {
        match self {
            VecMetric::L1(_) => "L1",
            VecMetric::L2(_) => "L2",
            VecMetric::LInf(_) => "Linf",
        }
    }
}

/// A materialized dataset: either vectors or strings.
pub enum ScenarioData {
    /// Vector data (LA, Color, Synthetic).
    Vecs {
        /// Source scenario.
        scenario: Scenario,
        /// The objects.
        objects: Vec<Vec<f32>>,
        /// Its metric.
        metric: VecMetric,
    },
    /// String data (Words).
    Strs {
        /// Source scenario.
        scenario: Scenario,
        /// The objects.
        objects: Vec<String>,
        /// Its metric.
        metric: EditDistance,
    },
}

impl ScenarioData {
    /// Cardinality.
    pub fn len(&self) -> usize {
        match self {
            ScenarioData::Vecs { objects, .. } => objects.len(),
            ScenarioData::Strs { objects, .. } => objects.len(),
        }
    }

    /// Whether empty (never, in practice).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The scenario this data came from.
    pub fn scenario(&self) -> Scenario {
        match self {
            ScenarioData::Vecs { scenario, .. } => *scenario,
            ScenarioData::Strs { scenario, .. } => *scenario,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenarios_materialize() {
        for s in Scenario::ALL {
            let d = s.data(0.05, 1);
            assert!(d.len() >= 200, "{}", s.label());
            assert_eq!(d.scenario(), s);
            assert!(s.d_plus() > 0.0);
        }
    }

    #[test]
    fn discreteness_matches_metric() {
        use pmi::Metric;
        for s in Scenario::ALL {
            match s.data(0.02, 1) {
                ScenarioData::Vecs { metric, .. } => {
                    assert_eq!(metric.is_discrete(), s.is_discrete(), "{}", s.label());
                }
                ScenarioData::Strs { metric, .. } => {
                    assert_eq!(
                        Metric::<String>::is_discrete(&metric),
                        s.is_discrete(),
                        "{}",
                        s.label()
                    );
                }
            }
        }
    }

    /// Each arm reaches its norm's own `dist8` and `wide`: a missing
    /// forward would keep the bits and lose the register kernel.
    #[test]
    fn vec_metric_forwards_dist8_and_wide() {
        use pmi::metric::{distance::dist8_calls, simd};
        use pmi::Metric;
        let vs: Vec<Vec<f32>> = (0..9).map(|i| vec![i as f32; 9]).collect();
        let b: [&Vec<f32>; 8] = std::array::from_fn(|j| &vs[j + 1]);
        let wide = simd::tier() == pmi::SimdTier::Avx2;
        for m in [
            VecMetric::L1(L1),
            VecMetric::L2(L2),
            VecMetric::LInf(LInf::default()),
        ] {
            let before = dist8_calls();
            let d = m.dist8(&vs[0], b);
            assert_eq!(dist8_calls(), before + 1, "{}", m.name());
            assert_eq!(d.map(f64::to_bits), b.map(|b| m.dist(&vs[0], b).to_bits()));
            assert_eq!(m.wide(&vs[0]), wide, "{}", m.name());
            assert!(!m.wide(&vs[0][..7].to_vec()), "{}", m.name());
        }
    }
}
