//! One entry point to build every index of the paper with consistent
//! parameters — the "equal footing" requirement of §6.1 (same HFI pivots,
//! same page sizes, same defaults).

use pmi_metric::{Metric, MetricIndex, ObjTable, Object, PivotColumns};
use pmi_storage::DiskSim;

/// Every index variant evaluated or surveyed by the paper. All of them
/// fork ([`MetricIndex::fork`]), so a sharded engine over any kind has
/// MVCC readers and crash-safe `apply`; what a fork costs per family is
/// tabled under "Commit cost" in `docs/performance.md`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum IndexKind {
    /// AESA (§3.1) — full n² table; surveyed but excluded from the paper's
    /// experiments ("theoretical index").
    Aesa,
    /// LAESA (§3.1).
    Laesa,
    /// EPT with random pivot groups (§3.2).
    Ept,
    /// EPT* — EPT with PSA pivots (§3.2, Algorithm 1).
    EptStar,
    /// CPT (§3.3).
    Cpt,
    /// BKT (§4.1; discrete metrics only).
    Bkt,
    /// FQT (§4.2; discrete metrics only).
    Fqt,
    /// FQA — Fixed Queries Array (Table 1, ref \[11\]; discrete metrics only).
    Fqa,
    /// VPT (§4.3; MVPT with m = 2).
    Vpt,
    /// MVPT (§4.3; the paper fixes m = 5).
    Mvpt,
    /// PM-tree (§5.1).
    PmTree,
    /// Omni-sequential-file (§5.2).
    OmniSeq,
    /// OmniB+-tree (§5.2).
    OmniBPlus,
    /// OmniR-tree (§5.2).
    OmniR,
    /// M-index (§5.3).
    MIndex,
    /// M-index* — the paper's enhanced M-index (§5.3).
    MIndexStar,
    /// SPB-tree (§5.4).
    Spb,
}

impl IndexKind {
    /// The nine index variants the paper's Figures 16–18 plot.
    pub const FIGURE_SET: [IndexKind; 9] = [
        IndexKind::EptStar,
        IndexKind::Cpt,
        IndexKind::Bkt,
        IndexKind::Fqt,
        IndexKind::Mvpt,
        IndexKind::Spb,
        IndexKind::MIndexStar,
        IndexKind::PmTree,
        IndexKind::OmniR,
    ];

    /// Display name matching the paper's tables.
    pub fn label(&self) -> &'static str {
        match self {
            IndexKind::Aesa => "AESA",
            IndexKind::Laesa => "LAESA",
            IndexKind::Ept => "EPT",
            IndexKind::EptStar => "EPT*",
            IndexKind::Cpt => "CPT",
            IndexKind::Bkt => "BKT",
            IndexKind::Fqt => "FQT",
            IndexKind::Fqa => "FQA",
            IndexKind::Vpt => "VPT",
            IndexKind::Mvpt => "MVPT",
            IndexKind::PmTree => "PM-tree",
            IndexKind::OmniSeq => "Omni-seq",
            IndexKind::OmniBPlus => "OmniB+",
            IndexKind::OmniR => "OmniR-tree",
            IndexKind::MIndex => "M-index",
            IndexKind::MIndexStar => "M-index*",
            IndexKind::Spb => "SPB-tree",
        }
    }

    /// Whether the index only supports discrete distance functions.
    pub fn requires_discrete(&self) -> bool {
        matches!(self, IndexKind::Bkt | IndexKind::Fqt | IndexKind::Fqa)
    }

    /// The fewest shared pivots the index can be built over: two for the
    /// M-index (hyperplane partitioning), one for the kinds that split or
    /// sign on them level by level (FQT, FQA, VPT, MVPT) or index the
    /// mapped space itself (OmniR-tree, SPB-tree), none for the rest.
    pub fn min_pivots(&self) -> usize {
        match self {
            IndexKind::MIndex | IndexKind::MIndexStar => 2,
            IndexKind::Fqt
            | IndexKind::Fqa
            | IndexKind::Vpt
            | IndexKind::Mvpt
            | IndexKind::OmniR
            | IndexKind::Spb => 1,
            _ => 0,
        }
    }

    /// Whether the index stores data on (simulated) disk.
    pub fn is_disk_based(&self) -> bool {
        matches!(
            self,
            IndexKind::Cpt
                | IndexKind::PmTree
                | IndexKind::OmniSeq
                | IndexKind::OmniBPlus
                | IndexKind::OmniR
                | IndexKind::MIndex
                | IndexKind::MIndexStar
                | IndexKind::Spb
        )
    }
}

/// Why an index could not be built.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BuildError {
    /// BKT/FQT need a discrete distance function (paper §4.1).
    RequiresDiscreteMetric(IndexKind),
    /// The kind needs more pivots ([`IndexKind::min_pivots`]) than the
    /// given number.
    NotEnoughPivots(IndexKind, usize),
    /// A sharded engine was requested with `EngineConfig::shards == 0`.
    ZeroShards,
    /// A sharded engine was handed an explicit shard membership that does
    /// not name one existing shard per object; says what it held.
    BadMembership(String),
    /// CPT and the PM-tree store objects inline in M-tree nodes, and a page
    /// of `page` bytes cannot hold the two largest entries a node split
    /// leaves together (`needed` bytes; see `pmi_mtree::page_floor`).
    PageTooSmall {
        /// The kind refused.
        kind: IndexKind,
        /// The inline page size it was given.
        page: usize,
        /// The smallest page its largest object fits.
        needed: usize,
    },
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::RequiresDiscreteMetric(k) => {
                write!(f, "{} requires a discrete distance function", k.label())
            }
            BuildError::NotEnoughPivots(k, n) => {
                write!(f, "{} cannot be built with {n} pivot(s)", k.label())
            }
            BuildError::ZeroShards => {
                write!(f, "a sharded engine requires at least one shard")
            }
            BuildError::BadMembership(why) => write!(f, "bad shard membership: {why}"),
            BuildError::PageTooSmall { kind, page, needed } => write!(
                f,
                "{} needs pages of at least {needed} bytes for its largest object, not {page}",
                kind.label()
            ),
        }
    }
}

impl std::error::Error for BuildError {}

/// Shared construction parameters (paper Table 3 defaults).
#[derive(Clone, Debug)]
pub struct BuildOptions {
    /// Number of pivots `|P|` (default 5).
    pub num_pivots: usize,
    /// Page size for disk-based indexes (default 4 KB).
    pub page_size: usize,
    /// Page size for CPT/PM-tree, which store objects inline (the paper
    /// uses 40 KB on Color and Synthetic).
    pub inline_page_size: usize,
    /// Upper bound on any distance in the space (`d⁺`, Table 2 MaxD).
    pub d_plus: f64,
    /// M-index cluster split threshold (paper: 1,600).
    pub maxnum: usize,
    /// SPB-tree SFC bits per pivot dimension.
    pub sfc_bits: u32,
    /// EPT group size `m`.
    pub ept_m: usize,
    /// EPT μ-sample / EPT* PSA sample size.
    pub ept_sample: usize,
    /// MVPT arity (paper: 5) and leaf capacity.
    pub mvpt_arity: usize,
    /// MVPT leaf capacity.
    pub mvpt_leaf_cap: usize,
    /// BKT/FQT bucket count per node.
    pub buckets: usize,
    /// BKT/FQT leaf capacity.
    pub tree_leaf_cap: usize,
    /// Seed for all randomized components.
    pub seed: u64,
}

impl Default for BuildOptions {
    fn default() -> Self {
        BuildOptions {
            num_pivots: 5,
            page_size: pmi_storage::DEFAULT_PAGE_SIZE,
            inline_page_size: pmi_storage::DEFAULT_PAGE_SIZE,
            d_plus: 1e6,
            maxnum: 1600,
            sfc_bits: 8,
            ept_m: 8,
            ept_sample: 96,
            mvpt_arity: 5,
            mvpt_leaf_cap: 16,
            buckets: 32,
            tree_leaf_cap: 8,
            seed: 42,
        }
    }
}

/// Builds any index over any object type, using pivots selected by the
/// caller (pass the shared HFI set for the paper's setup; EPT/EPT*/BKT
/// ignore it and select their own, §6.1). `objects` is a `Vec<O>` or an
/// [`ObjTable`] (a sharded engine's packed partition): the kinds that keep
/// an object table (BKT / FQT among them) adopt it as it is; the rest
/// (EPT and the disk kinds, which select from or page owned objects) get
/// its objects as a `Vec<O>`.
///
/// # Panics
///
/// If `objects` is a table with a removed slot ([`ObjTable::fresh`]): ids
/// are slots, and every kind numbers its objects `0..n`.
pub fn build_index<O, M>(
    kind: IndexKind,
    objects: impl Into<ObjTable<O>>,
    metric: M,
    pivots: Vec<O>,
    opts: &BuildOptions,
) -> Result<Box<dyn MetricIndex<O>>, BuildError>
where
    O: Object,
    M: Metric<O> + Clone + 'static,
{
    use pmi_external::*;
    use pmi_tables::*;
    use pmi_trees::*;

    let table = ObjTable::fresh(objects);
    if kind.requires_discrete() && !metric.is_discrete() {
        return Err(BuildError::RequiresDiscreteMetric(kind));
    }
    if pivots.len() < kind.min_pivots() {
        return Err(BuildError::NotEnoughPivots(kind, pivots.len()));
    }
    let disk = DiskSim::new(match kind {
        IndexKind::Cpt | IndexKind::PmTree => opts.inline_page_size,
        _ => opts.page_size,
    });
    let ept_cfg = EptConfig {
        l: opts.num_pivots,
        m: opts.ept_m,
        sample: opts.ept_sample,
        seed: opts.seed,
    };
    check_inline_page(kind, &table, &pivots, opts)?;
    let owned = || table.to_vec();
    Ok(match kind {
        IndexKind::Aesa => Box::new(Aesa::build(table, metric)),
        IndexKind::Laesa => Box::new(Laesa::build(table, metric, pivots)),
        IndexKind::Ept => Box::new(Ept::build(owned(), metric, EptMode::Random, ept_cfg)),
        IndexKind::EptStar => Box::new(Ept::build(owned(), metric, EptMode::Psa, ept_cfg)),
        IndexKind::Cpt => Box::new(Cpt::build(table, metric, pivots, disk)),
        IndexKind::Bkt => Box::new(DiscreteTree::bkt(
            table,
            metric,
            DiscreteTreeConfig {
                max_distance: opts.d_plus,
                buckets: opts.buckets,
                leaf_cap: opts.tree_leaf_cap,
                max_depth: 16,
                seed: opts.seed,
            },
        )),
        IndexKind::Fqt => Box::new(DiscreteTree::fqt(
            table,
            metric,
            pivots,
            DiscreteTreeConfig {
                max_distance: opts.d_plus,
                buckets: opts.buckets,
                leaf_cap: opts.tree_leaf_cap,
                max_depth: 16,
                seed: opts.seed,
            },
        )),
        IndexKind::Fqa => Box::new(Fqa::build(
            table,
            metric,
            pivots,
            opts.d_plus,
            opts.buckets as u32,
        )),
        IndexKind::Vpt => Box::new(Mvpt::build(
            table,
            metric,
            pivots,
            MvptConfig {
                arity: 2,
                leaf_cap: opts.mvpt_leaf_cap,
            },
        )),
        IndexKind::Mvpt => Box::new(Mvpt::build(
            table,
            metric,
            pivots,
            MvptConfig {
                arity: opts.mvpt_arity,
                leaf_cap: opts.mvpt_leaf_cap,
            },
        )),
        IndexKind::PmTree => Box::new(PmTree::build(owned(), metric, pivots, disk)),
        IndexKind::OmniSeq => Box::new(OmniSeqFile::build(owned(), metric, pivots, disk)),
        IndexKind::OmniBPlus => {
            Box::new(OmniBPlus::build(owned(), metric, pivots, disk, opts.d_plus))
        }
        IndexKind::OmniR => Box::new(OmniRTree::build(owned(), metric, pivots, disk)),
        IndexKind::MIndex | IndexKind::MIndexStar => Box::new(MIndex::build(
            owned(),
            metric,
            pivots,
            disk,
            MIndexConfig {
                d_plus: opts.d_plus,
                maxnum: opts.maxnum,
                starred: kind == IndexKind::MIndexStar,
            },
        )),
        IndexKind::Spb => Box::new(SpbTree::build(
            owned(),
            metric,
            pivots,
            disk,
            SpbConfig {
                d_plus: opts.d_plus,
                bits: opts.sfc_bits,
            },
        )),
    })
}

/// Refuses CPT and the PM-tree when their inline page cannot hold a node
/// split's two largest entries (their M-tree would overflow a page on the
/// first split of the largest objects); every other kind passes.
fn check_inline_page<O: Object>(
    kind: IndexKind,
    objects: &ObjTable<O>,
    pivots: &[O],
    opts: &BuildOptions,
) -> Result<(), BuildError> {
    let l = match kind {
        IndexKind::Cpt => 0,
        IndexKind::PmTree => pivots.len(),
        _ => return Ok(()),
    };
    let largest = (objects.iter().map(|(_, o)| O::encoded_len_of(o)))
        .chain(pivots.iter().map(|p| p.encoded_len()))
        .max()
        .unwrap_or(0);
    let needed = pmi_mtree::page_floor(l, largest);
    if opts.inline_page_size < needed {
        return Err(BuildError::PageTooSmall {
            kind,
            page: opts.inline_page_size,
            needed,
        });
    }
    Ok(())
}

/// [`build_index`] over pre-computed, stored pivot-distance rows (a
/// shard's codes of the engine's build-time matrix, or any owned
/// [`PivotColumns`]): the kinds that are the one pivot table — LAESA, CPT
/// and FQA — take ownership of `rows` (row `i` = `objects[i]`'s distances
/// to `pivots`, as codes under the rows' step) instead of recomputing the
/// `n · l` table, with byte-identical query behavior, and engine inserts
/// then hand over one row of codes, mapped and quantised once by the
/// engine, which the index appends as it is
/// ([`MetricIndex::insert_adopted`]);
/// a shard's index shows it adopted through [`MetricIndex::pivot_rows`].
/// LAESA and CPT adopt as themselves; FQA adopts as
/// LAESA under FQA's name (`name()` is `"FQA"`, range verification passes
/// the `fqa.dist` fault point), still refusing a continuous metric,
/// because an FQA over stored rows scans them and never reads its
/// signature array. VPT and MVPT build as [`build_index`] does but store
/// their leaf codes under the rows' step, so each equals the code the rows
/// hold for that member. Every other kind — selecting its own pivots
/// (EPT/EPT*, BKT) or deriving another structure from the distances (the
/// Omni family interleaves its tables with its disk layout) — drops the
/// rows and builds exactly as [`build_index`] does. This is the shard
/// factory the facade hands `ShardedEngine::build`.
///
/// # Panics
///
/// As [`build_index`], if `objects` is a table with a removed slot.
pub fn build_index_with_matrix<O, M>(
    kind: IndexKind,
    objects: impl Into<ObjTable<O>>,
    metric: M,
    pivots: Vec<O>,
    opts: &BuildOptions,
    rows: PivotColumns,
) -> Result<Box<dyn MetricIndex<O>>, BuildError>
where
    O: Object,
    M: Metric<O> + Clone + 'static,
{
    use pmi_tables::*;
    use pmi_trees::{Mvpt, MvptConfig};

    let objects = ObjTable::fresh(objects);
    if pivots.len() < kind.min_pivots() {
        // Refused: `build_index` says why.
        return build_index(kind, objects, metric, pivots, opts);
    }
    match kind {
        IndexKind::Laesa => Ok(Box::new(Laesa::build_with_matrix(
            objects, metric, pivots, rows,
        ))),
        IndexKind::Cpt => {
            check_inline_page(kind, &objects, &pivots, opts)?;
            let disk = DiskSim::new(opts.inline_page_size);
            Ok(Box::new(Cpt::build_with_matrix(
                objects, metric, pivots, rows, disk,
            )))
        }
        IndexKind::Fqa => {
            if !metric.is_discrete() {
                return Err(BuildError::RequiresDiscreteMetric(kind));
            }
            Ok(Box::new(Laesa::fqa_with_matrix(
                objects, metric, pivots, rows,
            )))
        }
        IndexKind::Vpt | IndexKind::Mvpt => {
            let cfg = MvptConfig {
                arity: if kind == IndexKind::Vpt {
                    2
                } else {
                    opts.mvpt_arity
                },
                leaf_cap: opts.mvpt_leaf_cap,
            };
            let step = rows.step();
            Ok(Box::new(Mvpt::build_with_step(
                objects, metric, pivots, cfg, step,
            )))
        }
        _ => build_index(kind, objects, metric, pivots, opts),
    }
}

/// Convenience wrapper for vector datasets: selects HFI pivots internally,
/// at most one per object, so a kind that needs more refuses with
/// [`BuildError::NotEnoughPivots`].
pub fn build_vector_index<M>(
    kind: IndexKind,
    objects: Vec<Vec<f32>>,
    metric: M,
    opts: &BuildOptions,
) -> Result<Box<dyn MetricIndex<Vec<f32>>>, BuildError>
where
    M: Metric<Vec<f32>> + Clone + 'static,
{
    let ids = pmi_pivots::select_hfi(
        &objects,
        &metric,
        opts.num_pivots.min(objects.len()),
        opts.seed,
    );
    let pivots = ids.into_iter().map(|i| objects[i].clone()).collect();
    build_index(kind, objects, metric, pivots, opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmi_metric::datasets;
    use pmi_metric::{BruteForce, EncodeObject, LInf, ObjId, L2};

    /// Every kind `build_index` builds.
    const ALL_KINDS: [IndexKind; 17] = [
        IndexKind::Aesa,
        IndexKind::Laesa,
        IndexKind::Ept,
        IndexKind::EptStar,
        IndexKind::Cpt,
        IndexKind::Bkt,
        IndexKind::Fqt,
        IndexKind::Fqa,
        IndexKind::Vpt,
        IndexKind::Mvpt,
        IndexKind::PmTree,
        IndexKind::OmniSeq,
        IndexKind::OmniBPlus,
        IndexKind::OmniR,
        IndexKind::MIndex,
        IndexKind::MIndexStar,
        IndexKind::Spb,
    ];

    /// 3-d integer points, a third of them one repeated point: an M-tree
    /// leaf full of copies of the object it promotes twice, whose
    /// hyperplane split used to put every entry on one side and overflow
    /// the page (1 083 > 1 024 bytes) with `page_size = 512` and
    /// `inline_page_size = 1024`.
    #[test]
    fn a_pm_tree_over_duplicates_splits_within_its_inline_page() {
        let mut pts: Vec<Vec<f32>> = (0..125)
            .map(|i| vec![(i % 5) as f32, (i / 5 % 5) as f32, (i / 25) as f32])
            .collect();
        pts.extend(std::iter::repeat_n(vec![1.0f32, 1.0, 1.0], 60));
        let opts = BuildOptions {
            page_size: 512,
            inline_page_size: 1024,
            d_plus: 10.0,
            ..BuildOptions::default()
        };
        let idx = build_vector_index(IndexKind::PmTree, pts.clone(), L2, &opts).unwrap();
        let oracle = BruteForce::new(pts.clone(), L2);
        for q in pts.iter().step_by(7) {
            let mut got = idx.range_query(q, 1.5);
            got.sort_unstable();
            let mut want = oracle.range_query(q, 1.5);
            want.sort_unstable();
            assert_eq!(got, want);
        }
    }

    /// A page that cannot hold two of the largest entries is refused
    /// before anything is built: 282-d Color vectors (1 132 B encoded) on
    /// 1 KB inline pages, for the PM-tree and for CPT.
    #[test]
    fn an_inline_page_too_small_for_the_objects_is_a_build_error() {
        let pts = datasets::color(50, 3);
        let opts = BuildOptions {
            page_size: 512,
            inline_page_size: 1024,
            ..BuildOptions::default()
        };
        for kind in [IndexKind::PmTree, IndexKind::Cpt] {
            let l = if kind == IndexKind::Cpt { 0 } else { 5 };
            let needed = pmi_mtree::page_floor(l, 4 + 4 * 282);
            let err = build_vector_index(kind, pts.clone(), L2, &opts).err();
            assert_eq!(
                err,
                Some(BuildError::PageTooSmall {
                    kind,
                    page: 1024,
                    needed
                })
            );
        }
        let roomy = BuildOptions {
            inline_page_size: pmi_mtree::page_floor(5, 4 + 4 * 282),
            ..opts
        };
        assert!(build_vector_index(IndexKind::PmTree, pts, L2, &roomy).is_ok());
    }

    /// Ids are slots, so no kind builds over a table with a removed slot:
    /// `build_index` and `build_index_with_matrix` refuse it for every kind
    /// alike (a kind that pages or re-selects its objects would otherwise
    /// renumber them, and a table kind would misalign its rows).
    #[test]
    fn a_table_with_a_removed_slot_is_refused_by_every_kind() {
        use pmi_metric::EditDistance;
        use std::panic::{catch_unwind, AssertUnwindSafe};

        let words = datasets::words(40, 3);
        let pivots = words[..3].to_vec();
        let mut table = ObjTable::new(words);
        assert!(table.remove(7));
        let rows = PivotColumns::from(&pmi_metric::PivotMatrix::compute(
            &table.to_vec(),
            &EditDistance,
            &pivots,
            1,
        ));
        let opts = BuildOptions::default();
        let refused = |build: &dyn Fn() -> Result<Box<dyn MetricIndex<String>>, BuildError>| {
            let payload = catch_unwind(AssertUnwindSafe(build)).err()?;
            payload.downcast_ref::<String>().cloned()
        };
        let want = "an index is built over a table with no removed slots (39 of 40 live)";
        for kind in ALL_KINDS {
            let label = kind.label();
            let standalone =
                refused(&|| build_index(kind, table.clone(), EditDistance, pivots.clone(), &opts));
            assert_eq!(standalone.as_deref(), Some(want), "{label} build_index");
            let adopted = refused(&|| {
                let (t, p) = (table.clone(), pivots.clone());
                build_index_with_matrix(kind, t, EditDistance, p, &opts, rows.clone())
            });
            assert_eq!(
                adopted.as_deref(),
                Some(want),
                "{label} build_index_with_matrix"
            );
        }
    }

    #[test]
    fn builds_every_continuous_index() {
        let pts = datasets::la(150, 7);
        let opts = BuildOptions {
            d_plus: 14143.0,
            maxnum: 32,
            ..BuildOptions::default()
        };
        for kind in [
            IndexKind::Aesa,
            IndexKind::Laesa,
            IndexKind::Ept,
            IndexKind::EptStar,
            IndexKind::Cpt,
            IndexKind::Vpt,
            IndexKind::Mvpt,
            IndexKind::PmTree,
            IndexKind::OmniSeq,
            IndexKind::OmniBPlus,
            IndexKind::OmniR,
            IndexKind::MIndex,
            IndexKind::MIndexStar,
            IndexKind::Spb,
        ] {
            let idx = build_vector_index(kind, pts.clone(), L2, &opts).unwrap();
            assert_eq!(idx.len(), 150, "{}", kind.label());
            assert_eq!(idx.name(), kind.label());
        }
    }

    #[test]
    fn discrete_only_indexes_reject_continuous_metrics() {
        let pts = datasets::la(60, 7);
        let err = build_vector_index(IndexKind::Bkt, pts, L2, &BuildOptions::default());
        assert!(matches!(
            err,
            Err(BuildError::RequiresDiscreteMetric(IndexKind::Bkt))
        ));
    }

    #[test]
    fn discrete_indexes_build_on_synthetic() {
        let pts = datasets::synthetic(200, 7);
        let opts = BuildOptions {
            d_plus: 10000.0,
            ..BuildOptions::default()
        };
        for kind in [IndexKind::Bkt, IndexKind::Fqt] {
            let idx = build_vector_index(kind, pts.clone(), LInf::discrete(), &opts).unwrap();
            let oracle = BruteForce::new(pts.clone(), LInf::discrete());
            let mut got = idx.range_query(&pts[0], 1500.0);
            got.sort();
            let mut want = oracle.range_query(&pts[0], 1500.0);
            want.sort();
            assert_eq!(got, want, "{}", kind.label());
        }
    }

    /// The engine builds every FQA shard as the pivot table under FQA's
    /// name, whatever the rows' step: at scale 10 the distances pass
    /// 65 535, the step is 2, and the rows are adopted all the same. No
    /// build distance is paid, and every remove finds its object.
    #[test]
    fn fqa_adopts_rows_at_any_step() {
        use pmi_metric::PivotMatrix;
        let m = LInf::discrete();
        for scale in [1.0f32, 10.0] {
            let pts: Vec<Vec<f32>> = datasets::synthetic(120, 7)
                .into_iter()
                .map(|p| p.into_iter().map(|x| x * scale).collect())
                .collect();
            let pivots = vec![pts[0].clone(), pts[1].clone()];
            let rows = PivotColumns::from(&PivotMatrix::compute(&pts, &m, &pivots, 1));
            assert_eq!(rows.step() <= 1.0, scale == 1.0, "scale={scale}");
            let opts = BuildOptions {
                d_plus: 10_000.0 * f64::from(scale),
                ..BuildOptions::default()
            };
            let mut idx =
                build_index_with_matrix(IndexKind::Fqa, pts, m, pivots, &opts, rows).unwrap();
            assert_eq!(idx.name(), "FQA");
            assert!(idx.pivot_rows().is_some(), "scale={scale}");
            assert_eq!(idx.counters().compdists, 0, "scale={scale}");
            assert!((0..120).all(|id| idx.remove(id)), "scale={scale}");
            assert!(idx.is_empty());
        }
    }

    /// An engine FQA shard counts what its queries read: the columns, the
    /// objects and the pivots — LAESA's formula on the same rows, not a
    /// signature array no query reads.
    #[test]
    fn fqa_storage_counts_the_columns_it_scans() {
        use pmi_metric::PivotMatrix;
        let m = LInf::discrete();
        let pts = datasets::synthetic(150, 7);
        let pivots: Vec<Vec<f32>> = pts[..3].to_vec();
        let rows = PivotColumns::from(&PivotMatrix::compute(&pts, &m, &pivots, 1));
        let opts = BuildOptions {
            d_plus: 10_000.0,
            ..BuildOptions::default()
        };
        let bytes = |o: &Vec<f32>| o.encoded_len() as u64;
        let want = rows.mem_bytes()
            + pts.iter().map(bytes).sum::<u64>()
            + pivots.iter().map(bytes).sum::<u64>();
        let build = |kind| {
            let (pts, pivots, rows) = (pts.clone(), pivots.clone(), rows.clone());
            build_index_with_matrix(kind, pts, m, pivots, &opts, rows).unwrap()
        };
        let fqa = build(IndexKind::Fqa);
        assert_eq!(fqa.storage().mem_bytes, want);
        assert_eq!(fqa.storage(), build(IndexKind::Laesa).storage());
    }

    /// An engine FQA insert farther from a pivot than the columns' top
    /// bucket is stored saturated; it is still answered exactly and
    /// removable.
    #[test]
    fn an_fqa_insert_beyond_the_top_bucket_is_exact_and_removable() {
        use pmi_metric::matrix::quantise;
        use pmi_metric::{EditDistance, PivotMatrix};
        // Short words only at build: distances to the pivot stay under 16,
        // so the columns' step is 2⁻¹² and their top bucket starts at 16.
        let ws: Vec<String> = datasets::words(400, 17)
            .into_iter()
            .filter(|w| w.len() <= 8)
            .collect();
        let pivots = vec![ws[0].clone()];
        let rows = PivotColumns::from(&PivotMatrix::compute(&ws, &EditDistance, &pivots, 1));
        let step = rows.step();
        assert!(65_535.0 * step < 17.0);
        let opts = BuildOptions {
            d_plus: 34.0,
            ..BuildOptions::default()
        };
        let (m, n) = (EditDistance, ws.len() as ObjId);
        let mut idx =
            build_index_with_matrix(IndexKind::Fqa, ws.clone(), m, pivots.clone(), &opts, rows)
                .unwrap();
        let queries: Vec<String> = ws.iter().step_by(40).cloned().collect();
        let mut oracle = BruteForce::new(ws, m);
        // Two long words, 20 and 30 edits from the pivot: both stored
        // saturated, under one code.
        let long: Vec<String> = [20, 30].iter().map(|&n| "z".repeat(n)).collect();
        for w in &long {
            let codes = [quantise(m.dist(w, &pivots[0]), step)];
            let id = idx.insert_adopted(w, &codes);
            assert_eq!(id, oracle.insert(w.clone()));
        }
        let stored = |id| idx.pivot_rows().unwrap().codes(id as usize).next();
        assert_eq!(stored(n), Some(u16::MAX));
        assert_eq!(stored(n + 1), Some(u16::MAX));
        let same = |idx: &dyn MetricIndex<String>, oracle: &BruteForce<String, _>, q| {
            for r in [0.0, 3.0, 12.0, 30.0] {
                let (mut got, mut want) = (idx.range_query(q, r), oracle.range_query(q, r));
                got.sort_unstable();
                want.sort_unstable();
                assert_eq!(got, want, "q={q} r={r}");
            }
            assert_eq!(idx.knn_query(q, 5), oracle.knn_query(q, 5), "q={q}");
        };
        for q in long.iter().chain(&queries) {
            same(idx.as_ref(), &oracle, q);
        }
        assert!(idx.remove(n + 1) && idx.remove(n) && !idx.remove(n));
        assert!(oracle.remove(n + 1) && oracle.remove(n));
        for q in long.iter().chain(&queries) {
            same(idx.as_ref(), &oracle, q);
        }
    }

    #[test]
    fn mindex_needs_two_pivots() {
        let pts = datasets::la(60, 7);
        let opts = BuildOptions {
            num_pivots: 1,
            d_plus: 14143.0,
            ..BuildOptions::default()
        };
        let err = build_vector_index(IndexKind::MIndexStar, pts, L2, &opts);
        assert!(matches!(err, Err(BuildError::NotEnoughPivots(_, 1))));
    }

    /// Every kind over no pivots, on a continuous and a discrete space,
    /// standalone and behind the routed engine, and over fewer objects
    /// (0, 1, 3) than the default 5 pivots through both vector builders:
    /// built, or refused with an error — never a panic. The kinds that
    /// split or sign on the shared pivots refuse with `NotEnoughPivots`.
    #[test]
    fn zero_pivots_build_or_refuse_and_never_panic() {
        use crate::serve::{build_sharded_engine, build_sharded_vector_engine, PartitionPolicy};
        use pmi_engine::EngineConfig;
        use pmi_metric::EditDistance;
        use std::panic::{catch_unwind, AssertUnwindSafe};

        let pts = datasets::la(120, 7);
        let words = datasets::words(120, 7);
        let opts = BuildOptions {
            num_pivots: 0,
            d_plus: 14143.0,
            maxnum: 32,
            ..BuildOptions::default()
        };
        let cfg = EngineConfig {
            shards: 3,
            threads: 1,
            ..EngineConfig::default()
        };
        // The default 5 pivots, over fewer objects than that.
        let few = BuildOptions {
            d_plus: 14143.0,
            maxnum: 32,
            ..BuildOptions::default()
        };
        let refused = |kind: IndexKind, err: &BuildError, pivots: usize, ctx: &str| {
            if kind.min_pivots() > pivots && !kind.requires_discrete() {
                assert_eq!(*err, BuildError::NotEnoughPivots(kind, pivots), "{ctx}");
            }
        };
        for kind in ALL_KINDS {
            let label = kind.label();
            let built = catch_unwind(AssertUnwindSafe(|| {
                build_index(kind, pts.clone(), L2, Vec::new(), &opts).map(|_| ())
            }));
            let ctx = format!("{label} LA standalone");
            match built.unwrap_or_else(|_| panic!("{ctx} panicked")) {
                Ok(()) => assert_eq!(kind.min_pivots(), 0, "{ctx}"),
                Err(e) => refused(kind, &e, 0, &ctx),
            }
            let built = catch_unwind(AssertUnwindSafe(|| {
                build_index(kind, words.clone(), EditDistance, Vec::new(), &opts).map(|_| ())
            }));
            let ctx = format!("{label} Words standalone");
            match built.unwrap_or_else(|_| panic!("{ctx} panicked")) {
                Ok(()) => assert_eq!(kind.min_pivots(), 0, "{ctx}"),
                Err(e) => assert_eq!(e, BuildError::NotEnoughPivots(kind, 0), "{ctx}"),
            }
            let policy = PartitionPolicy::PivotSpace;
            let built = catch_unwind(AssertUnwindSafe(|| {
                build_sharded_vector_engine(kind, pts.clone(), L2, &opts, &cfg, policy).map(|_| ())
            }));
            let ctx = format!("{label} LA engine");
            if let Err(e) = built.unwrap_or_else(|_| panic!("{ctx} panicked")) {
                refused(kind, &e, 0, &ctx);
            }
            let built = catch_unwind(AssertUnwindSafe(|| {
                let (w, m) = (words.clone(), EditDistance);
                build_sharded_engine(kind, w, m, Vec::new(), &opts, &cfg, policy).map(|_| ())
            }));
            let ctx = format!("{label} Words engine");
            if let Err(e) = built.unwrap_or_else(|_| panic!("{ctx} panicked")) {
                assert_eq!(e, BuildError::NotEnoughPivots(kind, 0), "{ctx}");
            }
            // At most one pivot per object is selected; a built index
            // answers a range beyond every LA distance with all n objects.
            for n in [0, 1, 3] {
                let (small, pivots) = (pts[..n].to_vec(), n.min(few.num_pivots));
                let built = catch_unwind(AssertUnwindSafe(|| {
                    let idx = build_vector_index(kind, small.clone(), L2, &few)?;
                    Ok(idx.range_query(&pts[0], 20_000.0).len())
                }));
                let ctx = format!("{label} LA n={n} standalone");
                match built.unwrap_or_else(|_| panic!("{ctx} panicked")) {
                    Ok(all) => assert_eq!((all, kind.min_pivots() <= pivots), (n, true), "{ctx}"),
                    Err(e) => refused(kind, &e, pivots, &ctx),
                }
                let built = catch_unwind(AssertUnwindSafe(|| {
                    let e =
                        build_sharded_vector_engine(kind, small.clone(), L2, &few, &cfg, policy)?;
                    Ok(e.range_query(&pts[0], 20_000.0).len())
                }));
                let ctx = format!("{label} LA n={n} engine");
                match built.unwrap_or_else(|_| panic!("{ctx} panicked")) {
                    Ok(all) => assert_eq!(all, n, "{ctx}"),
                    Err(e) => refused(kind, &e, pivots, &ctx),
                }
            }
        }
    }

    #[test]
    fn figure_set_is_the_papers_nine() {
        let labels: Vec<&str> = IndexKind::FIGURE_SET.iter().map(|k| k.label()).collect();
        assert_eq!(
            labels,
            vec![
                "EPT*",
                "CPT",
                "BKT",
                "FQT",
                "MVPT",
                "SPB-tree",
                "M-index*",
                "PM-tree",
                "OmniR-tree"
            ]
        );
    }
}
