//! The one constructor: the [`Layout`] it builds over and everything it
//! derives from the layout's pivot space — the rows, the membership, each
//! shard's own stored columns and the routing boxes read off them — before
//! it indexes the partitions. Its phases are laps of one clock:
//! `build.pack` (the objects into one arena), `build.matrix` (the rows,
//! mapped a block at a time into their codes and their one step),
//! `build.partition`,
//! `build.split` (the objects dealt into the shards' tables, the columns,
//! the routing table) and `build.shards`, all inside `build`.
//! A child of the `engine` module, so it fills the engine's private state
//! directly.

use super::{
    resolve_threads, EngineConfig, EngineCore, EngineError, EngineSnapshot, Locator, ObsClock,
    ShardedEngine,
};
use crate::report::{BuildStats, UpdateStats};
use crate::robust::{QuarantineState, ServeBudget};
use crate::shard::{members_by_assignment, Partition, Shard};
use pmi_metric::matrix::code_rows;
use pmi_metric::parallel::claim_each;
use pmi_metric::{MetricIndex, ObjId, ObjTable, Object, PivotColumns};
use pmi_obs::{Hist, Registry, TracePolicy};
use pmi_router::{Mapper, RoutingTable};
use std::borrow::Cow;
use std::sync::atomic::AtomicU64;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One partition awaiting its index, plus its members' stored pivot rows.
type MatrixPart<O> = (Partition<O>, PivotColumns);

/// What [`ShardedEngine::build`] builds over: the engine's pivot space —
/// its mapper and width — and optionally an explicit membership.
pub struct Layout<'a, O: Object> {
    mapper: Mapper<O>,
    width: usize,
    membership: Option<&'a [usize]>,
}

impl<'a, O: Object> Layout<'a, O> {
    /// The zero-width pivot space: the engine computes no distance of its
    /// own, the partitioner cuts balanced contiguous runs, every routing
    /// box bounds nothing so every query probes every shard, and
    /// the shard factory receives zero-width rows — for kinds that would
    /// read no row of a pivot space.
    pub fn plain() -> Self {
        Layout::mapped(0, |_: &O::Target, _: &mut Vec<f64>| {})
    }

    /// A pivot space: `mapper` appends `(d(o, p_1), …, d(o, p_width))` to
    /// its buffer — exactly `width` values — for an object's view, and the
    /// engine partitions by it, routes queries and inserts through it, and
    /// gives every shard its members' rows.
    pub fn mapped(
        width: usize,
        mapper: impl Fn(&O::Target, &mut Vec<f64>) + Send + Sync + 'static,
    ) -> Self {
        Layout {
            mapper: Arc::new(mapper),
            width,
            membership: None,
        }
    }

    /// Places object `i` in shard `membership[i]` instead of partitioning:
    /// reproduces another engine's final membership for a parity rebuild or
    /// a migration (the boxes are derived from the members' rows). The
    /// build checks that there is one entry per object, each below
    /// [`EngineConfig::resolved_shards`].
    pub fn with_membership(mut self, membership: &'a [usize]) -> Self {
        self.membership = Some(membership);
        self
    }
}

impl<O: Object> ShardedEngine<O> {
    /// Builds an engine over `objects`, laid out per `layout`, handing each
    /// partition to `factory`, which returns the shard's index (the `pmi`
    /// facade passes `builder::build_index_with_matrix` here). This is the
    /// one constructor; everything an engine derives from its pivot space
    /// is derived here:
    ///
    /// 0. the objects, packed into one [`ObjTable`] arena first, each
    ///    input object dropped as soon as it is copied, so the build never
    ///    holds the input vector's allocations beside the rows;
    /// 1. the rows — row `i` is the mapper's image of object `i`'s view,
    ///    computed once, in parallel over `cfg.threads` — stored as they
    ///    are mapped ([`code_rows`]): each worker maps its rows a block at
    ///    a time into a buffer of its own and codes them, so the build
    ///    holds row-major u16 bucket codes under one step (that of the
    ///    largest distance, which the routing table gets too, and which
    ///    every later insert, fork and compaction keeps) and never the
    ///    f64 matrix;
    /// 2. the membership — [`pmi_router::partition_pivot_space`]'s
    ///    balanced median cuts of those codes (the call a re-cluster and
    ///    [`compact`](Self::compact) repeat over the live members' codes;
    ///    balanced contiguous runs over a zero-width space), or the
    ///    layout's explicit one;
    /// 3. each shard's objects, dealt in one pass in id order into a table
    ///    of its own (each chunk of the packed table released once
    ///    copied), and its rows as its own planar u16 bucket columns
    ///    ([`PivotColumns`]), gathered from the codes shard by shard on the
    ///    build's workers — the only form any shard, index or snapshot
    ///    holds them in;
    /// 4. the [`RoutingTable`], read off those columns
    ///    ([`RoutingTable::from_columns`]): one box per shard over what it
    ///    stores of its members' rows, and the mapper, which queries and
    ///    inserts map through.
    ///
    /// The factory receives `(shard_number, partition, rows)` — the
    /// partition as an [`ObjTable`] — and must keep its slot order, so that
    /// local id `i` is the partition's slot `i` (every index in this
    /// workspace does). An
    /// index whose [`MetricIndex::pivot_rows`] have the engine's width must
    /// have been built from those rows or from the same mapping; rows of
    /// another width are the index's own, and its shard keeps the engine's
    /// beside it. Shard builds run in parallel,
    /// up to `cfg.threads` workers with the caller one of them, each taking
    /// the next shard in shard order ([`claim_each`]) — the paper's §6.2
    /// observation that per-object pivot distances parallelize trivially.
    /// A factory's panic reaches the caller with its own payload, after
    /// every other shard build has returned.
    ///
    /// [`BuildStats`] record the exact cost: `n · l` for the rows plus
    /// every shard's own construction compdists, and the whole wall.
    ///
    /// # Panics
    ///
    /// If the mapper appends other than `width` values for some object.
    pub fn build<E, F>(
        objects: Vec<O>,
        layout: Layout<'_, O>,
        cfg: &EngineConfig,
        factory: F,
    ) -> Result<Self, EngineError<E>>
    where
        E: Send,
        F: Fn(usize, ObjTable<O>, PivotColumns) -> Result<Box<dyn MetricIndex<O>>, E> + Sync,
    {
        if cfg.shards == 0 {
            return Err(EngineError::ZeroShards);
        }
        let t0 = Instant::now();
        let n = objects.len();
        let num_shards = cfg.resolved_shards(n);
        let Layout {
            mapper,
            width,
            membership,
        } = layout;
        if let Some(m) = membership {
            if m.len() != n {
                return Err(EngineError::BadMembership(format!(
                    "{} entries for {n} objects",
                    m.len()
                )));
            }
            if let Some((i, s)) = m.iter().enumerate().find(|&(_, &s)| s >= num_shards) {
                return Err(EngineError::BadMembership(format!(
                    "entry {i} names shard {s} of {num_shards}"
                )));
            }
        }
        let threads = resolve_threads(cfg.threads);
        let obs = Registry::new();
        // One clock pair per phase and per shard build.
        let mut clock = ObsClock::start(true);

        // The objects, packed before the rows exist: each input object is
        // dropped once copied, so its allocation is gone before the codes
        // are allocated.
        let objects = ObjTable::new(objects);
        obs.phase_add("build.pack", 1, clock.lap(), &[]);
        // The pivot space: row `i` is the map of object `i`, stored under
        // the one step every shard's columns and the routing table get —
        // from here on a row is its codes.
        let (codes, step) = code_rows(n, width, threads, |run, slots| {
            let mut row = Vec::with_capacity(width);
            for (i, slot) in run.zip(slots.chunks_mut(width.max(1))) {
                row.clear();
                let o = objects.get(i as ObjId).expect("a packed input is all live");
                mapper(o, &mut row);
                slot.copy_from_slice(&row);
            }
        });
        let matrix_compdists = (n * width) as u64;
        obs.phase_add(
            "build.matrix",
            1,
            clock.lap(),
            &[("compdists", matrix_compdists)],
        );

        let membership: Cow<[usize]> = match membership {
            Some(m) => m.into(),
            None => {
                let cells = pmi_router::partition_pivot_space(&codes, n, num_shards, threads);
                let shards = [("shards", num_shards as u64)];
                obs.phase_add("build.partition", 1, clock.lap(), &shards);
                cells.into()
            }
        };

        // The split: the objects are dealt into the partitions' tables in
        // one pass in id order, every partition gathers its members' codes
        // into columns of its own — shard by shard on the workers — the
        // routing table is read off those columns, and the row-major codes
        // are dropped, so the two coexist only here: before a single shard
        // index, locator or id table exists.
        let members = members_by_assignment(&membership, num_shards);
        let tables = objects.split(&membership, num_shards);
        drop(membership);
        let parts: Vec<_> = members.into_iter().zip(tables).collect();
        let split = claim_each(parts, threads, |(gids, table)| {
            let row = |g: ObjId| &codes[g as usize * width..][..width];
            let rows = PivotColumns::from_codes(width, step, gids.iter().map(|&g| row(g)));
            ((table, gids), rows)
        });
        drop(codes);
        let columns: Vec<PivotColumns> = split.iter().map(|(_, rows)| rows.clone()).collect();
        let router = RoutingTable::from_columns(mapper, step, &columns);
        drop(columns);
        obs.phase_add("build.split", 1, clock.lap(), &[]);
        let parts: Vec<MatrixPart<O>> = split;

        // Shards in shard order, each built by the next free worker. The
        // factory gets a clone of the shard's rows (shared storage); the
        // shard keeps the original only if the index did not take it. Each
        // build returns its own wall for `build.shard_wall`.
        let built = claim_each(
            parts.into_iter().enumerate().collect(),
            threads,
            |(s, ((objs, gids), rows))| {
                let b0 = Instant::now();
                let shard = factory(s, objs, rows.clone()).map(|idx| Shard::new(idx, gids, rows));
                (shard, b0.elapsed().as_nanos() as u64)
            },
        );
        // Wall of the whole shard-build section, so that it nests under
        // `build` when shards build in parallel; the per-shard walls are
        // the `build.shard_wall` histogram.
        let shards_nanos = clock.lap();

        let mut shard_wall = Hist::new();
        let mut shards = Vec::with_capacity(num_shards);
        for (shard, nanos) in built {
            shard_wall.record(nanos);
            shards.push(shard.map_err(EngineError::Build)?);
        }

        let mut locator = vec![Locator::DEAD; n];
        for (s, shard) in shards.iter().enumerate() {
            for (local, gid) in shard.live_members() {
                locator[gid as usize] = (s as u32, local);
            }
        }
        let locator = Locator(locator.into());

        let wall = t0.elapsed();
        let shard_compdists: u64 = shards.iter().map(|s| s.counters().compdists).sum();
        let build_stats = BuildStats {
            build_compdists: matrix_compdists + shard_compdists,
            build_wall_secs: wall.as_secs_f64(),
        };
        obs.phase_add(
            "build",
            1,
            wall.as_nanos() as u64,
            &[("objects", n as u64), ("shards", num_shards as u64)],
        );
        obs.phase_add(
            "build.shards",
            num_shards as u64,
            shards_nanos,
            &[("compdists", shard_compdists)],
        );
        obs.hist_merge("build.shard_wall", &shard_wall);
        obs.gauge_set("engine.shards", num_shards as u64);
        obs.gauge_set("engine.live_objects", n as u64);

        let shards: Vec<Arc<Shard<O>>> = shards.into_iter().map(Arc::new).collect();
        let router = Arc::new(router);
        let snap = Arc::new(EngineSnapshot {
            epoch: 0,
            shards: shards.clone(),
            router: router.clone(),
        });
        obs.gauge_set("engine.snapshot_epoch", 0);
        let core = Arc::new(EngineCore {
            threads,
            snap: Mutex::new(snap),
            probed: AtomicU64::new(0),
            pruned: AtomicU64::new(0),
            obs,
            trace: Mutex::new(TracePolicy::disabled()),
            budget: Mutex::new(ServeBudget::unlimited()),
            faults: cfg.faults,
            quarantine: QuarantineState::new(num_shards),
            validator: Mutex::new(None),
            build: build_stats,
            updates: Mutex::new(UpdateStats::default()),
        });
        Ok(ShardedEngine {
            core,
            shards,
            router,
            epoch: 0,
            retired: Vec::new(),
            refresh: cfg.refresh,
            locator,
            next_id: n as ObjId,
            update_stats: UpdateStats::default(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::tests::{assert_plans_every_shard, brute_factory, engine, grid};
    use crate::{LatencySummary, Query};

    #[test]
    fn a_factory_sees_exactly_its_shards_rows() {
        // Row i is the map of object i: a matrix-adopting factory must see
        // its partition's rows, in partition order.
        let objects = grid(60);
        let cfg = EngineConfig {
            shards: 4,
            threads: 2,
            ..EngineConfig::default()
        };
        let runs: Vec<usize> = (0..60).map(|i| i / 15).collect();
        let layout = Layout::mapped(2, |o: &[f32], out: &mut Vec<f64>| {
            out.extend([o[0] as f64, o[1] as f64])
        })
        .with_membership(&runs);
        let e = ShardedEngine::build(objects.clone(), layout, &cfg, |_, part, m| {
            assert_eq!(m.rows(), part.len());
            assert_eq!(m.width(), 2);
            for (i, o) in part.iter() {
                assert!(
                    m.row(i as usize).eq([o[0] as f64, o[1] as f64]),
                    "the shard's rows"
                );
            }
            brute_factory(part)
        })
        .unwrap();
        assert_eq!(e.build_stats().build_compdists, 60 * 2, "n·l for the rows");
        let plain = engine(60, 4, 2);
        assert_eq!(plain.build_stats().build_compdists, 0, "zero width");
        for qi in [0usize, 30, 59] {
            assert_eq!(
                e.range_query(&objects[qi], 4.0),
                plain.range_query(&objects[qi], 4.0)
            );
        }
        for gid in 0..60 {
            assert_eq!(e.locate(gid), plain.locate(gid), "same balanced runs");
        }
    }

    #[test]
    fn a_plain_engine_cuts_balanced_contiguous_runs() {
        let e = engine(10, 3, 1);
        let of =
            |s: usize| -> Vec<ObjId> { e.shards()[s].live_members().map(|(_, g)| g).collect() };
        assert_eq!(
            (of(0), of(1), of(2)),
            (vec![0, 1, 2, 3], vec![4, 5, 6], vec![7, 8, 9])
        );
    }

    #[test]
    fn a_bad_membership_is_an_error_not_a_panic() {
        let build = |membership: &[usize]| {
            ShardedEngine::build(
                grid(10),
                Layout::plain().with_membership(membership),
                &EngineConfig {
                    shards: 4,
                    threads: 1,
                    ..EngineConfig::default()
                },
                |_, part, _| brute_factory(part),
            )
        };
        let out_of_range = build(&[0, 1, 2, 3, 0, 1, 2, 3, 0, 9]).err();
        assert!(
            matches!(&out_of_range, Some(EngineError::BadMembership(why)) if why.contains("entry 9 names shard 9 of 4")),
            "{out_of_range:?}"
        );
        let short = build(&[0, 1, 2]).err();
        assert!(
            matches!(&short, Some(EngineError::BadMembership(why)) if why.contains("3 entries for 10 objects")),
            "{short:?}"
        );
        // A valid one may leave a shard empty.
        let e = build(&[0, 1, 3, 3, 0, 1, 3, 3, 0, 1]).unwrap();
        assert_eq!(e.num_shards(), 4);
        assert_plans_every_shard(&e);
        assert!(e.shards()[2].is_empty());
        assert_eq!(e.range_query(&grid(10)[6], 0.0), vec![6]);
    }

    #[test]
    fn build_stats_record_shard_construction() {
        let e = engine(100, 4, 2);
        let stats = e.build_stats();
        // BruteForce construction computes no distances but the stats must
        // exist and carry a wall-clock.
        assert_eq!(stats.build_compdists, 0);
        assert!(stats.build_wall_secs >= 0.0);
        // Serve copies the stats into the report.
        let out = e.serve(&[Query::range(vec![0.0f32, 0.0], 1.0)]);
        assert_eq!(out.report.build, stats);
    }

    #[test]
    fn zero_shards_is_an_error() {
        let r: Result<ShardedEngine<Vec<f32>>, EngineError<&str>> = ShardedEngine::build(
            grid(10),
            Layout::plain(),
            &EngineConfig {
                shards: 0,
                threads: 1,
                ..EngineConfig::default()
            },
            |_, part, _| brute_factory(part),
        );
        assert_eq!(r.err(), Some(EngineError::ZeroShards));
        let msg = format!("{}", EngineError::<&str>::ZeroShards);
        assert!(msg.contains("at least one shard"));
    }

    #[test]
    fn shard_clamp_and_empty_batch() {
        let e = engine(3, 8, 2);
        assert_eq!(e.num_shards(), 3, "shards clamp to n");
        let out = e.serve(&[]);
        assert_eq!(out.results.len(), 0);
        assert_eq!(out.report.queries, 0);
        assert_eq!(out.report.latency, LatencySummary::default());
    }

    #[test]
    fn a_factory_panic_reaches_the_caller_with_its_own_payload() {
        for threads in [1, 2, 4] {
            let caught = std::panic::catch_unwind(|| {
                ShardedEngine::build(
                    grid(40),
                    Layout::plain(),
                    &EngineConfig {
                        shards: 4,
                        threads,
                        ..EngineConfig::default()
                    },
                    |s, part, _| {
                        if s == 1 {
                            panic!("factory boom on shard {s}");
                        }
                        brute_factory(part)
                    },
                )
            })
            .err()
            .expect("the factory's panic reaches the caller");
            assert_eq!(
                caught.downcast_ref::<String>().map(String::as_str),
                Some("factory boom on shard 1"),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn any_thread_count_builds_a_mapped_engine() {
        let e = ShardedEngine::build(
            grid(40),
            Layout::mapped(1, |o: &[f32], out: &mut Vec<f64>| out.push(o[0] as f64)),
            &EngineConfig {
                threads: usize::MAX,
                ..EngineConfig::default()
            },
            |_, part, _| brute_factory(part),
        )
        .unwrap();
        assert_eq!(e.len(), 40);
    }

    #[test]
    fn build_error_propagates() {
        let r: Result<ShardedEngine<Vec<f32>>, EngineError<&str>> = ShardedEngine::build(
            grid(10),
            Layout::plain(),
            &EngineConfig {
                shards: 2,
                threads: 1,
                ..EngineConfig::default()
            },
            |s, part, _| {
                if s == 1 {
                    Err("nope")
                } else {
                    brute_factory(part)
                }
            },
        );
        assert_eq!(r.err(), Some(EngineError::Build("nope")));
    }
}
