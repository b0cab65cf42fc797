//! Per-query tracing: the event format, capture policy, and the
//! EXPLAIN-ANALYZE renderer.
//!
//! The aggregate layer ([`crate::registry`]) answers "how expensive was the
//! batch"; this module answers "why was *this query* expensive": which
//! shards the router pruned and at what Lemma-1 lower bound, in what order
//! the survivors were probed, how many rows the blocked kernel filtered vs.
//! survived to exact verification, and where the wall went.
//!
//! # Discipline
//!
//! The same hot-path rules as the registry apply:
//!
//! * **Per-worker, fixed capacity, plain writes.** Each serve worker owns
//!   one [`TraceRing`] inside its scratch; recording an event is a bounds
//!   check and a slot write — no allocation (the ring's backing store is
//!   allocated once, on the worker's first traced query) and no atomics.
//! * **Nothing on the untraced hot path.** Whether a query records at all
//!   is one branch on a per-batch bool; with the default
//!   [`TracePolicy::disabled`] the serve loop is unchanged.
//! * **Capture is a policy decision.** [`TracePolicy`] samples 1-in-N
//!   queries up front and/or keeps the ring of *every* query so that a
//!   query whose wall exceeds the slow-query threshold can be captured
//!   retroactively — the events were already recorded by the time the wall
//!   is known.
//!
//! A captured query becomes a [`QueryTrace`] — an owned event list whose
//! counters sum exactly to the engine's `ServeReport` totals (asserted in
//! `tests/counters.rs`) — and [`QueryTrace::explain`] renders it as a plan
//! tree.

/// When and what the engine captures per query. Lives on `EngineConfig`
/// and is runtime-swappable (`ShardedEngine::set_trace_policy`); the
/// default is fully disabled, which keeps the serve hot path untraced.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TracePolicy {
    /// Capture every N-th query a worker serves (`0` disables sampling).
    /// `1` traces every query — the setting under which trace counters sum
    /// to the full batch totals.
    pub sample_every: u64,
    /// Retroactively capture any query whose wall clock meets or exceeds
    /// this many nanoseconds (`0` disables slow-query capture). While set,
    /// every query records events — plain ring writes — so the decision
    /// can be made after the wall is known.
    pub slow_query_nanos: u64,
    /// Cap on captured traces per serve batch (and per worker), bounding
    /// report memory no matter how many queries qualify.
    pub max_captured: usize,
}

impl TracePolicy {
    /// No tracing at all — the default; the serve path stays untraced.
    pub const fn disabled() -> Self {
        TracePolicy {
            sample_every: 0,
            slow_query_nanos: 0,
            max_captured: 8,
        }
    }

    /// Trace every `n`-th query per worker (`n == 1`: every query).
    pub const fn sample(n: u64) -> Self {
        TracePolicy {
            sample_every: n,
            ..TracePolicy::disabled()
        }
    }

    /// Capture queries at least `secs` seconds of wall apart from the rest.
    pub fn slow(secs: f64) -> Self {
        TracePolicy {
            slow_query_nanos: (secs.max(0.0) * 1e9) as u64,
            ..TracePolicy::disabled()
        }
    }

    /// With the capture cap replaced.
    pub const fn with_max_captured(mut self, max: usize) -> Self {
        self.max_captured = max;
        self
    }

    /// Whether any capture mode is active.
    pub fn enabled(&self) -> bool {
        self.sample_every > 0 || self.slow_query_nanos > 0
    }
}

impl Default for TracePolicy {
    fn default() -> Self {
        TracePolicy::disabled()
    }
}

/// One traced step of a query's execution. `Copy` and fixed-size so ring
/// writes are slot stores; counters are the exact per-step deltas of the
/// same sources the `ServeReport` aggregates.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum TraceEvent {
    /// The router's verdict on one shard: its box lower bound against the
    /// query's mapped point, whether it was probed, and at which position
    /// of the probe schedule the decision fell (kNN probes best-first, so
    /// order is the pruning order too).
    Plan {
        /// Shard the verdict is about.
        shard: u32,
        /// Lemma-1 lower bound of the shard's routing box (0 for a plain
        /// engine, which has no boxes).
        lower_bound: f64,
        /// `true` if the shard was probed, `false` if pruned.
        probed: bool,
        /// Position in the planning order (probe rank for probed shards).
        order: u32,
        /// Squared pivot-space distance from the mapped query to the
        /// shard's centre: the key a kNN plan ranks shards by where their
        /// bounds tie (`∞` for a shard without members). 0 where no centre
        /// is consulted — range plans — and over a zero-width pivot space.
        centre_dist: f64,
    },
    /// Planning finished: totals plus the plan-stage wall.
    PlanDone {
        /// Shards considered (== the engine's shard count).
        shards: u32,
        /// Shards probed.
        probed: u32,
        /// Shards pruned.
        pruned: u32,
        /// Pivot distances paid to map the query into pivot space.
        map_dists: u64,
        /// Plan-stage wall, nanoseconds.
        nanos: u64,
    },
    /// One shard probe: exact per-probe counter deltas.
    Scan {
        /// Shard probed.
        shard: u32,
        /// Distance computations this probe paid (the paper's compdists).
        dists: u64,
        /// Simulated page accesses this probe paid.
        page_accesses: u64,
        /// Rows the Lemma 1 scan kernel filtered (0 for tree shards).
        kernel_rows: u64,
        /// Candidates that survived the lower-bound filter into exact
        /// verification, range or kNN: a kernel shard's probe pays
        /// `dists == survivors + l`. 0 for tree shards.
        survivors: u64,
        /// Probe wall, nanoseconds.
        nanos: u64,
    },
    /// The merge step: result count plus the merge wall.
    Merge {
        /// Results the query returned after the global merge.
        results: u64,
        /// Merge-stage wall, nanoseconds.
        nanos: u64,
    },
}

/// Fixed-capacity per-worker event ring. The backing store is allocated
/// lazily on the first traced query and reused for every query after it;
/// recording overwrites the oldest event once full (the tail of a plan is
/// worth more than its head when a huge fan-out overflows the ring).
#[derive(Debug, Default)]
pub struct TraceRing {
    buf: Vec<TraceEvent>,
    start: usize,
    len: usize,
    dropped: u64,
}

/// Events one query may record before its ring wraps: a Plan verdict and a
/// Scan per shard plus the two stage summaries covers engines up to ~120
/// shards, far beyond the paper's P ≤ 16 regime.
pub const TRACE_RING_CAPACITY: usize = 256;

impl TraceRing {
    /// An empty ring (no backing store until the first push).
    pub fn new() -> Self {
        TraceRing::default()
    }

    /// Forgets all events (capacity kept) — called at traced-query start.
    pub fn clear(&mut self) {
        self.start = 0;
        self.len = 0;
        self.dropped = 0;
    }

    /// Records one event; overwrites the oldest once the ring is full.
    #[inline]
    pub fn push(&mut self, ev: TraceEvent) {
        if self.len < TRACE_RING_CAPACITY {
            let slot = (self.start + self.len) % TRACE_RING_CAPACITY;
            if slot == self.buf.len() {
                self.buf.push(ev);
            } else {
                self.buf[slot] = ev;
            }
            self.len += 1;
        } else {
            self.buf[self.start] = ev;
            self.start = (self.start + 1) % TRACE_RING_CAPACITY;
            self.dropped += 1;
        }
    }

    /// Events recorded since the last clear, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        (0..self.len).map(|i| &self.buf[(self.start + i) % TRACE_RING_CAPACITY])
    }

    /// How many events the ring overwrote since the last clear.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are retained.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// What kind of query a trace describes.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum TraceKind {
    /// `MRQ(q, r)`.
    Range {
        /// The query radius.
        radius: f64,
    },
    /// `MkNNQ(q, k)`.
    Knn {
        /// The neighbor count.
        k: usize,
    },
}

/// One captured query: the owned copy of its ring, ready to render. The
/// capture path (not the hot path) pays the one allocation.
#[derive(Clone, Debug, PartialEq)]
pub struct QueryTrace {
    /// Index of the query in its serve batch.
    pub query: usize,
    /// Range or kNN, with the query parameter.
    pub kind: TraceKind,
    /// The query's full wall, nanoseconds.
    pub wall_nanos: u64,
    /// Captured because it hit the 1-in-N sample.
    pub sampled: bool,
    /// Captured because its wall met the slow-query threshold.
    pub slow: bool,
    /// Events the ring overwrote before capture (0 unless the plan
    /// exceeded [`TRACE_RING_CAPACITY`] events).
    pub dropped_events: u64,
    /// The recorded events, oldest first.
    pub events: Vec<TraceEvent>,
}

impl QueryTrace {
    /// Shards this query probed (from the per-shard plan verdicts).
    pub fn shards_probed(&self) -> u64 {
        self.events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Plan { probed: true, .. }))
            .count() as u64
    }

    /// Shards the router pruned for this query.
    pub fn shards_pruned(&self) -> u64 {
        self.events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Plan { probed: false, .. }))
            .count() as u64
    }

    /// Distance computations across all probes (the paper's compdists).
    pub fn compdists(&self) -> u64 {
        self.events
            .iter()
            .map(|e| match e {
                TraceEvent::Scan { dists, .. } => *dists,
                _ => 0,
            })
            .sum()
    }

    /// Page accesses across all probes.
    pub fn page_accesses(&self) -> u64 {
        self.events
            .iter()
            .map(|e| match e {
                TraceEvent::Scan { page_accesses, .. } => *page_accesses,
                _ => 0,
            })
            .sum()
    }

    /// Rows the blocked kernel filtered across all probes.
    pub fn kernel_rows(&self) -> u64 {
        self.events
            .iter()
            .map(|e| match e {
                TraceEvent::Scan { kernel_rows, .. } => *kernel_rows,
                _ => 0,
            })
            .sum()
    }

    /// Results the query returned (from the merge event).
    pub fn results(&self) -> u64 {
        self.events
            .iter()
            .map(|e| match e {
                TraceEvent::Merge { results, .. } => *results,
                _ => 0,
            })
            .sum()
    }

    /// Renders the trace as an EXPLAIN-ANALYZE-style plan tree: the plan
    /// stage with every per-shard prune/probe verdict and its lower bound,
    /// one scan line per probe with its exact counter deltas, and the
    /// merge. Walls are per stage; counters are exact.
    pub fn explain(&self) -> String {
        let mut out = String::new();
        let head = match self.kind {
            TraceKind::Range { radius } => format!("range(r={radius})"),
            TraceKind::Knn { k } => format!("knn(k={k})"),
        };
        let why = match (self.sampled, self.slow) {
            (_, true) => " [slow]",
            (true, false) => " [sampled]",
            (false, false) => "",
        };
        out.push_str(&format!(
            "query #{} {head}  wall {}{why}\n",
            self.query,
            fmt_nanos(self.wall_nanos)
        ));

        // Plan stage: the summary line, then one verdict per shard in
        // planning order.
        let mut plan: Vec<(u32, u32, f64, f64, bool)> = self
            .events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Plan {
                    shard,
                    lower_bound,
                    probed,
                    order,
                    centre_dist,
                } => Some((*order, *shard, *lower_bound, *centre_dist, *probed)),
                _ => None,
            })
            .collect();
        plan.sort_by_key(|&(order, shard, ..)| (order, shard));
        // A kNN plan ranks by (bound, centre distance, shard id): a line
        // whose bound ties with a neighbour's says which later key placed
        // it.
        let tie_note = |i: usize| {
            let (.., lb, centre, _) = plan[i];
            let around = || {
                [i.wrapping_sub(1), i + 1]
                    .into_iter()
                    .filter_map(|j| plan.get(j))
            };
            if !matches!(self.kind, TraceKind::Knn { .. }) || !around().any(|p| p.2 == lb) {
                String::new()
            } else if around().any(|p| p.2 == lb && p.3 == centre) {
                "  (bound and centre tie: by shard id)".to_string()
            } else {
                format!("  (bound tie: by centre², {centre:.3})")
            }
        };
        let done = self.events.iter().find_map(|e| match e {
            TraceEvent::PlanDone {
                shards,
                probed,
                pruned,
                map_dists,
                nanos,
            } => Some((*shards, *probed, *pruned, *map_dists, *nanos)),
            _ => None,
        });
        if let Some((shards, probed, pruned, map_dists, nanos)) = done {
            out.push_str(&format!(
                "├─ plan: probed {probed}/{shards} shards (pruned {pruned}), map_dists {map_dists}, {}\n",
                fmt_nanos(nanos)
            ));
        } else {
            out.push_str("├─ plan\n");
        }
        for (i, (order, shard, lb, _, probed)) in plan.iter().enumerate() {
            let tie = tie_note(i);
            if *probed {
                out.push_str(&format!(
                    "│    probe #{order} → shard {shard}  lb {lb:.3}{tie}\n"
                ));
            } else {
                out.push_str(&format!(
                    "│    pruned    · shard {shard}  lb {lb:.3}{tie}\n"
                ));
            }
        }

        // Scan stage: one line per probe, in probe order.
        for e in &self.events {
            if let TraceEvent::Scan {
                shard,
                dists,
                page_accesses,
                kernel_rows,
                survivors,
                nanos,
            } = e
            {
                out.push_str(&format!(
                    "├─ scan shard {shard}: dists {dists}, pages {page_accesses}"
                ));
                if *kernel_rows > 0 {
                    out.push_str(&format!(
                        ", kernel {kernel_rows} rows, survivors {survivors}"
                    ));
                }
                out.push_str(&format!(", {}\n", fmt_nanos(*nanos)));
            }
        }

        match self.events.iter().rev().find_map(|e| match e {
            TraceEvent::Merge { results, nanos } => Some((*results, *nanos)),
            _ => None,
        }) {
            Some((results, nanos)) => {
                out.push_str(&format!(
                    "└─ merge: {results} results, {}\n",
                    fmt_nanos(nanos)
                ));
            }
            None => out.push_str("└─ merge: (not recorded)\n"),
        }
        if self.dropped_events > 0 {
            out.push_str(&format!(
                "   ({} events overwrote the ring)\n",
                self.dropped_events
            ));
        }
        out
    }
}

/// Formats nanoseconds with a readable unit (`431ns`, `12.3µs`, `4.56ms`,
/// `1.23s`).
fn fmt_nanos(ns: u64) -> String {
    let ns = ns as f64;
    if ns < 1e3 {
        format!("{ns:.0}ns")
    } else if ns < 1e6 {
        format!("{:.1}µs", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.2}ms", ns / 1e6)
    } else {
        format!("{:.2}s", ns / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> QueryTrace {
        QueryTrace {
            query: 17,
            kind: TraceKind::Knn { k: 10 },
            wall_nanos: 123_400,
            sampled: true,
            slow: false,
            dropped_events: 0,
            events: vec![
                TraceEvent::Plan {
                    shard: 2,
                    lower_bound: 0.0,
                    probed: true,
                    order: 0,
                    centre_dist: 1.5,
                },
                TraceEvent::Scan {
                    shard: 2,
                    dists: 42,
                    page_accesses: 2,
                    kernel_rows: 1024,
                    survivors: 37,
                    nanos: 45_600,
                },
                TraceEvent::Plan {
                    shard: 0,
                    lower_bound: 9.99,
                    probed: false,
                    order: 1,
                    centre_dist: 120.0,
                },
                TraceEvent::PlanDone {
                    shards: 2,
                    probed: 1,
                    pruned: 1,
                    map_dists: 5,
                    nanos: 12_300,
                },
                TraceEvent::Merge {
                    results: 10,
                    nanos: 3_200,
                },
            ],
        }
    }

    #[test]
    fn policy_modes() {
        assert!(!TracePolicy::disabled().enabled());
        assert!(TracePolicy::sample(8).enabled());
        assert!(TracePolicy::slow(0.001).enabled());
        assert_eq!(TracePolicy::slow(0.001).slow_query_nanos, 1_000_000);
        assert_eq!(TracePolicy::sample(1).with_max_captured(3).max_captured, 3);
        assert_eq!(TracePolicy::default(), TracePolicy::disabled());
    }

    #[test]
    fn ring_records_in_order_and_wraps() {
        let mut r = TraceRing::new();
        assert!(r.is_empty());
        for i in 0..TRACE_RING_CAPACITY + 5 {
            r.push(TraceEvent::Merge {
                results: i as u64,
                nanos: 0,
            });
        }
        assert_eq!(r.len(), TRACE_RING_CAPACITY);
        assert_eq!(r.dropped(), 5);
        let first = r.events().next().unwrap();
        assert_eq!(
            first,
            &TraceEvent::Merge {
                results: 5,
                nanos: 0
            }
        );
        let last = r.events().last().unwrap();
        assert_eq!(
            last,
            &TraceEvent::Merge {
                results: (TRACE_RING_CAPACITY + 4) as u64,
                nanos: 0
            }
        );
        r.clear();
        assert!(r.is_empty());
        r.push(TraceEvent::Merge {
            results: 7,
            nanos: 0,
        });
        assert_eq!(r.len(), 1);
        assert_eq!(r.dropped(), 0);
    }

    #[test]
    fn trace_counters_sum_events() {
        let t = sample_trace();
        assert_eq!(t.shards_probed(), 1);
        assert_eq!(t.shards_pruned(), 1);
        assert_eq!(t.compdists(), 42);
        assert_eq!(t.page_accesses(), 2);
        assert_eq!(t.kernel_rows(), 1024);
        assert_eq!(t.results(), 10);
    }

    #[test]
    fn explain_renders_a_plan_tree() {
        let s = sample_trace().explain();
        assert!(s.contains("query #17 knn(k=10)"), "{s}");
        assert!(s.contains("[sampled]"), "{s}");
        assert!(s.contains("probed 1/2 shards (pruned 1)"), "{s}");
        assert!(s.contains("probe #0 → shard 2  lb 0.000"), "{s}");
        assert!(s.contains("pruned    · shard 0  lb 9.990"), "{s}");
        assert!(
            s.contains("scan shard 2: dists 42, pages 2, kernel 1024 rows, survivors 37"),
            "{s}"
        );
        assert!(s.contains("merge: 10 results"), "{s}");
    }

    #[test]
    fn explain_names_the_key_that_split_a_bound_tie() {
        let plan = |shard, lower_bound, order, centre_dist| TraceEvent::Plan {
            shard,
            lower_bound,
            probed: true,
            order,
            centre_dist,
        };
        let mut t = sample_trace();
        // Shards 4 and 1 both contain the query (bound 0): the nearer
        // centre went first. Shards 3 and 5 tie on bound and centre alike.
        t.events = vec![
            plan(4, 0.0, 0, 0.25),
            plan(1, 0.0, 1, 7.5),
            plan(2, 3.0, 2, 9.0),
            plan(3, f64::INFINITY, 3, f64::INFINITY),
            plan(5, f64::INFINITY, 4, f64::INFINITY),
        ];
        let s = t.explain();
        assert!(
            s.contains("probe #0 → shard 4  lb 0.000  (bound tie: by centre², 0.250)\n"),
            "{s}"
        );
        assert!(
            s.contains("probe #1 → shard 1  lb 0.000  (bound tie: by centre², 7.500)\n"),
            "{s}"
        );
        assert!(s.contains("shard 2  lb 3.000\n"), "the bound decided: {s}");
        assert!(
            s.contains("shard 5  lb inf  (bound and centre tie: by shard id)\n"),
            "{s}"
        );
        // A range plan ranks nothing: equal bounds carry no note.
        t.kind = TraceKind::Range { radius: 1.0 };
        assert!(!t.explain().contains("tie"));
    }

    #[test]
    fn explain_marks_slow_queries() {
        let mut t = sample_trace();
        t.slow = true;
        assert!(t.explain().contains("[slow]"));
    }

    #[test]
    fn fmt_nanos_units() {
        assert_eq!(fmt_nanos(431), "431ns");
        assert_eq!(fmt_nanos(12_300), "12.3µs");
        assert_eq!(fmt_nanos(4_560_000), "4.56ms");
        assert_eq!(fmt_nanos(1_230_000_000), "1.23s");
    }
}
