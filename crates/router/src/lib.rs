//! `pmi-router` — pivot-space routing-aware sharding for the serving
//! engine.
//!
//! An engine cut into contiguous runs spreads every metric region across
//! all `P` shards, so every query must probe every shard. The paper's
//! whole contribution (§2.3, Lemmas 1–4) is that pivot-distance
//! bounds let an index *skip* work; this crate lifts that from objects to
//! shards:
//!
//! * [`partition::partition_pivot_space`] cuts the dataset's stored
//!   pivot-distance rows — their u16 bucket codes, row-major — by recursive
//!   balanced median cuts (a k-d split), so each shard holds one cell of the pivot
//!   space and shard `s` of `P` holds exactly `⌊n/P⌋ + [s < n mod P]`
//!   objects. Cells are disjoint but for the bucket a cut falls in, so a
//!   small query ball meets about one of them. The cut has no random
//!   choice and no floating-point sum: the same for every thread count by
//!   construction ([`partition::assign_pivot_space`] is its
//!   single-threaded form). A zero-width pivot space is cut into balanced
//!   contiguous runs,
//! * [`RoutingTable`] summarizes each shard as a box of codes
//!   ([`pmi_metric::CodeBox`]: per pivot the smallest and largest stored
//!   code) and a centre (the mean) over its members' stored rows — read
//!   off the shards' columns ([`RoutingTable::from_columns`]) — and plans
//!   queries against the summaries:
//!   - **range**: a shard whose box bound ([`pmi_metric::CodeBox::lower_bound`])
//!     exceeds the radius cannot hold any answer and is skipped outright
//!     ([`RoutingTable::range_plan_into`]),
//!   - **kNN**: shards are ordered best-first by the box lower bound,
//!     shards whose bounds tie — a query in a bucket two cells share lies
//!     inside both boxes, bound 0 for each — by the distance from the
//!     mapped query to their centre, and only then by shard id
//!     ([`RoutingTable::knn_order_into`]); the engine probes in that order
//!     and skips every shard whose lower bound exceeds the current k-th
//!     distance as the global heap tightens. The first shard probed seeds
//!     that distance, so the tie rule decides what a kNN costs (never what
//!     it answers).
//!
//! Boxes stay exact under churn: the engine's mutation path grows a box on
//! insert ([`RoutingTable::extend`]) and recomputes it from the surviving
//! members when a remove hits one of its faces ([`RoutingTable::rebox`]),
//! all of it on codes. Centres ride along — `extend` adds the row,
//! [`RoutingTable::forget`] subtracts a removed one, a rebox recomputes —
//! and are a function of the rows a shard *stores* (the integer sum of the
//! codes, times the step, over the count), so a build and a compaction of
//! the same survivors order their probes, and count their distances,
//! identically.
//!
//! Both decisions are conservative applications of Lemma 1, so routed
//! answers are *identical* to probing every shard — pruning only ever
//! removes shards that provably contain no answers.
//!
//! Every engine builds and stores a [`RoutingTable`]: an engine without
//! pivots holds a zero-width pivot space, whose boxes bound nothing, so it
//! plans every shard. The table maps query and inserted objects into pivot
//! space through the engine's one [`Mapper`], so the engine itself stays
//! metric-agnostic.

pub mod partition;
pub mod table;

pub use partition::{assign_pivot_space, partition_pivot_space};
pub use table::{Mapper, RoutingTable};
