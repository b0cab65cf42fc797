//! Pivot-based table indexes (paper §3): AESA, LAESA, EPT / EPT* and CPT.
//!
//! All of them store pre-computed distances in tables and answer queries by
//! scanning those tables with the pivot filtering of Lemma 1; they differ in
//! *which* distances they pre-compute and *where* the objects live:
//!
//! | index | pre-computed distances          | objects          |
//! |-------|---------------------------------|------------------|
//! | AESA  | all `n²` pairs                  | main memory      |
//! | LAESA | `n × l` to a shared pivot set   | main memory      |
//! | EPT   | `n × l`, per-object pivots      | main memory      |
//! | EPT*  | `n × l`, PSA pivots (Alg. 1)    | main memory      |
//! | CPT   | `n × l` to a shared pivot set   | disk (M-tree)    |
//!
//! LAESA and CPT are one table and differ only in where the objects live:
//! the metric, the shared pivots and the stored rows, and the table's
//! build, range and kNN bodies, inserts and compaction, are written once
//! (a private pivot table both wrap). A sharded engine's FQA shard is that
//! table too, as LAESA under FQA's name ([`Laesa::fqa_with_matrix`]).

mod aesa;
mod cpt;
mod ept;
mod laesa;
mod pivot_table;

pub use aesa::Aesa;
pub use cpt::Cpt;
pub use ept::{Ept, EptConfig, EptMode};
pub use laesa::Laesa;
