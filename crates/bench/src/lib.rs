//! Experiment harness for the VLDB 2017 study.
//!
//! Everything here mirrors §6.1 of the paper: four datasets (Table 2), the
//! shared HFI pivot set, Table 3's parameter grid (|P| ∈ {1,3,5,7,9},
//! r ∈ {4..64}% selectivity, k ∈ {5..100}), and the three cost metrics —
//! page accesses (PA), distance computations (compdists) and CPU time —
//! averaged over a batch of random queries. The `repro` binary
//! (`cargo run -p pmi-bench --release --bin repro -- all`) regenerates
//! every table and figure; `repro --help` lists the experiments.

pub mod experiments;
pub mod harness;
pub mod scenario;

pub use harness::{BuildStats, QueryCost, UpdateCost};
pub use scenario::{Scenario, ScenarioData};
