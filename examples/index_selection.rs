//! The paper's conclusion (§7) distills its study into selection guidance:
//!
//! * small dataset + expensive distance  -> EPT*,
//! * small dataset + cheap distance      -> MVPT,
//! * large dataset / limited memory      -> SPB-tree or M-index*.
//!
//! This example measures exactly those trade-offs on two workloads and
//! prints which index the guidance picks.
//!
//! ```text
//! cargo run --release --example index_selection
//! ```

use pivot_metric_repro as pmr;
use pmr::builder::{build_vector_index, BuildOptions, IndexKind};
use pmr::{datasets, L1, L2};

fn measure<O: pmr::Object>(
    idx: &dyn pmr::MetricIndex<O>,
    objects: &[O],
    k: usize,
) -> (f64, f64, std::time::Duration) {
    idx.reset_counters();
    let t = std::time::Instant::now();
    let q = 10;
    for qi in (0..objects.len()).step_by(objects.len() / q) {
        let _ = idx.knn_query(&objects[qi], k);
    }
    let dt = t.elapsed() / q as u32;
    let c = idx.counters();
    (
        c.compdists as f64 / q as f64,
        c.page_accesses() as f64 / q as f64,
        dt,
    )
}

fn main() {
    println!("Scenario A: small dataset, expensive distance (282-d L1)");
    let color = datasets::color(4_000, 5);
    let opts = BuildOptions {
        d_plus: 510.0 * datasets::COLOR_DIM as f64,
        ..BuildOptions::default()
    };
    println!(
        "{:<10} {:>12} {:>8} {:>12}",
        "Index", "compdists", "PA", "CPU/query"
    );
    for kind in [IndexKind::EptStar, IndexKind::Mvpt, IndexKind::Spb] {
        let idx = build_vector_index(kind, color.clone(), L1, &opts).unwrap();
        let (cd, pa, dt) = measure(idx.as_ref(), &color, 20);
        println!("{:<10} {:>12.0} {:>8.0} {:>11.2?}", idx.name(), cd, pa, dt);
    }
    println!("-> §7 picks EPT* here: the computational cost dominates.\n");

    println!("Scenario B: cheap distance, memory-constrained deployment (2-d L2)");
    let la = datasets::la(20_000, 5);
    let opts = BuildOptions {
        d_plus: 14_143.0,
        maxnum: 256,
        ..BuildOptions::default()
    };
    println!(
        "{:<10} {:>12} {:>8} {:>12} {:>12}",
        "Index", "compdists", "PA", "CPU/query", "resident KB"
    );
    for kind in [IndexKind::Mvpt, IndexKind::Spb, IndexKind::MIndexStar] {
        let idx = build_vector_index(kind, la.clone(), L2, &opts).unwrap();
        idx.set_page_cache(pmr::storage::KNN_CACHE_BYTES);
        let (cd, pa, dt) = measure(idx.as_ref(), &la, 20);
        let s = idx.storage();
        println!(
            "{:<10} {:>12.0} {:>8.0} {:>11.2?} {:>12}",
            idx.name(),
            cd,
            pa,
            dt,
            s.mem_bytes / 1024
        );
    }
    println!(
        "-> MVPT is fastest but keeps everything resident; the SPB-tree and\n\
         M-index* hold only pivots (+ cluster metadata) in memory — the §7\n\
         recommendation once the dataset outgrows RAM."
    );
}
