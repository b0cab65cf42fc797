//! Reproduction driver: regenerates every table and figure of the paper.
//!
//! ```text
//! cargo run --release -p pmi-bench --bin repro -- all
//! cargo run --release -p pmi-bench --bin repro -- fig16 --scale 0.5 --queries 50
//! ```

use pmi_bench::experiments::{self, ExpConfig};

const USAGE: &str = "\
repro — regenerate the tables and figures of 'Pivot-based Metric Indexing' (VLDB 2017)

USAGE: repro <experiment> [--scale F] [--queries N] [--updates N] [--seed N]

EXPERIMENTS:
  table2   dataset statistics
  table4   construction costs & storage sizes
  table5   construction ranking (runs table4)
  table6   update costs
  table7   update ranking (runs table6)
  fig14    EPT vs EPT* (MkNNQ vs k)
  fig15    M-index vs M-index* (MkNNQ vs k)
  fig16    MRQ vs radius selectivity (9 indexes x 4 datasets)
  fig17    MkNNQ vs k (9 indexes x 4 datasets)
  fig18    MkNNQ vs |P| (LA + Synthetic)
  ablation design-choice sweeps (MVPT arity, SPB SFC bits, PM-tree vs CPT,
           FQT vs FQA, EPT* vs EPT*-disk)
  scale    batch-serve QPS at 10^5 x scale objects (Synthetic, LAESA, P in {1,8},
           unrouted and routed; --scale 10 = 10^6)
  all      everything above except scale
";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        eprint!("{USAGE}");
        std::process::exit(2);
    }
    let mut cfg = ExpConfig::default();
    let mut exp = String::new();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => cfg.scale = it.next().expect("--scale F").parse().expect("float"),
            "--queries" => cfg.queries = it.next().expect("--queries N").parse().expect("int"),
            "--updates" => cfg.updates = it.next().expect("--updates N").parse().expect("int"),
            "--seed" => cfg.seed = it.next().expect("--seed N").parse().expect("int"),
            "-h" | "--help" => {
                print!("{USAGE}");
                return;
            }
            other if exp.is_empty() && !other.starts_with('-') => exp = other.to_string(),
            other => {
                eprintln!("unknown argument: {other}\n{USAGE}");
                std::process::exit(2);
            }
        }
    }
    println!(
        "# repro {exp} — scale {:.2}, {} queries, {} updates, seed {}",
        cfg.scale, cfg.queries, cfg.updates, cfg.seed
    );
    match exp.as_str() {
        "table2" => experiments::table2(&cfg),
        "table4" => {
            experiments::table4(&cfg);
        }
        "table5" => experiments::table5(&cfg),
        "table6" => {
            experiments::table6(&cfg);
        }
        "table7" => experiments::table7(&cfg),
        "fig14" => {
            experiments::fig14(&cfg);
        }
        "fig15" => {
            experiments::fig15(&cfg);
        }
        "fig16" => {
            experiments::fig16(&cfg);
        }
        "fig17" => {
            experiments::fig17(&cfg);
        }
        "fig18" => {
            experiments::fig18(&cfg);
        }
        "ablation" => {
            experiments::ablation(&cfg);
        }
        "scale" => {
            experiments::scale(&cfg);
        }
        "all" => {
            experiments::table2(&cfg);
            experiments::table5(&cfg); // includes table4
            experiments::table7(&cfg); // includes table6
            experiments::fig14(&cfg);
            experiments::fig15(&cfg);
            experiments::fig16(&cfg);
            experiments::fig17(&cfg);
            experiments::fig18(&cfg);
            experiments::ablation(&cfg);
        }
        other => {
            eprintln!("unknown experiment: {other}\n{USAGE}");
            std::process::exit(2);
        }
    }
}
