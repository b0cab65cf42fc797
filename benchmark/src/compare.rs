//! `benchmark compare <base.jsonl> <new.jsonl>`: two sets of `--report`
//! lines judged per workload and metric by the benchmark's own bounds.

use crate::manifest::{Better, END_TO_END, PER_LAYER};
use crate::stats::{median, quartiles};
use pivot_metric_repro as pmr;
use pmr::obs::JsonValue;
use std::collections::BTreeMap;
use std::process::ExitCode;

/// One side: workload → metric → values, plus what must agree exactly.
#[derive(Default)]
struct Side {
    values: BTreeMap<String, BTreeMap<String, Vec<f64>>>,
    /// (workload, seed) → result checksum.
    checksums: BTreeMap<(String, u64), String>,
    /// workload → the runs' `host.ref_ms`.
    ref_ms: BTreeMap<String, Vec<f64>>,
    failed_runs: usize,
}

fn load(path: &str) -> Result<Side, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut side = Side::default();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let at = |what: &str| format!("{path}:{}: {what}", i + 1);
        let doc = JsonValue::parse(line).map_err(|e| at(&e))?;
        let field = |k: &str| doc.get(k).ok_or_else(|| at(&format!("no {k}")));
        let workload = field("workload")?
            .as_str()
            .ok_or_else(|| at("workload"))?
            .to_string();
        let seed = field("seed")?.as_u64().ok_or_else(|| at("seed"))?;
        if field("correct")?.as_bool() != Some(true) {
            side.failed_runs += 1;
        }
        let checksum = field("result_checksum")?
            .as_str()
            .ok_or_else(|| at("result_checksum"))?;
        side.checksums
            .insert((workload.clone(), seed), checksum.to_string());
        if let Some(ms) = field("host")?.get("ref_ms").and_then(JsonValue::as_f64) {
            side.ref_ms.entry(workload.clone()).or_default().push(ms);
        }
        let metrics = side.values.entry(workload).or_default();
        for (name, m) in field("metrics")?.entries().ok_or_else(|| at("metrics"))? {
            let value = m
                .get("value")
                .and_then(JsonValue::as_f64)
                .ok_or_else(|| at(name))?;
            metrics.entry(name.clone()).or_default().push(value);
        }
    }
    Ok(side)
}

#[derive(Debug, PartialEq)]
enum Verdict {
    Ok,
    Regressed,
    Unresolved,
}

/// The bound's rule: `regressed` when the new median is worse than the
/// base's by more than the bound; `unresolved` when either side's IQR is
/// wider than the bound and the runs interleave, so the medians say nothing.
fn judge(base: &[f64], new: &[f64], better: Better, bound: f64) -> Verdict {
    let (mb, mn) = (median(base), median(new));
    let worse_by = match better {
        Better::Lower => (mn - mb) / mb,
        Better::Higher => (mb - mn) / mb,
    };
    let wide = |v: &[f64]| v.len() >= 2 && spread(v) > bound;
    let min = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
    let max = |v: &[f64]| v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let interleave = min(base) <= max(new) && min(new) <= max(base);
    if (wide(base) || wide(new)) && interleave {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

/// IQR / median.
fn spread(v: &[f64]) -> f64 {
    let (q1, q3) = quartiles(v);
    (q3 - q1) / median(v).abs()
}

fn cell(v: &[f64]) -> String {
    if v.len() < 2 {
        return format!("{:>12.4} {:>25}", median(v), "-");
    }
    let (q1, q3) = quartiles(v);
    format!(
        "{:>12.4} [{:>10.4},{:>10.4}] {:>5.3}",
        median(v),
        q1,
        q3,
        spread(v)
    )
}

pub fn compare(base_path: &str, new_path: &str) -> Result<ExitCode, String> {
    let (base, new) = (load(base_path)?, load(new_path)?);
    let mut bad = base.failed_runs + new.failed_runs;
    if bad > 0 {
        println!(
            "{} failed run(s) in base, {} in new",
            base.failed_runs, new.failed_runs
        );
    }
    // Every run of one side has its like on the other, with one checksum.
    for (key, sum) in &base.checksums {
        match new.checksums.get(key) {
            Some(other) if other == sum => {}
            Some(other) => {
                println!(
                    "result_checksum differs on {} seed {}: {sum} vs {other}",
                    key.0, key.1
                );
                bad += 1;
            }
            None => {
                println!("{} seed {} is in base only", key.0, key.1);
                bad += 1;
            }
        }
    }
    for key in new
        .checksums
        .keys()
        .filter(|k| !base.checksums.contains_key(k))
    {
        println!("{} seed {} is in new only", key.0, key.1);
        bad += 1;
    }
    for (workload, metrics) in &base.values {
        // A workload on one side only was counted above, run by run.
        let Some(new_metrics) = new.values.get(workload) else {
            continue;
        };
        println!("\n== {workload}");
        for (name, side) in [("base", &base), ("new", &new)] {
            if let Some(ms) = side.ref_ms.get(workload) {
                println!(
                    "  host.ref_ms {name}: median {:.3} max {:.3}",
                    median(ms),
                    ms.iter().copied().fold(0.0, f64::max)
                );
            }
        }
        println!(
            "  {:<36} {:>12} {:>23} {:>5}   {:>12} {:>23} {:>5}  {:>7}",
            "metric",
            "base median",
            "[q1,q3]",
            "iqr/m",
            "new median",
            "[q1,q3]",
            "iqr/m",
            "new/base"
        );
        // Registry order: end-to-end first, then the layers.
        let names = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name));
        for name in names {
            let (Some(b), Some(n)) = (metrics.get(name), new_metrics.get(name)) else {
                continue;
            };
            let verdict = END_TO_END.iter().find(|m| m.name == name).map(|m| {
                let v = judge(b, n, m.better, m.bound);
                bad += usize::from(v == Verdict::Regressed);
                format!("{v:?}").to_lowercase()
            });
            println!(
                "  {name:<36} {}   {}  {:>7.4}  {}",
                cell(b),
                cell(n),
                median(n) / median(b),
                verdict.unwrap_or_default()
            );
        }
    }
    Ok(if bad == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_run_on_one_side_only_fails_the_comparison() {
        let line = |workload: &str, seed: u64| {
            format!(
                "{{\"workload\":\"{workload}\",\"seed\":{seed},\"correct\":true,\
                 \"result_checksum\":\"00\",\"host\":{{\"ref_ms\":5.0}},\
                 \"metrics\":{{\"setup_s\":{{\"value\":1.0}}}}}}\n"
            )
        };
        let dir = std::env::temp_dir().join(format!("pmi-compare-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = |name: &str| dir.join(name).to_str().unwrap().to_string();
        let both = line("w", 1) + &line("w", 2);
        std::fs::write(path("full"), &both).unwrap();
        std::fs::write(path("cut"), line("w", 1)).unwrap();
        std::fs::write(path("other"), line("w", 1) + &line("v", 2)).unwrap();
        let run = |a: &str, b: &str| compare(&path(a), &path(b)).unwrap();
        assert_eq!(run("full", "full"), ExitCode::SUCCESS);
        assert_eq!(
            run("full", "cut"),
            ExitCode::FAILURE,
            "a truncated new side"
        );
        assert_eq!(
            run("cut", "full"),
            ExitCode::FAILURE,
            "a truncated base side"
        );
        assert_eq!(
            run("full", "other"),
            ExitCode::FAILURE,
            "a workload on one side only"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn verdicts_follow_the_bound() {
        let base = [100.0, 101.0, 99.0, 100.5, 99.5];
        let same = [100.2, 100.9, 99.1, 100.4, 99.7];
        assert_eq!(judge(&base, &same, Better::Lower, 0.10), Verdict::Ok);
        let slow: Vec<f64> = base.iter().map(|v| v * 1.2).collect();
        assert_eq!(judge(&base, &slow, Better::Lower, 0.10), Verdict::Regressed);
        // Higher-is-better turns the sign around.
        assert_eq!(judge(&base, &slow, Better::Higher, 0.10), Verdict::Ok);
        assert_eq!(
            judge(&slow, &base, Better::Higher, 0.10),
            Verdict::Regressed
        );
        // A side wider than the bound whose runs interleave decides nothing.
        let wide = [80.0, 130.0, 100.0, 95.0, 120.0];
        assert_eq!(
            judge(&base, &wide, Better::Lower, 0.10),
            Verdict::Unresolved
        );
        // Wide but wholly apart still decides.
        let apart: Vec<f64> = wide.iter().map(|v| v * 2.0).collect();
        assert_eq!(
            judge(&base, &apart, Better::Lower, 0.10),
            Verdict::Regressed
        );
    }
}
