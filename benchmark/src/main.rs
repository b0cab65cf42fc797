//! The repository's benchmark. `run` measures one workload and ends with
//! the result line; `manifest` prints `BENCHMARK.json`; `compare` judges two
//! sets of runs. Definitions are in `benchmark/README.md`.

mod compare;
mod host;
mod manifest;
mod run;
mod stats;
mod trace;
mod workload;

use pivot_metric_repro as pmr;
use pmr::obs::JsonObj;
use run::{Measured, Outcome};
use std::io::Write;
use std::process::ExitCode;
use workload::{Args, Bench, Dataset, Spec, SPECS};

#[global_allocator]
static ALLOC: host::CountingAlloc = host::CountingAlloc;

const USAGE: &str = "usage:
  benchmark run --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--report <file.jsonl>]
  benchmark manifest
  benchmark compare <base.jsonl> <new.jsonl>";

struct RunArgs {
    spec: &'static Spec,
    args: Args,
    trace: bool,
    report: Option<String>,
}

fn parse_run(argv: &[String]) -> Result<RunArgs, String> {
    let mut workload = None;
    let mut args = Args {
        seed: 1,
        seconds: manifest::RUN_SECONDS,
        smoke: false,
    };
    let (mut trace, mut report) = (false, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            args.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {value}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.as_str()),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?.clamp(1, 60),
            "--trace" => trace = number()? != 0,
            "--report" => report = Some(value.clone()),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let name = workload.ok_or("--workload is required")?;
    let spec = SPECS.iter().find(|s| s.name == name).ok_or_else(|| {
        let names: Vec<&str> = SPECS.iter().map(|s| s.name).collect();
        format!("unknown workload {name}; one of {}", names.join(", "))
    })?;
    Ok(RunArgs {
        spec,
        args,
        trace,
        report,
    })
}

fn measure(spec: &'static Spec, args: &Args, trace: bool) -> Outcome {
    fn go<M: pmr::Metric<workload::Obj> + Clone + 'static>(
        bench: Bench<M>,
        trace: bool,
    ) -> Outcome {
        if trace {
            trace::run(&bench)
        } else {
            run::run(&bench)
        }
    }
    match spec.dataset {
        Dataset::La => go(Bench::new(spec, pmr::L2, args), trace),
        Dataset::Color => go(Bench::new(spec, pmr::L1, args), trace),
    }
}

/// Name and unit of every registered metric: end-to-end first.
fn registry() -> impl Iterator<Item = (&'static str, &'static str, bool)> {
    let end_to_end = manifest::END_TO_END.iter().map(|m| (m.name, m.unit, false));
    let per_layer = manifest::PER_LAYER.iter().map(|m| (m.name, m.unit, true));
    end_to_end.chain(per_layer)
}

/// The metrics the mode must put on the result line, in registry order, out
/// of what the run measured.
fn reported(outcome: &Outcome, trace: bool) -> Result<Vec<(&Measured, &'static str)>, String> {
    registry()
        .filter(|&(_, _, per_layer)| per_layer == trace)
        .map(|(name, unit, _)| {
            let found = outcome.metrics.iter().find(|m| m.name == name);
            found
                .map(|m| (m, unit))
                .ok_or_else(|| format!("the run did not measure {name}"))
        })
        .collect()
}

/// What the run measured besides: the untraced run times every phase, and
/// those timings are per-layer metrics. They go into the report, where
/// `compare` reads them, and not onto the result line.
fn besides(outcome: &Outcome, trace: bool) -> Vec<(&Measured, &'static str)> {
    registry()
        .filter(|&(_, _, per_layer)| per_layer != trace)
        .filter_map(|(name, unit, _)| {
            let found = outcome.metrics.iter().find(|m| m.name == name);
            found.map(|m| (m, unit))
        })
        .collect()
}

fn run_command(argv: &[String]) -> Result<ExitCode, String> {
    let RunArgs {
        spec,
        args,
        trace,
        report,
    } = parse_run(argv)?;
    if host::nproc() < 2 {
        return Err(
            "refusing to run: the workloads keep 2 threads runnable and this host has 1".into(),
        );
    }
    let outcome = measure(spec, &args, trace);
    let metrics = reported(&outcome, trace)?;

    let tally = &outcome.tally;
    let zero = metrics
        .iter()
        .filter(|(m, _)| !m.value.is_finite() || (!trace && m.value == 0.0))
        .map(|(m, _)| m.name)
        .collect::<Vec<_>>();
    let correct = tally.failed == 0 && zero.is_empty();
    println!(
        "workload {}  seed {}  seconds {}  trace {}{}",
        spec.name,
        args.seed,
        args.seconds,
        u8::from(trace),
        if args.smoke {
            "  (smoke: n/50, no bounds)"
        } else {
            ""
        }
    );
    let (mut full, mut line) = (JsonObj::new(), JsonObj::new());
    let show = |m: &Measured, unit: &str| {
        let name = m.name;
        println!("  {name:<38} {:>16.4} {unit:<6} n={}", m.value, m.samples);
        JsonObj::new()
            .field_f64("value", m.value)
            .field_str("unit", unit)
            .field_u64("samples", m.samples)
            .finish()
    };
    for &(m, unit) in &metrics {
        full = full.field_raw(m.name, &show(m, unit));
        let value = JsonObj::new()
            .field_f64("value", m.value)
            .field_str("unit", unit);
        line = line.field_raw(m.name, &value.finish());
    }
    let extra = besides(&outcome, trace);
    if !extra.is_empty() {
        println!("measured besides (in the report, not on the result line):");
    }
    for &(m, unit) in &extra {
        full = full.field_raw(m.name, &show(m, unit));
    }
    if !zero.is_empty() {
        eprintln!("metrics without a usable value: {zero:?}");
    }
    let ops = JsonObj::new()
        .field_u64("queries", tally.queries)
        .field_u64("commits", tally.commits)
        .field_u64("builds", tally.builds)
        .finish();
    let record = JsonObj::new()
        .field_str("schema", "pmi-benchmark-v1")
        .field_str("workload", spec.name)
        .field_u64("seed", args.seed)
        .field_u64("seconds", args.seconds)
        .field_u64("trace", u64::from(trace))
        .field_bool("smoke", args.smoke)
        .field_raw("claim", "null")
        .field_raw("host", &host::facts(&outcome.reference))
        .field_raw("ops", &ops)
        .field_bool("correct", correct)
        .field_u64("attempted", tally.attempted)
        .field_u64("failed", tally.failed)
        .field_str(
            "result_checksum",
            &format!("{:016x}", outcome.result_checksum),
        )
        .field_raw("metrics", &full.finish())
        .finish();
    println!("report {record}");
    if let Some(path) = report {
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(|e| format!("{path}: {e}"))?;
        writeln!(file, "{record}").map_err(|e| format!("{path}: {e}"))?;
    }
    println!(
        "{}",
        JsonObj::new()
            .field_bool("correct", correct)
            .field_u64("attempted", tally.attempted.max(1))
            .field_u64("failed", tally.failed)
            .field_raw("metrics", &line.finish())
            .finish()
    );
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.first().map(String::as_str) {
        Some("run") => run_command(&argv[1..]),
        Some("manifest") => {
            print!("{}", manifest::render());
            Ok(ExitCode::SUCCESS)
        }
        Some("compare") if argv.len() == 3 => compare::compare(&argv[1], &argv[2]),
        _ => Err(USAGE.to_string()),
    };
    result.unwrap_or_else(|e| {
        eprintln!("{e}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A `--smoke` run of every workload in both modes: the run reports
    /// exactly the registered metrics, each finite and (where 0 is not a
    /// legitimate reading) non-zero, and no operation or check fails.
    #[test]
    fn smoke_runs_report_every_registered_metric() {
        let args = Args {
            seed: 3,
            seconds: 1,
            smoke: true,
        };
        for spec in SPECS {
            let mut checksums = Vec::new();
            for trace in [false, true] {
                let outcome = measure(spec, &args, trace);
                let metrics = reported(&outcome, trace).expect("every registered metric");
                for (m, _) in metrics {
                    assert!(
                        m.value.is_finite(),
                        "{} {} = {}",
                        spec.name,
                        m.name,
                        m.value
                    );
                    assert!(
                        m.value != 0.0 || manifest::MAY_BE_ZERO.contains(&m.name),
                        "{} {} is zero",
                        spec.name,
                        m.name
                    );
                    assert!(m.samples > 0, "{} {} has no samples", spec.name, m.name);
                }
                assert_eq!(outcome.tally.failed, 0, "{} trace {trace}", spec.name);
                assert!(outcome.tally.attempted > 0);
                checksums.push(outcome.result_checksum);
            }
            assert_eq!(
                checksums[0], checksums[1],
                "{}: one seed, one checksum",
                spec.name
            );
        }
    }

    #[test]
    fn run_flags_parse() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let parsed =
            parse_run(&argv("--workload la1m-scan --seed 9 --seconds 5 --trace 1")).unwrap();
        assert_eq!(
            (
                parsed.spec.name,
                parsed.args.seed,
                parsed.args.seconds,
                parsed.trace
            ),
            ("la1m-scan", 9, 5, true)
        );
        assert!(parse_run(&argv("--workload nope")).is_err());
        assert!(parse_run(&argv("--seed 1")).is_err());
        assert!(parse_run(&argv("--workload la1m-scan --seed x")).is_err());
    }
}
