//! `benchmark`: one repeatable run of the paper's loop.
//!
//! ```text
//! benchmark --workload <name> [--seed <u64>] [--seconds <s>] [--trace <0|1>] [--out <file>]
//! benchmark --check
//! benchmark --compare <old.jsonl> <new.jsonl>
//! ```
//!
//! The last line of standard output of a run is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`.

mod check;
mod compare;
mod engine;
mod gen;
mod metrics;
mod probes;
mod run;
mod shape;
mod spans;
mod sqlmix;
mod stats;

use run::{Outcome, RunConfig};
use serde_json::Value;
use shape::Workload;
use std::io::Write;
use std::process::ExitCode;

/// SIGMOD'15 opened on May 31, 2015.
const DEFAULT_SEED: u64 = 20150531;
const DEFAULT_SECONDS: f64 = 20.0;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

const USAGE: &str = "usage:
  benchmark --workload <loop_narrow|loop_wide|sql_mix|alt_paths> [--seed <u64>]
            [--seconds <s>] [--trace <0|1> | --traced] [--out <file.jsonl>]
  benchmark --check
  benchmark --compare <old.jsonl> <new.jsonl>";

fn fail(message: &str) -> ExitCode {
    eprintln!("benchmark: {message}\n{USAGE}");
    ExitCode::from(2)
}

/// The result object of a run, metrics in declared order with their units.
fn result_json(outcome: &Outcome, traced: bool) -> Value {
    let reported = if traced {
        &outcome.per_layer
    } else {
        &outcome.end_to_end
    };
    let metrics = reported
        .iter()
        .map(|m| {
            // JSON has no NaN; a metric that could not be computed reads 0.
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let metric = Value::Object(vec![
                ("value".into(), Value::Float(value)),
                ("unit".into(), Value::String(m.unit.into())),
            ]);
            (m.name.clone(), metric)
        })
        .collect();
    Value::Object(vec![
        ("correct".into(), Value::Bool(outcome.checks.failed == 0)),
        ("attempted".into(), Value::UInt(outcome.checks.attempted)),
        ("failed".into(), Value::UInt(outcome.checks.failed)),
        ("metrics".into(), Value::Object(metrics)),
    ])
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = DEFAULT_SECONDS;
    let mut traced = false;
    let mut out_file = None;
    let mut i = 0;
    while i < args.len() {
        let value = |i: usize| args.get(i + 1).map(String::as_str);
        match args[i].as_str() {
            "--check" => return check::run(),
            "--compare" => {
                return match (value(i), value(i + 1)) {
                    (Some(old), Some(new)) => compare::run(old, new),
                    _ => fail("--compare takes two result files"),
                }
            }
            "--traced" => {
                traced = true;
                i += 1;
                continue;
            }
            flag @ ("--workload" | "--seed" | "--seconds" | "--trace" | "--out") => {
                let Some(v) = value(i) else {
                    return fail(&format!("{flag} takes a value"));
                };
                match flag {
                    "--workload" => match Workload::parse(v) {
                        Some(w) => workload = Some(w),
                        None => return fail(&format!("unknown workload '{v}'")),
                    },
                    "--seed" => match v.parse() {
                        Ok(s) => seed = s,
                        Err(_) => return fail("--seed takes an unsigned integer"),
                    },
                    "--seconds" => match v.parse::<f64>() {
                        Ok(s) if s > 0.0 && s.is_finite() => seconds = s,
                        _ => return fail("--seconds takes a positive number"),
                    },
                    "--trace" => match v {
                        "0" => traced = false,
                        "1" => traced = true,
                        _ => return fail("--trace takes 0 or 1"),
                    },
                    _ => out_file = Some(v.to_string()),
                }
                i += 2;
            }
            other => return fail(&format!("unknown argument '{other}'")),
        }
    }
    let Some(workload) = workload else {
        return fail("--workload is required");
    };

    let outcome = run::run(&RunConfig {
        workload,
        size_divisor: 1,
        seed,
        seconds,
        traced,
        setups: SETUPS,
        fixed_iterations: None,
    });
    for failure in &outcome.checks.failures {
        eprintln!("benchmark: failed check: {failure}");
    }
    eprintln!(
        "benchmark: {} seed {seed}: {} iterations, {} samples behind the thinnest median, \
         {}/{} operations failed",
        workload.name(),
        outcome.iterations,
        outcome.min_samples,
        outcome.checks.failed,
        outcome.checks.attempted,
    );
    if outcome.unaccounted_pct > 2.0 {
        eprintln!(
            "benchmark: {:.2}% of the loop is covered by no stage span",
            outcome.unaccounted_pct
        );
        return ExitCode::FAILURE;
    }
    let result = result_json(&outcome, traced);
    if let Some(path) = out_file {
        if let Err(e) = compare::append_record(&path, workload, seed, traced, &result) {
            eprintln!("benchmark: cannot append to {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    let mut stdout = std::io::stdout().lock();
    if writeln!(stdout, "{result}")
        .and_then(|()| stdout.flush())
        .is_err()
    {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
