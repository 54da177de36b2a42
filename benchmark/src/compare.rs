//! `--compare <old.jsonl> <new.jsonl>`: per-workload, per-metric deltas of
//! two sets of runs against each metric's bound.
//!
//! The files are what `--out` appends: one line per run, holding the
//! workload, seed, trace flag and the run's result object. A metric whose
//! spread between the old file's own repeated runs exceeds its bound is
//! reported `unresolved`, not `ok`: the runs cannot tell a change of that
//! size from noise.

use crate::shape::Workload;
use crate::stats::{median, quartiles};
use serde_json::Value;
use std::collections::BTreeMap;
use std::io::Write;
use std::process::ExitCode;

/// One metric as `BENCHMARK.json` declares it.
pub struct Declared {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    /// Share of the parent's median by which the metric may get worse;
    /// per-layer metrics have none.
    pub bound: Option<f64>,
}

/// The parsed `BENCHMARK.json`, looked up in the current directory and its
/// parent (the command runs from the checkout root or from the package).
pub fn load_benchmark_json() -> Result<Value, String> {
    let text = ["BENCHMARK.json", "../BENCHMARK.json"]
        .iter()
        .find_map(|p| std::fs::read_to_string(p).ok())
        .ok_or("BENCHMARK.json not found in . or ..")?;
    serde_json::from_str(&text).map_err(|e| format!("BENCHMARK.json: {e}"))
}

/// The metrics `BENCHMARK.json` lists under `list` (`end_to_end` or
/// `per_layer`).
pub fn declared(doc: &Value, list: &str) -> Result<Vec<Declared>, String> {
    doc.get(list)
        .and_then(Value::as_array)
        .ok_or(format!("BENCHMARK.json has no {list} list"))?
        .iter()
        .map(|m| {
            let text = |key: &str| m.get(key).and_then(Value::as_str).map(str::to_string);
            Some(Declared {
                name: text("name")?,
                unit: text("unit")?,
                lower_is_better: text("better")? == "lower",
                bound: m.get("bound").and_then(Value::as_f64),
            })
        })
        .collect::<Option<Vec<_>>>()
        .ok_or(format!("malformed {list} entry in BENCHMARK.json"))
}

/// Append one run to a result file.
pub fn append_record(
    path: &str,
    workload: Workload,
    seed: u64,
    traced: bool,
    result: &Value,
) -> std::io::Result<()> {
    let record = Value::Object(vec![
        ("workload".into(), Value::String(workload.name().into())),
        ("seed".into(), Value::UInt(seed)),
        ("trace".into(), Value::UInt(u64::from(traced))),
        ("result".into(), result.clone()),
    ]);
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    writeln!(file, "{record}")
}

/// workload → metric → one value per run.
type Runs = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn read_runs(path: &str) -> Result<Runs, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut runs = Runs::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let record = serde_json::from_str(line).map_err(|e| format!("{path}:{}: {e}", n + 1))?;
        let workload = record
            .get("workload")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("{path}:{}: no workload", n + 1))?;
        let metrics = record
            .get("result")
            .and_then(|r| r.get("metrics"))
            .and_then(Value::as_object)
            .ok_or_else(|| format!("{path}:{}: no result.metrics", n + 1))?;
        let by_metric = runs.entry(workload.to_string()).or_default();
        for (name, metric) in metrics {
            if let Some(v) = metric.get("value").and_then(Value::as_f64) {
                by_metric.entry(name.clone()).or_default().push(v);
            }
        }
    }
    Ok(runs)
}

/// Distance between the quartiles as a share of the median; `None` with
/// fewer than two runs.
fn spread(values: &[f64]) -> Option<f64> {
    if values.len() < 2 {
        return None;
    }
    let (q1, q3) = quartiles(values);
    let m = median(values);
    (m != 0.0).then(|| (q3 - q1).abs() / m.abs())
}

pub fn run(old_path: &str, new_path: &str) -> ExitCode {
    let loaded = load_benchmark_json()
        .and_then(|doc| declared(&doc, "end_to_end"))
        .and_then(|declared| Ok((declared, read_runs(old_path)?, read_runs(new_path)?)));
    let (declared, old, new) = match loaded {
        Ok(v) => v,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let mut regressed = 0;
    println!(
        "{:<12} {:<28} {:>14} {:>14} {:>9} {:>7} {:>9}  verdict",
        "workload", "metric", "old median", "new median", "worse by", "bound", "old iqr"
    );
    for (workload, old_metrics) in &old {
        let Some(new_metrics) = new.get(workload) else {
            continue;
        };
        for d in &declared {
            let (Some(o), Some(n), Some(bound)) =
                (old_metrics.get(&d.name), new_metrics.get(&d.name), d.bound)
            else {
                continue;
            };
            let (om, nm) = (median(o), median(n));
            // Positive = the new runs are worse, as a share of the old median.
            let worse = if om == 0.0 {
                0.0
            } else if d.lower_is_better {
                (nm - om) / om
            } else {
                (om - nm) / om
            };
            let old_spread = spread(o);
            let verdict = match old_spread {
                None => "unresolved (one old run)",
                Some(s) if s > bound => "unresolved",
                Some(_) if worse > bound => {
                    regressed += 1;
                    "REGRESSED"
                }
                Some(s) if -worse > s => "better",
                Some(_) => "ok",
            };
            println!(
                "{:<12} {:<28} {:>14.6} {:>14.6} {:>8.2}% {:>6.1}% {:>8}  {verdict}",
                workload,
                format!("{} [{}]", d.name, d.unit),
                om,
                nm,
                100.0 * worse,
                100.0 * bound,
                old_spread.map_or("-".to_string(), |s| format!("{:.2}%", 100.0 * s)),
            );
        }
    }
    if regressed > 0 {
        println!("{regressed} metric(s) worse than their bound");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
