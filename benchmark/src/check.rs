//! `--check`: every workload at 1/20 size for two iterations (one untraced,
//! one traced), validated against `BENCHMARK.json`: the workload names, every
//! end-to-end and per-layer metric name and unit, no metric missing or extra,
//! every end-to-end value positive, and every result check passing.

use crate::compare::{declared, load_benchmark_json, Declared};
use crate::metrics;
use crate::run::{self, RunConfig};
use crate::shape::Workload;
use serde_json::Value;
use std::process::ExitCode;

const CHECK_DIVISOR: usize = 20;

/// Names in one list but not the other, as error lines.
fn diff_names(what: &str, declared: &[Declared], produced: &[(String, &str)]) -> Vec<String> {
    let mut errors = Vec::new();
    for Declared { name, unit, .. } in declared {
        match produced.iter().find(|(n, _)| n == name) {
            None => errors.push(format!("{what} '{name}' is declared but not produced")),
            Some((_, u)) if u != unit => errors.push(format!(
                "{what} '{name}' is declared in '{unit}' but produced in '{u}'"
            )),
            Some(_) => {}
        }
    }
    for (name, _) in produced {
        if !declared.iter().any(|d| d.name == *name) {
            errors.push(format!("{what} '{name}' is produced but not declared"));
        }
    }
    errors
}

pub fn run() -> ExitCode {
    let doc = match load_benchmark_json() {
        Ok(doc) => doc,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let mut errors = Vec::new();

    let e2e: Vec<(String, &str)> = metrics::END_TO_END
        .iter()
        .map(|(n, u)| (n.to_string(), *u))
        .collect();
    match declared(&doc, "end_to_end") {
        Ok(d) => {
            errors.extend(diff_names("end-to-end metric", &d, &e2e));
            for m in d.iter().filter(|m| m.bound.is_none()) {
                errors.push(format!("end-to-end metric '{}' has no bound", m.name));
            }
        }
        Err(e) => errors.push(e),
    }
    match declared(&doc, "per_layer") {
        Ok(d) => errors.extend(diff_names(
            "per-layer metric",
            &d,
            &metrics::per_layer_names(),
        )),
        Err(e) => errors.push(e),
    }
    let declared_workloads: Vec<&str> = doc
        .get("workloads")
        .and_then(Value::as_array)
        .map(|ws| {
            ws.iter()
                .filter_map(|w| w.get("name").and_then(Value::as_str))
                .collect()
        })
        .unwrap_or_default();
    let own: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    if declared_workloads != own {
        errors.push(format!(
            "workloads declared {declared_workloads:?}, produced {own:?}"
        ));
    }

    for workload in Workload::ALL {
        let outcome = run::run(&RunConfig {
            workload,
            size_divisor: CHECK_DIVISOR,
            seed: crate::DEFAULT_SEED,
            seconds: 0.0,
            traced: true,
            setups: 1,
            fixed_iterations: Some(2),
        });
        let name = workload.name();
        for failure in &outcome.checks.failures {
            errors.push(format!("{name}: failed check: {failure}"));
        }
        if outcome.checks.failed > 0 || outcome.checks.attempted == 0 {
            errors.push(format!(
                "{name}: {} of {} operations failed",
                outcome.checks.failed, outcome.checks.attempted
            ));
        }
        for m in &outcome.end_to_end {
            if !(m.value.is_finite() && m.value > 0.0) {
                errors.push(format!(
                    "{name}: end-to-end metric {} = {}",
                    m.name, m.value
                ));
            }
        }
        for m in &outcome.per_layer {
            if !m.value.is_finite() {
                errors.push(format!("{name}: per-layer metric {} = {}", m.name, m.value));
            }
        }
        eprintln!(
            "benchmark: check {name}: {} operations, {} failed",
            outcome.checks.attempted, outcome.checks.failed
        );
    }

    if errors.is_empty() {
        println!("benchmark check: ok");
        ExitCode::SUCCESS
    } else {
        for e in &errors {
            eprintln!("benchmark check: {e}");
        }
        ExitCode::FAILURE
    }
}
