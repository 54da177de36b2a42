//! One run of one workload: repeated set-up, warm-up, the measured
//! iterations, the capped phase, and (traced) the probes and the trace file.

use crate::engine::{Bench, Checks};
use crate::metrics::{self, Metric, Traced};
use crate::probes;
use crate::shape::{Shape, Workload};
use crate::spans::Recorder;
use crate::sqlmix::CLASSES;
use crate::stats::{median, p_hi};
use serde_json::Value;
use std::path::Path;
use std::time::{Duration, Instant};
use vertica_dr::obs::{self, Verbosity};

/// Share of the measured time the capped phase (phase B) gets.
const CAPPED_SHARE: f64 = 0.2;

pub struct RunConfig {
    pub workload: Workload,
    /// 1 for the full size, 20 for `--check`.
    pub size_divisor: usize,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// Times the whole set-up is repeated; `setup_s` is the median.
    pub setups: usize,
    /// Run exactly this many iterations (and capped rounds) instead of
    /// filling `seconds` — `--check`.
    pub fixed_iterations: Option<usize>,
}

pub struct Outcome {
    pub end_to_end: Vec<Metric>,
    /// Empty unless the run was traced.
    pub per_layer: Vec<Metric>,
    pub checks: Checks,
    pub iterations: usize,
    /// Lowest sample count behind any reported median.
    pub min_samples: usize,
    /// Share of the untraced iterations' wall time no stage span covers.
    pub unaccounted_pct: f64,
}

/// Set up `config.setups` times and keep the last: generate the inputs,
/// start the cluster, load the persistent tables and run one untimed
/// iteration of the loop (the first is ~1.5× slower than steady state).
fn set_up(config: &RunConfig) -> (Bench, Vec<f64>) {
    let mut times = Vec::new();
    let mut bench = None;
    for _ in 0..config.setups.max(1) {
        // Free the previous copy first so peak memory is one set-up's.
        drop(bench.take());
        let started = Instant::now();
        let mut b = Bench::setup(Shape::of(config.workload, config.size_divisor), config.seed);
        b.iteration(&mut Recorder::new(false));
        times.push(started.elapsed().as_secs_f64());
        bench = Some(b);
    }
    (bench.expect("at least one set-up"), times)
}

pub fn run(config: &RunConfig) -> Outcome {
    // The engine reads these; the benchmark fixes its configuration itself.
    std::env::remove_var("VDR_OBS");
    std::env::remove_var("VDR_GROUP_BY_SHUFFLE");
    obs::set_verbosity(Verbosity::Off);

    let (mut bench, setup_s) = set_up(config);

    let mut untraced = Recorder::new(false);
    let mut traced = Recorder::new(true);
    untraced.set_measuring(true);
    traced.set_measuring(true);

    let started = Instant::now();
    let budget = Duration::from_secs_f64(config.seconds);
    let main_deadline = started + budget.mul_f64(1.0 - CAPPED_SHARE);
    let counters_before = obs::global().metrics().snapshot();
    let mut iterations = 0usize;
    let mut traced_iterations = 0usize;
    loop {
        let done = match config.fixed_iterations {
            Some(n) => iterations >= n,
            None => iterations >= 4 && Instant::now() >= main_deadline,
        };
        if done {
            break;
        }
        // A traced run alternates untraced and traced iterations, so the two
        // medians the tracing overhead compares see the same machine state.
        if config.traced && iterations % 2 == 1 {
            obs::set_verbosity(Verbosity::Summary);
            bench.iteration(&mut traced);
            obs::set_verbosity(Verbosity::Off);
            traced_iterations += 1;
        } else {
            bench.iteration(&mut untraced);
        }
        iterations += 1;
    }
    let counters = obs::global().metrics().snapshot().diff(&counters_before);

    if traced_iterations > 0 {
        // The workloads must reach the paths they were chosen for.
        let moved = |class: &str| {
            let idx = CLASSES.iter().position(|c| c.name == class);
            idx.map_or(0, |i| bench.exchange_bytes_by_class[i])
        };
        let ok = moved("join_coloc") == 0 && moved("join_shuffle") > 0 && moved("gb_high") > 0;
        bench.checks.op("exchange traffic by join strategy", ok);
    }

    let capped_rounds = config.fixed_iterations.unwrap_or(10);
    bench.capped_phase(&mut untraced, started + budget, capped_rounds);

    let end_to_end = metrics::end_to_end(&bench, &untraced, &setup_s);
    let mut per_layer = Vec::new();
    if config.traced {
        let probe_values = probes::run(&bench, &mut traced);
        per_layer = metrics::per_layer(
            &bench,
            &Traced {
                rec: &traced,
                untraced: &untraced,
                counters: &counters,
                iterations: traced_iterations,
                probes: &probe_values,
            },
        );
        if let Err(e) = write_trace(config, &traced, &per_layer) {
            eprintln!("benchmark: cannot write the trace file: {e}");
        }
    }
    let min_samples = untraced
        .samples("loop.iteration")
        .len()
        .min(untraced.samples("capped.topn").len());
    Outcome {
        end_to_end,
        per_layer,
        checks: std::mem::take(&mut bench.checks),
        iterations,
        min_samples,
        unaccounted_pct: metrics::unaccounted_pct(&untraced),
    }
}

/// `benchmark/out` under the checkout the command runs from, or `out` when
/// run from inside the package.
fn out_dir() -> &'static Path {
    if Path::new("benchmark/Cargo.toml").exists() {
        Path::new("benchmark/out")
    } else {
        Path::new("out")
    }
}

/// Write `trace-<workload>.json`: every span of the traced pass with its
/// parent and iteration, each span name's timing (median, the highest
/// percentile with ten samples beyond it, sample count), and the per-layer
/// values derived from them.
fn write_trace(config: &RunConfig, rec: &Recorder, per_layer: &[Metric]) -> std::io::Result<()> {
    let spans: Vec<Value> = rec
        .spans()
        .iter()
        .enumerate()
        .map(|(id, s)| {
            Value::Object(vec![
                ("id".into(), Value::UInt(id as u64)),
                ("name".into(), Value::String(s.name.into())),
                ("start_ns".into(), Value::UInt(s.start_ns)),
                ("end_ns".into(), Value::UInt(s.end_ns)),
                ("untimed_ns".into(), Value::UInt(s.paused_ns)),
                (
                    "parent".into(),
                    s.parent.map_or(Value::Null, |p| Value::UInt(p as u64)),
                ),
                ("iteration".into(), Value::UInt(u64::from(s.iteration))),
            ])
        })
        .collect();
    let mut names: Vec<&str> = rec.spans().iter().map(|s| s.name).collect();
    names.sort_unstable();
    names.dedup();
    let timings: Vec<(String, Value)> = names
        .into_iter()
        .map(|name| {
            let samples = rec.samples(name);
            let timing = Value::Object(vec![
                ("samples".into(), Value::UInt(samples.len() as u64)),
                ("p50_ms".into(), Value::Float(median(samples))),
                ("p_hi_ms".into(), Value::Float(p_hi(samples))),
            ]);
            (name.to_string(), timing)
        })
        .collect();
    let doc = Value::Object(vec![
        (
            "workload".into(),
            Value::String(config.workload.name().into()),
        ),
        ("seed".into(), Value::UInt(config.seed)),
        ("timings".into(), Value::Object(timings)),
        (
            "per_layer".into(),
            Value::Object(
                per_layer
                    .iter()
                    .map(|m| (m.name.clone(), Value::Float(m.value)))
                    .collect(),
            ),
        ),
        ("spans".into(), Value::Array(spans)),
    ]);
    let dir = out_dir();
    std::fs::create_dir_all(dir)?;
    std::fs::write(
        dir.join(format!("trace-{}.json", config.workload.name())),
        doc.to_string(),
    )
}
