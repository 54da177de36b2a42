//! # vdr-obs — workspace-wide observability
//!
//! The paper's evaluation is a per-phase breakdown of one pipeline (Vertica
//! segments → VFT export → distributed partitions → model training →
//! in-database prediction). This crate is the measurement substrate for
//! that breakdown, mirroring how Vertica itself exposes per-operator
//! execution statistics:
//!
//! * **Spans** ([`trace`]) — nested regions carrying wall-clock *and*
//!   simulated time, node labels, and key=value fields, recorded into a
//!   sharded bounded ring buffer.
//! * **Metrics** ([`metrics`]) — named counters, gauges, and log-bucketed
//!   histograms with per-node labels, order-independent aggregation, and
//!   snapshot/diff support.
//! * **Events** ([`events`]) — a bounded structured log of moments (cache
//!   evictions, admission waits, receive errors) with node and query
//!   attribution, backing `v_monitor.events`.
//! * **Reports** ([`report`]) — an `EXPLAIN ANALYZE`-style renderer joining
//!   the trace with the cost ledger's `PhaseReport`s, as text or JSON.
//! * **Trace export** ([`chrome`]) — Chrome trace-event JSON so any
//!   recorded workload opens in `chrome://tracing` / Perfetto.
//!
//! ## Verbosity
//!
//! The `VDR_OBS` environment variable gates recording:
//!
//! | value     | effect                                                    |
//! |-----------|-----------------------------------------------------------|
//! | `off`     | spans and metrics are no-ops (near-zero overhead)         |
//! | `summary` | record everything; text reports show the phase table      |
//! | `trace`   | as `summary`, plus the full span tree in text reports     |
//!
//! Unset behaves as `summary`. [`set_verbosity`] overrides the environment
//! default at runtime (and [`reset_verbosity`] restores it) — the `PROFILE`
//! SQL form uses this to force recording for the statement it measures.
//!
//! ## Recording
//!
//! All recording flows through one process-global [`Obs`] instance
//! ([`global()`]); sessions scope their view with a span-sequence watermark
//! plus a metrics-snapshot diff (see `vdr-core::Session::{metrics,
//! trace_report}`).
//!
//! ```
//! let mut span = vdr_obs::span("vft.export");
//! span.record("rows", 4096u64);
//! drop(span); // recorded into the global trace ring
//!
//! vdr_obs::counter_on("vft.segment.rows", 2, 4096);
//! let snap = vdr_obs::global().metrics().snapshot();
//! assert!(snap.counter_total("vft.segment.rows") >= 4096);
//! ```

pub mod chrome;
pub mod dc;
pub mod events;
pub mod metrics;
pub mod prom;
pub mod query;
pub mod report;
pub mod table;
pub mod trace;

pub use chrome::{
    chrome_trace_json, chrome_trace_json_with_events, export_chrome_trace,
    export_chrome_trace_with_events,
};
pub use dc::{DataCollector, NodeSample, QuerySummary, TickContext, TickUsage};
pub use events::{EventLog, EventRecord};
pub use metrics::{HistogramSnapshot, MetricValue, MetricsRegistry, MetricsSnapshot};
pub use prom::render_prometheus;
pub use query::{current_node, current_query_id, next_query_id, NodeScope, QueryScope};
pub use report::TraceReport;
pub use table::Table;
pub use trace::{SpanGuard, SpanRecord, TraceSink};

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// How much the observability layer records and renders. The `VDR_OBS`
/// environment variable sets the default; [`set_verbosity`] overrides it at
/// runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verbosity {
    /// Record nothing.
    Off,
    /// Record everything; reports render the phase summary table.
    Summary,
    /// Record everything; reports also render the nested span tree.
    Trace,
}

impl Verbosity {
    /// Parse a `VDR_OBS` value. Unknown strings fall back to `Summary` so a
    /// typo never silently disables measurement.
    pub fn parse(value: &str) -> Verbosity {
        match value.to_ascii_lowercase().as_str() {
            "off" | "0" | "none" => Verbosity::Off,
            "trace" | "full" => Verbosity::Trace,
            _ => Verbosity::Summary,
        }
    }

    /// The process-wide verbosity from the `VDR_OBS` environment variable,
    /// read once.
    pub fn from_env() -> Verbosity {
        static VERBOSITY: OnceLock<Verbosity> = OnceLock::new();
        *VERBOSITY.get_or_init(|| match std::env::var("VDR_OBS") {
            Ok(v) => Verbosity::parse(&v),
            Err(_) => Verbosity::Summary,
        })
    }

    /// The effective verbosity: a runtime override installed with
    /// [`set_verbosity`] if one is active, else the `VDR_OBS` default. All
    /// recording gates consult this.
    pub fn current() -> Verbosity {
        match VERBOSITY_OVERRIDE.load(Ordering::Relaxed) {
            OVERRIDE_OFF => Verbosity::Off,
            OVERRIDE_SUMMARY => Verbosity::Summary,
            OVERRIDE_TRACE => Verbosity::Trace,
            _ => Verbosity::from_env(),
        }
    }

    pub fn recording(self) -> bool {
        self != Verbosity::Off
    }
}

const OVERRIDE_UNSET: u8 = 0;
const OVERRIDE_OFF: u8 = 1;
const OVERRIDE_SUMMARY: u8 = 2;
const OVERRIDE_TRACE: u8 = 3;

static VERBOSITY_OVERRIDE: AtomicU8 = AtomicU8::new(OVERRIDE_UNSET);

/// Override the process verbosity at runtime. Unlike mutating `VDR_OBS`,
/// this is race-free with respect to the parsed-once environment default;
/// tests and the `PROFILE` execution path use it to force recording on.
/// Undo with [`reset_verbosity`].
pub fn set_verbosity(v: Verbosity) {
    let tag = match v {
        Verbosity::Off => OVERRIDE_OFF,
        Verbosity::Summary => OVERRIDE_SUMMARY,
        Verbosity::Trace => OVERRIDE_TRACE,
    };
    VERBOSITY_OVERRIDE.store(tag, Ordering::Relaxed);
}

/// Drop any [`set_verbosity`] override; `VDR_OBS` (or its `Summary`
/// default) applies again.
pub fn reset_verbosity() {
    VERBOSITY_OVERRIDE.store(OVERRIDE_UNSET, Ordering::Relaxed);
}

/// Force verbosity `v` for the guard's lifetime, then restore whatever
/// override (or environment default) was active before. The RAII form of
/// [`set_verbosity`] + [`reset_verbosity`] for tests and benchmarks.
pub fn verbosity_guard(v: Verbosity) -> VerbosityGuard {
    let prev = verbosity_override();
    set_verbosity(v);
    VerbosityGuard { prev }
}

/// Restores the previous verbosity override on drop. See [`verbosity_guard`].
pub struct VerbosityGuard {
    prev: Option<Verbosity>,
}

impl Drop for VerbosityGuard {
    fn drop(&mut self) {
        match self.prev {
            Some(v) => set_verbosity(v),
            None => reset_verbosity(),
        }
    }
}

/// The active [`set_verbosity`] override, if any. Callers that force a
/// temporary verbosity (e.g. `PROFILE`) save this and restore it after.
pub fn verbosity_override() -> Option<Verbosity> {
    match VERBOSITY_OVERRIDE.load(Ordering::Relaxed) {
        OVERRIDE_OFF => Some(Verbosity::Off),
        OVERRIDE_SUMMARY => Some(Verbosity::Summary),
        OVERRIDE_TRACE => Some(Verbosity::Trace),
        _ => None,
    }
}

/// The process-global observability state: one trace sink plus one metrics
/// registry.
pub struct Obs {
    trace: TraceSink,
    metrics: MetricsRegistry,
    events: EventLog,
    dc: DataCollector,
}

impl Obs {
    pub fn new() -> Self {
        Obs {
            trace: TraceSink::new(),
            metrics: MetricsRegistry::new(),
            events: EventLog::new(),
            dc: DataCollector::new(),
        }
    }

    pub fn trace(&self) -> &TraceSink {
        &self.trace
    }

    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    pub fn events(&self) -> &EventLog {
        &self.events
    }

    /// The data collector: per-node, retention-bounded time-series rings
    /// sampled at deterministic tick points (statement boundaries, VFT and
    /// train-pool completions).
    pub fn dc(&self) -> &DataCollector {
        &self.dc
    }
}

impl Default for Obs {
    fn default() -> Self {
        Obs::new()
    }
}

/// The process-global [`Obs`] instance every instrumented crate records
/// into.
pub fn global() -> &'static Obs {
    static GLOBAL: OnceLock<Obs> = OnceLock::new();
    GLOBAL.get_or_init(Obs::new)
}

/// Open a span under the current thread's innermost open span (no-op when
/// `VDR_OBS=off`). Close by dropping the guard.
pub fn span(name: &str) -> SpanGuard<'static> {
    global().trace().span(name)
}

/// Open a span under an explicit parent — for work handed to another thread
/// (pass `SpanGuard::id()` of the parent across).
pub fn span_with_parent(name: &str, parent: u64) -> SpanGuard<'static> {
    global().trace().span_with_parent(name, parent)
}

/// Open a *detail* span (per-partition / per-instance inner span on a hot
/// path): recorded only at `VDR_OBS=trace`, a no-op at `summary`.
pub fn detail_span(name: &str) -> SpanGuard<'static> {
    global().trace().detail_span(name)
}

/// [`detail_span`] under an explicit parent id.
pub fn detail_span_with_parent(name: &str, parent: u64) -> SpanGuard<'static> {
    global().trace().detail_span_with_parent(name, parent)
}

/// The innermost open span on this thread (0 if none) — the value to pass
/// to [`span_with_parent`] from spawned workers.
pub fn current_span_id() -> u64 {
    trace::current_span_id()
}

/// Add to a global counter.
pub fn counter(name: &str, delta: u64) {
    global().metrics().counter(name, None, delta);
}

/// Add to a per-node counter.
pub fn counter_on(name: &str, node: usize, delta: u64) {
    global().metrics().counter(name, Some(node), delta);
}

/// Set a global gauge to its current level.
pub fn gauge(name: &str, value: f64) {
    global().metrics().gauge(name, None, value);
}

/// Set a per-node gauge to its current level.
pub fn gauge_on(name: &str, node: usize, value: f64) {
    global().metrics().gauge(name, Some(node), value);
}

/// Record one observation into a global log-bucketed histogram.
pub fn observe(name: &str, value: f64) {
    global().metrics().observe(name, None, value);
}

/// Record one observation into a per-node log-bucketed histogram.
pub fn observe_on(name: &str, node: usize, value: f64) {
    global().metrics().observe(name, Some(node), value);
}

/// Record a structured event into the global bounded event log. The node
/// label comes from the thread's [`NodeScope`] (if any); the query id from
/// its [`QueryScope`].
pub fn event(kind: &str, detail: impl Into<String>) {
    global().events().record(kind, None, detail);
}

/// Record a structured event attributed to an explicit node.
pub fn event_on(kind: &str, node: usize, detail: impl Into<String>) {
    global().events().record(kind, Some(node), detail);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The verbosity override is process-global and every recording gate
    /// reads it: a unit test that sets it, or that asserts on what was
    /// recorded, holds this lock so no other test flips it mid-test.
    pub(crate) fn verbosity_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn verbosity_parses_all_documented_values() {
        assert_eq!(Verbosity::parse("off"), Verbosity::Off);
        assert_eq!(Verbosity::parse("OFF"), Verbosity::Off);
        assert_eq!(Verbosity::parse("summary"), Verbosity::Summary);
        assert_eq!(Verbosity::parse("trace"), Verbosity::Trace);
        assert_eq!(Verbosity::parse("garbage"), Verbosity::Summary);
        assert!(!Verbosity::Off.recording());
        assert!(Verbosity::Trace.recording());
    }

    #[test]
    fn global_helpers_record() {
        let _lock = crate::tests::verbosity_lock();
        let before = global().metrics().snapshot();
        counter("lib.test.counter", 2);
        counter_on("lib.test.counter", 1, 3);
        observe("lib.test.hist", 4.0);
        gauge("lib.test.gauge", 9.0);
        let diff = global().metrics().snapshot().diff(&before);
        assert_eq!(diff.counter_total("lib.test.counter"), 5);
        assert_eq!(
            diff.histogram_total("lib.test.hist").map(|h| h.count),
            Some(1)
        );
    }

    #[test]
    fn span_helpers_nest_through_the_global_sink() {
        let _lock = crate::tests::verbosity_lock();
        let seq = global().trace().current_seq();
        {
            let outer = span("lib.test.outer");
            let outer_id = outer.id();
            assert_eq!(current_span_id(), outer_id);
            {
                let inner = span("lib.test.inner");
                assert_ne!(inner.id(), outer_id);
            }
        }
        let spans = global().trace().spans_since(seq);
        let outer = spans.iter().find(|s| s.name == "lib.test.outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "lib.test.inner").unwrap();
        assert_eq!(inner.parent, outer.id);
        assert_eq!(current_span_id(), 0);
    }
}
