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
//! * **Trace export** ([`chrome`]) — Chrome trace-event JSON so any
//!   recorded workload opens in `chrome://tracing` / Perfetto.
//!
//! The `EXPLAIN ANALYZE`-style report joining the trace with the cost
//! ledger's phases is `vdr-core`'s `TraceReport`: this crate depends on no
//! other crate of the workspace, so the cluster substrate can carry a query
//! context onto the threads it starts.
//!
//! That is all [`Obs`] holds: trace, metrics and events. What happened
//! *per statement over time* (the `v_monitor.dc_*` tables) is not kept
//! here but in each database's query history, which records every
//! statement, VFT transfer and train run with its metric delta and ledger
//! phases (`vdr-verticadb`'s `monitor` module).
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
//! Unset behaves as `summary`; [`set_verbosity`] replaces that process
//! default at runtime. A unit of work raises the level for itself only:
//! `PROFILE`'s [`QueryContext`] forces `summary`, `TRACE`'s `trace`.
//!
//! ## Recording
//!
//! Every metric write lands in the process-global [`Obs`] ([`global()`])
//! and, as it is recorded, in the metric sink of the writing thread's query
//! context: a statement's delta is its own sink, untouched by concurrent
//! work. Sessions scope their process-wide view with a span-sequence
//! watermark plus a metrics-snapshot diff (see `vdr-core::Session::{metrics,
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

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod chrome;
pub mod events;
pub mod metrics;
pub mod prom;
pub mod query;
pub mod table;
pub mod trace;

pub use chrome::{chrome_trace_json_with_events, export_chrome_trace_with_events};
pub use events::{EventLog, EventRecord};
pub use metrics::{HistogramSnapshot, MetricValue, MetricsRegistry, MetricsSnapshot};
pub use prom::render_prometheus;
pub use query::{current_node, current_query_id, next_query_id, QueryContext, QueryScope};
pub use table::Table;
pub use trace::{SpanGuard, SpanRecord, TraceSink};

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// How much the observability layer records and renders, in increasing
/// order. The `VDR_OBS` environment variable sets the process default;
/// [`set_verbosity`] replaces it at runtime, and a [`QueryContext`] raises it
/// for its own work.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
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

    /// The process default: `VDR_OBS`, read on first use, until
    /// [`set_verbosity`] replaces it. One atomic load after the first call.
    pub(crate) fn process_default() -> Verbosity {
        match PROCESS_DEFAULT.load(Ordering::Relaxed) {
            0 => {
                let env = std::env::var("VDR_OBS").map_or(Verbosity::Summary, |v| Self::parse(&v));
                let set = env as u8 + 1;
                let _ =
                    PROCESS_DEFAULT.compare_exchange(0, set, Ordering::Relaxed, Ordering::Relaxed);
                Verbosity::process_default()
            }
            set => [Verbosity::Off, Verbosity::Summary, Verbosity::Trace][set as usize - 1],
        }
    }

    /// The effective verbosity on this thread: the process default, raised
    /// to the level the thread's query context forces. All recording gates
    /// consult this.
    pub fn current() -> Verbosity {
        Verbosity::process_default().max(query::forced())
    }

    pub fn recording(self) -> bool {
        self != Verbosity::Off
    }
}

/// The process default verbosity plus one; 0 until first read or set.
static PROCESS_DEFAULT: AtomicU8 = AtomicU8::new(0);

/// Replace the process default verbosity at runtime. Unlike mutating
/// `VDR_OBS`, this is race-free with respect to the parsed-once environment
/// default. It is a process setting: a statement that needs recording
/// forces it for itself through its [`QueryContext`] instead.
pub fn set_verbosity(v: Verbosity) {
    PROCESS_DEFAULT.store(v as u8 + 1, Ordering::Relaxed);
}

/// The process-global observability state: one trace sink, one metrics
/// registry and one event log.
pub struct Obs {
    trace: TraceSink,
    metrics: MetricsRegistry,
    events: EventLog,
}

impl Obs {
    pub fn new() -> Self {
        Obs {
            trace: TraceSink::new(),
            metrics: MetricsRegistry::new(),
            events: EventLog::new(),
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

/// Write to the process registry and the thread's query sinks, if recording.
fn record(write: impl Fn(&MetricsRegistry)) {
    if Verbosity::current().recording() {
        write(global().metrics());
        query::each_sink(write);
    }
}

/// Add to a global counter.
pub fn counter(name: &str, delta: u64) {
    record(|m| m.counter(name, None, delta));
}

/// Add to a per-node counter.
pub fn counter_on(name: &str, node: usize, delta: u64) {
    record(|m| m.counter(name, Some(node), delta));
}

/// Set a global gauge to its current level.
pub fn gauge(name: &str, value: f64) {
    record(|m| m.gauge(name, None, value));
}

/// Set a per-node gauge to its current level.
pub fn gauge_on(name: &str, node: usize, value: f64) {
    record(|m| m.gauge(name, Some(node), value));
}

/// Record one observation into a global log-bucketed histogram.
pub fn observe(name: &str, value: f64) {
    record(|m| m.observe(name, None, value));
}

/// Record one observation into a per-node log-bucketed histogram.
pub fn observe_on(name: &str, node: usize, value: f64) {
    record(|m| m.observe(name, Some(node), value));
}

/// Record a structured event into the global bounded event log. The node
/// label and query id come from the thread's [`QueryContext`] (if any).
pub fn event(kind: &str, detail: impl Into<String>) {
    global().events().record(kind, None, detail);
}

/// Record a structured event attributed to an explicit node.
pub fn event_on(kind: &str, node: usize, detail: impl Into<String>) {
    global().events().record(kind, Some(node), detail);
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;

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
