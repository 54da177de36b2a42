//! Query attribution: each unit of work's id, node, forced verbosity and
//! own metrics, carried in a thread-local scope.
//!
//! The database allocates one id per unit of work with [`next_query_id`],
//! opens a [`QueryContext`] for it and enters a [`QueryScope`] for its
//! duration: spans and events are stamped with the context's id and node,
//! and every counter, gauge and histogram write lands in the context's own
//! metric sink as well as in the process registry, so a statement's metric
//! delta is what its own threads recorded, whatever else the process ran
//! meanwhile. A context may also force a verbosity for its own work
//! (`PROFILE` forces `Summary`, `TRACE` forces `Trace`), so no process-wide
//! setting is flipped on the statement path.
//!
//! Worker threads do not inherit the thread-local. Every node thread is
//! started by one fan-out, `vdr_cluster::SimCluster::run_on`: it captures
//! [`current`] on the calling thread and each node thread enters it
//! [`on`](QueryContext::on) its node. Span parents are not carried: they are
//! passed explicitly across threads.

use crate::metrics::MetricsRegistry;
use crate::{MetricsSnapshot, Verbosity};
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

static NEXT_QUERY_ID: AtomicU64 = AtomicU64::new(1);

/// A unit of work's own metrics, chained to the enclosing unit's sink.
struct Sink {
    metrics: MetricsRegistry,
    outer: Option<Arc<Sink>>,
}

/// What the work on a thread belongs to: a query id, its node, the level
/// the query forces, and (while recording) its own metric sink.
#[derive(Clone)]
pub struct QueryContext {
    id: u64,
    node: Option<usize>,
    forced: Verbosity,
    sink: Option<Arc<Sink>>,
}

thread_local! {
    static CURRENT: RefCell<QueryContext> = const { RefCell::new(QueryContext::NONE) };
}

impl QueryContext {
    const NONE: QueryContext = QueryContext {
        id: 0,
        node: None,
        forced: Verbosity::Off,
        sink: None,
    };

    /// A unit of work under `id`, nested in this thread's current one and on
    /// its node, forcing at least `force` and what the enclosing unit forces.
    /// When recording, its sink chains to the enclosing one (a transfer in a
    /// train run counts in both records); off, it allocates nothing.
    pub fn open(id: u64, force: Verbosity) -> QueryContext {
        let outer = current();
        let forced = force.max(outer.forced);
        let recording = forced.max(Verbosity::process_default()).recording();
        let sink = recording.then(|| {
            let metrics = MetricsRegistry::new();
            Arc::new(Sink {
                metrics,
                outer: outer.sink,
            })
        });
        QueryContext {
            id,
            forced,
            sink,
            ..outer
        }
    }

    /// This context on cluster node `node`: spans and events recorded under
    /// it default their node label to it.
    pub fn on(&self, node: usize) -> QueryContext {
        let node = Some(node);
        QueryContext {
            node,
            ..self.clone()
        }
    }

    pub fn id(&self) -> u64 {
        self.id
    }

    /// Everything recorded under this context (and the ones nested in it)
    /// so far; empty when nothing recorded.
    pub fn metrics(&self) -> MetricsSnapshot {
        let sink = self.sink.as_ref();
        sink.map(|s| s.metrics.snapshot()).unwrap_or_default()
    }
}

/// Allocate a fresh query id: process-wide, monotonically increasing,
/// never 0 (0 means "unattributed").
pub fn next_query_id() -> u64 {
    NEXT_QUERY_ID.fetch_add(1, Ordering::Relaxed)
}

/// This thread's context, to carry to the worker threads it fans out to.
pub fn current() -> QueryContext {
    CURRENT.with(|c| c.borrow().clone())
}

/// The query id work on this thread is attributed to (0 if none).
pub fn current_query_id() -> u64 {
    CURRENT.with(|c| c.borrow().id)
}

/// The node this thread's work belongs to (`None` off any node).
pub fn current_node() -> Option<usize> {
    CURRENT.with(|c| c.borrow().node)
}

/// The verbosity this thread's query forces (`Off` when none).
pub(crate) fn forced() -> Verbosity {
    CURRENT.with(|c| c.borrow().forced)
}

/// Apply `write` to every metric sink on this thread's chain.
pub(crate) fn each_sink(write: impl Fn(&MetricsRegistry)) {
    CURRENT.with(|c| {
        let ctx = c.borrow();
        let mut sink = ctx.sink.as_deref();
        while let Some(s) = sink {
            write(&s.metrics);
            sink = s.outer.as_deref();
        }
    });
}

/// Attributes this thread's work to a query context for the guard's
/// lifetime. Scopes nest: dropping restores the previously active context.
pub struct QueryScope {
    prev: QueryContext,
}

impl QueryScope {
    pub fn enter(ctx: QueryContext) -> QueryScope {
        let prev = CURRENT.with(|c| c.replace(ctx));
        QueryScope { prev }
    }
}

impl Drop for QueryScope {
    fn drop(&mut self) {
        let prev = std::mem::replace(&mut self.prev, QueryContext::NONE);
        CURRENT.with(|c| c.replace(prev));
    }
}

#[cfg(test)]
#[allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::disallowed_methods
)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_monotone_and_nonzero() {
        let a = next_query_id();
        let b = next_query_id();
        assert!(a > 0);
        assert!(b > a);
    }

    #[test]
    fn scopes_nest_and_restore() {
        assert_eq!(current_query_id(), 0);
        let outer = next_query_id();
        let inner = next_query_id();
        {
            let _o = QueryScope::enter(QueryContext::open(outer, Verbosity::Off));
            assert_eq!(current_query_id(), outer);
            {
                let _i = QueryScope::enter(QueryContext::open(inner, Verbosity::Off));
                assert_eq!(current_query_id(), inner);
            }
            assert_eq!(current_query_id(), outer);
        }
        assert_eq!(current_query_id(), 0);
    }

    #[test]
    fn nodes_nest_restore_and_carry_into_nested_units() {
        assert_eq!(current_node(), None);
        {
            let _a = QueryScope::enter(current().on(2));
            assert_eq!(current_node(), Some(2));
            {
                let _b = QueryScope::enter(current().on(5));
                assert_eq!(current_node(), Some(5));
                let _u = QueryScope::enter(QueryContext::open(next_query_id(), Verbosity::Off));
                assert_eq!(current_node(), Some(5));
            }
            assert_eq!(current_node(), Some(2));
        }
        assert_eq!(current_node(), None);
    }

    #[test]
    fn scope_is_per_thread() {
        let id = next_query_id();
        let _s = QueryScope::enter(QueryContext::open(id, Verbosity::Summary));
        let ctx = current();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                // Fresh thread: unattributed until it enters a scope itself.
                assert_eq!(current_query_id(), 0);
                crate::counter("query.test.lost", 1);
                let _w = QueryScope::enter(ctx.clone());
                assert_eq!(current_query_id(), id);
                crate::counter("query.test.carried", 1);
            });
        });
        assert_eq!(current_query_id(), id);
        let own = current().metrics();
        assert_eq!(own.counter_total("query.test.carried"), 1);
        assert_eq!(own.counter_total("query.test.lost"), 0);
    }

    #[test]
    fn a_context_forces_its_own_verbosity_only() {
        let default = Verbosity::current();
        {
            let _t = QueryScope::enter(QueryContext::open(next_query_id(), Verbosity::Trace));
            assert_eq!(Verbosity::current(), Verbosity::Trace);
            // A unit nested in it keeps the force, whatever it asks for.
            let _n = QueryScope::enter(QueryContext::open(next_query_id(), Verbosity::Off));
            assert_eq!(Verbosity::current(), Verbosity::Trace);
            std::thread::scope(|scope| {
                scope.spawn(|| assert_eq!(Verbosity::current(), default));
            });
        }
        assert_eq!(Verbosity::current(), default);
    }

    #[test]
    fn nested_sinks_chain_and_zero_deltas_leave_no_entry() {
        let _outer = QueryScope::enter(QueryContext::open(next_query_id(), Verbosity::Summary));
        crate::counter("query.test.outer", 2);
        crate::counter("query.test.zero", 0);
        let inner = QueryContext::open(current_query_id(), Verbosity::Off);
        {
            let _i = QueryScope::enter(inner.clone());
            crate::counter_on("query.test.inner", 1, 3);
            crate::observe("query.test.hist", 4.0);
            crate::gauge("query.test.gauge", 7.0);
        }
        let inner = inner.metrics();
        assert_eq!(inner.counter_total("query.test.inner"), 3);
        assert_eq!(inner.counter_total("query.test.outer"), 0);
        assert_eq!(inner.len(), 3);
        let outer = current().metrics();
        assert_eq!(outer.counter_total("query.test.outer"), 2);
        assert_eq!(outer.counter_by_node("query.test.inner")[&Some(1)], 3);
        let hist = outer.histogram_total("query.test.hist").unwrap();
        assert_eq!((hist.count, hist.max), (1, 4.0));
        assert_eq!(
            outer.get("query.test.gauge", None),
            Some(&crate::MetricValue::Gauge(7.0))
        );
        assert!(outer.get("query.test.zero", None).is_none());
    }
}
