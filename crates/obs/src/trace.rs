//! Span recording: nested regions with wall-clock and simulated time.
//!
//! Spans form a per-thread stack (the innermost open span is the implicit
//! parent of the next one); cross-thread work passes an explicit parent id.
//! Closed spans land in a sharded, bounded ring buffer — old records are
//! dropped, never blocked on, so instrumentation can stay on hot paths.

use crate::Verbosity;
use parking_lot::Mutex;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Process-wide time origin for span start timestamps. All `start_ns`
/// values are nanoseconds since this instant, so spans recorded on any
/// thread share one timeline (required by the Chrome trace exporter).
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds elapsed since the process trace epoch.
pub fn epoch_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

/// A small, stable per-thread id (1-based, assigned on first use). Used to
/// lay spans out on per-thread tracks in exported traces.
pub fn current_tid() -> u64 {
    TID.with(|t| *t)
}

/// Shards reduce contention when many worker threads close spans at once.
const SHARDS: usize = 8;

/// Per-shard capacity; the sink retains at most `SHARDS * SHARD_CAPACITY`
/// closed spans (oldest evicted first).
const SHARD_CAPACITY: usize = 16 * 1024;

/// One closed span.
#[derive(Debug, Clone, serde::Serialize)]
pub struct SpanRecord {
    /// Unique id (process-wide, never 0).
    pub id: u64,
    /// Enclosing span's id, 0 for roots.
    pub parent: u64,
    /// Dotted region name, e.g. `vft.transfer`.
    pub name: String,
    /// Node the work ran on, if it was node-scoped.
    pub node: Option<usize>,
    /// Query this span is attributed to (see [`crate::query`]); 0 when the
    /// work ran outside any query scope.
    pub query_id: u64,
    /// key=value annotations in recording order.
    pub fields: Vec<(String, String)>,
    /// Position in the global open order (monotone; used for sorting and
    /// session watermarks).
    pub start_seq: u64,
    /// Open time, nanoseconds since the process trace epoch ([`epoch_ns`]).
    pub start_ns: u64,
    /// Id of the thread that opened (and therefore closes) the span; see
    /// [`current_tid`].
    pub tid: u64,
    /// Real elapsed time between open and close, nanoseconds.
    pub wall_ns: u64,
    /// Simulated time attributed to this span, seconds (0 when the span
    /// only wraps bookkeeping).
    pub sim_secs: f64,
}

/// One entry on a thread's open-span stack. The shared `alive` flag is
/// how a guard signals closure without touching the stack it was opened
/// on: a guard may be moved to — and dropped on — a *different* thread, so
/// its `Drop` cannot assume the opening thread's stack is reachable.
/// Closed entries are lazily pruned from the tail on the next access.
struct StackEntry {
    id: u64,
    alive: Arc<AtomicBool>,
}

thread_local! {
    static SPAN_STACK: RefCell<Vec<StackEntry>> = const { RefCell::new(Vec::new()) };
}

/// Pop entries whose guard has already closed. Only the dead *tail* needs
/// removing: a dead entry below a live one stays (and is skipped by
/// [`current_span_id`]) until everything above it closes too.
fn prune_dead_tail(stack: &mut Vec<StackEntry>) {
    while stack
        .last()
        .is_some_and(|e| !e.alive.load(Ordering::Relaxed))
    {
        stack.pop();
    }
}

/// The innermost *still-open* span on the calling thread, or 0.
pub fn current_span_id() -> u64 {
    SPAN_STACK.with(|s| {
        let mut stack = s.borrow_mut();
        prune_dead_tail(&mut stack);
        stack
            .iter()
            .rev()
            .find(|e| e.alive.load(Ordering::Relaxed))
            .map(|e| e.id)
            .unwrap_or(0)
    })
}

/// Bounded in-memory store of closed spans.
pub struct TraceSink {
    shards: Vec<Mutex<VecDeque<SpanRecord>>>,
    next_id: AtomicU64,
    next_seq: AtomicU64,
}

impl TraceSink {
    pub fn new() -> Self {
        TraceSink {
            shards: (0..SHARDS)
                .map(|_| Mutex::new(VecDeque::with_capacity(64)))
                .collect(),
            next_id: AtomicU64::new(1),
            next_seq: AtomicU64::new(0),
        }
    }

    /// The sequence number the next opened span will receive. Record it
    /// before a workload, then pass it to [`Self::spans_since`] to scope a
    /// report to that workload.
    pub fn current_seq(&self) -> u64 {
        self.next_seq.load(Ordering::SeqCst)
    }

    /// Open a span whose parent is the innermost open span on this thread.
    pub fn span(&self, name: &str) -> SpanGuard<'_> {
        self.span_with_parent(name, current_span_id())
    }

    /// Open a *detail* span: per-partition / per-instance / per-worker
    /// inner spans on hot execution paths. Recorded only at
    /// [`Verbosity::Trace`] — at `summary` the hot paths keep their
    /// counters and histograms but skip the span allocations.
    pub fn detail_span(&self, name: &str) -> SpanGuard<'_> {
        self.detail_span_with_parent(name, current_span_id())
    }

    /// [`Self::detail_span`] under an explicit parent id.
    pub fn detail_span_with_parent(&self, name: &str, parent: u64) -> SpanGuard<'_> {
        if Verbosity::current() != Verbosity::Trace {
            return SpanGuard::disabled();
        }
        self.span_with_parent(name, parent)
    }

    /// Open a span under an explicit parent id (0 for a root). Use when the
    /// opening thread differs from the logical parent's thread.
    pub fn span_with_parent(&self, name: &str, parent: u64) -> SpanGuard<'_> {
        if !Verbosity::current().recording() {
            return SpanGuard::disabled();
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_seq = self.next_seq.fetch_add(1, Ordering::SeqCst);
        let alive = Arc::new(AtomicBool::new(true));
        SPAN_STACK.with(|s| {
            let mut stack = s.borrow_mut();
            prune_dead_tail(&mut stack);
            stack.push(StackEntry {
                id,
                alive: Arc::clone(&alive),
            });
        });
        SpanGuard {
            sink: Some(self),
            alive,
            record: SpanRecord {
                id,
                parent,
                name: name.to_string(),
                // Default to the thread's node scope; `set_node` overrides.
                node: crate::query::current_node(),
                query_id: crate::query::current_query_id(),
                fields: Vec::new(),
                start_seq,
                start_ns: epoch_ns(),
                tid: current_tid(),
                wall_ns: 0,
                sim_secs: 0.0,
            },
            started: Instant::now(),
        }
    }

    fn push(&self, record: SpanRecord) {
        let shard = &self.shards[(record.id as usize) % SHARDS];
        let mut q = shard.lock();
        if q.len() >= SHARD_CAPACITY {
            q.pop_front();
        }
        q.push_back(record);
    }

    /// All retained spans, ordered by open sequence.
    pub fn snapshot(&self) -> Vec<SpanRecord> {
        self.spans_since(0)
    }

    /// Retained spans opened at or after `seq`, ordered by open sequence.
    pub fn spans_since(&self, seq: u64) -> Vec<SpanRecord> {
        let mut out: Vec<SpanRecord> = Vec::new();
        for shard in &self.shards {
            out.extend(shard.lock().iter().filter(|s| s.start_seq >= seq).cloned());
        }
        out.sort_by_key(|s| s.start_seq);
        out
    }

    /// Drop all retained spans (ids and sequence numbers keep advancing).
    pub fn clear(&self) {
        for shard in &self.shards {
            shard.lock().clear();
        }
    }
}

impl Default for TraceSink {
    fn default() -> Self {
        TraceSink::new()
    }
}

/// An open span; closing (dropping) it records a [`SpanRecord`].
pub struct SpanGuard<'a> {
    /// `None` for the disabled guard (`VDR_OBS=off`).
    sink: Option<&'a TraceSink>,
    /// Shared with this guard's [`StackEntry`]; cleared on drop so the
    /// opening thread's stack can prune it lazily.
    alive: Arc<AtomicBool>,
    record: SpanRecord,
    started: Instant,
}

impl SpanGuard<'static> {
    fn disabled() -> Self {
        SpanGuard {
            sink: None,
            alive: Arc::new(AtomicBool::new(false)),
            record: SpanRecord {
                id: 0,
                parent: 0,
                name: String::new(),
                node: None,
                query_id: 0,
                fields: Vec::new(),
                start_seq: 0,
                start_ns: 0,
                tid: 0,
                wall_ns: 0,
                sim_secs: 0.0,
            },
            started: Instant::now(),
        }
    }
}

impl SpanGuard<'_> {
    /// This span's id — pass to [`TraceSink::span_with_parent`] from worker
    /// threads. 0 when recording is off.
    pub fn id(&self) -> u64 {
        self.record.id
    }

    /// Label the span with the node the work runs on.
    pub fn set_node(&mut self, node: usize) {
        self.record.node = Some(node);
    }

    /// Attach a key=value annotation (kept in recording order).
    pub fn record(&mut self, key: &str, value: impl std::fmt::Display) {
        if self.sink.is_some() {
            self.record
                .fields
                .push((key.to_string(), value.to_string()));
        }
    }

    /// Attribute `secs` seconds of simulated time to this span.
    pub fn set_sim_time(&mut self, secs: f64) {
        self.record.sim_secs = secs;
    }

    /// Override the query id stamped at open (e.g. when the id is only
    /// allocated after the span starts).
    pub fn set_query_id(&mut self, query_id: u64) {
        self.record.query_id = query_id;
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let Some(sink) = self.sink else { return };
        self.record.wall_ns = self.started.elapsed().as_nanos() as u64;
        // Closing only flips the shared alive flag — never indexes into a
        // stack. The guard may be dropping on a different thread than the
        // one that opened it (moved into a worker), during unwinding, or
        // out of LIFO order; in every case the opening thread's stack
        // prunes the dead entry lazily and `current_span_id` skips it, so
        // no stale id can be handed out as a parent.
        self.alive.store(false, Ordering::Relaxed);
        SPAN_STACK.with(|s| prune_dead_tail(&mut s.borrow_mut()));
        sink.push(std::mem::replace(
            &mut self.record,
            SpanRecord {
                id: 0,
                parent: 0,
                name: String::new(),
                node: None,
                query_id: 0,
                fields: Vec::new(),
                start_seq: 0,
                start_ns: 0,
                tid: 0,
                wall_ns: 0,
                sim_secs: 0.0,
            },
        ));
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
    fn nesting_links_parents() {
        let sink = TraceSink::new();
        {
            let mut a = sink.span("a");
            a.record("k", 1);
            let b = sink.span("b");
            let b_id = b.id();
            drop(b);
            let c = sink.span("c");
            assert_ne!(c.id(), b_id);
        }
        let spans = sink.snapshot();
        assert_eq!(spans.len(), 3);
        // Ordered by open sequence: a, b, c — but closed b, c, a.
        let (b, c, a) = (&spans[1], &spans[2], &spans[0]);
        assert_eq!(a.name, "a");
        assert_eq!(b.name, "b");
        assert_eq!(c.name, "c");
        assert_eq!(b.parent, a.id);
        assert_eq!(c.parent, a.id);
        assert_eq!(a.parent, 0);
        assert_eq!(a.fields, vec![("k".to_string(), "1".to_string())]);
    }

    #[test]
    fn explicit_parent_crosses_threads() {
        let sink = std::sync::Arc::new(TraceSink::new());
        let root = sink.span("root");
        let root_id = root.id();
        let s2 = std::sync::Arc::clone(&sink);
        std::thread::scope(|scope| {
            scope.spawn(move || {
                let mut w = s2.span_with_parent("worker", root_id);
                w.set_node(3);
            });
        });
        drop(root);
        let spans = sink.snapshot();
        let worker = spans.iter().find(|s| s.name == "worker").unwrap();
        assert_eq!(worker.parent, root_id);
        assert_eq!(worker.node, Some(3));
    }

    #[test]
    fn ring_is_bounded() {
        let sink = TraceSink::new();
        for i in 0..(SHARDS * SHARD_CAPACITY + 100) {
            drop(sink.span(&format!("s{i}")));
        }
        assert!(sink.snapshot().len() <= SHARDS * SHARD_CAPACITY);
    }

    #[test]
    fn watermark_scopes_spans() {
        let sink = TraceSink::new();
        drop(sink.span("before"));
        let seq = sink.current_seq();
        drop(sink.span("after"));
        let spans = sink.spans_since(seq);
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].name, "after");
    }

    #[test]
    fn sim_time_is_attributed() {
        let sink = TraceSink::new();
        {
            let mut s = sink.span("p");
            s.set_sim_time(2.5);
        }
        assert_eq!(sink.snapshot()[0].sim_secs, 2.5);
    }

    #[test]
    fn out_of_lifo_drop_keeps_live_spans_current() {
        let sink = TraceSink::new();
        let outer = sink.span("outer");
        let inner = sink.span("inner");
        let inner_id = inner.id();
        // Drop the *outer* guard first: the inner span is still open and
        // must stay the current parent.
        drop(outer);
        assert_eq!(current_span_id(), inner_id);
        let sibling = sink.span("sibling");
        drop(sibling);
        drop(inner);
        assert_eq!(current_span_id(), 0);
        let spans = sink.snapshot();
        let sibling = spans.iter().find(|s| s.name == "sibling").unwrap();
        assert_eq!(sibling.parent, inner_id);
    }

    #[test]
    fn cross_thread_drop_does_not_corrupt_opening_stack() {
        let sink = std::sync::Arc::new(TraceSink::new());
        let root = sink.span("root");
        let root_id = root.id();
        // Move a guard opened on this thread into a worker and drop it
        // there. The entry it left on *this* thread's stack must not leak
        // into future parent resolution.
        let moved = sink.span("moved");
        std::thread::scope(|scope| {
            scope.spawn(move || drop(moved));
        });
        assert_eq!(current_span_id(), root_id);
        let child = sink.span("child");
        drop(child);
        drop(root);
        assert_eq!(current_span_id(), 0);
        let spans = sink.snapshot();
        let child = spans.iter().find(|s| s.name == "child").unwrap();
        assert_eq!(child.parent, root_id, "dead entry must not become parent");
    }

    #[test]
    fn unwind_through_open_spans_leaves_a_clean_stack() {
        let sink = std::sync::Arc::new(TraceSink::new());
        let s2 = std::sync::Arc::clone(&sink);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
            let _a = s2.span("panicking.outer");
            let _b = s2.span("panicking.inner");
            panic!("boom");
        }));
        assert!(result.is_err());
        assert_eq!(current_span_id(), 0, "unwind must close both spans");
        assert_eq!(sink.snapshot().len(), 2);
    }

    #[test]
    fn spans_inherit_node_scope_and_timestamps() {
        let sink = TraceSink::new();
        {
            let _n = crate::query::QueryScope::enter(crate::query::current().on(4));
            let mut overridden = sink.span("overridden");
            overridden.set_node(7);
            drop(overridden);
            drop(sink.span("inherited"));
        }
        drop(sink.span("bare"));
        let spans = sink.snapshot();
        let by_name = |n: &str| spans.iter().find(|s| s.name == n).unwrap();
        assert_eq!(by_name("inherited").node, Some(4));
        assert_eq!(by_name("overridden").node, Some(7));
        assert_eq!(by_name("bare").node, None);
        // All three opened on this thread share a tid, and open times are
        // monotone on one thread.
        assert_eq!(by_name("inherited").tid, by_name("bare").tid);
        assert!(by_name("bare").start_ns >= by_name("overridden").start_ns);
    }

    #[test]
    fn spans_carry_the_current_query_id() {
        let sink = TraceSink::new();
        let qid = crate::query::next_query_id();
        {
            let _scope =
                crate::query::QueryScope::enter(crate::QueryContext::open(qid, Verbosity::Off));
            drop(sink.span("attributed"));
        }
        drop(sink.span("unattributed"));
        let spans = sink.snapshot();
        let hit = spans.iter().find(|s| s.name == "attributed").unwrap();
        let miss = spans.iter().find(|s| s.name == "unattributed").unwrap();
        assert_eq!(hit.query_id, qid);
        assert_eq!(miss.query_id, 0);
    }
}
