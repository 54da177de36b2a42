//! Query attribution: a process-wide monotone query id carried in a
//! thread-local scope.
//!
//! The `v_monitor` system tables answer "which query caused this span /
//! metric delta / phase row?". That requires every piece of telemetry to
//! carry the id of the statement being executed when it was recorded. The
//! database allocates one id per executed statement with [`next_query_id`]
//! and enters a [`QueryScope`] for its duration; span creation reads
//! [`current_query_id`] and stamps it into the record.
//!
//! Worker threads (e.g. `SimCluster::scatter` spawns one OS thread per
//! node) do not inherit the thread-local — the scattering code captures
//! `current_query_id()` before fanning out and re-enters the scope inside
//! each worker, exactly as span parents are passed explicitly across
//! threads.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

static NEXT_QUERY_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static CURRENT_QUERY: Cell<u64> = const { Cell::new(0) };
}

/// Allocate a fresh query id: process-wide, monotonically increasing,
/// never 0 (0 means "unattributed").
pub fn next_query_id() -> u64 {
    NEXT_QUERY_ID.fetch_add(1, Ordering::Relaxed)
}

/// The query id work on this thread is attributed to (0 if none).
pub fn current_query_id() -> u64 {
    CURRENT_QUERY.with(|c| c.get())
}

/// Attributes this thread's work to a query for the guard's lifetime.
/// Scopes nest: dropping restores the previously active id.
pub struct QueryScope {
    prev: u64,
}

impl QueryScope {
    pub fn enter(query_id: u64) -> QueryScope {
        let prev = CURRENT_QUERY.with(|c| c.replace(query_id));
        QueryScope { prev }
    }
}

impl Drop for QueryScope {
    fn drop(&mut self) {
        CURRENT_QUERY.with(|c| c.set(self.prev));
    }
}

thread_local! {
    static CURRENT_NODE: Cell<Option<usize>> = const { Cell::new(None) };
}

/// The node this thread's work belongs to (`None` off any node scope).
/// Spans opened while a [`NodeScope`] is active default their `node` label
/// to this, so rayon / receive-pool threads attribute correctly without
/// every call site remembering `set_node`.
pub fn current_node() -> Option<usize> {
    CURRENT_NODE.with(|c| c.get())
}

/// Attributes this thread's work to a cluster node for the guard's
/// lifetime. Scopes nest: dropping restores the previous node.
pub struct NodeScope {
    prev: Option<usize>,
}

impl NodeScope {
    pub fn enter(node: usize) -> NodeScope {
        let prev = CURRENT_NODE.with(|c| c.replace(Some(node)));
        NodeScope { prev }
    }
}

impl Drop for NodeScope {
    fn drop(&mut self) {
        CURRENT_NODE.with(|c| c.set(self.prev));
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
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
            let _o = QueryScope::enter(outer);
            assert_eq!(current_query_id(), outer);
            {
                let _i = QueryScope::enter(inner);
                assert_eq!(current_query_id(), inner);
            }
            assert_eq!(current_query_id(), outer);
        }
        assert_eq!(current_query_id(), 0);
    }

    #[test]
    fn node_scopes_nest_and_restore() {
        assert_eq!(current_node(), None);
        {
            let _a = NodeScope::enter(2);
            assert_eq!(current_node(), Some(2));
            {
                let _b = NodeScope::enter(5);
                assert_eq!(current_node(), Some(5));
            }
            assert_eq!(current_node(), Some(2));
        }
        assert_eq!(current_node(), None);
    }

    #[test]
    fn scope_is_per_thread() {
        let id = next_query_id();
        let _s = QueryScope::enter(id);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                // Fresh thread: unattributed until it enters a scope itself.
                assert_eq!(current_query_id(), 0);
                let _w = QueryScope::enter(id);
                assert_eq!(current_query_id(), id);
            });
        });
        assert_eq!(current_query_id(), id);
    }
}
