//! Bounded structured event log.
//!
//! Spans measure *durations*; events record *moments* — a cache eviction,
//! an admission-queue wait, a receive-pool error, a background action.
//! Each event carries the node and query id active on the recording
//! thread, so `v_monitor.events` can answer "what happened while query N
//! ran on node M?". The log is a bounded ring: old events are dropped
//! (and counted), never blocked on.

use crate::Verbosity;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};

/// Retained events; the oldest are evicted (and counted in
/// [`EventLog::dropped`]) once the ring is full.
pub const EVENT_LOG_CAPACITY: usize = 8192;

/// One recorded event.
#[derive(Debug, Clone, serde::Serialize)]
pub struct EventRecord {
    /// Position in the global record order (monotone; use with
    /// [`EventLog::events_since`] to scope to a workload).
    pub seq: u64,
    /// Record time, nanoseconds since the process trace epoch
    /// ([`crate::trace::epoch_ns`]).
    pub ts_ns: u64,
    /// Dotted event kind, e.g. `cache.evict` or `admission.wait`.
    pub kind: String,
    /// Node the event happened on, if node-scoped.
    pub node: Option<usize>,
    /// Query active on the recording thread (0 when unattributed).
    pub query_id: u64,
    /// Free-form human-readable detail (`key=value` pairs by convention).
    pub detail: String,
}

/// Bounded in-memory store of [`EventRecord`]s.
pub struct EventLog {
    ring: Mutex<VecDeque<EventRecord>>,
    next_seq: AtomicU64,
    dropped: AtomicU64,
}

impl EventLog {
    pub fn new() -> Self {
        EventLog {
            ring: Mutex::new(VecDeque::with_capacity(64)),
            next_seq: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// The sequence number the next event will receive; record it before a
    /// workload and pass it to [`Self::events_since`].
    pub fn current_seq(&self) -> u64 {
        self.next_seq.load(Ordering::SeqCst)
    }

    /// Append an event (no-op when `VDR_OBS=off`). `node: None` inherits
    /// the node of the thread's query context, if any; the query id is
    /// always taken from it.
    pub fn record(&self, kind: &str, node: Option<usize>, detail: impl Into<String>) {
        if !Verbosity::current().recording() {
            return;
        }
        let record = EventRecord {
            seq: self.next_seq.fetch_add(1, Ordering::SeqCst),
            ts_ns: crate::trace::epoch_ns(),
            kind: kind.to_string(),
            node: node.or_else(crate::query::current_node),
            query_id: crate::query::current_query_id(),
            detail: detail.into(),
        };
        let mut ring = self.ring.lock();
        if ring.len() >= EVENT_LOG_CAPACITY {
            ring.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        ring.push_back(record);
    }

    /// All retained events, in record order.
    pub fn snapshot(&self) -> Vec<EventRecord> {
        self.ring.lock().iter().cloned().collect()
    }

    /// Retained events recorded at or after `seq`, in record order.
    pub fn events_since(&self, seq: u64) -> Vec<EventRecord> {
        self.ring
            .lock()
            .iter()
            .filter(|e| e.seq >= seq)
            .cloned()
            .collect()
    }

    /// Events evicted from the ring since process start.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Drop all retained events (sequence numbers keep advancing).
    pub fn clear(&self) {
        self.ring.lock().clear();
    }
}

impl Default for EventLog {
    fn default() -> Self {
        EventLog::new()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;

    #[test]
    fn events_carry_scope_attribution() {
        let log = EventLog::new();
        let qid = crate::query::next_query_id();
        {
            let ctx = crate::QueryContext::open(qid, Verbosity::Off);
            let _q = crate::query::QueryScope::enter(ctx.on(2));
            log.record("cache.evict", None, "oid=9");
            log.record("pool.error", Some(5), "io");
        }
        log.record("background", None, "tick");
        let events = log.snapshot();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].node, Some(2), "inherits node scope");
        assert_eq!(events[0].query_id, qid);
        assert_eq!(events[1].node, Some(5), "explicit node wins");
        assert_eq!(events[2].node, None);
        assert_eq!(events[2].query_id, 0);
        assert!(events.windows(2).all(|w| w[0].seq < w[1].seq));
    }

    #[test]
    fn ring_is_bounded_and_counts_drops() {
        let log = EventLog::new();
        for i in 0..EVENT_LOG_CAPACITY + 10 {
            log.record("e", None, format!("i={i}"));
        }
        let events = log.snapshot();
        assert_eq!(events.len(), EVENT_LOG_CAPACITY);
        assert_eq!(log.dropped(), 10);
        // Oldest were evicted: the first retained event is seq 10.
        assert_eq!(events[0].seq, 10);
    }

    #[test]
    fn watermark_scopes_events() {
        let log = EventLog::new();
        log.record("before", None, "");
        let seq = log.current_seq();
        log.record("after", None, "");
        let events = log.events_since(seq);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, "after");
    }
}
