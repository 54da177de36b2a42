//! Chrome trace-event JSON export.
//!
//! Renders a set of closed [`SpanRecord`]s in the Trace Event Format
//! consumed by `chrome://tracing` and [Perfetto](https://ui.perfetto.dev):
//! one complete (`"ph": "X"`) event per span, timestamps in microseconds
//! since the process trace epoch, laid out with one *process* track per
//! cluster node (`pid` = node + 1; `pid` 0 is the client/initiator-side
//! work that carries no node label) and one *thread* track per recording
//! OS thread. Span annotations, ids, and the owning query id ride along in
//! `args`, so selecting an event in the viewer shows the full attribution.

use crate::events::EventRecord;
use crate::trace::SpanRecord;
use serde::Content;
use std::io::Write;
use std::path::Path;

/// `pid` assigned to spans with no node label (session / initiator work).
const CLIENT_PID: u64 = 0;

fn pid_of(span: &SpanRecord) -> u64 {
    span.node.map(|n| n as u64 + 1).unwrap_or(CLIENT_PID)
}

fn pid_of_event(event: &EventRecord) -> u64 {
    event.node.map(|n| n as u64 + 1).unwrap_or(CLIENT_PID)
}

/// Render one structured event-ring entry (`query.slow`, `cache.*`,
/// `vft.receive.error`, …) as an instant event (`"ph": "i"`) pinned to the
/// owning node's process lane, so Perfetto shows it inline with the spans.
fn instant_event(event: &EventRecord) -> Content {
    let mut args: Vec<(String, Content)> = vec![
        ("seq".into(), Content::U64(event.seq)),
        ("query_id".into(), Content::U64(event.query_id)),
    ];
    if !event.detail.is_empty() {
        args.push(("detail".into(), Content::Str(event.detail.clone())));
    }
    Content::Map(vec![
        ("name".into(), Content::Str(event.kind.clone())),
        ("cat".into(), Content::Str("vdr.event".into())),
        ("ph".into(), Content::Str("i".into())),
        // Process scope: the marker spans the node's whole track height.
        ("s".into(), Content::Str("p".into())),
        ("ts".into(), Content::F64(event.ts_ns as f64 / 1e3)),
        ("pid".into(), Content::U64(pid_of_event(event))),
        ("tid".into(), Content::U64(0)),
        ("args".into(), Content::Map(args)),
    ])
}

fn span_event(span: &SpanRecord) -> Content {
    let mut args: Vec<(String, Content)> = vec![
        ("span_id".into(), Content::U64(span.id)),
        ("parent".into(), Content::U64(span.parent)),
        ("query_id".into(), Content::U64(span.query_id)),
    ];
    if span.sim_secs > 0.0 {
        args.push(("sim_secs".into(), Content::F64(span.sim_secs)));
    }
    for (k, v) in &span.fields {
        args.push((k.clone(), Content::Str(v.clone())));
    }
    Content::Map(vec![
        ("name".into(), Content::Str(span.name.clone())),
        ("cat".into(), Content::Str("vdr".into())),
        ("ph".into(), Content::Str("X".into())),
        ("ts".into(), Content::F64(span.start_ns as f64 / 1e3)),
        ("dur".into(), Content::F64(span.wall_ns as f64 / 1e3)),
        ("pid".into(), Content::U64(pid_of(span))),
        ("tid".into(), Content::U64(span.tid)),
        ("args".into(), Content::Map(args)),
    ])
}

/// A `process_name` metadata event so the viewer labels node tracks.
fn process_name_event(pid: u64) -> Content {
    let name = if pid == CLIENT_PID {
        "client".to_string()
    } else {
        format!("node {}", pid - 1)
    };
    Content::Map(vec![
        ("name".into(), Content::Str("process_name".into())),
        ("ph".into(), Content::Str("M".into())),
        ("pid".into(), Content::U64(pid)),
        ("tid".into(), Content::U64(0)),
        (
            "args".into(),
            Content::Map(vec![("name".into(), Content::Str(name))]),
        ),
    ])
}

/// Build the Chrome trace document for `spans` plus event-ring `marks`
/// rendered as instant events on the owning node's lane.
pub fn chrome_trace_json_with_events(
    spans: &[SpanRecord],
    marks: &[EventRecord],
) -> serde_json::Value {
    let mut pids: Vec<u64> = spans
        .iter()
        .map(pid_of)
        .chain(marks.iter().map(pid_of_event))
        .collect();
    pids.sort_unstable();
    pids.dedup();
    let mut events: Vec<Content> = pids.into_iter().map(process_name_event).collect();
    events.extend(spans.iter().map(span_event));
    events.extend(marks.iter().map(instant_event));
    let doc = Content::Map(vec![
        ("traceEvents".into(), Content::Seq(events)),
        ("displayTimeUnit".into(), Content::Str("ms".into())),
    ]);
    serde_json::Value::from(doc)
}

/// Write the Chrome trace document for `spans`, with event-ring entries as
/// instant events, to `path`. Open the file in `chrome://tracing` or
/// Perfetto to browse the tree visually.
pub fn export_chrome_trace_with_events(
    spans: &[SpanRecord],
    marks: &[EventRecord],
    path: &Path,
) -> std::io::Result<()> {
    let json = serde_json::to_string(&chrome_trace_json_with_events(spans, marks))
        .map_err(|e| std::io::Error::other(e.to_string()))?;
    let mut f = std::fs::File::create(path)?;
    f.write_all(json.as_bytes())
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;

    fn span(id: u64, name: &str, node: Option<usize>, query_id: u64) -> SpanRecord {
        SpanRecord {
            id,
            parent: 0,
            name: name.to_string(),
            node,
            query_id,
            fields: vec![("rows".into(), "42".into())],
            start_seq: id,
            start_ns: id * 1_000,
            tid: 1,
            wall_ns: 2_000,
            sim_secs: 0.5,
        }
    }

    #[test]
    fn events_map_nodes_to_pids() {
        let spans = vec![
            span(1, "session", None, 7),
            span(2, "exec.scan", Some(0), 7),
            span(3, "exec.scan", Some(2), 7),
        ];
        let doc = chrome_trace_json_with_events(&spans, &[]);
        let events = doc.get("traceEvents").and_then(|e| e.as_array()).unwrap();
        // 3 process_name metadata events (pids 0, 1, 3) + 3 span events.
        assert_eq!(events.len(), 6);
        let metas: Vec<&serde_json::Value> = events
            .iter()
            .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("M"))
            .collect();
        assert_eq!(metas.len(), 3);
        let complete: Vec<&serde_json::Value> = events
            .iter()
            .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X"))
            .collect();
        assert_eq!(complete[1].get("pid").and_then(|p| p.as_u64()), Some(1));
        assert_eq!(complete[2].get("pid").and_then(|p| p.as_u64()), Some(3));
        assert_eq!(
            complete[0]
                .get("args")
                .and_then(|a| a.get("query_id"))
                .and_then(|q| q.as_u64()),
            Some(7)
        );
        // ts/dur are microseconds.
        assert_eq!(complete[1].get("ts").and_then(|t| t.as_f64()), Some(2.0));
        assert_eq!(complete[1].get("dur").and_then(|d| d.as_f64()), Some(2.0));
    }

    #[test]
    fn event_ring_entries_become_instant_events_on_node_lanes() {
        let marks = vec![
            EventRecord {
                seq: 1,
                ts_ns: 5_000,
                kind: "query.slow".into(),
                node: None,
                query_id: 9,
                detail: "wall_ms=30".into(),
            },
            EventRecord {
                seq: 2,
                ts_ns: 6_000,
                kind: "vft.receive.error".into(),
                node: Some(2),
                query_id: 9,
                detail: String::new(),
            },
        ];
        let doc = chrome_trace_json_with_events(&[span(1, "session", None, 9)], &marks);
        let events = doc.get("traceEvents").and_then(|e| e.as_array()).unwrap();
        let instants: Vec<&serde_json::Value> = events
            .iter()
            .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("i"))
            .collect();
        assert_eq!(instants.len(), 2);
        assert_eq!(
            instants[0].get("name").and_then(|n| n.as_str()),
            Some("query.slow")
        );
        assert_eq!(instants[0].get("pid").and_then(|p| p.as_u64()), Some(0));
        assert_eq!(instants[0].get("s").and_then(|s| s.as_str()), Some("p"));
        assert_eq!(instants[0].get("ts").and_then(|t| t.as_f64()), Some(5.0));
        assert_eq!(
            instants[0]
                .get("args")
                .and_then(|a| a.get("detail"))
                .and_then(|d| d.as_str()),
            Some("wall_ms=30")
        );
        // The node-owned event lands on that node's process lane, and the
        // lane got a process_name metadata entry even with no span on it.
        assert_eq!(instants[1].get("pid").and_then(|p| p.as_u64()), Some(3));
        let metas = events
            .iter()
            .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("M"))
            .count();
        assert_eq!(metas, 2, "pids 0 and 3 get name metadata");
    }

    #[test]
    fn exported_file_round_trips_through_the_parser() {
        let dir = std::env::temp_dir().join("vdr_obs_chrome_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.json");
        export_chrome_trace_with_events(&[span(1, "a", Some(0), 1)], &[], &path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let doc = serde_json::from_str(&text).unwrap();
        assert!(doc
            .get("traceEvents")
            .and_then(|e| e.as_array())
            .is_some_and(|e| !e.is_empty()));
        std::fs::remove_file(&path).ok();
    }
}
