//! Golden figures: every table cell of every `vdr_bench::all_figures()`
//! report must equal `fixtures/figures_golden.json` exactly. The paper's
//! values, the cost model's projections and the measured runs' simulated
//! times, byte counts and counters are all pinned; a change that moves one
//! of them changed what the reproduction reports and must name the cell.
//!
//! Left out: the columns read off a wall clock (`WALL_COLUMNS`), the cells
//! derived from one (`UNSTABLE`, which differed between two runs of the
//! same build at capture), and every figure's free-form notes.
//!
//! The fixture was captured by running this file at commit `4a600e2` and is
//! never regenerated from the code under test. On a mismatch the test
//! writes what it got to `figures_golden.actual.json` under cargo's
//! per-target temporary directory and names every moved cell.

use serde_json::Value;
use std::collections::{BTreeMap, BTreeSet};

const FIXTURE: &str = include_str!("fixtures/figures_golden.json");

/// Columns that hold a wall-clock time.
const WALL_COLUMNS: [&str; 2] = ["wall", "wall ms"];

/// `(figure, column)` cells derived from a wall clock: each differed between
/// two runs of the capture commit.
const UNSTABLE: [(&str, &str); 2] = [
    ("scan", "decode ns/value"),
    ("train", "ml.train.overlap_ns"),
];

/// Every pinned cell, keyed `figure[row].column`; rows count from 0 after
/// the header.
fn cells() -> BTreeMap<String, String> {
    let mut out = BTreeMap::new();
    for (id, figure) in vdr_bench::all_figures() {
        let report = figure();
        let Some((header, rows)) = report.table.split_first() else {
            continue;
        };
        for (r, row) in rows.iter().enumerate() {
            for (column, cell) in header.iter().zip(row) {
                let unstable = UNSTABLE.contains(&(id, column.as_str()));
                if WALL_COLUMNS.contains(&column.as_str()) || unstable {
                    continue;
                }
                out.insert(format!("{id}[{r}].{column}"), cell.clone());
            }
        }
    }
    out
}

fn fixture() -> BTreeMap<String, String> {
    let doc = serde_json::from_str(FIXTURE).expect("the fixture is JSON");
    let cells = doc.as_object().expect("the fixture is one object");
    let text = |v: &Value| v.as_str().expect("every cell is a string").to_string();
    cells.iter().map(|(k, v)| (k.clone(), text(v))).collect()
}

#[test]
fn every_figure_cell_matches_the_capture() {
    let (got, want) = (cells(), fixture());
    if got == want {
        return;
    }
    let keys: BTreeSet<&String> = got.keys().chain(want.keys()).collect();
    let moved: Vec<String> = keys
        .into_iter()
        .filter(|k| got.get(*k) != want.get(*k))
        .map(|k| format!("  {k}: captured {:?}, now {:?}", want.get(k), got.get(k)))
        .collect();
    let doc = Value::Object(
        got.iter()
            .map(|(k, v)| (k.clone(), Value::String(v.clone())))
            .collect(),
    );
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("figures_golden.actual.json");
    let text = serde_json::to_string_pretty(&doc).expect("cells serialize");
    std::fs::write(&path, format!("{text}\n")).expect("write the actual cells");
    panic!(
        "{} figure cells moved (all cells written to {}):\n{}",
        moved.len(),
        path.display(),
        moved.join("\n")
    );
}
