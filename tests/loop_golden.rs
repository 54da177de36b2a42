//! Golden ledger: every modeled number of one fixed-seed run of the
//! database loop on four nodes. Two COPYs (a round-robin and a `HASH(k)`
//! table), then one statement per physical plan shape — RLE and plain
//! filters, ORDER BY … LIMIT, dictionary / shuffled / segmentation-aligned
//! GROUP BY, `COUNT(DISTINCT)`, a CTAS, the JOIN strategies (shuffle both,
//! shuffle left, co-located, broadcast right, and a LEFT JOIN shuffling its
//! right side), an encoded GROUP BY … ORDER BY, a `COUNT(DISTINCT)` over
//! dictionary codes under an encodable WHERE, a VFT export, and
//! `GlmPredict` over `PARTITION BEST` and `PARTITION BY` — and for each
//! resulting `PhaseReport` its duration bits, NIC bytes, disk bytes and CPU
//! core-ns bits.
//!
//! The literals below were captured by running this file at commit
//! `4912447` (the last `STATEMENTS` row by running it at `064a14d`), and are
//! never regenerated from the code under test — same rule as
//! `tests/glm_golden.rs`. A plan or operator refactor that moves
//! one of them changed what the cost model charges.
//!
//! The rows marked `moved:` changed when every scan became encoded and the
//! block cache began to hit per column; each note names the cause. A
//! *per-column hit* is a container whose wanted columns were all resident,
//! or whose resident ones no longer decode, where the old cache missed on
//! the other tier or on an uncovered projection (or served a wider entry
//! whose extra RLE column was charged). The *ledger rule* charges an RLE or
//! dictionary column per surviving row when it materializes, cache hit or
//! not, where a decoded scan used to charge it at scan and never on a hit.
//! The `PARTITION BY` row's disk read moved again when a transform became a
//! sink of the per-node pipeline: one scan per node, its note says why.

use std::sync::Arc;
use vertica_dr::cluster::{PhaseKind, PhaseRecorder, PhaseReport, SimCluster};
use vertica_dr::columnar::{Batch, DataType, Schema, Value};
use vertica_dr::core::{Model, Session, SessionOptions};
use vertica_dr::ml::{Family, GlmModel};
use vertica_dr::verticadb::{Segmentation, TableDef, VerticaDb};

const NODES: usize = 4;
const RR_ROWS: usize = 8_192;
const SEG_ROWS: usize = 4_096;
const KEYS: usize = 1_024;

/// splitmix64 → uniform in [0, 1).
fn unit(state: &mut u64) -> f64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 53) as f64
}

/// `(k, grp, tag, v)` rows: `k` a fixed-stride permutation of the key
/// space, `grp` in sorted runs (RLE), `tag` five strings (dictionary), `v`
/// uniform — in two COPY batches, so every node holds two containers.
fn fact_batches(rows: usize, state: &mut u64) -> Vec<Batch> {
    let schema = fact_schema();
    let tags = ["ant", "bee", "cat", "dog", "eel"];
    let all: Vec<Vec<Value>> = (0..rows)
        .map(|i| {
            vec![
                Value::Int64(((i * 389 + 17) % KEYS) as i64),
                Value::Int64((i / 512) as i64),
                Value::Varchar(tags[(i * 7 + 2) % 5].into()),
                Value::Float64(1000.0 * unit(state)),
            ]
        })
        .collect();
    let (a, b) = all.split_at(rows / 2);
    [a, b]
        .map(|half| Batch::from_rows(schema.clone(), half).unwrap())
        .into()
}

fn fact_schema() -> Schema {
    Schema::of(&[
        ("k", DataType::Int64),
        ("grp", DataType::Int64),
        ("tag", DataType::Varchar),
        ("v", DataType::Float64),
    ])
}

/// The SQL statements, in run order: a CTAS creates `small` before the
/// JOINs that read it.
const STATEMENTS: [&str; 15] = [
    "SELECT count(*), sum(v) FROM fact_rr WHERE grp = 7",
    "SELECT count(*), sum(v) FROM fact_rr WHERE v < 250.0",
    "SELECT v, k FROM fact_rr ORDER BY v DESC, k LIMIT 10",
    "SELECT tag, count(*), sum(v) FROM fact_rr GROUP BY tag",
    "SELECT k, count(*), sum(v) FROM fact_rr GROUP BY k",
    "SELECT k, count(*), sum(v) FROM fact_seg GROUP BY k",
    "SELECT k, count(DISTINCT tag), sum(v) FROM fact_rr GROUP BY k",
    "CREATE TABLE small AS SELECT k, grp FROM fact_seg WHERE k < 64",
    "SELECT count(*), sum(a.v), sum(b.v) FROM fact_rr a JOIN fact_rr b ON a.k = b.k",
    "SELECT count(*), sum(a.v), sum(b.v) FROM fact_rr a JOIN fact_seg b ON a.k = b.k",
    "SELECT count(*), sum(a.v), sum(b.v) FROM fact_seg a JOIN fact_seg b ON a.k = b.k",
    "SELECT count(*), sum(f.v), sum(s.grp) FROM fact_rr f JOIN small s ON f.k = s.k",
    "SELECT count(*), sum(f.v), sum(s.grp) FROM fact_seg f LEFT JOIN small s ON f.k = s.k",
    "SELECT tag, count(*) FROM fact_seg WHERE grp >= 2 GROUP BY tag ORDER BY tag",
    "SELECT k, count(DISTINCT tag) FROM fact_rr WHERE grp >= 2 GROUP BY k",
];

const PREDICTS: [&str; 2] = [
    "SELECT GlmPredict(v, grp USING PARAMETERS model='m') OVER (PARTITION BEST) FROM fact_rr",
    "SELECT GlmPredict(v, grp USING PARAMETERS model='m') OVER (PARTITION BY k) FROM fact_rr",
];

/// Run the loop once on a fresh database; every phase it charged, COPYs
/// first, then the session's statements, transfer and predictions.
fn run_loop() -> Vec<PhaseReport> {
    let db = VerticaDb::new(SimCluster::for_tests(NODES));
    let mut state = 0x10_0B60_1DE4u64;
    let hash_k = Segmentation::Hash { column: "k".into() };
    let tables = [
        ("fact_rr", Segmentation::RoundRobin, RR_ROWS),
        ("fact_seg", hash_k, SEG_ROWS),
    ];
    for (name, segmentation, rows) in tables {
        db.create_table(TableDef {
            name: name.into(),
            schema: fact_schema(),
            segmentation,
        })
        .unwrap();
        db.copy(name, fact_batches(rows, &mut state)).unwrap();
    }
    let session = Session::connect_colocated(
        Arc::clone(&db),
        SessionOptions {
            r_instances_per_node: 2,
            ..Default::default()
        },
    )
    .unwrap();
    for sql in STATEMENTS {
        session.sql(sql).unwrap();
    }
    session.db2darray("fact_seg", &["v", "grp"]).unwrap();
    // The model is stored off the pinned ledgers: its blob size belongs to
    // the model codec, not to the plan.
    let model = Model::Glm(GlmModel {
        coefficients: vec![0.5, 2.0, -1.0],
        intercept: true,
        family: Family::Gaussian,
        deviance: 1.0,
        iterations: 3,
        converged: true,
    });
    let rec = PhaseRecorder::new("deploy", PhaseKind::Sequential, NODES);
    let blob = model.to_bytes();
    let id = vertica_dr::cluster::NodeId(0);
    db.models()
        .save(id, "m", "golden", "glm", "regression", blob, &rec)
        .unwrap();
    for sql in PREDICTS {
        session.sql(sql).unwrap();
    }
    let mut reports = db.ledger().reports();
    reports.extend(session.ledger().reports());
    reports
}

/// `(phase name, duration_secs bits, total_bytes_moved, total_disk_read,
/// total_cpu_core_ns bits)` per report.
type Pinned = (String, u64, u64, u64, u64);

fn pinned(reports: &[PhaseReport]) -> Vec<Pinned> {
    reports
        .iter()
        .map(|r| {
            (
                r.name.clone(),
                r.duration_secs.to_bits(),
                r.total_bytes_moved,
                r.total_disk_read,
                r.total_cpu_core_ns.to_bits(),
            )
        })
        .collect()
}

const GOLDEN: &[(&str, u64, u64, u64, u64)] = &[
    // COPY fact_rr (round-robin)
    ("COPY fact_rr", 0x3f1b1cf953b84b54, 0, 0, 0x0),
    // COPY fact_seg (HASH(k))
    ("COPY fact_seg", 0x3f0b58cbf409d292, 0, 0, 0x0),
    // RLE filter
    (
        "sql SELECT",
        0x3f12faae876767ee,
        81,
        144800,
        0x411fe00000000000,
    ),
    // plain filter. moved: per-column hit (`v` alone, not the wider `grp, v`
    // entry whose RLE `grp` was charged)
    ("sql SELECT", 0x3f094e3e09df353e, 81, 144800, 0x0),
    // ORDER BY … LIMIT. moved: per-column hit (`v` resident, `k` decodes)
    (
        "sql SELECT",
        0x3f26c2376cede286,
        199680,
        144800,
        0x411e000000000000,
    ),
    // dictionary GROUP BY. moved: per-column hit (`v` resident)
    (
        "sql SELECT",
        0x3f12faae876767ee,
        2336,
        144800,
        0x40dfa7c000000000,
    ),
    // shuffled GROUP BY. moved: per-column hit (`k`, `v` resident)
    (
        "sql SELECT",
        0x3f094e3e09df353e,
        33564,
        144800,
        0x410af9a000000000,
    ),
    // segmentation-aligned GROUP BY
    (
        "sql SELECT",
        0x3f03248ec46d4699,
        24960,
        73016,
        0x411e000000000000,
    ),
    // COUNT(DISTINCT). moved: per-column hit (`k`, `tag`, `v` resident)
    (
        "sql SELECT",
        0x3f094e3e09df353e,
        70728,
        144800,
        0x41335b2800000000,
    ),
    // CTAS. moved: per-column hit (`k` resident, `grp` decodes)
    (
        "sql CREATE",
        0x3f04251af3f24a92,
        3120,
        73016,
        0x40ce000000000000,
    ),
    // JOIN shuffle_both. moved: per-column hit (`k`, `v` resident)
    (
        "sql SELECT",
        0x3f2893f48de1cd8b,
        201999,
        289600,
        0x415a400000000000,
    ),
    // JOIN shuffle_left. moved: per-column hit (`fact_seg`'s `k`, `v`)
    (
        "sql SELECT",
        0x3f1a55617371ee83,
        101163,
        217816,
        0x414c200000000000,
    ),
    // JOIN co-located
    (
        "sql SELECT",
        0x3f098613b091b377,
        135,
        146032,
        0x4136800000000000,
    ),
    // JOIN broadcast_right
    (
        "sql SELECT",
        0x3f0a01d35e55eb39,
        8451,
        147476,
        0x4126800000000000,
    ),
    // LEFT JOIN shuffle_right
    (
        "sql SELECT",
        0x3efa7585768550c6,
        3267,
        75692,
        0x4121d00000000000,
    ),
    // encoded GROUP BY … ORDER BY
    (
        "sql SELECT",
        0x3f03248ec46d4699,
        1305,
        73016,
        0x40d0ef0000000000,
    ),
    // COUNT(DISTINCT) under an encodable WHERE (captured at `064a14d`).
    // moved: per-column hit (`grp`, `k`, `tag` resident)
    (
        "sql SELECT",
        0x3f094e3e09df353e,
        57276,
        144800,
        0x4137549400000000,
    ),
    // VFT export: database side. moved: per-column hit (`v`) and the
    // ledger rule (`grp` charged as it materializes)
    ("vft db", 0x3f592e2a84ebbc16, 0, 73016, 0x4160e00000000000),
    // VFT export: receive side
    ("vft r", 0x3f23510db52f823b, 0, 0, 0x4131800000000000),
    // GlmPredict PARTITION BEST. moved: per-column hit (`v`) and the
    // ledger rule (`grp`)
    (
        "sql SELECT",
        0x40180a1d0deabfcb,
        466,
        146664,
        0x4192532340000000,
    ),
    // GlmPredict PARTITION BY. moved: per-column hit (`v`, `grp`, `k`
    // resident) and the ledger rule (`grp`, once per row over the instances).
    // moved: the node's pipeline reads its containers once and deals the
    // rows to the 12 instances, where each instance used to re-read them
    // all (1,737,600 = 12 × 144,800)
    (
        "sql SELECT",
        0x40180224e855b608,
        0,
        144800,
        0x4192520000000000,
    ),
];

#[test]
fn every_phase_of_the_loop_charges_what_it_did_at_capture() {
    let got = pinned(&run_loop());
    let want: Vec<Pinned> = GOLDEN
        .iter()
        .map(|&(n, d, b, r, c)| (n.to_string(), d, b, r, c))
        .collect();
    if got != want {
        let lines: Vec<String> = got
            .iter()
            .map(|(n, d, b, r, c)| format!("    ({n:?}, {d:#x}, {b}, {r}, {c:#x}),"))
            .collect();
        panic!("ledger moved; this run charged:\n{}", lines.join("\n"));
    }
}
