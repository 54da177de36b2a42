//! Golden JOIN answers on `sql_mix`-shaped tables: the three benchmark JOIN
//! statements' sums bit for bit, and digests of joined rows returned without
//! ORDER BY — so the output order (node order, then left rows in scan order,
//! then matches by ascending right row, unmatched LEFT rows in place) is
//! pinned as well as the rows.
//!
//! The literals below were captured by running this file at commit `a5c70c4`
//! and are never regenerated from the code under test — same rule as
//! `tests/glm_golden.rs`. The float columns are not integer-valued, so a sum
//! that adds its rows in another order changes its bits.

use vertica_dr::cluster::SimCluster;
use vertica_dr::columnar::{Batch, Column, DataType, Schema, Value};
use vertica_dr::verticadb::{Segmentation, TableDef, VerticaDb};

const NODES: usize = 4;
const ROWS: usize = 16_384;
const KEYS: usize = 2_048;
/// Four COPY batches: every node holds four containers of each fact table.
const BATCH_ROWS: usize = 4_096;

/// splitmix64 → uniform in [0, 1).
fn unit(state: &mut u64) -> f64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 53) as f64
}

/// `fact(k, grp, tag, v)` as `sql_mix` lays it out — `k` a fixed-stride
/// permutation of the key space, `grp` in runs of 512, `tag` cycling seven
/// strings — plus a NULL `k` every 97th row; `dim(k, name, w)` with every
/// 11th key missing (probe rows without a match) and every 13th present
/// twice (two build rows per key); `dim_small(grp, label, weight)`.
fn load_tables(db: &VerticaDb) {
    let mut state = 0x5EED_2015u64;
    let fact = Schema::of(&[
        ("k", DataType::Int64),
        ("grp", DataType::Int64),
        ("tag", DataType::Varchar),
        ("v", DataType::Float64),
    ]);
    let tags = ["ant", "bee", "cat", "dog", "eel", "fox", "gnu"];
    let fact_rows: Vec<Vec<Value>> = (0..ROWS)
        .map(|i| {
            let k = if i % 97 == 96 {
                Value::Null
            } else {
                Value::Int64(((i * 1_279 + 311) % KEYS) as i64)
            };
            vec![
                k,
                Value::Int64(((i / 512) % 16) as i64),
                Value::Varchar(tags[(i + 3) % 7].into()),
                Value::Float64(1000.0 * unit(&mut state)),
            ]
        })
        .collect();
    let dim = Schema::of(&[
        ("k", DataType::Int64),
        ("name", DataType::Varchar),
        ("w", DataType::Float64),
    ]);
    let mut dim_rows = Vec::new();
    for k in (0..KEYS).filter(|k| k % 11 != 10) {
        let copies = if k % 13 == 0 { 2 } else { 1 };
        for c in 0..copies {
            dim_rows.push(vec![
                Value::Int64(k as i64),
                Value::Varchar(format!("n{}-{c}", k % 7)),
                Value::Float64(100.0 * unit(&mut state)),
            ]);
        }
    }
    let small = Schema::of(&[
        ("grp", DataType::Int64),
        ("label", DataType::Varchar),
        ("weight", DataType::Float64),
    ]);
    let small_rows: Vec<Vec<Value>> = (0..16)
        .map(|g| {
            vec![
                Value::Int64(g),
                Value::Varchar(format!("group-{g}")),
                Value::Float64((g * g + 1) as f64 + unit(&mut state)),
            ]
        })
        .collect();

    let hash_k = || Segmentation::Hash { column: "k".into() };
    let tables = [
        ("fact_rr", &fact, Segmentation::RoundRobin, &fact_rows),
        ("fact_seg", &fact, hash_k(), &fact_rows),
        ("dim_rr", &dim, Segmentation::RoundRobin, &dim_rows),
        ("dim_seg", &dim, hash_k(), &dim_rows),
        ("dim_small", &small, Segmentation::RoundRobin, &small_rows),
    ];
    for (name, schema, segmentation, rows) in tables {
        db.create_table(TableDef {
            name: name.into(),
            schema: schema.clone(),
            segmentation,
        })
        .unwrap();
        let chunk = if rows.len() == ROWS {
            BATCH_ROWS
        } else {
            rows.len().div_ceil(2)
        };
        let batches = rows
            .chunks(chunk)
            .map(|c| Batch::from_rows(schema.clone(), c).unwrap());
        db.copy(name, batches.collect::<Vec<_>>()).unwrap();
    }
}

fn fnv(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h = (*h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
    }
}

/// FNV-1a over the column names, then every row in output order: a type
/// tag and the value's bytes per cell (floats by bit pattern).
fn digest(b: &Batch) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for name in b.schema().names() {
        fnv(&mut h, name.as_bytes());
        fnv(&mut h, &[0xff]);
    }
    for r in 0..b.num_rows() {
        for col in b.columns() {
            match col.get(r) {
                Value::Null => fnv(&mut h, &[0]),
                Value::Int64(x) => {
                    fnv(&mut h, &[1]);
                    fnv(&mut h, &x.to_le_bytes());
                }
                Value::Float64(x) => {
                    fnv(&mut h, &[2]);
                    fnv(&mut h, &x.to_bits().to_le_bytes());
                }
                Value::Bool(x) => fnv(&mut h, &[3, x as u8]),
                Value::Varchar(s) => {
                    fnv(&mut h, &[4]);
                    fnv(&mut h, &(s.len() as u64).to_le_bytes());
                    fnv(&mut h, s.as_bytes());
                }
            }
        }
    }
    h
}

fn db() -> std::sync::Arc<VerticaDb> {
    let db = VerticaDb::new(SimCluster::for_tests(NODES));
    load_tables(&db);
    db
}

fn bits(col: &Column) -> u64 {
    col.f64_data().unwrap()[0].to_bits()
}

/// The benchmark's three JOIN statements: `count(*)` and the bits of every
/// float sum.
#[test]
fn benchmark_join_sums_keep_their_bits() {
    let db = db();
    let cases: [(&str, i64, &[u64]); 3] = [
        (
            "SELECT count(*), sum(f.v), sum(d.w) FROM fact_rr f JOIN dim_rr d ON f.k = d.k",
            15_885,
            &[0x415e_4844_11b4_07f5, 0x4128_a23d_f848_97fa],
        ),
        (
            "SELECT count(*), sum(f.v), sum(d.w) FROM fact_seg f JOIN dim_seg d ON f.k = d.k",
            15_885,
            &[0x415e_4844_11b4_07f7, 0x4128_a23d_f848_97f9],
        ),
        (
            "SELECT count(*), sum(d.weight) FROM fact_rr f JOIN dim_small d ON f.grp = d.grp",
            16_384,
            &[0x4133_bd38_11e4_6714],
        ),
    ];
    for (sql, count, sums) in cases {
        let out = db.query(sql).unwrap().batch;
        let got: Vec<u64> = out.columns()[1..].iter().map(bits).collect();
        let got_count = out.column(0).i64_data().unwrap()[0];
        assert_eq!((got_count, got.as_slice()), (count, sums), "{sql}");
    }
}

/// Joined rows without ORDER BY, under every strategy: broadcast (INNER),
/// co-located (LEFT), shuffle-left (LEFT, `*`), shuffle-right (INNER with a
/// WHERE on the build side) and shuffle-both (a self-join with duplicate
/// keys on both sides).
#[test]
fn unordered_join_rows_keep_their_order() {
    let db = db();
    let cases: [(&str, usize, u64); 5] = [
        (
            "SELECT f.k, f.v, d.name, d.w FROM fact_rr f JOIN dim_rr d ON f.k = d.k",
            15_885,
            0x11dc_53b7_b094_8f0e,
        ),
        (
            "SELECT f.k, f.tag, d.k, d.w FROM fact_seg f LEFT JOIN dim_seg d ON f.k = d.k",
            17_525,
            0xf983_20ed_b8c4_711e,
        ),
        (
            "SELECT * FROM fact_rr f LEFT JOIN dim_seg d ON f.k = d.k",
            17_525,
            0x8614_a40d_9914_b5ad,
        ),
        (
            "SELECT f.v, d.w FROM fact_seg f JOIN dim_rr d ON f.k = d.k WHERE d.w < 50.0",
            7_751,
            0xa661_51a5_e77b_42f6,
        ),
        (
            "SELECT a.k, a.w, b.name FROM dim_rr a JOIN dim_rr b ON a.k = b.k",
            2_294,
            0x249b_02c4_7de3_4bb7,
        ),
    ];
    for (sql, rows, want) in cases {
        let out = db.query(sql).unwrap().batch;
        let got = digest(&out);
        assert_eq!((out.num_rows(), got), (rows, want), "{sql}: {got:#018x}");
    }
}
