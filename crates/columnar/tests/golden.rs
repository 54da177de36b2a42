//! The block format's bytes are a contract: containers on the simulated
//! disk, DFS version tags and VFT frames all carry them. The writer and the
//! checksum may get faster; the bytes may not move.
//!
//! `fixtures/mixed_v{1,2}.block` are `encode_batch_v1` / `encode_batch` of
//! [`golden_batch`] as written by commit e4a7bbf — the last one with the
//! bytewise crc loop, the per-value plain codec and the per-bit bitmap
//! writer. They were produced once, from that commit's checkout, and are
//! never regenerated from the code under test.

use vdr_columnar::checksum::crc32;
use vdr_columnar::encoding::Encoding;
use vdr_columnar::{
    block_checksum, block_column_info, decode_batch, encode_batch, encode_batch_v1, Batch, Column,
    ColumnBuilder, DataType, Schema, Value,
};

const ROWS: usize = 300;

/// Deterministic 64-bit mix (splitmix64 finalizer): the fixture must not
/// depend on any RNG crate's stream.
fn mix(i: u64) -> u64 {
    let mut z = i.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Build a column from per-row values, NULL where `null(i)`.
fn column(dtype: DataType, value: impl Fn(usize) -> Value, null: impl Fn(usize) -> bool) -> Column {
    let mut b = ColumnBuilder::with_capacity(dtype, ROWS);
    for i in 0..ROWS {
        b.push(if null(i) { Value::Null } else { value(i) })
            .unwrap();
    }
    b.finish()
}

/// One column per (type, encoding) pair the heuristic can pick, NULLs in
/// most of them, and a row count that is not a multiple of 64.
fn golden_batch() -> Batch {
    let never = |_: usize| false;
    let cols: Vec<(&str, Column, Encoding)> = vec![
        (
            "id",
            column(
                DataType::Int64,
                |i| Value::Int64(1000 + 3 * i as i64),
                never,
            ),
            Encoding::DeltaVarint,
        ),
        (
            "grp",
            column(
                DataType::Int64,
                |i| Value::Int64(i as i64 / 60 - 2),
                |i| i == 7,
            ),
            Encoding::Rle,
        ),
        (
            "r",
            column(
                DataType::Int64,
                |i| Value::Int64(mix(i as u64) as i64),
                |i| i % 41 == 5,
            ),
            Encoding::Plain,
        ),
        (
            "x",
            column(
                DataType::Float64,
                |i| Value::Float64((mix(i as u64 + 7_000) >> 11) as f64 / (1u64 << 53) as f64),
                |i| i % 13 == 3,
            ),
            Encoding::Plain,
        ),
        (
            "k",
            column(
                DataType::Float64,
                |i| Value::Float64([0.5, -0.0, f64::INFINITY][i / 100]),
                |i| i == 150,
            ),
            Encoding::Rle,
        ),
        (
            "flag",
            column(
                DataType::Bool,
                |i| Value::Bool(mix(i as u64 + 99) & 1 == 1),
                |i| i % 17 == 0,
            ),
            Encoding::Plain,
        ),
        (
            "on",
            column(DataType::Bool, |i| Value::Bool(i >= 128), never),
            Encoding::Rle,
        ),
        (
            "tag",
            column(
                DataType::Varchar,
                |i| {
                    Value::Varchar(
                        ["red", "green", "", "blåbær"][(mix(i as u64) % 4) as usize].into(),
                    )
                },
                |i| i % 29 == 1,
            ),
            Encoding::Dictionary,
        ),
        (
            "note",
            column(
                DataType::Varchar,
                |i| Value::Varchar(format!("row-{i}-{:x}", mix(i as u64) & 0xFFFF)),
                |i| i == 299,
            ),
            Encoding::Plain,
        ),
    ];
    let schema = Schema::of(
        &cols
            .iter()
            .map(|(n, c, _)| (*n, c.data_type()))
            .collect::<Vec<_>>(),
    );
    let batch = Batch::new(schema, cols.iter().map(|(_, c, _)| c.clone()).collect()).unwrap();
    // The fixture only pins what it covers: every encoding must be in it.
    let info = block_column_info(&encode_batch(&batch)).unwrap();
    for (i, (name, _, want)) in info.iter().zip(&cols) {
        assert_eq!(i.encoding, *want, "column {name}");
    }
    batch
}

#[test]
fn encoded_bytes_match_the_parent_commits() {
    let batch = golden_batch();
    let v2: &[u8] = include_bytes!("fixtures/mixed_v2.block");
    let v1: &[u8] = include_bytes!("fixtures/mixed_v1.block");

    assert!(encode_batch(&batch)[..] == *v2, "v2 block bytes moved");
    assert!(encode_batch_v1(&batch)[..] == *v1, "v1 block bytes moved");

    // Both ways of learning the crc agree with the bytes the parent wrote.
    for fixture in [v1, v2] {
        let stored = u32::from_le_bytes(fixture[5..9].try_into().unwrap());
        assert_eq!(crc32(&fixture[9..]), stored);
        assert_eq!(block_checksum(fixture).unwrap(), stored);
    }

    // And the parent's bytes still decode to the batch they were made from.
    assert_eq!(decode_batch(v2).unwrap(), batch);
    assert_eq!(decode_batch(v1).unwrap(), batch);
}
