//! Integrity lives on the read path. `COPY` writes each container once and
//! records its crc from the block writer without reading the bytes back, so
//! the one check that a container's bytes are the ones written is the crc
//! every cold scan verifies. These tests damage one container on its node's
//! simulated disk after `COPY` (a flipped payload byte; a flipped header crc)
//! and require the cold scan, through storage and through SQL, to fail with
//! the typed `ChecksumMismatch`: no rows, no panic.

use vertica_dr::cluster::{NodeId, PhaseKind, PhaseRecorder, SimCluster};
use vertica_dr::columnar::{Batch, Column, ColumnarError, DataType, Schema};
use vertica_dr::verticadb::{DbError, Segmentation, TableDef, VerticaDb};

const NODES: usize = 3;
const ROWS: i64 = 3000;
/// The node whose container is damaged.
const DAMAGED: NodeId = NodeId(1);

fn table() -> Batch {
    Batch::new(
        Schema::of(&[
            ("id", DataType::Int64),
            ("grp", DataType::Int64),
            ("x", DataType::Float64),
            ("tag", DataType::Varchar),
        ]),
        vec![
            Column::from_i64((0..ROWS).collect()),
            Column::from_i64((0..ROWS).map(|i| i / 500).collect()),
            Column::from_f64((0..ROWS).map(|i| (i as f64).sqrt()).collect()),
            Column::from_strings((0..ROWS).map(|i| format!("t{}", i % 7)).collect()),
        ],
    )
    .unwrap()
}

/// A database holding `t` after one `COPY`, nothing scanned yet, with one
/// container on [`DAMAGED`] rewritten by `damage`. Returns the crc the
/// container's metadata recorded at `COPY`.
fn copied_then_damaged(damage: impl Fn(&mut Vec<u8>)) -> (std::sync::Arc<VerticaDb>, u32) {
    let db = VerticaDb::new(SimCluster::for_tests(NODES));
    db.create_table(TableDef {
        name: "t".into(),
        schema: table().schema().clone(),
        segmentation: Segmentation::RoundRobin,
    })
    .unwrap();
    assert_eq!(db.copy("t", vec![table()]).unwrap(), ROWS as u64);
    let containers = db.storage().containers("t", DAMAGED);
    assert_eq!(containers.len(), 1);
    let meta = &containers[0];
    let disk = db.cluster().node(DAMAGED).disk();
    let mut bytes = disk.read(&meta.path).unwrap().to_vec();
    damage(&mut bytes);
    disk.write(meta.path.clone(), bytes.into());
    (db, meta.crc)
}

/// The cold scan of the damaged node and the SQL over the whole table both
/// fail with a checksum mismatch whose `expected` is `header_crc`.
fn assert_scan_fails(db: &VerticaDb, header_crc: u32) {
    let is_mismatch = |e: &DbError| {
        matches!(
            e,
            DbError::Columnar(ColumnarError::ChecksumMismatch { expected, found })
                if *expected == header_crc && found != expected
        )
    };
    let rec = PhaseRecorder::new("scan", PhaseKind::Sequential, NODES);
    let scan = db.storage().scan_node("t", DAMAGED, &rec, None);
    match scan {
        Err(e) => assert!(is_mismatch(&e), "storage scan: {e:?}"),
        Ok(batches) => panic!("storage scan returned {} batches", batches.len()),
    }
    // An undamaged node still reads.
    let healthy = db.storage().scan_node("t", NodeId(0), &rec, None).unwrap();
    assert_eq!(healthy.iter().map(|b| b.num_rows()).sum::<usize>(), 1000);
    for sql in [
        "SELECT * FROM t",
        "SELECT count(*) FROM t",
        "SELECT sum(x) FROM t",
    ] {
        match db.query(sql) {
            Err(e) => assert!(is_mismatch(&e), "{sql}: {e:?}"),
            Ok(out) => panic!("{sql} returned {} rows", out.batch.num_rows()),
        }
    }
}

#[test]
fn a_flipped_payload_byte_fails_the_cold_scan() {
    // The block's last byte belongs to its last column's payload.
    let (db, crc) = copied_then_damaged(|b| {
        let last = b.len() - 1;
        b[last] ^= 0x10;
    });
    assert_scan_fails(&db, crc);
}

#[test]
fn a_flipped_header_crc_fails_the_cold_scan() {
    // Bytes 5..9 of a block are the crc32 of its body.
    let (db, crc) = copied_then_damaged(|b| b[6] ^= 0x01);
    assert_scan_fails(&db, crc ^ 0x100);
}
