//! The block format: a self-describing, checksummed serialization of a
//! [`Batch`].
//!
//! Used for two things, mirroring the paper's architecture:
//! * **on-disk containers** — each table segment is stored as blocks on its
//!   node's simulated disk, and
//! * **VFT wire batches** — `ExportToDistributedR` streams blocks to the
//!   Distributed R workers' receive pools.
//!
//! Version 2 layout (current writer):
//! ```text
//! magic  "VCOL"            4 bytes
//! version u8               1 byte  (2)
//! crc32  of body           4 bytes
//! body:
//!   rows   u64
//!   ncols  u16
//!   index: ncols × u64     byte offset of each column entry from body start
//!   per column entry: name (uvarint len + utf8), dtype u8, encoding u8,
//!                     payload-len u64, payload bytes
//! ```
//!
//! The offset index is what makes **projection pushdown** cheap: a scan that
//! wants `k` of `m` columns seeks straight to the `k` entries it needs and
//! never touches the other payloads ([`decode_batch_columns`]). Version 1
//! blocks (no index) are still readable — the per-column `payload-len`
//! lets the decoder skip unwanted payloads sequentially.

use crate::batch::Batch;
use crate::checksum::crc32;
use crate::column::Column;
use crate::encoded::{EncodedBatch, EncodedColumn, ScanColumn};
use crate::encoding::{self, read_uvarint, uvarint_len, write_uvarint, Encoding};
use crate::error::{ColumnarError, Result};
use crate::schema::{Field, Schema};
use crate::value::DataType;
use bytes::Bytes;
use std::collections::HashSet;

const MAGIC: &[u8; 4] = b"VCOL";
const VERSION_V1: u8 = 1;
const VERSION_V2: u8 = 2;

fn dtype_to_u8(dt: DataType) -> u8 {
    match dt {
        DataType::Int64 => 0,
        DataType::Float64 => 1,
        DataType::Bool => 2,
        DataType::Varchar => 3,
    }
}

fn dtype_from_u8(v: u8) -> Result<DataType> {
    match v {
        0 => Ok(DataType::Int64),
        1 => Ok(DataType::Float64),
        2 => Ok(DataType::Bool),
        3 => Ok(DataType::Varchar),
        other => Err(ColumnarError::Corrupt(format!("unknown dtype {other}"))),
    }
}

/// What a [`decode_batch_columns`] call actually did — drives the cost
/// ledger (charge only decoded values) and the `exec.scan.cols_skipped`
/// observability counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodeStats {
    /// Columns present in the block.
    pub cols_total: usize,
    /// Columns actually decoded to plain form.
    pub cols_decoded: usize,
    /// Columns kept in encoded (run/code) form for compressed execution —
    /// always 0 on the [`decode_batch_columns`] path.
    pub cols_kept_encoded: usize,
    /// Rows in the block.
    pub rows: usize,
}

impl DecodeStats {
    /// Columns whose payloads were skipped without being read at all.
    pub fn cols_skipped(&self) -> usize {
        self.cols_total - self.cols_decoded - self.cols_kept_encoded
    }

    /// Scalar values materialized (the unit `db_scan_ns_per_value` charges).
    /// Encoded-kept columns contribute nothing — their expansion is charged
    /// later, at late materialization, for surviving rows only.
    pub fn values_decoded(&self) -> u64 {
        (self.rows * self.cols_decoded) as u64
    }
}

/// Serialize a batch, choosing each column's encoding heuristically.
pub fn encode_batch(batch: &Batch) -> Bytes {
    encode_block(batch, None, VERSION_V2)
}

/// Serialize a batch forcing one encoding for every column (used by the
/// encoding ablation bench). `None` selects per-column heuristics.
pub fn encode_batch_with(batch: &Batch, force: Option<Encoding>) -> Bytes {
    encode_block(batch, force, VERSION_V2)
}

/// Serialize in the legacy v1 layout (no column offset index). Kept so the
/// backward-compatibility tests can manufacture old-format containers; the
/// engine itself always writes v2.
pub fn encode_batch_v1(batch: &Batch) -> Bytes {
    encode_block(batch, None, VERSION_V1)
}

/// Legacy v1 layout with a forced per-column encoding (property tests use
/// this to cover every `Encoding` variant in both block versions).
pub fn encode_batch_v1_with(batch: &Batch, force: Option<Encoding>) -> Bytes {
    encode_block(batch, force, VERSION_V1)
}

fn encode_block(batch: &Batch, force: Option<Encoding>, version: u8) -> Bytes {
    const HEADER_LEN: usize = 9; // magic + version + crc32
    const BODY_FIXED: usize = 8 + 2; // rows + ncols
    const ENTRY_FIXED: usize = 1 + 1 + 8; // dtype + encoding + payload-len
    let ncols = batch.num_columns();
    let index_len = if version >= VERSION_V2 { ncols * 8 } else { 0 };
    let fields = batch.schema().fields();

    // Encodings are settled before the first byte is written, so the one
    // output buffer is allocated at its final size: a `Vec` that doubles its
    // way up would park up to half its capacity, unused, inside the `Bytes`
    // that goes to the simulated disk. A forced encoding that does not apply
    // to a column's type (Dictionary on floats) falls back to plain.
    let encodings: Vec<Encoding> = batch
        .columns()
        .iter()
        .map(|col| match force {
            Some(enc) if encoding::supports(col.data_type(), enc) => enc,
            Some(_) => Encoding::Plain,
            None => encoding::choose_encoding(col),
        })
        .collect();
    let entries_len: usize = fields
        .iter()
        .zip(batch.columns())
        .zip(&encodings)
        .map(|((field, col), &enc)| {
            uvarint_len(field.name.len() as u64)
                + field.name.len()
                + ENTRY_FIXED
                + encoding::encoded_len_bound(col, enc)
        })
        .sum();

    // Single-buffer encode: header, index, and every column entry are written
    // straight into `out`; the per-column offsets, payload lengths, and the
    // body crc are back-patched once their values are known.
    let mut out = Vec::with_capacity(HEADER_LEN + BODY_FIXED + index_len + entries_len);
    out.extend_from_slice(MAGIC);
    out.push(version);
    out.extend_from_slice(&[0u8; 4]); // crc placeholder, patched last
    out.extend_from_slice(&(batch.num_rows() as u64).to_le_bytes());
    out.extend_from_slice(&(ncols as u16).to_le_bytes());
    // Per-column offset index (entry offsets from body start), patched as
    // each entry lands.
    let index_pos = out.len();
    out.resize(out.len() + index_len, 0);

    for (c, ((field, col), &enc)) in fields
        .iter()
        .zip(batch.columns())
        .zip(&encodings)
        .enumerate()
    {
        if version >= VERSION_V2 {
            let entry_offset = (out.len() - HEADER_LEN) as u64;
            out[index_pos + c * 8..index_pos + c * 8 + 8]
                .copy_from_slice(&entry_offset.to_le_bytes());
        }
        write_uvarint(field.name.len() as u64, &mut out);
        out.extend_from_slice(field.name.as_bytes());
        out.push(dtype_to_u8(field.dtype));
        out.push(enc as u8);
        let len_pos = out.len();
        out.extend_from_slice(&[0u8; 8]); // payload-len placeholder
        let payload_start = out.len();
        encoding::encode_column(col, enc, &mut out).expect("encoding fits the column type");
        let payload_len = (out.len() - payload_start) as u64;
        out[len_pos..len_pos + 8].copy_from_slice(&payload_len.to_le_bytes());
    }

    let crc = crc32(&out[HEADER_LEN..]);
    out[5..9].copy_from_slice(&crc.to_le_bytes());
    // Only a Dictionary column's size is an over-estimate; give the excess
    // back when it is worth a reallocation.
    if out.capacity() - out.len() > out.capacity() / 8 {
        out.shrink_to_fit();
    }
    Bytes::from(out)
}

/// Deserialize a block back into a batch (all columns), verifying magic,
/// version, and checksum.
pub fn decode_batch(bytes: &[u8]) -> Result<Batch> {
    decode_batch_columns(bytes, None).map(|(batch, _)| batch)
}

/// The crc32 a block header carries over its body, without decoding it.
/// Storage layers use it as the container's content version tag.
pub fn block_checksum(bytes: &[u8]) -> Result<u32> {
    if bytes.len() < 9 || &bytes[0..4] != MAGIC {
        return Err(ColumnarError::BadBlockHeader("bad magic".into()));
    }
    Ok(u32::from_le_bytes(bytes[5..9].try_into().expect("4 bytes")))
}

/// Deserialize only the named columns of a block (projection pushdown);
/// `None` decodes everything. Column names match case-insensitively, like
/// [`Schema::index_of`]. Unwanted column payloads are skipped via the v2
/// offset index (or the per-column payload length in v1 blocks) and never
/// decoded. Decoded columns keep the block's column order.
///
/// If the wanted set would select zero columns, the smallest-payload column
/// is decoded anyway so the batch still carries the block's row count
/// (`SELECT count(*)` needs rows, not values).
pub fn decode_batch_columns(
    bytes: &[u8],
    wanted: Option<&HashSet<String>>,
) -> Result<(Batch, DecodeStats)> {
    let raw = parse_block(bytes)?;
    let selected = select_entries(&raw.entries, wanted);
    let mut fields = Vec::new();
    let mut columns: Vec<Column> = Vec::new();
    for (e, keep) in raw.entries.iter().zip(&selected) {
        if !keep {
            continue;
        }
        let payload = &raw.body[e.payload_start..e.payload_end];
        let mut ppos = 0usize;
        let col = encoding::decode_column(e.dtype, e.enc, raw.rows, payload, &mut ppos)?;
        check_payload_consumed(&e.name, payload, ppos)?;
        fields.push(Field::new(e.name.clone(), e.dtype));
        columns.push(col);
    }
    let cols_decoded = columns.len();
    let batch = Batch::new(Schema::new(fields), columns)?;
    Ok((
        batch,
        DecodeStats {
            cols_total: raw.entries.len(),
            cols_decoded,
            cols_kept_encoded: 0,
            rows: raw.rows,
        },
    ))
}

/// Deserialize a block for compressed execution: the named columns are
/// produced as an [`EncodedBatch`] where Rle and Dictionary payloads stay in
/// run/code form ([`ScanColumn::Encoded`]) and Plain/DeltaVarint payloads
/// decode eagerly ([`ScanColumn::Decoded`]). That per-column split *is* the
/// encoded-vs-decoded decision rule — it keys off the encoding the block
/// writer already chose, so low-cardinality and sorted columns ride the
/// encoded path and everything else behaves exactly like
/// [`decode_batch_columns`]. Selection semantics (case-insensitive match,
/// cheapest-column fallback for empty selections) are identical.
pub fn decode_batch_encoded(
    bytes: &[u8],
    wanted: Option<&HashSet<String>>,
) -> Result<(EncodedBatch, DecodeStats)> {
    let raw = parse_block(bytes)?;
    let selected = select_entries(&raw.entries, wanted);
    let mut fields = Vec::new();
    let mut columns: Vec<ScanColumn> = Vec::new();
    let mut cols_decoded = 0usize;
    let mut cols_kept_encoded = 0usize;
    for (e, keep) in raw.entries.iter().zip(&selected) {
        if !keep {
            continue;
        }
        let payload = &raw.body[e.payload_start..e.payload_end];
        let mut ppos = 0usize;
        let col = match EncodedColumn::from_payload(e.dtype, e.enc, raw.rows, payload, &mut ppos)? {
            Some(ec) => {
                cols_kept_encoded += 1;
                ScanColumn::Encoded(ec)
            }
            None => {
                cols_decoded += 1;
                ScanColumn::Decoded(encoding::decode_column(
                    e.dtype, e.enc, raw.rows, payload, &mut ppos,
                )?)
            }
        };
        check_payload_consumed(&e.name, payload, ppos)?;
        fields.push(Field::new(e.name.clone(), e.dtype));
        columns.push(col);
    }
    let batch = EncodedBatch::new(Schema::new(fields), raw.rows, columns)?;
    Ok((
        batch,
        DecodeStats {
            cols_total: raw.entries.len(),
            cols_decoded,
            cols_kept_encoded,
            rows: raw.rows,
        },
    ))
}

/// Per-column facts a block header carries: name, type, encoding, and the
/// encoded payload size. Reads only entry headers — no payload is decoded.
/// Storage uses this for `v_monitor.storage_containers`' per-column rows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockColumnInfo {
    pub name: String,
    pub dtype: DataType,
    pub encoding: Encoding,
    pub encoded_bytes: u64,
}

/// Read every column's [`BlockColumnInfo`] from a block.
pub fn block_column_info(bytes: &[u8]) -> Result<Vec<BlockColumnInfo>> {
    let raw = parse_block(bytes)?;
    Ok(raw
        .entries
        .iter()
        .map(|e| BlockColumnInfo {
            name: e.name.clone(),
            dtype: e.dtype,
            encoding: e.enc,
            encoded_bytes: (e.payload_end - e.payload_start) as u64,
        })
        .collect())
}

/// A parsed block: verified header, row count, and every column entry's
/// header with payload bounds (payloads untouched).
struct RawBlock<'a> {
    body: &'a [u8],
    rows: usize,
    entries: Vec<RawEntry>,
}

struct RawEntry {
    name: String,
    dtype: DataType,
    enc: Encoding,
    payload_start: usize,
    payload_end: usize,
}

/// Verify magic/version/crc and walk every entry header (cheap — name +
/// 2 bytes + len), remembering where each payload lives.
fn parse_block(bytes: &[u8]) -> Result<RawBlock<'_>> {
    if bytes.len() < 9 {
        return Err(ColumnarError::BadBlockHeader("block too short".into()));
    }
    if &bytes[0..4] != MAGIC {
        return Err(ColumnarError::BadBlockHeader("bad magic".into()));
    }
    let version = bytes[4];
    if version != VERSION_V1 && version != VERSION_V2 {
        return Err(ColumnarError::BadBlockHeader(format!(
            "unsupported version {version}"
        )));
    }
    let expected = u32::from_le_bytes(bytes[5..9].try_into().expect("4 bytes"));
    let body = &bytes[9..];
    let found = crc32(body);
    if found != expected {
        return Err(ColumnarError::ChecksumMismatch { expected, found });
    }

    let mut pos = 0usize;
    let rows = read_u64_le(body, &mut pos)? as usize;
    let ncols = read_u16_le(body, &mut pos)? as usize;

    // Column entry offsets: read from the v2 index, or discovered by the
    // sequential walk below for v1.
    let index: Option<Vec<u64>> = if version >= VERSION_V2 {
        let mut offsets = Vec::with_capacity(ncols);
        for _ in 0..ncols {
            offsets.push(read_u64_le(body, &mut pos)?);
        }
        Some(offsets)
    } else {
        None
    };

    let mut entries = Vec::with_capacity(ncols);
    for c in 0..ncols {
        if let Some(idx) = &index {
            let off = idx[c] as usize;
            if off < pos || off > body.len() {
                return Err(ColumnarError::Corrupt(format!(
                    "column {c} index offset {off} out of range"
                )));
            }
            pos = off;
        }
        let name_len = read_uvarint(body, &mut pos)? as usize;
        let name_end = pos
            .checked_add(name_len)
            .ok_or_else(|| ColumnarError::Corrupt("name length overflow".into()))?;
        let name = std::str::from_utf8(
            body.get(pos..name_end)
                .ok_or_else(|| ColumnarError::Corrupt("name past end".into()))?,
        )
        .map_err(|_| ColumnarError::Corrupt("name not utf8".into()))?
        .to_string();
        pos = name_end;
        let dtype = dtype_from_u8(read_u8(body, &mut pos)?)?;
        let enc = Encoding::from_u8(read_u8(body, &mut pos)?)?;
        let payload_len = read_u64_le(body, &mut pos)? as usize;
        let payload_end = pos
            .checked_add(payload_len)
            .ok_or_else(|| ColumnarError::Corrupt("payload length overflow".into()))?;
        if payload_end > body.len() {
            return Err(ColumnarError::Corrupt("payload past end".into()));
        }
        entries.push(RawEntry {
            name,
            dtype,
            enc,
            payload_start: pos,
            payload_end,
        });
        pos = payload_end;
    }
    if pos != body.len() {
        return Err(ColumnarError::Corrupt(format!(
            "{} trailing bytes after last column",
            body.len() - pos
        )));
    }
    Ok(RawBlock {
        body,
        rows,
        entries,
    })
}

/// Which entries to materialize. An empty selection still keeps the
/// cheapest column so the row count survives (`SELECT count(*)` needs rows,
/// not values).
fn select_entries(entries: &[RawEntry], wanted: Option<&HashSet<String>>) -> Vec<bool> {
    let is_wanted = |name: &str| match wanted {
        None => true,
        Some(set) => set.iter().any(|w| w.eq_ignore_ascii_case(name)),
    };
    let mut selected: Vec<bool> = entries.iter().map(|e| is_wanted(&e.name)).collect();
    if !entries.is_empty() && !selected.iter().any(|&s| s) {
        let cheapest = entries
            .iter()
            .enumerate()
            .min_by_key(|(_, e)| e.payload_end - e.payload_start)
            .map(|(i, _)| i)
            .expect("entries non-empty");
        selected[cheapest] = true;
    }
    selected
}

fn check_payload_consumed(name: &str, payload: &[u8], ppos: usize) -> Result<()> {
    if ppos != payload.len() {
        return Err(ColumnarError::Corrupt(format!(
            "column {name}: {} trailing payload bytes",
            payload.len() - ppos
        )));
    }
    Ok(())
}

fn read_u8(bytes: &[u8], pos: &mut usize) -> Result<u8> {
    let b = *bytes
        .get(*pos)
        .ok_or_else(|| ColumnarError::Corrupt("u8 past end".into()))?;
    *pos += 1;
    Ok(b)
}

fn read_u16_le(bytes: &[u8], pos: &mut usize) -> Result<u16> {
    let end = *pos + 2;
    let s = bytes
        .get(*pos..end)
        .ok_or_else(|| ColumnarError::Corrupt("u16 past end".into()))?;
    *pos = end;
    Ok(u16::from_le_bytes(s.try_into().expect("2 bytes")))
}

fn read_u64_le(bytes: &[u8], pos: &mut usize) -> Result<u64> {
    let end = pos
        .checked_add(8)
        .ok_or_else(|| ColumnarError::Corrupt("u64 past end".into()))?;
    let s = bytes
        .get(*pos..end)
        .ok_or_else(|| ColumnarError::Corrupt("u64 past end".into()))?;
    *pos = end;
    Ok(u64::from_le_bytes(s.try_into().expect("8 bytes")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    fn sample_batch() -> Batch {
        let schema = Schema::of(&[
            ("id", DataType::Int64),
            ("x", DataType::Float64),
            ("flag", DataType::Bool),
            ("tag", DataType::Varchar),
        ]);
        Batch::new(
            schema,
            vec![
                Column::from_i64((0..100).collect()),
                Column::from_f64((0..100).map(|i| i as f64 / 3.0).collect()),
                Column::from_bool((0..100).map(|i| i % 2 == 0).collect()),
                Column::from_strings((0..100).map(|i| format!("t{}", i % 5)).collect()),
            ],
        )
        .unwrap()
    }

    fn set(names: &[&str]) -> HashSet<String> {
        names.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let batch = sample_batch();
        let bytes = encode_batch(&batch);
        let back = decode_batch(&bytes).unwrap();
        assert_eq!(back, batch);
    }

    #[test]
    fn v1_blocks_still_decode() {
        let batch = sample_batch();
        let bytes = encode_batch_v1(&batch);
        assert_eq!(bytes[4], VERSION_V1);
        let back = decode_batch(&bytes).unwrap();
        assert_eq!(back, batch);
        // Projection works on v1 too, via sequential payload skipping.
        let (narrow, stats) = decode_batch_columns(&bytes, Some(&set(&["x"]))).unwrap();
        assert_eq!(narrow.schema().names(), vec!["x"]);
        assert_eq!(stats.cols_skipped(), 3);
    }

    #[test]
    fn projection_decodes_only_wanted_columns() {
        let batch = sample_batch();
        let bytes = encode_batch(&batch);
        let (narrow, stats) = decode_batch_columns(&bytes, Some(&set(&["tag", "id"]))).unwrap();
        // Block column order is preserved, not selection order.
        assert_eq!(narrow.schema().names(), vec!["id", "tag"]);
        assert_eq!(narrow.num_rows(), 100);
        assert_eq!(
            narrow.column_by_name("tag").unwrap().get(7),
            batch.row(7)[3]
        );
        assert_eq!(stats.cols_total, 4);
        assert_eq!(stats.cols_decoded, 2);
        assert_eq!(stats.values_decoded(), 200);
    }

    #[test]
    fn projection_matches_case_insensitively() {
        let bytes = encode_batch(&sample_batch());
        let (narrow, _) = decode_batch_columns(&bytes, Some(&set(&["ID", "Tag"]))).unwrap();
        assert_eq!(narrow.schema().names(), vec!["id", "tag"]);
    }

    #[test]
    fn empty_projection_keeps_row_count() {
        let bytes = encode_batch(&sample_batch());
        let (b, stats) = decode_batch_columns(&bytes, Some(&set(&["nope"]))).unwrap();
        assert_eq!(b.num_rows(), 100);
        assert_eq!(stats.cols_decoded, 1, "cheapest column stands in for rows");
    }

    #[test]
    fn empty_batch_roundtrips() {
        let batch = Batch::empty(Schema::of(&[("a", DataType::Int64)]));
        let back = decode_batch(&encode_batch(&batch)).unwrap();
        assert_eq!(back.num_rows(), 0);
        assert_eq!(back.schema().names(), vec!["a"]);
    }

    #[test]
    fn batch_with_nulls_roundtrips() {
        let schema = Schema::of(&[("v", DataType::Float64)]);
        let rows = vec![
            vec![Value::Float64(1.0)],
            vec![Value::Null],
            vec![Value::Float64(3.0)],
        ];
        let batch = Batch::from_rows(schema, &rows).unwrap();
        let back = decode_batch(&encode_batch(&batch)).unwrap();
        assert_eq!(back.row(1), vec![Value::Null]);
    }

    #[test]
    fn corruption_is_detected() {
        let bytes = encode_batch(&sample_batch());
        let mut bad = bytes.to_vec();
        let mid = bad.len() / 2;
        bad[mid] ^= 0xFF;
        assert!(matches!(
            decode_batch(&bad),
            Err(ColumnarError::ChecksumMismatch { .. })
        ));
    }

    /// A crc proves the bytes are the ones that were written, not that the
    /// writer was honest: a hostile block carries a *valid* crc. Counts read
    /// from such bytes must be checked against the bytes that back them
    /// before anything is allocated: an unchecked one reaches
    /// `Vec::with_capacity(1 << 40)` and aborts the process.
    #[test]
    fn hostile_counts_with_valid_crc_are_corrupt_not_an_abort() {
        const HUGE: u64 = 1 << 40;
        fn reseal(mut block: Vec<u8>) -> Vec<u8> {
            let crc = crc32(&block[9..]);
            block[5..9].copy_from_slice(&crc.to_le_bytes());
            block
        }
        // Single-column blocks, so the column's payload is the block's tail.
        let one_column = |name: &str, col: Column, enc: Encoding| {
            let schema = Schema::of(&[(name, col.data_type())]);
            let batch = Batch::new(schema, vec![col]).unwrap();
            let block = encode_batch_with(&batch, Some(enc)).to_vec();
            let info = block_column_info(&block).unwrap();
            assert_eq!(info[0].encoding, enc);
            let payload_start = block.len() - info[0].encoded_bytes as usize;
            (block, payload_start)
        };
        let columns = [
            ("p", Column::from_i64((0..200).collect()), Encoding::Plain),
            (
                "d",
                Column::from_i64((0..200).collect()),
                Encoding::DeltaVarint,
            ),
            ("r", Column::from_f64(vec![1.5; 200]), Encoding::Rle),
            ("s", Column::from_strings(vec!["ab"; 200]), Encoding::Plain),
            (
                "t",
                Column::from_strings(vec!["ab"; 200]),
                Encoding::Dictionary,
            ),
        ];
        let mut hostile: Vec<(String, Vec<u8>)> = Vec::new();
        for (name, col, enc) in columns {
            let (block, payload_start) = one_column(name, col, enc);
            // The block's row count and the validity bitmap's bit count both
            // claim 2^40 rows; nothing else changes.
            let mut b = block.clone();
            b[9..17].copy_from_slice(&HUGE.to_le_bytes());
            b[payload_start..payload_start + 8].copy_from_slice(&HUGE.to_le_bytes());
            hostile.push((format!("{enc:?}: rows and bitmap length 2^40"), reseal(b)));
            // Only the bitmap lies.
            let mut b = block.clone();
            b[payload_start..payload_start + 8].copy_from_slice(&HUGE.to_le_bytes());
            hostile.push((format!("{enc:?}: bitmap length 2^40"), reseal(b)));
        }
        // A dictionary that claims 2^40 entries: the one-byte varint after
        // the bitmap grows, so the entry's payload length is patched too.
        let (block, payload_start) = one_column(
            "t",
            Column::from_strings(vec!["ab"; 200]),
            Encoding::Dictionary,
        );
        let dict_len_pos = payload_start + 8 + 8 * 200usize.div_ceil(64);
        assert_eq!(block[dict_len_pos], 1, "one distinct string");
        let mut varint = Vec::new();
        write_uvarint(HUGE, &mut varint);
        let mut b = block[..dict_len_pos].to_vec();
        b.extend_from_slice(&varint);
        b.extend_from_slice(&block[dict_len_pos + 1..]);
        let payload_len = (b.len() - payload_start) as u64;
        b[payload_start - 8..payload_start].copy_from_slice(&payload_len.to_le_bytes());
        hostile.push(("Dictionary: 2^40 entries".into(), reseal(b)));

        for (what, block) in &hostile {
            assert!(
                matches!(decode_batch(block), Err(ColumnarError::Corrupt(_))),
                "decode_batch, {what}"
            );
            assert!(
                matches!(
                    decode_batch_columns(block, None),
                    Err(ColumnarError::Corrupt(_))
                ),
                "decode_batch_columns, {what}"
            );
            assert!(
                matches!(
                    decode_batch_encoded(block, None),
                    Err(ColumnarError::Corrupt(_))
                ),
                "decode_batch_encoded, {what}"
            );
        }
    }

    #[test]
    fn bad_magic_and_version_rejected() {
        let bytes = encode_batch(&sample_batch());
        let mut bad = bytes.to_vec();
        bad[0] = b'X';
        assert!(matches!(
            decode_batch(&bad),
            Err(ColumnarError::BadBlockHeader(_))
        ));
        let mut bad = bytes.to_vec();
        bad[4] = 99;
        assert!(matches!(
            decode_batch(&bad),
            Err(ColumnarError::BadBlockHeader(_))
        ));
        assert!(decode_batch(&[1, 2]).is_err());
    }

    #[test]
    fn block_checksum_matches_header() {
        let bytes = encode_batch(&sample_batch());
        let crc = block_checksum(&bytes).unwrap();
        assert_eq!(crc, crc32(&bytes[9..]));
        assert!(block_checksum(&[0, 1, 2]).is_err());
    }

    #[test]
    fn forced_encoding_falls_back_when_inapplicable() {
        let batch = sample_batch();
        // Dictionary doesn't apply to ints/floats/bools: they fall back to
        // plain, strings use it; the block still round-trips.
        let bytes = encode_batch_with(&batch, Some(Encoding::Dictionary));
        assert_eq!(decode_batch(&bytes).unwrap(), batch);
        let bytes = encode_batch_with(&batch, Some(Encoding::Plain));
        assert_eq!(decode_batch(&bytes).unwrap(), batch);
    }

    #[test]
    fn encoded_decode_keeps_dict_and_rle_columns() {
        let batch = sample_batch();
        let bytes = encode_batch(&batch);
        // Auto-encoding gives `tag` a dictionary; the numeric columns here
        // are unencodable (distinct values) so they decode eagerly.
        let (eb, stats) = decode_batch_encoded(&bytes, None).unwrap();
        assert_eq!(eb.num_rows(), 100);
        assert_eq!(eb.num_encoded(), 1);
        assert_eq!(stats.cols_kept_encoded, 1);
        assert_eq!(stats.cols_decoded, 3);
        assert_eq!(stats.cols_skipped(), 0);
        assert!(matches!(
            eb.column_by_name("tag").unwrap(),
            crate::ScanColumn::Encoded(_)
        ));
        // Full materialization equals the plain decode.
        let mask = crate::Bitmap::all_valid(100);
        let (full, _) = eb.materialize(&mask, None).unwrap();
        assert_eq!(full, batch);

        // A constant int column comes back as an RLE ScanColumn.
        let schema = Schema::of(&[("k", DataType::Int64)]);
        let b = Batch::new(schema, vec![Column::from_i64(vec![3; 5000])]).unwrap();
        let (eb, stats) = decode_batch_encoded(&encode_batch(&b), None).unwrap();
        assert_eq!(stats.cols_kept_encoded, 1);
        assert_eq!(stats.values_decoded(), 0, "nothing materialized at scan");
        // The shared validity bitmap (1 bit/row) dominates the encoded size.
        assert!(eb.byte_size() < b.byte_size() / 50);
    }

    #[test]
    fn encoded_decode_projects_and_reads_v1() {
        let batch = sample_batch();
        for bytes in [
            encode_batch(&batch),
            encode_batch_v1_with(&batch, Some(Encoding::Rle)),
        ] {
            let (eb, stats) = decode_batch_encoded(&bytes, Some(&set(&["TAG"]))).unwrap();
            assert_eq!(eb.schema().names(), vec!["tag"]);
            assert_eq!(stats.cols_skipped(), 3);
            let mask = crate::Bitmap::all_valid(100);
            let (full, _) = eb.materialize(&mask, None).unwrap();
            assert_eq!(
                full.column(0).get(7),
                batch.column_by_name("tag").unwrap().get(7)
            );
        }
    }

    #[test]
    fn column_info_reports_encodings_and_sizes() {
        let batch = sample_batch();
        let bytes = encode_batch(&batch);
        let info = block_column_info(&bytes).unwrap();
        assert_eq!(info.len(), 4);
        let tag = info.iter().find(|i| i.name == "tag").unwrap();
        assert_eq!(tag.encoding, Encoding::Dictionary);
        assert_eq!(tag.dtype, DataType::Varchar);
        assert!(tag.encoded_bytes > 0);
        let id = info.iter().find(|i| i.name == "id").unwrap();
        assert_eq!(id.encoding, Encoding::DeltaVarint);
        // Sizes are the raw payload spans: they sum to less than the block.
        let total: u64 = info.iter().map(|i| i.encoded_bytes).sum();
        assert!(total < bytes.len() as u64);
    }

    #[test]
    fn auto_encoding_is_smaller_on_compressible_data() {
        let schema = Schema::of(&[("c", DataType::Int64)]);
        let batch = Batch::new(schema, vec![Column::from_i64(vec![9; 50_000])]).unwrap();
        let auto = encode_batch(&batch);
        let plain = encode_batch_with(&batch, Some(Encoding::Plain));
        assert!(auto.len() * 20 < plain.len());
    }
}
