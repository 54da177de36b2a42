//! The cluster wire format: one writer and one incremental reader.
//!
//! Every framed stream in the repository — VFT export lanes and the
//! exchange shuffle — shares one layout:
//! a 16-byte stream header `[a u64 LE][b u64 LE]` (source node plus an
//! instance or destination discriminator) followed by `[len u64 LE][payload]`
//! frames, each sent as separate header and payload chunks so payload bytes
//! stay refcounted (`Bytes`) end to end. [`stream_chunks`] is the send half;
//! the receive half is an ordered [`ChunkBuf`] of arrived chunks and a
//! [`FrameAssembler`] that yields complete frames as soon as their bytes
//! exist, which is what lets a receiver decode while the sender is still
//! producing.

use crate::error::{ClusterError, Result};
use bytes::Bytes;
use std::collections::VecDeque;

/// The chunks a sender puts on a framed stream: the 16-byte stream header
/// when `header` opens one (`None` continues a stream opened earlier — VFT
/// opens lazily and appends a block at a time), then per frame a length chunk
/// and the payload itself, refcounted, not copied.
pub fn stream_chunks(
    header: Option<(u64, u64)>,
    frames: impl IntoIterator<Item = Bytes>,
) -> impl Iterator<Item = Bytes> {
    let header = header.map(|(a, b)| {
        let mut h = Vec::with_capacity(16);
        h.extend_from_slice(&a.to_le_bytes());
        h.extend_from_slice(&b.to_le_bytes());
        Bytes::from(h)
    });
    let frames = frames.into_iter().flat_map(|payload| {
        let len = Bytes::copy_from_slice(&(payload.len() as u64).to_le_bytes());
        [len, payload]
    });
    header.into_iter().chain(frames)
}

/// An ordered queue of received byte chunks with zero-copy extraction when a
/// request lines up with chunk boundaries — the common case, because senders
/// emit each length header and each payload as its own chunk.
#[derive(Default)]
pub struct ChunkBuf {
    chunks: VecDeque<Bytes>,
    len: usize,
}

impl ChunkBuf {
    pub fn push(&mut self, chunk: Bytes) {
        if !chunk.is_empty() {
            self.len += chunk.len();
            self.chunks.push_back(chunk);
        }
    }

    /// Bytes buffered but not yet taken.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Remove the next `n` bytes, or `None` if fewer have arrived so far.
    /// Slices straight out of the front chunk when it covers the request;
    /// assembles across chunk boundaries only when it doesn't.
    pub fn take(&mut self, n: usize) -> Option<Bytes> {
        if self.len < n {
            return None;
        }
        if n == 0 {
            return Some(Bytes::new());
        }
        self.len -= n;
        let front = self.chunks.front_mut()?;
        if front.len() == n {
            return self.chunks.pop_front();
        }
        if front.len() > n {
            let head = front.slice(..n);
            *front = front.slice(n..);
            return Some(head);
        }
        let mut out = Vec::with_capacity(n);
        let mut need = n;
        while need > 0 {
            let chunk = self.chunks.pop_front()?;
            if chunk.len() <= need {
                need -= chunk.len();
                out.extend_from_slice(&chunk);
            } else {
                out.extend_from_slice(&chunk[..need]);
                self.chunks.push_front(chunk.slice(need..));
                need = 0;
            }
        }
        Some(Bytes::from(out))
    }
}

/// An 8-byte little-endian word; `None` for any other length.
fn le_u64(bytes: &[u8]) -> Option<u64> {
    bytes.try_into().ok().map(u64::from_le_bytes)
}

/// Incremental splitter for the framed wire format: a 16-byte stream header
/// `[a u64 LE][b u64 LE]`, then frames of `[len u64 LE][payload]`. Push
/// chunks as they arrive, pull complete frames out as soon as their bytes
/// exist.
#[derive(Default)]
pub struct FrameAssembler {
    buf: ChunkBuf,
    header: Option<(u64, u64)>,
    frame_len: Option<usize>,
}

impl FrameAssembler {
    pub fn push(&mut self, chunk: Bytes) {
        self.buf.push(chunk);
    }

    /// The stream header, once its 16 bytes have arrived (a frame can only
    /// be produced after the header, so this is `Some` whenever
    /// [`Self::next_frame`] has returned a frame).
    pub fn header(&self) -> Option<(u64, u64)> {
        self.header
    }

    /// The next complete frame body, if all of its bytes have arrived.
    pub fn next_frame(&mut self) -> Option<Bytes> {
        if self.header.is_none() {
            let h = self.buf.take(16)?;
            self.header = Some((le_u64(&h[..8])?, le_u64(&h[8..])?));
        }
        let len = match self.frame_len {
            Some(len) => len,
            None => *self.frame_len.insert(le_u64(&self.buf.take(8)?)? as usize),
        };
        let body = self.buf.take(len)?;
        self.frame_len = None;
        Some(body)
    }

    /// The stream ended: check nothing is left over and return the two
    /// header words.
    pub fn finish(self) -> Result<(u64, u64)> {
        let Some(header) = self.header else {
            return Err(ClusterError::Io(format!(
                "framed stream missing its 16-byte header (got {} bytes)",
                self.buf.len
            )));
        };
        let dangling = self.buf.len + if self.frame_len.is_some() { 8 } else { 0 };
        if dangling > 0 {
            return Err(ClusterError::Io(format!(
                "framed stream truncated: {dangling} bytes of an incomplete frame \
                 after the last complete one"
            )));
        }
        Ok(header)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;

    fn wire(a: u64, b: u64, frames: &[&[u8]]) -> Vec<u8> {
        let mut w = Vec::new();
        w.extend_from_slice(&a.to_le_bytes());
        w.extend_from_slice(&b.to_le_bytes());
        for f in frames {
            w.extend_from_slice(&(f.len() as u64).to_le_bytes());
            w.extend_from_slice(f);
        }
        w
    }

    #[test]
    fn stream_chunks_are_the_wire_layout_without_copying_payloads() {
        let flat =
            |chunks: &[Bytes]| -> Vec<u8> { chunks.iter().flat_map(|c| c.to_vec()).collect() };
        let payload = Bytes::from_static(b"third-frame");
        let frames = [Bytes::from_static(b"first"), Bytes::new(), payload.clone()];
        let chunks: Vec<Bytes> = stream_chunks(Some((3, 9)), frames).collect();
        assert_eq!(chunks.len(), 7, "header, then length + payload per frame");
        assert_eq!(chunks[6].as_ptr(), payload.as_ptr());
        assert_eq!(flat(&chunks), wire(3, 9, &[b"first", b"", b"third-frame"]));
        // Continuing a stream adds frames only.
        let more: Vec<Bytes> = stream_chunks(None, [payload]).collect();
        assert_eq!(flat(&more), wire(3, 9, &[b"third-frame"])[16..]);
    }

    #[test]
    fn chunkbuf_zero_copy_when_aligned() {
        let mut buf = ChunkBuf::default();
        let chunk = Bytes::from_static(b"hello world");
        buf.push(chunk.clone());
        let taken = buf.take(11).unwrap();
        // Same allocation: a refcounted view, not a copy.
        assert_eq!(taken.as_ptr(), chunk.as_ptr());
        assert!(buf.is_empty());
    }

    #[test]
    fn chunkbuf_assembles_across_boundaries() {
        let mut buf = ChunkBuf::default();
        buf.push(Bytes::from_static(b"abc"));
        buf.push(Bytes::from_static(b"defg"));
        assert_eq!(buf.take(5).unwrap(), Bytes::from_static(b"abcde"));
        assert_eq!(buf.len(), 2);
        assert!(buf.take(3).is_none(), "only 2 bytes remain");
        assert_eq!(buf.take(2).unwrap(), Bytes::from_static(b"fg"));
    }

    #[test]
    fn assembler_yields_frames_across_arbitrary_chunking() {
        let w = wire(3, 9, &[b"first", b"", b"third-frame"]);
        for cut in 0..=w.len() {
            let mut asm = FrameAssembler::default();
            asm.push(Bytes::copy_from_slice(&w[..cut]));
            asm.push(Bytes::copy_from_slice(&w[cut..]));
            let mut frames = Vec::new();
            while let Some(f) = asm.next_frame() {
                frames.push(f);
            }
            assert_eq!(frames.len(), 3, "cut at {cut}");
            assert_eq!(&frames[0][..], b"first");
            assert!(frames[1].is_empty());
            assert_eq!(&frames[2][..], b"third-frame");
            assert_eq!(asm.finish().unwrap(), (3, 9));
        }
    }

    #[test]
    fn truncation_is_an_error() {
        let w = wire(1, 2, &[b"payload"]);
        // Missing header entirely.
        let asm = FrameAssembler::default();
        assert!(asm.finish().is_err());
        // Header present but frame cut short.
        let mut asm = FrameAssembler::default();
        asm.push(Bytes::copy_from_slice(&w[..w.len() - 1]));
        assert!(asm.next_frame().is_none());
        let err = asm.finish().unwrap_err();
        assert!(err.to_string().contains("truncated"), "{err}");
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Cutting a valid wire stream at *any* byte offset, fed in under
        /// *any* chunking, either reproduces a clean prefix of the frames
        /// (cut on a frame boundary past the header) or makes `finish()`
        /// report the truncation — never silent data loss.
        #[test]
        fn any_truncation_is_detected_or_frame_aligned(
            payloads in proptest::collection::vec(
                proptest::collection::vec(proptest::prelude::any::<u8>(), 0..40),
                0..5,
            ),
            cut_seed in proptest::prelude::any::<usize>(),
            chunk in 1usize..32,
        ) {
            let mut w = Vec::new();
            w.extend_from_slice(&5u64.to_le_bytes());
            w.extend_from_slice(&6u64.to_le_bytes());
            let mut boundaries = vec![16usize];
            for p in &payloads {
                w.extend_from_slice(&(p.len() as u64).to_le_bytes());
                w.extend_from_slice(p);
                boundaries.push(w.len());
            }
            let cut = cut_seed % (w.len() + 1);
            let mut asm = FrameAssembler::default();
            let mut frames = Vec::new();
            for piece in w[..cut].chunks(chunk) {
                asm.push(Bytes::copy_from_slice(piece));
                while let Some(f) = asm.next_frame() {
                    frames.push(f.to_vec());
                }
            }
            if boundaries.contains(&cut) {
                let kept = boundaries.iter().position(|b| *b == cut).unwrap();
                proptest::prop_assert_eq!(frames.len(), kept);
                for (f, p) in frames.iter().zip(&payloads) {
                    proptest::prop_assert_eq!(f, p);
                }
                proptest::prop_assert_eq!(asm.finish().unwrap(), (5, 6));
            } else {
                proptest::prop_assert!(asm.finish().is_err());
            }
        }
    }
}
