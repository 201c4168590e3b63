//! Epoch report wire format and the collector's merged view.
//!
//! A sweep freezes one switch's sketch state into a flat little-endian
//! u64 payload (carried through the fabric in a pooled frame buffer)
//! and resets the sketch — epochs are disjoint by construction, so the
//! collector's cell-wise merge is exactly the sketch of the union
//! stream.
//!
//! Layout (u64 little-endian words):
//! `magic, switch<<32|epoch, frames, bytes, depth, width,`
//! `cells (depth*width), nkeys, keys...`
//!
//! The LSB sketch's row shift is derived from `width`, so it is not
//! carried.

use std::collections::BTreeSet;

use crate::sketch::{windows_fit, LsbSketch, SketchCfg, SwitchSketch};

/// Header words before the cell array.
const HEADER_WORDS: usize = 6;

/// First word of every telemetry report payload.
pub const REPORT_MAGIC: u64 = 0x544C_4D52_5054_0001; // "TLMRPT" v1

#[inline]
fn push_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

#[inline]
fn read_u64(buf: &[u8], word: usize) -> Option<u64> {
    let off = word * 8;
    buf.get(off..off + 8)
        .map(|b| u64::from_le_bytes(b.try_into().unwrap()))
}

impl SwitchSketch {
    /// Snapshot this epoch into `out` (cleared first) and reset the
    /// sketch for the next epoch.
    pub fn encode_sweep(&mut self, switch: u32, epoch: u32, out: &mut Vec<u8>) {
        out.clear();
        push_u64(out, REPORT_MAGIC);
        push_u64(out, (switch as u64) << 32 | epoch as u64);
        push_u64(out, self.frames);
        push_u64(out, self.bytes);
        push_u64(out, self.cfg.depth as u64);
        push_u64(out, self.cfg.width as u64);
        for &c in self.lsb.cells() {
            push_u64(out, c);
        }
        let keys: Vec<u64> = self.keys.keys().collect();
        push_u64(out, keys.len() as u64);
        for k in keys {
            push_u64(out, k);
        }
        self.reset();
    }
}

/// One decoded sweep payload.
pub struct EpochReport {
    pub switch: u32,
    pub epoch: u32,
    pub frames: u64,
    pub bytes: u64,
    pub depth: usize,
    pub width: usize,
    /// LSB sketch cells, row-major (`depth * width`).
    pub cells: Vec<u64>,
    pub keys: Vec<u64>,
}

/// Read `n` consecutive words starting at word `from`, or `None` if the
/// buffer is shorter. The length is checked before anything is
/// allocated, so a forged count cannot trigger a huge allocation.
fn read_words(buf: &[u8], from: usize, n: usize) -> Option<Vec<u64>> {
    let start = from.checked_mul(8)?;
    let end = from.checked_add(n)?.checked_mul(8)?;
    let bytes = buf.get(start..end)?;
    Some(
        bytes
            .chunks_exact(8)
            .map(|b| u64::from_le_bytes(b.try_into().expect("8-byte chunk")))
            .collect(),
    )
}

/// Decode a report payload; `None` on wrong magic, an impossible shape
/// or truncation.
pub fn decode_report(buf: &[u8]) -> Option<EpochReport> {
    if read_u64(buf, 0)? != REPORT_MAGIC {
        return None;
    }
    let tag = read_u64(buf, 1)?;
    let frames = read_u64(buf, 2)?;
    let bytes = read_u64(buf, 3)?;
    let depth = usize::try_from(read_u64(buf, 4)?).ok()?;
    let width = usize::try_from(read_u64(buf, 5)?).ok()?;
    if !windows_fit(depth, width) {
        return None;
    }
    let n_cells = depth.checked_mul(width)?;
    let cells = read_words(buf, HEADER_WORDS, n_cells)?;
    let w = HEADER_WORDS + n_cells;
    let nkeys = usize::try_from(read_u64(buf, w)?).ok()?;
    let keys = read_words(buf, w + 1, nkeys)?;
    Some(EpochReport {
        switch: (tag >> 32) as u32,
        epoch: tag as u32,
        frames,
        bytes,
        depth,
        width,
        cells,
        keys,
    })
}

/// Collector-side accumulated state for one switch: the cell-wise
/// merged sketch across epochs plus the union of candidate keys (a
/// `BTreeSet` so every iteration is deterministic and sorted).
pub struct MergedView {
    pub lsb: LsbSketch,
    pub keys: BTreeSet<u64>,
    pub frames: u64,
    pub bytes: u64,
    pub epochs: u32,
}

impl MergedView {
    pub fn new(cfg: &SketchCfg) -> MergedView {
        MergedView {
            lsb: LsbSketch::new(cfg),
            keys: BTreeSet::new(),
            frames: 0,
            bytes: 0,
            epochs: 0,
        }
    }

    /// Merge one epoch in. Returns `false` (report dropped) on a shape
    /// mismatch instead of corrupting the view.
    pub fn absorb(&mut self, rep: &EpochReport) -> bool {
        if rep.depth != self.lsb.depth() || rep.width != self.lsb.width() {
            return false;
        }
        self.lsb.merge_cells(&rep.cells, rep.bytes);
        self.keys.extend(rep.keys.iter().copied());
        self.frames += rep.frames;
        self.bytes += rep.bytes;
        self.epochs += 1;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> SketchCfg {
        SketchCfg {
            depth: 2,
            width: 128,
            key_slots: 32,
        }
    }

    #[test]
    fn encode_decode_roundtrip() {
        let mut s = SwitchSketch::new(cfg());
        for k in 1..=40u64 {
            s.update(k * 0x1234_5678_9abc, 64 * k);
        }
        let (frames, bytes) = (s.frames, s.bytes);
        let cells_before = s.lsb.cells().to_vec();
        let mut buf = Vec::new();
        s.encode_sweep(3, 17, &mut buf);
        // sweep resets the live sketch
        assert_eq!(s.frames, 0);
        assert!(s.lsb.cells().iter().all(|&c| c == 0));
        let rep = decode_report(&buf).expect("decodes");
        assert_eq!((rep.switch, rep.epoch), (3, 17));
        assert_eq!((rep.frames, rep.bytes), (frames, bytes));
        assert_eq!(rep.cells, cells_before);
        assert!(!rep.keys.is_empty());
    }

    #[test]
    fn report_length_is_header_cells_and_keys() {
        let c = cfg();
        let mut s = SwitchSketch::new(c);
        for k in 1..=5u64 {
            s.update(k * 0x1234_5678_9abc, 64);
        }
        let mut buf = Vec::new();
        s.encode_sweep(0, 0, &mut buf);
        let nkeys = decode_report(&buf).expect("decodes").keys.len();
        assert!(nkeys > 0);
        // header, one depth*width cell array, the key count, the keys
        let words = HEADER_WORDS + c.depth * c.width + 1 + nkeys;
        assert_eq!(HEADER_WORDS, 6);
        assert_eq!(buf.len(), words * 8);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(decode_report(&[]).is_none());
        assert!(decode_report(&[0u8; 64]).is_none());
        let mut s = SwitchSketch::new(cfg());
        s.update(9, 9);
        let mut buf = Vec::new();
        s.encode_sweep(0, 0, &mut buf);
        buf.truncate(buf.len() - 3);
        assert!(decode_report(&buf).is_none());
        // a valid header claiming 2^40 cells per row must be rejected
        // by length, not by attempting the allocation
        let mut huge = Vec::new();
        for w in [REPORT_MAGIC, 0, 1, 64, 1, 1 << 40, 0] {
            huge.extend_from_slice(&u64::to_le_bytes(w));
        }
        assert_eq!(huge.len(), 56);
        assert!(decode_report(&huge).is_none());
        // a depth word of u64::MAX fails the window rule without overflow
        huge[32..40].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(decode_report(&huge).is_none());
    }

    #[test]
    fn merged_view_matches_single_stream() {
        let c = cfg();
        let mut live = SwitchSketch::new(c);
        let mut whole = SwitchSketch::new(c);
        let mut view = MergedView::new(&c);
        let mut buf = Vec::new();
        for epoch in 0..3u32 {
            for k in 1..=30u64 {
                let key = k.wrapping_mul(0x9E37_79B9) + epoch as u64;
                live.update(key, k);
                whole.update(key, k);
            }
            live.encode_sweep(0, epoch, &mut buf);
            let rep = decode_report(&buf).unwrap();
            assert!(view.absorb(&rep));
        }
        assert_eq!(view.lsb.cells(), whole.lsb.cells());
        assert_eq!(view.frames, whole.frames);
        assert_eq!(view.epochs, 3);
    }

    #[test]
    fn absorb_rejects_shape_mismatch() {
        let mut s = SwitchSketch::new(SketchCfg {
            depth: 3,
            width: 256,
            key_slots: 32,
        });
        s.update(5, 5);
        let mut buf = Vec::new();
        s.encode_sweep(0, 0, &mut buf);
        let rep = decode_report(&buf).unwrap();
        let mut view = MergedView::new(&cfg());
        assert!(!view.absorb(&rep));
        assert_eq!(view.epochs, 0);
    }
}
