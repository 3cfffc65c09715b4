//! The reduction every op's result goes through: cell count, Σ counts and
//! an order-independent 64-bit hash over (cell values, count).
//!
//! Order independence matters because the eight algorithms, the sharded
//! engine, the materialized cube and the naive oracle all emit the same
//! cell set in different orders.

use crate::api::{CellBlock, CellSink};
use std::time::Instant;

#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Digest {
    pub cells: u64,
    pub count_sum: u64,
    pub hash: u64,
}

impl Digest {
    pub fn add(&mut self, cell: &[u32], count: u64) {
        self.cells += 1;
        self.count_sum += count;
        // Wrapping sum of well-mixed per-cell hashes: commutative, and a
        // dropped, duplicated or altered cell changes it.
        self.hash = self.hash.wrapping_add(cell_hash(cell, count));
    }

    pub fn add_block(&mut self, block: &CellBlock) {
        for (cell, count) in block.iter() {
            self.add(cell, count);
        }
    }
}

fn cell_hash(cell: &[u32], count: u64) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ count;
    for &v in cell {
        h = (h ^ u64::from(v)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    // MurmurHash3's 64-bit finalizer, so single-value differences reach
    // every bit before the commutative sum.
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

/// The sink the in-process workloads run into: folds cells into a
/// [`Digest`] and notes when the first one arrived.
pub struct DigestSink {
    pub digest: Digest,
    started: Instant,
    pub first_ns: Option<u64>,
}

impl DigestSink {
    /// `started` is the instant the op's latency is measured from.
    pub fn new(started: Instant) -> DigestSink {
        DigestSink {
            digest: Digest::default(),
            started,
            first_ns: None,
        }
    }
}

impl CellSink<()> for DigestSink {
    #[inline]
    fn emit(&mut self, cell: &[u32], count: u64, _acc: &()) {
        if self.first_ns.is_none() {
            self.first_ns = Some(self.started.elapsed().as_nanos() as u64);
        }
        self.digest.add(cell, count);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const STAR: u32 = u32::MAX;

    #[test]
    fn digest_ignores_order() {
        let cells: [(&[u32], u64); 3] =
            [(&[1, STAR, 3], 9), (&[STAR, STAR, 3], 12), (&[1, 2, 3], 8)];
        let mut a = Digest::default();
        let mut b = Digest::default();
        for (c, n) in cells {
            a.add(c, n);
        }
        for (c, n) in cells.iter().rev() {
            b.add(c, *n);
        }
        assert_eq!(a, b);
        assert_eq!((a.cells, a.count_sum), (3, 29));
    }

    #[test]
    fn digest_sees_a_changed_value_count_or_missing_cell() {
        let mut base = Digest::default();
        base.add(&[1, 2], 5);
        base.add(&[1, STAR], 7);

        let mut value = Digest::default();
        value.add(&[1, 3], 5);
        value.add(&[1, STAR], 7);
        assert_ne!(base.hash, value.hash);

        // Same cell count and Σ counts, counts swapped between cells.
        let mut swapped = Digest::default();
        swapped.add(&[1, 2], 7);
        swapped.add(&[1, STAR], 5);
        assert_eq!(
            (base.cells, base.count_sum),
            (swapped.cells, swapped.count_sum)
        );
        assert_ne!(base.hash, swapped.hash);

        let mut missing = Digest::default();
        missing.add(&[1, 2], 5);
        assert_ne!(base, missing);

        // Position matters: (1, 2) is not (2, 1).
        let mut moved = Digest::default();
        moved.add(&[2, 1], 5);
        moved.add(&[1, STAR], 7);
        assert_ne!(base.hash, moved.hash);
    }

    #[test]
    fn sink_records_the_first_cell_once() {
        let mut sink = DigestSink::new(Instant::now());
        assert!(sink.first_ns.is_none());
        sink.emit(&[0], 1, &());
        let first = sink.first_ns;
        assert!(first.is_some());
        sink.emit(&[1], 1, &());
        assert_eq!(sink.first_ns, first);
        assert_eq!(sink.digest.cells, 2);
    }
}
