//! Reference digests from `ccube_core::naive`, the exhaustive cuber that
//! applies the iceberg and closedness definitions directly.
//!
//! The oracle never calls a session: it filters and projects the rows by
//! hand, rebuilds the subtable with `TableBuilder` and cubes it naively,
//! so selection, projection, planner, engine, stream and wire are all on
//! the checked side.

use crate::api::{naive_cube, Mode, TableBuilder};
use crate::digest::{Digest, DigestSink};
use crate::ladder::Req;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Row-major tuples of one table.
#[derive(Clone, Copy)]
pub struct Rows<'a> {
    pub values: &'a [u32],
    pub dims: usize,
}

/// The digest `req` must produce over `rows`.
pub fn reference(rows: &Rows<'_>, req: &Req) -> Digest {
    let kept: Vec<usize> = (0..rows.dims)
        .filter(|d| req.dims.is_none_or(|mask| mask >> d & 1 == 1))
        .collect();
    let mut builder = TableBuilder::new(kept.len());
    let mut any = false;
    for row in rows.values.chunks_exact(rows.dims) {
        if req
            .selections
            .iter()
            .all(|(d, values)| values.contains(&row[*d]))
        {
            let projected: Vec<u32> = kept.iter().map(|&d| row[d]).collect();
            builder.push_row(&projected);
            any = true;
        }
    }
    let mut sink = DigestSink::new(Instant::now());
    if any {
        let table = builder.build().expect("oracle subtable is well-formed");
        let mode = if req.closed() {
            Mode::ClosedIceberg
        } else {
            Mode::Iceberg
        };
        naive_cube(&table, req.min_sup, mode, &mut sink);
    }
    sink.digest
}

/// Reference digests of the distinct answers among `reqs` (keyed by
/// [`Req::answer_key`]) over the rows `rows_for` names for each, computed
/// on every CPU: the naive cuber is the slowest part of a run and the
/// requests are independent.
pub fn references<'a>(
    rows_for: impl Fn(&Req) -> Rows<'a> + Sync,
    reqs: impl Iterator<Item = &'a Req>,
) -> HashMap<Req, Digest> {
    let mut keys: Vec<Req> = Vec::new();
    for req in reqs {
        let key = req.answer_key();
        if !keys.contains(&key) {
            keys.push(key);
        }
    }
    let workers = std::thread::available_parallelism().map_or(1, usize::from);
    let next = AtomicUsize::new(0);
    let done = Mutex::new(HashMap::new());
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                while let Some(key) = keys.get(next.fetch_add(1, Ordering::Relaxed)) {
                    let digest = reference(&rows_for(key), key);
                    done.lock()
                        .expect("oracle worker panicked")
                        .insert(key.clone(), digest);
                }
            });
        }
    });
    done.into_inner().expect("oracle worker panicked")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::Algorithm;

    // Table 1 of the paper, min_sup 2: closed cells (0,0,0,*):2 and
    // (0,*,*,*):3.
    const TABLE1: [u32; 12] = [0, 0, 0, 0, 0, 0, 0, 2, 0, 1, 1, 1];

    fn req() -> Req {
        Req {
            min_sup: 2,
            ..Req::full(0)
        }
    }

    #[test]
    fn reference_is_the_papers_example() {
        let rows = Rows {
            values: &TABLE1,
            dims: 4,
        };
        let got = reference(&rows, &req());
        let star = u32::MAX;
        let mut want = Digest::default();
        want.add(&[0, 0, 0, star], 2);
        want.add(&[0, star, star, star], 3);
        assert_eq!(got, want);
    }

    #[test]
    fn selection_projection_and_iceberg_mode_are_applied_by_hand() {
        let rows = Rows {
            values: &TABLE1,
            dims: 4,
        };
        // Slice B = 0 keeps two tuples; project onto (A, D).
        let sliced = Req {
            dims: Some(0b1001),
            selections: vec![(1, vec![0])],
            ..req()
        };
        let star = u32::MAX;
        let mut want = Digest::default();
        want.add(&[0, star], 2);
        assert_eq!(reference(&rows, &sliced), want);

        let iceberg = Req {
            algorithm: Some(Algorithm::Buc),
            ..sliced.clone()
        };
        assert!(!iceberg.closed());
        let mut want = Digest::default();
        want.add(&[0, star], 2);
        want.add(&[star, star], 2);
        assert_eq!(reference(&rows, &iceberg), want);

        let empty = Req {
            selections: vec![(1, vec![7])],
            ..req()
        };
        assert_eq!(reference(&rows, &empty), Digest::default());
    }

    #[test]
    fn references_are_keyed_by_answer() {
        let rows = Rows {
            values: &TABLE1,
            dims: 4,
        };
        let by_planner = req();
        let by_ccstar = Req {
            algorithm: Some(Algorithm::CCubingStar),
            threads: Some(2),
            ..req()
        };
        let reqs = [by_planner.clone(), by_ccstar.clone()];
        let refs = references(|_| rows, reqs.iter());
        assert_eq!(refs.len(), 1);
        assert_eq!(
            refs[&by_ccstar.answer_key()],
            refs[&by_planner.answer_key()]
        );
    }
}
