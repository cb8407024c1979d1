//! Morsel-style parallel chunk processing.
//!
//! The "scale up the execution" rung of Figure 4: chunks are morsels pulled
//! from a shared atomic counter by scoped worker threads, with results
//! written back in order (so parallel execution is deterministic).

use cx_storage::{Chunk, Result};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Applies `f` to every chunk using `threads` workers, preserving order.
///
/// `threads == 0` or `1` runs inline. Errors from any worker abort the
/// call; a worker panic resurfaces here when the scope joins.
pub fn parallel_map_chunks<F>(chunks: &[Chunk], threads: usize, f: F) -> Result<Vec<Chunk>>
where
    F: Fn(&Chunk) -> Result<Chunk> + Sync,
{
    if threads <= 1 || chunks.len() <= 1 {
        return chunks.iter().map(&f).collect();
    }
    let next = AtomicUsize::new(0);
    let results: Vec<Mutex<Option<Result<Chunk>>>> =
        (0..chunks.len()).map(|_| Mutex::new(None)).collect();

    std::thread::scope(|scope| {
        for _ in 0..threads.min(chunks.len()) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= chunks.len() {
                    break;
                }
                let out = f(&chunks[i]);
                *results[i].lock().expect("result slot poisoned") = Some(out);
            });
        }
    });

    results
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("all slots filled by workers")
        })
        .collect()
}

/// Runs `f` over the partitions of `0..n` (at most `parts` contiguous
/// spans, via [`partition_ranges`]) on scoped worker threads, returning
/// results in range order.
///
/// This is the morsel driver for value-level (non-chunk) work — e.g. the
/// semantic join's probe tiles, where each worker scans a span of probe
/// vectors against the build-side arena. `parts <= 1` (or a single
/// partition) runs inline.
pub fn parallel_map_ranges<T, F>(n: usize, parts: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(std::ops::Range<usize>) -> T + Sync,
{
    let ranges = partition_ranges(n, parts.max(1));
    if ranges.len() <= 1 {
        return ranges.into_iter().map(f).collect();
    }
    std::thread::scope(|scope| {
        let handles: Vec<_> = ranges
            .into_iter()
            .map(|range| {
                let f = &f;
                scope.spawn(move || f(range))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("parallel range worker panicked"))
            .collect()
    })
}

/// Splits the row range `0..n` into at most `parts` contiguous spans of
/// near-equal size (used to partition build/probe work).
pub fn partition_ranges(n: usize, parts: usize) -> Vec<std::ops::Range<usize>> {
    if n == 0 || parts == 0 {
        return vec![];
    }
    let parts = parts.min(n);
    let base = n / parts;
    let extra = n % parts;
    let mut out = Vec::with_capacity(parts);
    let mut start = 0;
    for i in 0..parts {
        let len = base + usize::from(i < extra);
        out.push(start..start + len);
        start += len;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cx_expr::{col, eval_predicate, lit};
    use cx_storage::{Column, Field, Schema, Table};

    fn chunks() -> Vec<Chunk> {
        Table::from_columns(
            Schema::new(vec![Field::new("x", cx_storage::DataType::Int64)]),
            vec![Column::from_i64((0..1000).collect())],
        )
        .unwrap()
        .rechunk(100)
        .unwrap()
        .chunks()
        .to_vec()
    }

    #[test]
    fn parallel_matches_serial() {
        let chunks = chunks();
        let schema = Schema::new(chunks[0].schema().fields().to_vec());
        let pred = col("x").gt(lit(500i64)).bind(&schema).unwrap();
        let run = |threads| {
            parallel_map_chunks(&chunks, threads, |c| {
                let mask = eval_predicate(&pred, c)?;
                c.filter(&mask)
            })
            .unwrap()
        };
        let serial = run(1);
        let parallel = run(4);
        assert_eq!(serial.len(), parallel.len());
        let rows = |cs: &[Chunk]| cs.iter().map(|c| c.num_rows()).sum::<usize>();
        assert_eq!(rows(&serial), 499);
        assert_eq!(rows(&serial), rows(&parallel));
        // Order preserved.
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s, p);
        }
    }

    #[test]
    fn more_threads_than_chunks() {
        let chunks = chunks();
        let out = parallel_map_chunks(&chunks[..2], 16, |c| Ok(c.clone())).unwrap();
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn error_propagates() {
        let chunks = chunks();
        let res = parallel_map_chunks(&chunks, 4, |c| {
            if c.row(0).unwrap()[0] == cx_storage::Scalar::Int64(500) {
                Err(cx_storage::Error::InvalidArgument("boom".into()))
            } else {
                Ok(c.clone())
            }
        });
        assert!(res.is_err());
    }

    #[test]
    fn map_ranges_matches_serial() {
        let serial: Vec<usize> = parallel_map_ranges(100, 1, |r| r.sum());
        let parallel: Vec<usize> = parallel_map_ranges(100, 7, |r| r.sum());
        assert_eq!(serial.iter().sum::<usize>(), parallel.iter().sum::<usize>());
        assert_eq!(parallel.len(), 7);
        // Order is preserved: first range covers the lowest indices.
        let firsts: Vec<usize> = parallel_map_ranges(100, 7, |r| r.start);
        assert!(firsts.windows(2).all(|w| w[0] < w[1]));
        assert!(parallel_map_ranges(0, 4, |r| r.len()).is_empty());
    }

    #[test]
    fn partition_ranges_cover_exactly() {
        for (n, parts) in [(10, 3), (10, 10), (10, 20), (0, 4), (7, 1)] {
            let ranges = partition_ranges(n, parts);
            let total: usize = ranges.iter().map(|r| r.len()).sum();
            assert_eq!(total, n, "n={n} parts={parts}");
            // Contiguous and ordered.
            let mut expected = 0;
            for r in &ranges {
                assert_eq!(r.start, expected);
                expected = r.end;
            }
        }
        assert!(partition_ranges(5, 0).is_empty());
    }
}
