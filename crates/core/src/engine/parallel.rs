//! Deterministic fork-join: the engine's one threading primitive.
//!
//! [`map_chunks`] splits the id space `0..total` into contiguous chunks,
//! each processed by a scoped OS thread (`std::thread::scope` — the build
//! environment has no network access, so `rayon` is replaced by this
//! small equivalent). Results are merged **in chunk order**, so the
//! assembled transition system is bit-for-bit identical regardless of
//! thread count or interleaving. [`map_ranges`] is the same fan-out over
//! caller-chosen ranges (the Monte-Carlo batch's [`partition`] of its
//! runs).
//!
//! [`join`] runs two independent closures under the same fork rule: the
//! second beside the first on a scoped thread when `total` ids would
//! fork [`map_chunks`], otherwise both on the caller, first then second.
//! A study overlaps its Monte-Carlo batch with the exact pipeline this
//! way.
//!
//! A panicking worker or arm re-raises its own payload on the caller,
//! after every thread has joined.

use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};

/// Minimum ids per chunk: below this, threading overhead dominates and the
/// whole range runs on the calling thread.
const MIN_CHUNK: u64 = 4096;

/// Splits `0..total` into at most `parts` contiguous ranges of
/// `total.div_ceil(parts)` ids each (the last may be shorter): the
/// exploration's chunks and the Monte-Carlo batch's run slices.
pub fn partition(total: u64, parts: usize) -> Vec<Range<u64>> {
    let parts = parts.max(1) as u64;
    let chunk = total.div_ceil(parts);
    (0..parts)
        .map(|i| i * chunk..((i + 1) * chunk).min(total))
        .take_while(|r| !r.is_empty())
        .collect()
}

/// The number of worker threads to use for `total` ids. Below two
/// chunks the hardware is not queried: `available_parallelism` reads
/// the affinity mask and the cgroup quota files on every call (15–25 µs
/// on a 2-vCPU Linux host, against a median zoo study of about 0.5 ms).
pub fn thread_count(total: u64) -> usize {
    let chunks = (total / MIN_CHUNK).max(1);
    let hw = || std::thread::available_parallelism().map_or(1, |n| n.get()) as u64;
    chunks.min(if chunks > 1 { hw() } else { 1 }) as usize
}

/// Maps `f` over the chunks of `0..total` in parallel and returns the
/// chunk results **in chunk order**, failing fast on the first error (in
/// chunk order, for determinism).
pub fn map_chunks<T: Send, E: Send>(
    total: u64,
    f: impl Fn(Range<u64>) -> Result<T, E> + Sync,
) -> Result<Vec<T>, E> {
    let chunks = partition(total, thread_count(total));
    map_ranges(chunks, f).into_iter().collect()
}

/// Maps `f` over `ranges`, one scoped thread per range, and returns the
/// results in range order. At most one range runs on the calling thread.
pub fn map_ranges<T: Send>(ranges: Vec<Range<u64>>, f: impl Fn(Range<u64>) -> T + Sync) -> Vec<T> {
    if ranges.len() <= 1 {
        return ranges.into_iter().map(f).collect();
    }
    std::thread::scope(|scope| {
        let handles: Vec<_> = ranges
            .into_iter()
            .map(|range| scope.spawn(|| f(range)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|p| panic::resume_unwind(p)))
            .collect()
    })
}

/// Runs `first` and `second` and returns both results. When
/// [`thread_count`]`(total) > 1` — the rule under which [`map_chunks`]
/// forks — `second` runs on a scoped thread while `first` runs on the
/// caller; otherwise both run on the caller, `first` then `second`.
pub fn join<RA, RB: Send>(
    total: u64,
    first: impl FnOnce() -> RA,
    second: impl FnOnce() -> RB + Send,
) -> (RA, RB) {
    if thread_count(total) <= 1 {
        return (first(), second());
    }
    std::thread::scope(|scope| {
        let handle = scope.spawn(second);
        // `second` joins before a panic of `first` re-raises.
        let ra = panic::catch_unwind(AssertUnwindSafe(first));
        match (ra, handle.join()) {
            (Ok(ra), Ok(rb)) => (ra, rb),
            (Err(p), _) | (_, Err(p)) => panic::resume_unwind(p),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_covers_range_without_overlap() {
        for total in [0u64, 1, 7, 100, 4097] {
            for parts in [0usize, 1, 2, 3, 8] {
                let chunks = partition(total, parts);
                assert!(chunks.len() <= parts.max(1));
                let mut expect = 0;
                for c in &chunks {
                    assert_eq!(c.start, expect);
                    expect = c.end;
                }
                assert_eq!(expect, total);
            }
        }
    }

    #[test]
    fn map_chunks_preserves_order() {
        let out = map_chunks::<_, ()>(100_000, |r| Ok(r.start)).unwrap();
        let mut sorted = out.clone();
        sorted.sort_unstable();
        assert_eq!(out, sorted);
        assert_eq!(out[0], 0);
    }

    #[test]
    fn map_chunks_propagates_errors() {
        let err = map_chunks(100_000, |r| {
            if r.end == 100_000 {
                Err("boom")
            } else {
                Ok(())
            }
        })
        .unwrap_err();
        assert_eq!(err, "boom");
    }

    /// More ids than one chunk per hardware thread: the fork rule holds
    /// on any host with at least two CPUs.
    fn forking_total() -> u64 {
        MIN_CHUNK * 64
    }

    #[test]
    fn map_ranges_keeps_range_order() {
        let out = map_ranges(vec![0..3, 3..5, 5..9], |r| r.end - r.start);
        assert_eq!(out, [3, 2, 4]);
        assert!(map_ranges(Vec::new(), |r: Range<u64>| r.start).is_empty());
    }

    #[test]
    fn join_returns_both_results() {
        for total in [0, forking_total()] {
            let (a, b) = join(total, || 6 * 7, || "mc".to_string());
            assert_eq!((a, b.as_str()), (42, "mc"));
        }
    }

    #[test]
    fn join_below_the_fork_rule_runs_first_then_second_on_the_caller() {
        let caller = std::thread::current().id();
        let order = std::sync::Mutex::new(Vec::new());
        let log = |arm: &'static str| {
            assert_eq!(std::thread::current().id(), caller, "{arm} left the caller");
            order.lock().unwrap().push(arm);
        };
        assert_eq!(thread_count(MIN_CHUNK - 1), 1);
        join(MIN_CHUNK - 1, || log("exact"), || log("mc"));
        assert_eq!(*order.lock().unwrap(), ["exact", "mc"]);
    }

    #[test]
    #[should_panic(expected = "second arm failed")]
    fn join_reraises_a_panicking_second_arm() {
        join(
            forking_total(),
            || 1,
            || -> u32 { panic!("second arm failed") },
        );
    }

    #[test]
    #[should_panic(expected = "first arm failed")]
    fn join_reraises_a_panicking_first_arm() {
        join(
            forking_total(),
            || -> u32 { panic!("first arm failed") },
            || 2,
        );
    }

    #[test]
    #[should_panic(expected = "range 1 failed")]
    fn map_ranges_reraises_a_worker_panic() {
        map_ranges(vec![0..1, 1..2], |r| {
            assert!(r.start == 0, "range {} failed", r.start);
        });
    }
}
