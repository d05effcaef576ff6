// Bad: each fork-join call shares mutable state across its join
// boundary — the capture pass must emit exactly one diagnostic per call:
// a `map_chunks` worker smuggling a RefCell, a `join` arm assigning a
// binding of its caller, and a bare imported `join` arm doing the same.
use stab_core::engine::parallel::join;
use std::cell::RefCell;

pub fn tally(total: u64) -> u64 {
    let shared = RefCell::new(0u64);
    let chunks = parallel::map_chunks(total, |range: std::ops::Range<u64>| {
        *shared.borrow_mut() += range.end - range.start;
        Ok::<u64, ()>(0)
    });
    let _ = chunks;
    shared.into_inner()
}

pub fn overlap(total: u64) -> u64 {
    let mut seen = 0u64;
    let (a, b) = parallel::join(total, || total + 1, || seen = total);
    let _ = (a, b);
    seen
}

pub fn overlap_imported(total: u64) -> u64 {
    let mut runs = 0u64;
    let (a, _) = join(total, || total, || runs += 1);
    a + runs
}
