// Good: workers only read shared state and keep their mutation local;
// per-chunk results are merged after the join. Mirrors the engine's
// real `map_chunks` call sites, including a let-bound worker.
use stab_core::engine::parallel::join;

pub fn sum(total: u64, data: &[u64]) -> u64 {
    let chunks = parallel::map_chunks(total, |range: std::ops::Range<u64>| {
        let mut local = 0u64;
        for i in range {
            local += data[i as usize];
        }
        Ok::<u64, ()>(local)
    });
    chunks.unwrap().into_iter().sum()
}

pub fn sum_named(total: u64, data: &[u64]) -> u64 {
    let worker = |range: std::ops::Range<u64>| {
        let mut local = 0u64;
        for i in range {
            local += data[i as usize];
        }
        Ok::<u64, ()>(local)
    };
    let chunks = parallel::map_chunks(total, worker);
    chunks.unwrap().into_iter().sum()
}

// Both arms of a `join` return their results; the caller combines them
// after the join. A method `join` is not a fork-join call.
pub fn sum_and_max(total: u64, data: &[u64]) -> (u64, u64) {
    let (sum, max) = parallel::join(
        total,
        || data.iter().sum::<u64>(),
        || {
            let mut best = 0u64;
            for &x in data {
                best = best.max(x);
            }
            best
        },
    );
    let _ = std::path::Path::new("a").join("b");
    (sum, max)
}

// A bare imported `join` is audited too; these arms return results.
pub fn len_and_max(total: u64, data: &[u64]) -> (usize, u64) {
    join(total, || data.len(), || data.iter().copied().max().unwrap_or(0))
}
