//! Machine-independent work gate for the Monte-Carlo step kernel: heap
//! allocations per simulated step, counted by a counting global
//! allocator that this test binary installs.
//!
//! The binary holds one test, so nothing else allocates while the
//! counted batches run. The first batch's initial-configuration sampler
//! clones one of a precomputed list of uniform configurations, which
//! costs exactly one allocation per run (the returned configuration);
//! everything else in its window is the batch driver and the step
//! kernel. The second batch runs the sampler `Study::run` and
//! `montecarlo::estimate` use, [`init::uniform`], built before the
//! window: it too must cost one allocation per run.
#![deny(unsafe_op_in_unsafe_fn)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use rand::rngs::StdRng;
use rand::SeedableRng;
use stab_algorithms::HermanRing;
use stab_core::{Configuration, DaemonSpec};
use stab_graph::builders;
use stab_sim::init;
use stab_sim::montecarlo::{estimate_with, BatchSettings};

/// Heap allocations (fresh blocks and reallocations) since start-up.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// Forwards to the system allocator, counting every allocation.
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, so
// the `GlobalAlloc` contract holds exactly as it does for `System`; the
// counter is a relaxed atomic increment and never touches the heap.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `alloc_zeroed`'s contract for `layout`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from this allocator, which is `System`
        // underneath, and the caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which is `System`
        // underneath, with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// An initial-configuration sampler, as `estimate_with` takes it.
type Sampler = dyn Fn(&HermanRing, &mut StdRng) -> Configuration<bool> + Sync;

#[test]
fn herman_batch_allocates_less_than_a_tenth_per_step() {
    let alg = HermanRing::on_ring(&builders::ring(15)).unwrap();
    let spec = alg.legitimacy();
    let mut rng = StdRng::seed_from_u64(15);
    let seeds: Vec<_> = (0..1024)
        .map(|_| init::uniform_random(&alg, &mut rng))
        .collect();
    let sampler = init::from_seeds::<HermanRing, StdRng>(seeds);
    let settings = BatchSettings {
        runs: 2_000,
        max_steps: 1_000_000,
        seed: 21,
        threads: 1,
    };

    let uniform = init::uniform::<_, StdRng>(&alg);
    for (name, sampler) in [("from_seeds", &sampler as &Sampler), ("uniform", &uniform)] {
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let batch = estimate_with(&alg, DaemonSpec::synchronous(), &spec, &settings, sampler);
        let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;

        let batch = batch.expect("Herman converges with probability 1");
        assert_eq!(batch.failures, 0);
        let steps = batch.steps.mean * batch.steps.n as f64;
        let per_step = allocations as f64 / steps;
        eprintln!("{name}: {allocations} allocations over {steps} steps: {per_step:.4} per step");
        assert!(
            per_step < 0.1,
            "{name}: {allocations} allocations over {steps} simulated steps = {per_step:.3} per step"
        );
    }
}
