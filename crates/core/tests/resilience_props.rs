//! Property-test battery for the checkpoint/resume machinery
//! (`stab_core::engine::resilience`): arbitrary single-bit corruption and
//! torn writes over the frame chain must be *detected* (a typed
//! checkpoint error, never a wrong system), re-exploration over a
//! corrupted chain must heal it bit-for-bit, and a seeded kill at any
//! frame must resume into exactly the uninterrupted run's system.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use proptest::prelude::*;

use stab_core::engine::resilience::list_frames;
use stab_core::engine::{
    Budget, EdgeStoreKind, ExploreOptions, FaultPlan, RunGuard, TransitionSystem,
};
use stab_core::{
    ActionId, ActionMask, Algorithm, Configuration, CoreError, DaemonSpec, Outcomes, Predicate,
    SpaceIndexer, View,
};
use stab_graph::{builders, Graph, NodeId};

// ---------------------------------------------------------------------
// The test algorithm: each process copies its left neighbour's bit.
// Deterministic, so every daemon is admissible and the checkpointed
// sequential path must reproduce the parallel sweep exactly.
// ---------------------------------------------------------------------
#[derive(Debug, Clone)]
struct CopyRing {
    g: Graph,
    orient: stab_graph::RingOrientation,
}

impl CopyRing {
    fn new(n: usize) -> Self {
        let g = builders::ring(n);
        let orient = stab_graph::RingOrientation::canonical(&g).unwrap();
        CopyRing { g, orient }
    }
}

impl Algorithm for CopyRing {
    type State = bool;

    fn graph(&self) -> &Graph {
        &self.g
    }

    fn name(&self) -> String {
        "copy-ring".into()
    }

    fn state_space(&self, _node: NodeId) -> Vec<bool> {
        vec![false, true]
    }

    fn enabled_actions<V: View<bool>>(&self, v: &V) -> ActionMask {
        let pred = *v.neighbor(self.orient.pred_port(v.node()));
        ActionMask::when(pred != *v.me(), ActionId::A1)
    }

    fn apply<V: View<bool>>(&self, v: &V, _a: ActionId) -> Outcomes<bool> {
        Outcomes::certain(*v.neighbor(self.orient.pred_port(v.node())))
    }
}

fn agreement() -> Predicate<bool> {
    Predicate::new("agreement", |c: &Configuration<bool>| {
        c.states().iter().all(|&b| b) || c.states().iter().all(|&b| !b)
    })
}

fn tmp_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "resilience-props-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn tier(flag: bool) -> EdgeStoreKind {
    if flag {
        EdgeStoreKind::Compressed
    } else {
        EdgeStoreKind::Flat
    }
}

fn opts_for(compressed: bool) -> ExploreOptions<bool> {
    ExploreOptions::full().with_edge_store(tier(compressed))
}

/// Explores with checkpointing into a fresh directory and returns
/// `(dir, digest of the finished system)`.
fn checkpointed_run(
    alg: &CopyRing,
    ix: &SpaceIndexer<bool>,
    daemon: DaemonSpec,
    compressed: bool,
    tag: &str,
) -> (PathBuf, u64) {
    let dir = tmp_dir(tag);
    let opts = opts_for(compressed).with_checkpoint(&dir, 2);
    let ts = TransitionSystem::explore_with(alg, ix, daemon, &agreement(), &opts).unwrap();
    (dir, ts.content_digest())
}

/// Whether `resumed` is one of the typed refusals a damaged chain may
/// produce (anything else — success included — is a soundness bug).
fn refused(resumed: &Result<u64, CoreError>) -> bool {
    matches!(
        resumed,
        Err(CoreError::CheckpointIncomplete { .. })
            | Err(CoreError::CheckpointCorrupt { .. })
            | Err(CoreError::CheckpointIo { .. })
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Flipping ANY single bit of ANY frame is detected: cold resume
    /// refuses with a typed checkpoint error (CRC32C catches every 1-bit
    /// error; structural checks catch the rest) — it never hands back a
    /// silently wrong system. Warm re-exploration over the damaged chain
    /// then heals it bit-for-bit.
    #[test]
    fn any_single_bit_flip_is_detected_and_healed(
        n in 3usize..6,
        daemon_ix in 0usize..8,
        compressed in any::<bool>(),
        frame_pick in any::<u64>(),
        bit_pick in any::<u64>(),
    ) {
        let alg = CopyRing::new(n);
        let ix = SpaceIndexer::new(&alg, 1 << 20).unwrap();
        let daemon = DaemonSpec::LEGACY[daemon_ix % DaemonSpec::LEGACY.len()];
        let (dir, digest) = checkpointed_run(&alg, &ix, daemon, compressed, "flip");

        let frames = list_frames(&dir);
        prop_assert!(!frames.is_empty());
        let frame = &frames[(frame_pick % frames.len() as u64) as usize];
        let bits = std::fs::metadata(frame).unwrap().len() * 8;
        FaultPlan::flip_bit(frame, bit_pick % bits).unwrap();

        let resumed = TransitionSystem::resume(&dir).map(|ts| ts.content_digest());
        prop_assert!(
            refused(&resumed),
            "resume must refuse a corrupted chain, got {resumed:?}"
        );

        let opts = opts_for(compressed).with_checkpoint(&dir, 2);
        let healed =
            TransitionSystem::explore_with(&alg, &ix, daemon, &agreement(), &opts).unwrap();
        prop_assert_eq!(healed.content_digest(), digest, "healed run diverged");
        prop_assert_eq!(
            TransitionSystem::resume(&dir).unwrap().content_digest(),
            digest,
            "healed chain must cold-resume again"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Truncating ANY frame at ANY point (a torn write) is detected the
    /// same way: typed refusal on cold resume, bit-for-bit healing on
    /// re-exploration.
    #[test]
    fn any_truncation_is_detected_and_healed(
        n in 3usize..6,
        daemon_ix in 0usize..8,
        compressed in any::<bool>(),
        frame_pick in any::<u64>(),
        keep_pick in any::<u64>(),
    ) {
        let alg = CopyRing::new(n);
        let ix = SpaceIndexer::new(&alg, 1 << 20).unwrap();
        let daemon = DaemonSpec::LEGACY[daemon_ix % DaemonSpec::LEGACY.len()];
        let (dir, digest) = checkpointed_run(&alg, &ix, daemon, compressed, "trunc");

        let frames = list_frames(&dir);
        prop_assert!(!frames.is_empty());
        let frame = &frames[(frame_pick % frames.len() as u64) as usize];
        let len = std::fs::metadata(frame).unwrap().len();
        FaultPlan::truncate_file(frame, keep_pick % len).unwrap();

        let resumed = TransitionSystem::resume(&dir).map(|ts| ts.content_digest());
        prop_assert!(
            refused(&resumed),
            "resume must refuse a torn frame, got {resumed:?}"
        );

        let opts = opts_for(compressed).with_checkpoint(&dir, 2);
        let healed =
            TransitionSystem::explore_with(&alg, &ix, daemon, &agreement(), &opts).unwrap();
        prop_assert_eq!(healed.content_digest(), digest, "healed run diverged");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A seeded kill plan (death after 1–8 durable frames) interrupts the
    /// run, and a plain re-run over the same directory resumes into
    /// exactly the uninterrupted system.
    #[test]
    fn seeded_kills_resume_into_the_uninterrupted_system(
        n in 3usize..6,
        daemon_ix in 0usize..8,
        compressed in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let alg = CopyRing::new(n);
        let ix = SpaceIndexer::new(&alg, 1 << 20).unwrap();
        let daemon = DaemonSpec::LEGACY[daemon_ix % DaemonSpec::LEGACY.len()];
        let spec = agreement();
        let opts = opts_for(compressed);
        let plain = TransitionSystem::explore_with(&alg, &ix, daemon, &spec, &opts)
            .unwrap()
            .content_digest();

        let dir = tmp_dir("seeded");
        let ck_opts = opts.with_checkpoint(&dir, 2);
        let guard = RunGuard::new(Budget::unlimited(), FaultPlan::seeded(seed));
        let first =
            TransitionSystem::explore_guarded(&alg, &ix, daemon, &spec, &ck_opts, &guard)
                .map(|ts| ts.content_digest());
        let digest = match first {
            Err(CoreError::Interrupted { after_frames }) => {
                prop_assert!(after_frames >= 1, "died before any durable frame");
                TransitionSystem::explore_with(&alg, &ix, daemon, &spec, &ck_opts)
                    .unwrap()
                    .content_digest()
            }
            // The space finished before the seeded kill point.
            Ok(digest) => digest,
            Err(e) => {
                prop_assert!(false, "unexpected error: {e}");
                unreachable!()
            }
        };
        prop_assert_eq!(digest, plain, "seed {} diverged after resume", seed);
        std::fs::remove_dir_all(&dir).ok();
    }
}
