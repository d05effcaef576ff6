//! The flat CSR transition engine shared by the checker and the Markov
//! builder.
//!
//! # Architecture
//!
//! ```text
//!            SpaceIndexer (mixed-radix bijection C ↔ 0..total)
//!                 │
//!   ConfigCursor  │  in-place enumeration, digits kept incrementally
//!                 ▼
//!   TransitionSystem::explore  ── chunked over scoped threads ──┐
//!                 │                                             │
//!                 │  per chunk: guards + outcome deltas once    │
//!                 │  per configuration, successors by delta-    │
//!                 │  encoding (O(|activation|) per edge)        │
//!                 ▼                                             │
//!        deterministic chunk-order merge  ◄─────────────────────┘
//!                 │
//!                 ▼
//!   Csr<Edge> (forward) · Csr<u32> (reverse, lazy) · BitSet labels
//!        │                        │
//!        ▼                        ▼
//!   stab-checker               stab-markov
//!   (Tarjan/fair cycles,       (Q rows read off Edge::prob,
//!    reachability closures)     backward absorption check)
//! ```
//!
//! The engine records, per configuration, the outgoing [`Edge`]s (successor
//! id, activated-process bitmask, and the randomized-scheduler probability
//! of Definition 6), the enabled-process bitmask, and bit-packed
//! legitimate/initial sets. The checker consumes the `(to, movers)`
//! projection possibilistically; the Markov builder consumes `(to, prob)`.
//! Both projections of one exploration are guaranteed consistent by
//! construction — the seed computed them in two separate passes.
//!
//! # Exploration modes
//!
//! The diagram above shows the default *full sweep* (ids = mixed-radix
//! indices). [`TransitionSystem::explore_with`] additionally offers, per
//! run ([`ExploreOptions`]):
//!
//! * **on-the-fly reachable-only BFS** ([`ExploreOptions::reachable`]) —
//!   hash-interned ids in discovery order, CSR built incrementally from
//!   the frontier; memory scales with the reachable set instead of the
//!   product space;
//! * **symmetry-group quotienting** ([`ExploreOptions::with_quotient`]) —
//!   one id per orbit of the selected group (ring rotations, ring
//!   dihedral, or the topology-derived automorphism group — leaf
//!   permutations on stars and trees), canonicalized by
//!   [`GroupCanonicalizer`] (Booth's O(N) least rotation on rings); folded
//!   parallel edges merge with probabilities summed, so [`Edge::prob`]
//!   stays the exact Definition 6 lumping. An equivariance gate over the
//!   canonicalizer's generators ([`GroupCanonicalizer::generators`], the
//!   engine's one generator set) rejects unsound algorithm–group
//!   combinations, once per study: [`Plan::options`] hands the plan's
//!   admission to the exploration, and any other run gates as it
//!   explores ([`gate_count`] counts the runs).
//!
//! All three modes run through one traversal driver, parameterised by id
//! map (dense or interned) × group (none or a canonicalizer) × frontier
//! (fixed or growing). A fixed quotient sweep canonicalizes each index
//! once and, while the table fits [`DEFAULT_BYTE_BUDGET`], resolves row
//! targets through a dense orbit table of ids ([`canonical_count`]
//! counts the canonicalizations).
//!
//! Throughput is tracked per PR by `cargo run --release --bin exp_explore`
//! (crate `stab-bench`), which writes `BENCH_explore.json`; see ROADMAP.md
//! for the schema and the recorded speedups.

pub mod bitset;
pub mod csr;
pub mod cursor;
pub mod edgestore;
mod equivariance;
pub mod explore;
pub mod ids;
pub mod onthefly;
pub mod parallel;
pub mod plan;
pub mod quotient;
pub mod resilience;
mod rowgen;
pub mod scc;
pub mod spill;
mod traverse;

pub use bitset::BitSet;
pub use csr::Csr;
pub use cursor::ConfigCursor;
pub use edgestore::{
    DeltaStream, DeltaStreamWriter, EdgeIter, EdgeStorage, EdgeStorageBuilder, EdgeStoreKind,
    StreamCursor,
};
pub use equivariance::{gate_count, locally_equivariant};
pub use explore::{explore_count, node_mask, Edge, ExploredIds, TransitionSystem};
pub use onthefly::{ExploreMode, ExploreOptions, Quotient, TraversalMode};
pub use plan::{Plan, PlanDecision, PlanRequest, DEFAULT_BYTE_BUDGET, DEFAULT_DISK_BYTE_BUDGET};
pub use quotient::{least_rotation, CanonScratch, GroupCanonicalizer};
pub use resilience::{Budget, CheckpointConfig, FaultPlan, RunGuard};
pub use scc::{tarjan_count, Components};
pub use spill::{SpillConfig, SpillStore};
pub use traverse::canonical_count;
