//! Exploration planning: resolve *what to explore and how* before paying
//! for the exploration.
//!
//! PRs 2–4 made [`ExploreOptions`] powerful but expert-only: picking the
//! right symmetry quotient requires knowing which groups the algorithm
//! respects (and the equivariance gate rejects the rest), and
//! picking the edge-store tier requires estimating the flat store's
//! 24 B/edge footprint against the machine's RAM. [`Plan::compute`] makes
//! both choices mechanically, *before* exploring:
//!
//! 1. **Size estimate** — the full space size comes straight off the
//!    [`SpaceIndexer`]; the edge count is estimated by generating a
//!    deterministic stride sample of successor rows (the same `rowgen`
//!    path the exploration itself uses) and extrapolating the mean
//!    out-degree.
//! 2. **Quotient auto-selection** — candidate groups are tried best
//!    first ([`Quotient::Automorphism`], then [`Quotient::RingRotation`])
//!    through the equivariance gate, once per candidate that passes
//!    structural validation. The plan's gate is the run's gate: the first
//!    sound group wins, and its admission (the canonicalizer plus how
//!    each generator passed, strict or lumped) travels with
//!    [`Plan::options`] into the exploration, which does not gate again.
//!    If no candidate is sound, the plan records why each was rejected
//!    and falls back to [`Quotient::None`].
//! 3. **Edge-store auto-selection** — a three-way ladder over
//!    *analysis-time* footprints, not bare store sizes: the verdict
//!    passes materialize a reverse CSR and the Markov stage mirrors the
//!    edges into a `QStorage` of the same tier, so the resident peak is
//!    store + reverse + Q (≈ 2× the store alone). If the estimated flat
//!    analysis footprint fits the byte budget
//!    ([`PlanRequest::byte_budget`], default [`DEFAULT_BYTE_BUDGET`]),
//!    the flat tier is chosen (fastest while RAM lasts); else the
//!    compressed tier, unless even *its* analysis footprint exceeds the
//!    RAM ceiling ([`PlanRequest::disk_byte_budget`], default
//!    [`DEFAULT_DISK_BYTE_BUDGET`]) — then the edge stream spills to
//!    `WSR1` disk chunks ([`EdgeStoreKind::Disk`]) and the analyses run
//!    streaming. The full-sweep estimate is used deliberately even when
//!    a quotient was selected: quotient folding merges parallel edges
//!    nonuniformly, so the post-quotient edge count is not reliably
//!    predictable from the group order alone, and the planner prefers to
//!    err toward the memory-frugal tier.
//! 4. **Id map** — recorded, not chosen: no quotient means dense ids; a
//!    quotient sweep keeps a dense orbit table (4 B per configuration)
//!    while it fits [`DEFAULT_BYTE_BUDGET`] and interns ids otherwise,
//!    by the same rule the traversal applies.
//!
//! Every decision — auto or forced — is recorded as a [`PlanDecision`]
//! with its reason, so reports built on a plan (the facade `Study`, the
//! bench rows) can show *why* a run was configured the way it was.
//!
//! ```
//! use stab_core::engine::{EdgeStoreKind, Plan, PlanRequest, Quotient};
//! use stab_core::{DaemonSpec, SpaceIndexer};
//! # use stab_core::{ActionId, ActionMask, Algorithm, Outcomes, Predicate, View};
//! # use stab_graph::{builders, Graph, NodeId};
//! # struct Flip { g: Graph }
//! # impl Algorithm for Flip {
//! #     type State = bool;
//! #     fn graph(&self) -> &Graph { &self.g }
//! #     fn name(&self) -> String { "flip".into() }
//! #     fn state_space(&self, _v: NodeId) -> Vec<bool> { vec![false, true] }
//! #     fn enabled_actions<V: View<bool>>(&self, v: &V) -> ActionMask {
//! #         let differs = (0..v.degree()).any(|p| v.neighbor(p.into()) != v.me());
//! #         ActionMask::when(differs, ActionId::A1)
//! #     }
//! #     fn apply<V: View<bool>>(&self, v: &V, _a: ActionId) -> Outcomes<bool> {
//! #         Outcomes::certain(!*v.me())
//! #     }
//! # }
//! let alg = Flip { g: builders::ring(6) };
//! let ix = SpaceIndexer::new(&alg, 1 << 20).unwrap();
//! let spec = Predicate::new("agreement", |c: &stab_core::Configuration<bool>| {
//!     c.states().iter().all(|&b| b) || c.states().iter().all(|&b| !b)
//! });
//! let req = PlanRequest::default();
//! let plan = Plan::compute(&alg, &ix, DaemonSpec::central(), &spec, &req).unwrap();
//! // Anonymous uniform ring + invariant spec: the full dihedral group is
//! // sound, and 64 configurations sit far below any byte budget.
//! assert_eq!(plan.quotient, Quotient::Automorphism);
//! assert_eq!(plan.edge_store, EdgeStoreKind::Flat);
//! let opts = plan.options::<bool>();
//! assert_eq!(opts.quotient, Quotient::Automorphism);
//! ```

use std::fmt;
use std::mem::size_of;
use std::sync::Arc;

use crate::algorithm::Algorithm;
use crate::scheduler::DaemonSpec;
use crate::space::SpaceIndexer;
use crate::spec::Legitimacy;
use crate::CoreError;

use super::edgestore::EdgeStoreKind;
use super::equivariance::{self, Admission, Carried};
use super::explore::conflict_masks;
use super::onthefly::{ExploreOptions, Quotient};
use super::quotient::GroupCanonicalizer;
use super::rowgen::RowGen;
use super::traverse::orbit_table_bytes;

/// Default byte budget for the flat-tier decision: 32 MiB of
/// analysis-time flat footprint. Conservative on purpose — the
/// compressed tier costs little time (it has even been measured *faster*
/// on large sweeps, writing 4–6× fewer bytes) while the flat tier's
/// failure mode is exhausting RAM.
pub const DEFAULT_BYTE_BUDGET: u64 = 32 << 20;

/// Default RAM ceiling for the disk-tier decision: when even the
/// *compressed* analysis footprint (stream + reverse CSR + Q mirror) is
/// estimated past 4 GiB, the planner spills the edge stream to `WSR1`
/// disk chunks. Distinct from [`DEFAULT_BYTE_BUDGET`] because the two
/// budgets answer different questions: `byte_budget` is how much RAM we
/// *happily spend for speed* (flat is an optimization), the ceiling is
/// how much the machine *has* (beyond it the run must go out-of-core).
pub const DEFAULT_DISK_BYTE_BUDGET: u64 = 4 << 30;

/// Default number of successor rows sampled for the edge estimate.
pub const DEFAULT_SAMPLE_ROWS: u64 = 64;

/// Flat-tier cost per stored edge (`size_of::<Edge>()`).
const FLAT_BYTES_PER_EDGE: u64 = 24;

/// Estimated compressed-stream cost per stored edge (measured ≈ 5 B on
/// ring sweeps; 6 errs toward the memory-frugal tier).
const COMPRESSED_BYTES_PER_EDGE: u64 = 6;

/// Reverse-CSR cost per edge (`u32` target per entry).
const REVERSE_BYTES_PER_EDGE: u64 = 4;

/// Flat `QStorage` cost per entry (`(u32, f64)` target/probability pair).
const Q_FLAT_BYTES_PER_ENTRY: u64 = 16;

/// What the planner may decide, and within which budget.
///
/// `None` fields are decided automatically; `Some` fields are forced and
/// recorded as non-auto decisions (a forced choice still appears in the
/// plan, so reports show the complete configuration either way).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanRequest {
    /// Byte budget for the flat tier; estimated full-sweep *analysis*
    /// footprints (store + reverse CSR + Q mirror) above it select the
    /// compressed tier.
    pub byte_budget: u64,
    /// RAM ceiling for the compressed tier; estimated compressed
    /// analysis footprints above it select the disk tier.
    pub disk_byte_budget: u64,
    /// Number of rows sampled for the edge estimate.
    pub sample_rows: u64,
    /// Forced quotient (`None` = auto-select through the equivariance
    /// gate).
    pub quotient: Option<Quotient>,
    /// Forced edge-store tier (`None` = auto-select under the budget).
    pub edge_store: Option<EdgeStoreKind>,
}

impl Default for PlanRequest {
    fn default() -> Self {
        PlanRequest {
            byte_budget: DEFAULT_BYTE_BUDGET,
            disk_byte_budget: DEFAULT_DISK_BYTE_BUDGET,
            sample_rows: DEFAULT_SAMPLE_ROWS,
            quotient: None,
            edge_store: None,
        }
    }
}

impl PlanRequest {
    /// Replaces the byte budget.
    #[must_use]
    pub fn with_byte_budget(mut self, byte_budget: u64) -> Self {
        self.byte_budget = byte_budget;
        self
    }

    /// Replaces the disk-tier RAM ceiling.
    #[must_use]
    pub fn with_disk_byte_budget(mut self, disk_byte_budget: u64) -> Self {
        self.disk_byte_budget = disk_byte_budget;
        self
    }

    /// Forces the quotient instead of auto-selecting.
    #[must_use]
    pub fn with_quotient(mut self, quotient: Quotient) -> Self {
        self.quotient = Some(quotient);
        self
    }

    /// Forces the edge-store tier instead of auto-selecting.
    #[must_use]
    pub fn with_edge_store(mut self, edge_store: EdgeStoreKind) -> Self {
        self.edge_store = Some(edge_store);
        self
    }
}

/// One recorded planner decision: which setting, what was chosen, whether
/// the planner chose it (vs a forced override), and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanDecision {
    /// The setting decided (`"quotient"`, `"edge_store"` or `"id_map"`).
    pub setting: &'static str,
    /// The chosen value's stable label.
    pub choice: String,
    /// Whether the planner made the choice (false = forced by the
    /// caller).
    pub auto: bool,
    /// Human-readable rationale (includes rejected candidates).
    pub reason: String,
}

impl fmt::Display for PlanDecision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} = {} ({}): {}",
            self.setting,
            self.choice,
            if self.auto { "auto" } else { "forced" },
            self.reason
        )
    }
}

/// A resolved exploration plan: size estimates, the selected quotient and
/// edge-store tier, and the decision record. Convert to engine options
/// with [`Plan::options`].
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// Full configuration-space size (`SpaceIndexer::total`).
    pub total_configs: u64,
    /// Rows actually sampled for the edge estimate.
    pub sampled_rows: u64,
    /// Mean out-degree over the sample.
    pub est_edges_per_config: f64,
    /// Estimated edge count of the full sweep.
    pub est_full_edges: u64,
    /// Estimated flat-store bytes of the full sweep (edges + offsets).
    pub est_full_flat_bytes: u64,
    /// Estimated *analysis-time* flat footprint: store + reverse CSR +
    /// mirrored flat `QStorage`. This — not the bare store — is what the
    /// flat decision compares against the budget (plans that merely fit
    /// the store used to exceed budget ≈ 2× once analyses ran).
    pub est_analysis_flat_bytes: u64,
    /// Estimated analysis-time compressed footprint: edge stream +
    /// reverse CSR + mirrored compressed `QStorage`.
    pub est_analysis_compressed_bytes: u64,
    /// The byte budget the flat-tier decision was made against.
    pub byte_budget: u64,
    /// The RAM ceiling the disk-tier decision was made against.
    pub disk_byte_budget: u64,
    /// The selected quotient ([`Quotient::None`] when no sound group was
    /// found or none was wanted).
    pub quotient: Quotient,
    /// Order of the selected group (1 without a quotient).
    pub group_order: u64,
    /// Estimated explored states after quotienting
    /// (≈ `total / group_order`, and exactly `total` without a quotient).
    pub est_explored_configs: u64,
    /// The selected edge-store tier.
    pub edge_store: EdgeStoreKind,
    /// Every decision made, with rationale.
    pub decisions: Vec<PlanDecision>,
    /// The gate's admission of an auto-chosen quotient, handed to the
    /// exploration by [`Plan::options`].
    admission: Carried,
}

impl Plan {
    /// Computes a plan for exploring `alg` under `daemon` against `spec`.
    ///
    /// # Errors
    ///
    /// * [`CoreError::TooManyEnabled`] — row sampling hit the
    ///   distributed-daemon enumeration cap (the exploration would too);
    /// * [`CoreError::QuotientUnsupported`] — only when a quotient was
    ///   *forced* and fails structural validation (auto mode records the
    ///   rejection and falls back instead).
    pub fn compute<A, L>(
        alg: &A,
        ix: &SpaceIndexer<A::State>,
        daemon: DaemonSpec,
        spec: &L,
        req: &PlanRequest,
    ) -> Result<Plan, CoreError>
    where
        A: Algorithm,
        L: Legitimacy<A::State>,
    {
        let total = ix.total();
        let (sampled_rows, est_edges_per_config) = estimate_out_degree(alg, ix, daemon, req)?;
        // lint: cast-ok(sizing estimate, not an id; ceil of a non-negative count)
        let est_full_edges = (est_edges_per_config * total as f64).ceil() as u64;
        let row_overhead = (total + 1) * size_of::<u32>() as u64;
        let est_full_flat_bytes = est_full_edges * FLAT_BYTES_PER_EDGE + row_overhead;
        // Analysis-time corrections: verdict passes materialize the
        // reverse CSR and the Markov stage mirrors the edges into a
        // `QStorage` of the same tier, so the resident peak is
        // store + reverse + Q — comparing the bare store against the
        // budget under-counted by ≈ 2×.
        let est_reverse_bytes = est_full_edges * REVERSE_BYTES_PER_EDGE + row_overhead;
        let est_analysis_flat_bytes = est_full_flat_bytes
            + est_reverse_bytes
            + est_full_edges * Q_FLAT_BYTES_PER_ENTRY
            + row_overhead;
        let est_compressed_store_bytes =
            est_full_edges * COMPRESSED_BYTES_PER_EDGE + (total + 1) * size_of::<u64>() as u64;
        let est_analysis_compressed_bytes = 2 * est_compressed_store_bytes + est_reverse_bytes;

        let (quotient, admission, quotient_reason) = match req.quotient {
            Some(q) => (q, None, "forced by caller".to_string()),
            None => auto_quotient(alg, ix, daemon, spec)?,
        };
        let group_order = match &admission {
            Some(a) => a.group_order(),
            // Structural validation only: a forced quotient is gated when
            // it is explored.
            None => GroupCanonicalizer::for_quotient(quotient, alg.graph(), ix)?
                .map_or(1, |c| c.group_order()),
        };
        let est_explored_configs = (total / group_order).max(1);

        let (edge_store, store_reason) = match req.edge_store {
            Some(kind) => (kind, "forced by caller".to_string()),
            None if est_analysis_flat_bytes <= req.byte_budget => (
                EdgeStoreKind::Flat,
                format!(
                    "estimated analysis-time flat footprint ≈ {est_analysis_flat_bytes} \
                     bytes (store + reverse CSR + Q mirror over {est_full_edges} edges) \
                     within the {}-byte budget",
                    req.byte_budget,
                ),
            ),
            None if est_analysis_compressed_bytes <= req.disk_byte_budget => (
                EdgeStoreKind::Compressed,
                format!(
                    "estimated analysis-time flat footprint ≈ {est_analysis_flat_bytes} \
                     bytes (store + reverse CSR + Q mirror over {est_full_edges} edges) \
                     exceeds the {}-byte budget; compressed footprint ≈ \
                     {est_analysis_compressed_bytes} bytes stays within the {}-byte RAM \
                     ceiling",
                    req.byte_budget, req.disk_byte_budget,
                ),
            ),
            None => (
                EdgeStoreKind::Disk,
                format!(
                    "estimated analysis-time compressed footprint ≈ \
                     {est_analysis_compressed_bytes} bytes (stream + reverse CSR + Q \
                     mirror over {est_full_edges} edges) exceeds the {}-byte RAM \
                     ceiling; spilling the edge stream to disk chunks",
                    req.disk_byte_budget,
                ),
            ),
        };

        // The traversal's own rule: a quotient sweep keeps the orbit
        // table while it fits the bound, and interns otherwise.
        let (id_map, id_reason) = match (quotient, orbit_table_bytes(total)) {
            (Quotient::None, _) => ("dense", "no quotient: ids are mixed-radix indices".into()),
            (_, (bytes, fits)) => (
                if fits { "orbit-table" } else { "interned" },
                format!("{bytes}-byte orbit table against the {DEFAULT_BYTE_BUDGET}-byte bound"),
            ),
        };
        let (quotient_auto, store_auto) = (req.quotient.is_none(), req.edge_store.is_none());
        let decisions = [
            ("quotient", quotient.label(), quotient_auto, quotient_reason),
            ("edge_store", edge_store.label(), store_auto, store_reason),
            ("id_map", id_map, true, id_reason),
        ]
        .into_iter()
        .map(|(setting, choice, auto, reason)| PlanDecision {
            setting,
            choice: choice.to_string(),
            auto,
            reason,
        })
        .collect();

        Ok(Plan {
            total_configs: total,
            sampled_rows,
            est_edges_per_config,
            est_full_edges,
            est_full_flat_bytes,
            est_analysis_flat_bytes,
            est_analysis_compressed_bytes,
            byte_budget: req.byte_budget,
            disk_byte_budget: req.disk_byte_budget,
            quotient,
            group_order,
            est_explored_configs,
            edge_store,
            decisions,
            admission: Carried(admission.map(Arc::new)),
        })
    }

    /// The engine options this plan resolves to (always a full sweep —
    /// stabilization checks quantify over *every* initial configuration,
    /// which is what the planner plans for; reachable-mode runs remain an
    /// explicit expert option).
    ///
    /// An auto-chosen quotient carries the equivariance gate's admission,
    /// so exploring with these options does not run the gate a second
    /// time. The admission certifies the algorithm and specification this
    /// plan was computed for: explore them, and only them, with these
    /// options. Exploring under another daemon, over a space with other
    /// alphabets, or after changing the quotient runs the gate again.
    pub fn options<S>(&self) -> ExploreOptions<S> {
        let mut opts = ExploreOptions::full()
            .with_quotient(self.quotient)
            .with_edge_store(self.edge_store);
        opts.admission = self.admission.clone();
        opts
    }

    /// Whether both the quotient and the edge-store tier were chosen by
    /// the planner (no forced overrides).
    pub fn fully_auto(&self) -> bool {
        self.decisions.iter().all(|d| d.auto)
    }
}

/// Samples successor rows on a deterministic stride and returns
/// `(rows sampled, mean out-degree)`.
fn estimate_out_degree<A>(
    alg: &A,
    ix: &SpaceIndexer<A::State>,
    daemon: DaemonSpec,
    req: &PlanRequest,
) -> Result<(u64, f64), CoreError>
where
    A: Algorithm,
{
    let total = ix.total();
    let count = req.sample_rows.clamp(1, total);
    let stride = (total / count).max(1);
    let conflicts = conflict_masks(alg, daemon);
    let mut gen = RowGen::default();
    let mut digits = Vec::new();
    let mut edges = 0u64;
    for i in 0..count {
        let full = i * stride;
        let cfg = ix.decode(full);
        ix.write_digits(full, &mut digits);
        gen.generate(alg, ix, daemon, &conflicts, &cfg, &digits, full)?;
        edges += gen.row.len() as u64;
    }
    Ok((count, edges as f64 / count as f64))
}

/// Tries candidate groups best-first through the equivariance gate and
/// returns the first sound one with its admission (or [`Quotient::None`]),
/// plus the decision's reason, which names every rejected candidate.
fn auto_quotient<A, L>(
    alg: &A,
    ix: &SpaceIndexer<A::State>,
    daemon: DaemonSpec,
    spec: &L,
) -> Result<(Quotient, Option<Admission>, String), CoreError>
where
    A: Algorithm,
    L: Legitimacy<A::State>,
{
    let mut rejections = Vec::new();
    // Automorphism resolves to the topology's full group (dihedral on
    // rings, leaf permutations on stars/trees) — the largest reduction —
    // and RingRotation catches oriented ring protocols whose reflection
    // image the gate rejects.
    for candidate in [Quotient::Automorphism, Quotient::RingRotation] {
        match equivariance::check_quotient_sound(alg, ix, daemon, spec, candidate) {
            Ok(Some(admission)) => {
                let mut reason = format!(
                    "group of order {} passed the equivariance gate ({})",
                    admission.group_order(),
                    admission.outcomes()
                );
                if !rejections.is_empty() {
                    reason += &format!(" (rejected: {})", rejections.join("; "));
                }
                return Ok((candidate, Some(admission), reason));
            }
            Ok(None) => {}
            Err(CoreError::QuotientUnsupported { reason }) => {
                rejections.push(format!("{}: {reason}", candidate.label()));
            }
            Err(e) => return Err(e),
        }
    }
    let reason = format!("no sound symmetry group ({})", rejections.join("; "));
    Ok((Quotient::None, None, reason))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::test_support::Infection;
    use crate::engine::TransitionSystem;
    use crate::{Configuration, DaemonSpec, Predicate};
    use stab_graph::builders;

    fn all_ones(c: &Configuration<u8>) -> bool {
        c.states().iter().all(|&s| s == 1)
    }

    fn infection() -> (Infection, Predicate<u8>) {
        let alg = Infection {
            g: builders::path(3),
        };
        (alg, Predicate::new("all-ones", all_ones))
    }

    #[test]
    fn small_space_estimates_exactly_and_stays_flat() {
        let (alg, spec) = infection();
        let ix = SpaceIndexer::new(&alg, 1 << 20).unwrap();
        let plan = Plan::compute(
            &alg,
            &ix,
            DaemonSpec::central(),
            &spec,
            &PlanRequest::default(),
        )
        .unwrap();
        // 8 configurations < 64 samples: the estimate is exhaustive, so
        // it matches the real exploration exactly.
        let ts = TransitionSystem::explore(&alg, &ix, DaemonSpec::central(), &spec).unwrap();
        assert_eq!(plan.sampled_rows, 8);
        assert_eq!(plan.est_full_edges, ts.n_edges());
        assert_eq!(plan.edge_store, EdgeStoreKind::Flat);
        assert!(plan.fully_auto());
        // Paths of length 3 have a nontrivial automorphism (reflection),
        // but infection is symmetric, so any outcome of the gate is
        // acceptable here — what matters is that the plan's options run.
        let opts = plan.options::<u8>();
        let planned =
            TransitionSystem::explore_with(&alg, &ix, DaemonSpec::central(), &spec, &opts);
        assert!(planned.is_ok());
    }

    /// The admission a plan hands its options is invisible to option
    /// equality: planned options equal the same options built by hand.
    #[test]
    fn carried_admission_leaves_option_equality_alone() {
        let alg = Infection {
            g: builders::ring(4),
        };
        let spec = Predicate::new("all-ones", all_ones);
        let ix = SpaceIndexer::new(&alg, 1 << 20).unwrap();
        let req = PlanRequest::default();
        let plan = Plan::compute(&alg, &ix, DaemonSpec::central(), &spec, &req).unwrap();
        assert_eq!(plan.quotient, Quotient::Automorphism);
        assert_eq!(
            plan.decisions[0].reason,
            "group of order 8 passed the equivariance gate \
             (generator 0: strict; generator 1: strict)"
        );
        let by_hand = ExploreOptions::full()
            .with_quotient(plan.quotient)
            .with_edge_store(plan.edge_store);
        assert_eq!(plan.options::<u8>(), by_hand);
    }

    #[test]
    fn tiny_budget_selects_compressed() {
        let (alg, spec) = infection();
        let ix = SpaceIndexer::new(&alg, 1 << 20).unwrap();
        let req = PlanRequest::default().with_byte_budget(8);
        let plan = Plan::compute(&alg, &ix, DaemonSpec::central(), &spec, &req).unwrap();
        assert_eq!(plan.edge_store, EdgeStoreKind::Compressed);
        let store = plan
            .decisions
            .iter()
            .find(|d| d.setting == "edge_store")
            .unwrap();
        assert!(store.auto);
        assert!(store.reason.contains("exceeds"));
        // The corrected (analysis-time) figure is what the decision
        // records — it must dominate the bare store estimate.
        assert!(plan.est_analysis_flat_bytes > plan.est_full_flat_bytes);
        assert!(store
            .reason
            .contains(&plan.est_analysis_flat_bytes.to_string()));
    }

    #[test]
    fn tiny_ram_ceiling_selects_disk() {
        let (alg, spec) = infection();
        let ix = SpaceIndexer::new(&alg, 1 << 20).unwrap();
        let req = PlanRequest::default()
            .with_byte_budget(8)
            .with_disk_byte_budget(8);
        let plan = Plan::compute(&alg, &ix, DaemonSpec::central(), &spec, &req).unwrap();
        assert_eq!(plan.edge_store, EdgeStoreKind::Disk);
        let store = plan
            .decisions
            .iter()
            .find(|d| d.setting == "edge_store")
            .unwrap();
        assert!(store.auto);
        assert!(store.reason.contains("spilling"));
        assert!(store
            .reason
            .contains(&plan.est_analysis_compressed_bytes.to_string()));
        // The planned options must actually run on the disk tier.
        let opts = plan.options::<u8>();
        assert_eq!(opts.edge_store, EdgeStoreKind::Disk);
        let planned =
            TransitionSystem::explore_with(&alg, &ix, DaemonSpec::central(), &spec, &opts);
        assert!(planned.is_ok());
    }

    #[test]
    fn analysis_budget_boundary_is_exact() {
        let (alg, spec) = infection();
        let ix = SpaceIndexer::new(&alg, 1 << 20).unwrap();
        let probe = Plan::compute(
            &alg,
            &ix,
            DaemonSpec::central(),
            &spec,
            &PlanRequest::default(),
        )
        .unwrap();
        // Budget exactly at the flat analysis estimate: flat still fits.
        let req = PlanRequest::default().with_byte_budget(probe.est_analysis_flat_bytes);
        let plan = Plan::compute(&alg, &ix, DaemonSpec::central(), &spec, &req).unwrap();
        assert_eq!(plan.edge_store, EdgeStoreKind::Flat);
        // One byte below, with the ceiling at the compressed estimate:
        // compressed fits exactly.
        let req = PlanRequest::default()
            .with_byte_budget(probe.est_analysis_flat_bytes - 1)
            .with_disk_byte_budget(probe.est_analysis_compressed_bytes);
        let plan = Plan::compute(&alg, &ix, DaemonSpec::central(), &spec, &req).unwrap();
        assert_eq!(plan.edge_store, EdgeStoreKind::Compressed);
        // One byte below the compressed estimate: spill.
        let req = PlanRequest::default()
            .with_byte_budget(probe.est_analysis_flat_bytes - 1)
            .with_disk_byte_budget(probe.est_analysis_compressed_bytes - 1);
        let plan = Plan::compute(&alg, &ix, DaemonSpec::central(), &spec, &req).unwrap();
        assert_eq!(plan.edge_store, EdgeStoreKind::Disk);
    }

    /// The orbit table is kept up to 2^23 configurations (32 MiB of
    /// `u32` ids) and no further.
    #[test]
    fn orbit_table_bound_is_the_byte_budget() {
        assert_eq!(orbit_table_bytes(1 << 23), (DEFAULT_BYTE_BUDGET, true));
        assert_eq!(
            orbit_table_bytes((1 << 23) + 1),
            (DEFAULT_BYTE_BUDGET + 4, false)
        );
        assert_eq!(orbit_table_bytes(u64::MAX), (u64::MAX, false));
    }

    #[test]
    fn forced_choices_are_recorded_as_forced() {
        let (alg, spec) = infection();
        let ix = SpaceIndexer::new(&alg, 1 << 20).unwrap();
        let req = PlanRequest::default()
            .with_quotient(Quotient::None)
            .with_edge_store(EdgeStoreKind::Compressed);
        let plan = Plan::compute(&alg, &ix, DaemonSpec::central(), &spec, &req).unwrap();
        assert_eq!(plan.quotient, Quotient::None);
        assert_eq!(plan.group_order, 1);
        assert_eq!(plan.edge_store, EdgeStoreKind::Compressed);
        assert!(!plan.fully_auto());
        // Both forced settings are recorded as forced; the id map is not
        // a setting a caller can force, so it stays auto (dense, as no
        // quotient was forced).
        let forced: Vec<_> = plan.decisions.iter().filter(|d| !d.auto).collect();
        assert_eq!(forced.len(), 2);
        assert_eq!(
            (forced[0].setting, forced[1].setting),
            ("quotient", "edge_store")
        );
        assert_eq!(plan.decisions[2].setting, "id_map");
        assert_eq!(plan.decisions[2].choice, "dense");
        assert!(plan.decisions[0].to_string().contains("forced"));
    }

    #[test]
    fn unsound_algorithms_fall_back_to_no_quotient_with_reasons() {
        // A rooted (non-anonymous) ring algorithm: node 0 runs a
        // different program, so no ring quotient is sound. The spec
        // singles out node 0 as well.
        struct Rooted {
            g: stab_graph::Graph,
        }
        impl Algorithm for Rooted {
            type State = bool;
            fn graph(&self) -> &stab_graph::Graph {
                &self.g
            }
            fn name(&self) -> String {
                "rooted".into()
            }
            fn state_space(&self, _v: stab_graph::NodeId) -> Vec<bool> {
                vec![false, true]
            }
            fn enabled_actions<V: crate::View<bool>>(&self, v: &V) -> crate::ActionMask {
                crate::ActionMask::when(v.node().index() == 0 && !*v.me(), crate::ActionId::A1)
            }
            fn apply<V: crate::View<bool>>(&self, _v: &V, _a: crate::ActionId) -> Outcomes {
                crate::Outcomes::certain(true)
            }
        }
        type Outcomes = crate::Outcomes<bool>;
        let alg = Rooted {
            g: builders::ring(4),
        };
        let ix = SpaceIndexer::new(&alg, 1 << 20).unwrap();
        let spec = Predicate::new("root-set", |c: &Configuration<bool>| *c.get(0.into()));
        let plan = Plan::compute(
            &alg,
            &ix,
            DaemonSpec::central(),
            &spec,
            &PlanRequest::default(),
        )
        .unwrap();
        assert_eq!(plan.quotient, Quotient::None);
        assert_eq!(plan.group_order, 1);
        let q = plan
            .decisions
            .iter()
            .find(|d| d.setting == "quotient")
            .unwrap();
        assert!(q.auto);
        assert!(q.reason.contains("no sound symmetry group"));
        assert!(q.reason.contains("automorphism"));
        assert!(q.reason.contains("ring-rotation"));
    }
}
