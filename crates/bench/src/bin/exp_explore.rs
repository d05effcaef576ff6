//! E0 — transition-engine throughput across exploration modes, recorded to
//! `BENCH_explore.json` so the speedups are tracked across PRs.
//!
//! Since schema v5 the engine side of every row is measured through the
//! facade's `Study` pipeline: **one** exploration per run, with the
//! checker, Markov and counter stages reading the shared
//! `TransitionSystem`. Consequences for the recorded numbers:
//!
//! * `explore_engine_ms` is the shared exploration itself (as before);
//! * `chain_engine_ms` is the Markov stage's `Q` extraction *alone*
//!   (v4 and earlier re-explored inside `AbsorbingChain::build`, so the
//!   old number bundled an exploration with the extraction);
//! * `analyze_engine_ms` is the checker analyses *alone* (same caveat);
//! * every row carries `planned: bool` — whether the run's quotient and
//!   edge-store tier were chosen by the auto-planner
//!   (`stab_core::engine::Plan`) rather than hand-tuned. The one planned
//!   row doubles as the serialized `StudyReport` showcase: its full
//!   report is written to `STUDY_report.json` (schema `study_report/v4`)
//!   and validated by CI, which also asserts the planner's tier choice
//!   matches the measured-cheaper tier of the flat/compressed pair.
//!
//! Since schema v6 one row measures the *checkpoint overhead*: the
//! Herman N=15 compressed full sweep explored once plainly and once with
//! a durable frame chain (`ExploreOptions::with_checkpoint`). That row's
//! reference is the plain run, its engine time is the checkpointed run,
//! and its `checkpoint_overhead_pct` field (null on every other row)
//! records the relative cost of durability as the *best paired delta*:
//! plain/checkpointed runs alternate back-to-back and the smallest
//! per-pair difference (over the best plain time) is reported, which
//! keeps the tens-of-ms signal measurable under CPU-steal noise larger
//! than itself. The tracked target is **< 5%**.
//!
//! Since schema v7 every row carries `resident_bytes` (forward-store
//! bytes resident in RAM at the end of the run) and `spilled_bytes`
//! (bytes written to `WSR1` chunk files; zero off the disk tier), the
//! PR 4 store pair grew into a flat/compressed/disk *trio* — the disk
//! row runs the same full study (verdicts + chain) with the byte stream
//! spilled and a pinned chunk cache, so `resident_bytes <
//! spilled_bytes` on that row is the out-of-core signal CI asserts —
//! and a standalone `--edge-store disk` mode sweeps an instance whose
//! stream does not fit RAM budgets at all (the Herman N=19 acceptance
//! run: 3^19 ≈ 1.16·10⁹ edges through a 32 MiB cache).
//!
//! Flags:
//!
//! * `--checkpoint-dir <dir>` — write the overhead row's frame chain to
//!   `<dir>` and leave it behind (default: a temp directory, removed);
//! * `--resume <dir>` — skip the bench entirely: cold-resume the frame
//!   chain in `<dir>` (`TransitionSystem::resume`), print its counters
//!   and content digest, and exit non-zero on a damaged chain;
//! * `--edge-store disk [--ring N]` — skip the bench: run the Herman
//!   ring-`N` (default 19) *full sweep* on the disk tier, explore-only,
//!   print the resident/spilled/peak accounting, and exit non-zero if
//!   the peak resident set broke the plan's RAM ceiling.
//!
//! The *references* are unchanged: seed-faithful reimplementations for
//! the PR 1 rows, the engine's own full sweep for mode rows, the
//! flat-store run for compressed rows, `null` where the reference is
//! infeasible on the runner.
//!
//! JSON schema (`bench_explore/v7`; v6 rows lacked `resident_bytes` /
//! `spilled_bytes`; v5 rows lacked
//! `checkpoint_overhead_pct`; v4 rows lacked `planned` and timed
//! chain/analyze including their own exploration; v3 rows lacked
//! `edge_store` / `edge_bytes`; v2 rows lacked `group_order`; v1 rows
//! correspond to `mode = "full"`, `quotient = "none"`,
//! `represented = configs`):
//!
//! ```json
//! {
//!   "schema": "bench_explore/v7",
//!   "threads": 8,
//!   "results": [
//!     {
//!       "case": "herman/N=15/synchronous",
//!       "mode": "full",
//!       "quotient": "ring-dihedral",
//!       "edge_store": "flat",
//!       "planned": false,
//!       "configs": 1182,
//!       "represented": 32768,
//!       "group_order": 30,
//!       "edges": 395200,
//!       "edge_bytes": 9489640,
//!       "resident_bytes": 9489640,
//!       "spilled_bytes": 0,
//!       "explore_reference_ms": 3900.0,
//!       "explore_engine_ms": 270.0,
//!       "explore_speedup": 14.4,
//!       "chain_reference_ms": 4100.0,
//!       "chain_engine_ms": 350.0,
//!       "chain_speedup": 11.7,
//!       "analyze_engine_ms": 450.0,
//!       "checkpoint_overhead_pct": null
//!     }
//!   ]
//! }
//! ```
//!
//! Invariants the CI smoke job asserts on every row:
//! `configs <= represented <= configs × group_order`, `group_order = 1`
//! outside quotient mode, `edge_bytes > 0`, `planned` boolean present;
//! at least one ≥10⁶-edge case measures both RAM stores with compressed
//! bytes/edge strictly below flat; at least one ≥10⁷-edge compressed row
//! has no flat reference; at least one row is `planned = true`; the
//! planned row's tier equals the measured-cheaper tier of the
//! flat/compressed pair; exactly one row carries a non-null
//! `checkpoint_overhead_pct` below the 5% target; at least one
//! grid-topology row is quotiented by a non-trivial automorphism group
//! (`group_order > 1`); `resident_bytes = edge_bytes` and
//! `spilled_bytes = 0` off the disk tier; and the ≥10⁷-edge disk row
//! keeps `resident_bytes < spilled_bytes` (the out-of-core signal).

use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

use stab_algorithms::{GreedyColoring, HermanRing, TokenCirculation};
use stab_bench::Table;
use stab_checker::ExploredSpace;
use stab_core::engine::{
    EdgeStoreKind, ExploreMode, ExploreOptions, Plan, PlanRequest, Quotient, TransitionSystem,
};
use stab_core::{
    semantics, Algorithm, Configuration, DaemonSpec, FairnessSet, Legitimacy, SpaceIndexer,
};
use stab_graph::builders;
use stab_markov::AbsorbingChain;
use weak_stabilization::study::{Study, StudyReport};

const CAP: u64 = 1 << 26;
/// Cap for the beyond-full-reach cases: the indexer must span the space
/// even though only a fraction of it is materialised.
const BIG_CAP: u64 = 1 << 60;

/// Best-of-`reps` wall-clock milliseconds of `f`.
fn time_ms<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        std::hint::black_box(f());
        best = best.min(start.elapsed().as_secs_f64() * 1e3);
    }
    best
}

/// The seed exploration path, for the baseline measurement: decode +
/// all_steps + encode per successor, nested rows.
fn reference_explore<A, L>(alg: &A, daemon: DaemonSpec, spec: &L) -> (u64, usize)
where
    A: Algorithm,
    L: Legitimacy<A::State>,
{
    let ix = SpaceIndexer::new(alg, CAP).expect("space fits");
    let total = ix.total();
    let mut edges = 0usize;
    let mut rows: Vec<Vec<(u32, u64)>> = Vec::with_capacity(total as usize);
    let mut legit = Vec::with_capacity(total as usize);
    let mut deterministic = true;
    for id in 0..total {
        let cfg = ix.decode(id);
        legit.push(spec.is_legitimate(&cfg));
        if deterministic && !semantics::is_deterministic_at(alg, &cfg) {
            deterministic = false;
        }
        let mut out = Vec::new();
        for (activation, dist) in semantics::all_steps(alg, daemon, &cfg).expect("enumeration") {
            let movers = activation
                .nodes()
                .iter()
                .fold(0u64, |m, v| m | (1u64 << v.index()));
            for (_, next) in dist {
                // lint: cast-ok(encoded configuration ids fit the u32 id width the engine interns)
                out.push((ix.encode(&next) as u32, movers));
            }
        }
        out.sort_unstable();
        out.dedup();
        edges += out.len();
        rows.push(out);
    }
    std::hint::black_box((&rows, &legit, deterministic));
    (total, edges)
}

/// The seed Markov chain build, for the baseline measurement.
fn reference_chain<A, L>(alg: &A, daemon: DaemonSpec, spec: &L) -> usize
where
    A: Algorithm,
    L: Legitimacy<A::State>,
{
    let ix = SpaceIndexer::new(alg, CAP).expect("space fits");
    let total = ix.total();
    let mut transient_of = vec![u32::MAX; total as usize];
    let mut config_of = Vec::new();
    for id in 0..total {
        if !spec.is_legitimate(&ix.decode(id)) {
            // lint: cast-ok(transient count is bounded by the u32 configuration-id width)
            transient_of[id as usize] = config_of.len() as u32;
            config_of.push(id);
        }
    }
    let mut rows = Vec::with_capacity(config_of.len());
    for &id in &config_of {
        let cfg = ix.decode(id);
        let steps = semantics::all_steps(alg, daemon, &cfg).expect("enumeration");
        if steps.is_empty() {
            rows.push(vec![(transient_of[id as usize], 1.0)]);
            continue;
        }
        let act_prob = 1.0 / steps.len() as f64;
        let mut row: HashMap<u32, f64> = HashMap::new();
        for (_, dist) in steps {
            for (p, next) in dist {
                let t = transient_of[ix.encode(&next) as usize];
                if t != u32::MAX {
                    *row.entry(t).or_insert(0.0) += act_prob * p;
                }
            }
        }
        let mut row: Vec<(u32, f64)> = row.into_iter().collect();
        row.sort_unstable_by_key(|&(j, _)| j);
        rows.push(row);
    }
    std::hint::black_box(rows.len())
}

struct CaseResult {
    case: String,
    mode: &'static str,
    quotient: String,
    edge_store: String,
    planned: bool,
    configs: u64,
    represented: u64,
    group_order: u64,
    edges: u64,
    edge_bytes: u64,
    resident_bytes: u64,
    spilled_bytes: u64,
    explore_reference_ms: Option<f64>,
    explore_engine_ms: f64,
    chain_reference_ms: Option<f64>,
    chain_engine_ms: Option<f64>,
    analyze_engine_ms: Option<f64>,
    checkpoint_overhead_pct: Option<f64>,
}

fn mode_label<S>(opts: &ExploreOptions<S>) -> &'static str {
    match opts.mode {
        ExploreMode::Full => "full",
        ExploreMode::Reachable { .. } => "reachable",
    }
}

/// Runs one `Study` per rep (each performing exactly one exploration,
/// shared by the chain-extraction and checker stages), keeping the best
/// per-stage time and the last report.
fn measure_study<A, L>(
    alg: &A,
    daemon: DaemonSpec,
    spec: &L,
    opts: Option<&ExploreOptions<A::State>>,
    cap: u64,
    reps: usize,
    stages: bool,
) -> (StudyReport, f64, Option<f64>, Option<f64>)
where
    A: Algorithm + Sync,
    A::State: Sync,
    L: Legitimacy<A::State> + Sync,
{
    let mut study = Study::of(alg).daemon(daemon).spec(spec).cap(cap);
    if stages {
        study = study.verdicts(FairnessSet::ALL).chain_build();
    }
    if let Some(opts) = opts {
        study = study.options(opts.clone());
    }
    let mut best_explore = f64::INFINITY;
    let mut best_chain: Option<f64> = None;
    let mut best_analyze: Option<f64> = None;
    let mut last = None;
    for _ in 0..reps.max(1) {
        let report = study.run().expect("study run");
        best_explore = best_explore.min(report.timings_ms.explore);
        if let Some(ms) = report.timings_ms.chain_build {
            best_chain = Some(best_chain.map_or(ms, |b: f64| b.min(ms)));
        }
        if let Some(ms) = report.timings_ms.verdicts {
            best_analyze = Some(best_analyze.map_or(ms, |b: f64| b.min(ms)));
        }
        last = Some(report);
    }
    (
        last.expect("reps >= 1"),
        best_explore,
        best_chain,
        best_analyze,
    )
}

#[allow(clippy::too_many_arguments)]
fn case_from_report(
    name: &str,
    mode: &'static str,
    report: &StudyReport,
    explore_engine_ms: f64,
    chain_engine_ms: Option<f64>,
    analyze_engine_ms: Option<f64>,
    explore_reference_ms: Option<f64>,
    chain_reference_ms: Option<f64>,
) -> CaseResult {
    let space = report
        .space
        .as_ref()
        .expect("unbudgeted bench studies explore to completion");
    CaseResult {
        case: name.to_string(),
        mode,
        quotient: report.plan.quotient.clone(),
        edge_store: report.plan.edge_store.clone(),
        planned: report.plan.planned,
        configs: space.configs,
        represented: space.represented,
        group_order: space.group_order,
        edges: space.edges,
        edge_bytes: space.edge_bytes,
        resident_bytes: space.resident_bytes,
        spilled_bytes: space.spilled_bytes,
        explore_reference_ms,
        explore_engine_ms,
        chain_reference_ms,
        chain_engine_ms,
        analyze_engine_ms,
        checkpoint_overhead_pct: None,
    }
}

/// A PR 1 style row: engine full sweep vs the seed implementation.
fn run_case<A, L>(name: &str, alg: &A, daemon: DaemonSpec, spec: &L, reps: usize) -> CaseResult
where
    A: Algorithm + Sync,
    A::State: Sync,
    L: Legitimacy<A::State> + Sync,
{
    let explore_reference_ms = time_ms(reps, || reference_explore(alg, daemon, spec));
    let chain_reference_ms = time_ms(reps, || reference_chain(alg, daemon, spec));
    let opts = ExploreOptions::full();
    let (report, explore_ms, chain_ms, analyze_ms) =
        measure_study(alg, daemon, spec, Some(&opts), CAP, reps, true);
    case_from_report(
        name,
        "full",
        &report,
        explore_ms,
        chain_ms,
        analyze_ms,
        Some(explore_reference_ms),
        Some(chain_reference_ms),
    )
}

/// A PR 2/3 mode row: quotient and/or reachable exploration against the
/// engine's own full sweep (the previous fastest path), or against
/// nothing when the full sweep is infeasible on the runner
/// (`full_feasible = false` → `null` references).
#[allow(clippy::too_many_arguments)]
fn run_mode_case<A, L>(
    name: &str,
    alg: &A,
    daemon: DaemonSpec,
    spec: &L,
    opts: &ExploreOptions<A::State>,
    cap: u64,
    reps: usize,
    full_feasible: bool,
) -> CaseResult
where
    A: Algorithm + Sync,
    A::State: Sync,
    L: Legitimacy<A::State> + Sync,
{
    let explore_reference_ms = full_feasible.then(|| {
        time_ms(reps, || {
            ExploredSpace::explore(alg, daemon, spec, cap).expect("full explore")
        })
    });
    let chain_reference_ms = full_feasible.then(|| {
        time_ms(reps, || {
            AbsorbingChain::build(alg, daemon, spec, cap).expect("full chain")
        })
    });
    let (report, explore_ms, chain_ms, analyze_ms) =
        measure_study(alg, daemon, spec, Some(opts), cap, reps, true);
    case_from_report(
        name,
        mode_label(opts),
        &report,
        explore_ms,
        chain_ms,
        analyze_ms,
        explore_reference_ms,
        chain_reference_ms,
    )
}

/// A store trio: the same options explored onto the flat store (the
/// baseline row, null references), the compressed store and the disk
/// store (both referenced against the flat run, so the speedup isolates
/// the store tradeoff — typically < 1×: the non-flat tiers pay
/// encode/decode time — and, on the disk tier, chunk-cache misses — for
/// their memory reduction).
fn run_store_trio<A, L>(
    name: &str,
    alg: &A,
    daemon: DaemonSpec,
    spec: &L,
    opts: &ExploreOptions<A::State>,
    cap: u64,
    reps: usize,
) -> Vec<CaseResult>
where
    A: Algorithm + Sync,
    A::State: Sync,
    L: Legitimacy<A::State> + Sync,
{
    let mut rows = Vec::new();
    let mut reference: Option<(f64, Option<f64>)> = None;
    for kind in [
        EdgeStoreKind::Flat,
        EdgeStoreKind::Compressed,
        EdgeStoreKind::Disk,
    ] {
        let kopts = opts.clone().with_edge_store(kind);
        let (report, explore_ms, chain_ms, analyze_ms) =
            measure_study(alg, daemon, spec, Some(&kopts), cap, reps, true);
        rows.push(case_from_report(
            name,
            mode_label(&kopts),
            &report,
            explore_ms,
            chain_ms,
            analyze_ms,
            reference.map(|(e, _)| e),
            reference.and_then(|(_, c)| c),
        ));
        if reference.is_none() {
            reference = Some((explore_ms, chain_ms));
        }
    }
    rows
}

/// A compressed-only, explore-only row for an instance whose flat store
/// is infeasible on the CI runner (24 B/edge exceeds its RAM budget):
/// references and chain/analyze timings are `null`, the measured
/// `edge_bytes` documents what the compressed tier actually paid.
fn run_big_compressed_case<A, L>(
    name: &str,
    alg: &A,
    daemon: DaemonSpec,
    spec: &L,
    opts: &ExploreOptions<A::State>,
    cap: u64,
) -> CaseResult
where
    A: Algorithm + Sync,
    A::State: Sync,
    L: Legitimacy<A::State> + Sync,
{
    let kopts = opts.clone().with_edge_store(EdgeStoreKind::Compressed);
    let (report, explore_ms, _, _) = measure_study(alg, daemon, spec, Some(&kopts), cap, 1, false);
    case_from_report(
        name,
        mode_label(&kopts),
        &report,
        explore_ms,
        None,
        None,
        None,
        None,
    )
}

/// The resilience row: the same compressed full sweep once plainly and
/// once writing a durable frame chain every `every` states. Reference is
/// the plain run, engine time the checkpointed one, and the row carries
/// `checkpoint_overhead_pct` — the relative price of durability, tracked
/// against the < 5% target. The last rep's chain is left in `dir`, so
/// `--checkpoint-dir X` here followed by `--resume X` demonstrates a
/// cold resume of a bench-sized system.
#[allow(clippy::too_many_arguments)]
fn run_checkpoint_overhead_case<A, L>(
    name: &str,
    alg: &A,
    daemon: DaemonSpec,
    spec: &L,
    cap: u64,
    dir: &Path,
    every: u64,
    reps: usize,
) -> CaseResult
where
    A: Algorithm + Sync,
    A::State: Sync,
    L: Legitimacy<A::State> + Sync,
{
    let opts = ExploreOptions::full().with_edge_store(EdgeStoreKind::Compressed);
    // The true overhead (a few tens of ms) is smaller than this runner's
    // CPU-steal swings, so the two sides are measured as back-to-back
    // *pairs* — each pair samples one noise environment — and the
    // overhead is the best paired delta: the marginal cost of the frame
    // chain under the cleanest conditions any pair hit. Unpaired
    // best-of-N floors flake here: one writeback stall during every
    // checkpointed rep doubles the apparent cost.
    let mut plain_ms = f64::INFINITY;
    let mut best_ck = f64::INFINITY;
    let mut best_delta = f64::INFINITY;
    let mut last = None;
    for _ in 0..reps.max(1) {
        let (_, plain, _, _) = measure_study(alg, daemon, spec, Some(&opts), cap, 1, false);
        plain_ms = plain_ms.min(plain);
        // A fresh chain per rep: adopting surviving frames would measure
        // a resume, not the durable write path.
        std::fs::remove_dir_all(dir).ok();
        std::fs::create_dir_all(dir).expect("checkpoint dir");
        let report = Study::of(alg)
            .daemon(daemon)
            .spec(spec)
            .cap(cap)
            .options(opts.clone())
            .checkpoint(dir, every)
            .run()
            .expect("checkpointed study");
        best_ck = best_ck.min(report.timings_ms.explore);
        best_delta = best_delta.min(report.timings_ms.explore - plain);
        last = Some(report);
    }
    let report = last.expect("reps >= 1");
    let overhead_pct = best_delta / plain_ms * 100.0;
    println!(
        "## Checkpoint overhead: {name}\n\nplain {plain_ms:.1} ms vs checkpointed \
         {best_ck:.1} ms, best paired delta {best_delta:+.1} ms → {overhead_pct:+.2}% \
         (target < 5%)\n"
    );
    let mut row = case_from_report(
        name,
        "full",
        &report,
        best_ck,
        None,
        None,
        Some(plain_ms),
        None,
    );
    row.checkpoint_overhead_pct = Some(overhead_pct);
    row
}

/// The fully auto-planned showcase row: no options, no budget override —
/// the planner consults the equivariance gate and the byte budget on its
/// own. Its serialized `StudyReport` is written to `STUDY_report.json`
/// for the CI shape check and the planner-vs-measured tier assertion.
fn run_planned_case<A, L>(name: &str, alg: &A, daemon: DaemonSpec, spec: &L, cap: u64) -> CaseResult
where
    A: Algorithm + Sync,
    A::State: Sync,
    L: Legitimacy<A::State> + Sync,
{
    // Unlike the timing rows, the showcase runs the *full* study —
    // verdicts and solved expected times — so the serialized report
    // exercises every study_report/v4 section.
    let report = Study::of(alg)
        .daemon(daemon)
        .spec(spec)
        .cap(cap)
        .verdicts(FairnessSet::ALL)
        .expected_times()
        .run()
        .expect("planned study");
    let explore_ms = report.timings_ms.explore;
    let chain_ms = report.timings_ms.chain_build;
    let analyze_ms = report.timings_ms.verdicts;
    assert!(report.plan.planned, "no overrides: the row must be planned");
    std::fs::write("STUDY_report.json", report.to_json_string()).expect("write STUDY_report.json");
    println!("## Auto-planned study: {name}\n");
    for d in &report.plan.decisions {
        println!("* {d:?}");
    }
    println!();
    case_from_report(
        name, "full", &report, explore_ms, chain_ms, analyze_ms, None, None,
    )
}

fn fmt_opt(x: Option<f64>) -> String {
    match x {
        Some(v) => format!("{v:.3}"),
        None => "—".to_string(),
    }
}

fn json_opt(x: Option<f64>) -> String {
    match x {
        Some(v) => format!("{v:.6}"),
        None => "null".to_string(),
    }
}

/// `--edge-store disk [--ring N]`: the out-of-core acceptance sweep.
/// Explores the Herman ring-`N` *full* space (no quotient, so the
/// stream really is 3^N edges) onto the disk tier, prints the
/// resident/spilled/peak accounting next to the planner's own verdict
/// for the instance, and exits non-zero if the peak resident set broke
/// the plan's RAM ceiling (`disk_byte_budget`) — the bounded-memory
/// acceptance gate for the spilled store.
fn disk_sweep_main(n: usize) {
    let alg = HermanRing::on_ring(&builders::ring(n)).expect("ring");
    let spec = alg.legitimacy();
    let ix = SpaceIndexer::new(&alg, BIG_CAP).expect("indexer");
    let plan = Plan::compute(
        &alg,
        &ix,
        DaemonSpec::synchronous(),
        &spec,
        &PlanRequest::default(),
    )
    .expect("plan");
    println!("# Out-of-core acceptance sweep: herman/N={n}/synchronous\n");
    println!(
        "planner: tier {} (est. analysis footprint: flat {} B, compressed {} B; \
         RAM ceiling {} B)",
        plan.edge_store.label(),
        plan.est_analysis_flat_bytes,
        plan.est_analysis_compressed_bytes,
        plan.disk_byte_budget,
    );
    let opts = ExploreOptions::full().with_edge_store(EdgeStoreKind::Disk);
    let start = Instant::now();
    let ts = TransitionSystem::explore_with(&alg, &ix, DaemonSpec::synchronous(), &spec, &opts)
        .expect("disk sweep");
    let secs = start.elapsed().as_secs_f64();
    let peak = ts.peak_resident_edge_bytes();
    println!(
        "explored {} configs, {} edges in {secs:.1} s\n\
         edge store: {} B total, {} B spilled, {} B resident (peak {} B)",
        ts.n_configs(),
        ts.n_edges(),
        ts.edge_bytes(),
        ts.spilled_edge_bytes(),
        ts.resident_edge_bytes(),
        peak,
    );
    if peak > plan.disk_byte_budget {
        eprintln!(
            "FAIL: peak resident {} B exceeds the plan's {} B RAM ceiling",
            peak, plan.disk_byte_budget
        );
        std::process::exit(1);
    }
    println!(
        "peak resident set is {:.2}% of the {} B RAM ceiling",
        peak as f64 / plan.disk_byte_budget as f64 * 100.0,
        plan.disk_byte_budget
    );
}

/// `--resume <dir>`: cold-resume a frame chain and report what it holds.
/// Exit 0 with counters + digest on a valid chain, exit 1 with the typed
/// refusal on a damaged or unfinished one.
fn resume_main(dir: &Path) {
    match TransitionSystem::resume(dir) {
        Ok(ts) => {
            println!(
                "resumed {}: {} configs ({} represented), {} edges, digest {:#018x}",
                dir.display(),
                ts.n_configs(),
                ts.represented_configs(),
                ts.n_edges(),
                ts.content_digest()
            );
        }
        Err(e) => {
            eprintln!("resume {} refused: {e}", dir.display());
            std::process::exit(1);
        }
    }
}

fn main() {
    let mut checkpoint_dir: Option<PathBuf> = None;
    let mut disk_sweep = false;
    let mut ring = 19usize;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--checkpoint-dir" => {
                checkpoint_dir = Some(args.next().expect("--checkpoint-dir needs a path").into());
            }
            "--resume" => {
                let dir: PathBuf = args.next().expect("--resume needs a path").into();
                return resume_main(&dir);
            }
            "--edge-store" => {
                let tier = args.next().expect("--edge-store needs a tier");
                assert_eq!(tier, "disk", "only the disk tier has a standalone sweep");
                disk_sweep = true;
            }
            "--ring" => {
                ring = args
                    .next()
                    .expect("--ring needs a size")
                    .parse()
                    .expect("--ring needs an integer");
            }
            other => {
                eprintln!(
                    "unknown argument {other:?} \
                     (supported: --checkpoint-dir <dir>, --resume <dir>, \
                     --edge-store disk, --ring <N>)"
                );
                std::process::exit(2);
            }
        }
    }
    if disk_sweep {
        return disk_sweep_main(ring);
    }

    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut results = Vec::new();

    // ---- PR 1 rows: engine vs seed implementation -----------------------

    let tr7 = TokenCirculation::on_ring(&builders::ring(7)).unwrap();
    results.push(run_case(
        "token_ring/N=7/distributed",
        &tr7,
        DaemonSpec::distributed(),
        &tr7.legitimacy(),
        5,
    ));

    // Figure 1 size: N=6, m_6 = 4 (4096 configurations).
    let tr6 = TokenCirculation::on_ring(&builders::ring(6)).unwrap();
    results.push(run_case(
        "token_ring/N=6/distributed",
        &tr6,
        DaemonSpec::distributed(),
        &tr6.legitimacy(),
        3,
    ));

    // Large space, central daemon: N=10, m_10 = 3 (59049 configurations).
    let tr10 = TokenCirculation::on_ring(&builders::ring(10)).unwrap();
    results.push(run_case(
        "token_ring/N=10/central",
        &tr10,
        DaemonSpec::central(),
        &tr10.legitimacy(),
        3,
    ));

    // Probabilistic branching under the synchronous daemon.
    let herman9 = HermanRing::on_ring(&builders::ring(9)).unwrap();
    results.push(run_case(
        "herman/N=9/synchronous",
        &herman9,
        DaemonSpec::synchronous(),
        &herman9.legitimacy(),
        3,
    ));

    // ---- PR 2 rows: quotient / reachable vs the engine's full sweep -----

    // Rotation quotient on the tracked central-daemon case: same verdicts
    // from ~1/10 of the states.
    results.push(run_mode_case(
        "token_ring/N=10/central",
        &tr10,
        DaemonSpec::central(),
        &tr10.legitimacy(),
        &ExploreOptions::full().with_ring_quotient(),
        CAP,
        3,
        true,
    ));

    // Herman scaling: edges grow like 3^N on the full space, 3^N / N on
    // the quotient.
    let herman13 = HermanRing::on_ring(&builders::ring(13)).unwrap();
    results.push(run_mode_case(
        "herman/N=13/synchronous",
        &herman13,
        DaemonSpec::synchronous(),
        &herman13.legitimacy(),
        &ExploreOptions::full().with_ring_quotient(),
        CAP,
        3,
        true,
    ));
    let herman15 = HermanRing::on_ring(&builders::ring(15)).unwrap();
    results.push(run_mode_case(
        "herman/N=15/synchronous",
        &herman15,
        DaemonSpec::synchronous(),
        &herman15.legitimacy(),
        &ExploreOptions::full().with_ring_quotient(),
        CAP,
        1,
        true,
    ));
    // N=17: the full sweep would need 3^17 ≈ 1.3·10^8 edges (≈ 3 GB) —
    // infeasible on the CI runner; the quotient checks it outright.
    let herman17 = HermanRing::on_ring(&builders::ring(17)).unwrap();
    results.push(run_mode_case(
        "herman/N=17/synchronous",
        &herman17,
        DaemonSpec::synchronous(),
        &herman17.legitimacy(),
        &ExploreOptions::full().with_ring_quotient(),
        BIG_CAP,
        1,
        false,
    ));

    // ---- PR 3 rows: dihedral and leaf-permutation quotients --------------

    // Dihedral quotient on Herman: ≈ half the rotation quotient's states,
    // Booth-canonicalized, so the per-state cost stays at the rotation
    // quotient's level while the representative count halves again.
    results.push(run_mode_case(
        "herman/N=13/synchronous",
        &herman13,
        DaemonSpec::synchronous(),
        &herman13.legitimacy(),
        &ExploreOptions::full().with_quotient(Quotient::RingDihedral),
        CAP,
        3,
        true,
    ));
    results.push(run_mode_case(
        "herman/N=15/synchronous",
        &herman15,
        DaemonSpec::synchronous(),
        &herman15.legitimacy(),
        &ExploreOptions::full().with_quotient(Quotient::RingDihedral),
        CAP,
        1,
        true,
    ));
    // Beyond-full-reach, now at 2N-fold reduction.
    results.push(run_mode_case(
        "herman/N=17/synchronous",
        &herman17,
        DaemonSpec::synchronous(),
        &herman17.legitimacy(),
        &ExploreOptions::full().with_quotient(Quotient::RingDihedral),
        BIG_CAP,
        1,
        false,
    ));

    // Leaf-permutation (automorphism) quotient: greedy coloring on a
    // 12-node star. The 11! leaf orders collapse 24 576 configurations to
    // one representative per (hub color, leaf-color multiset) — a
    // 170×-fold reduction no ring quotient can reach.
    let star12 = GreedyColoring::new(&builders::star(12)).unwrap();
    results.push(run_mode_case(
        "coloring/star(12)/central",
        &star12,
        DaemonSpec::central(),
        &star12.legitimacy(),
        &ExploreOptions::full().with_quotient(Quotient::Automorphism),
        CAP,
        3,
        true,
    ));

    // Grid-reflection (automorphism) quotient: greedy coloring on a 2×4
    // grid. The builder-labelled grid is recognised structurally and
    // quotiented by its reflection group (row flip × column flip, order
    // 4) — the first automorphism decision in the bench that is neither
    // a ring nor a star.
    let grid24 = GreedyColoring::new(&builders::grid(2, 4)).unwrap();
    results.push(run_mode_case(
        "coloring/grid(2x4)/central",
        &grid24,
        DaemonSpec::central(),
        &grid24.legitimacy(),
        &ExploreOptions::full().with_quotient(Quotient::Automorphism),
        CAP,
        3,
        true,
    ));

    // ---- PR 4/PR 8 rows: flat vs compressed vs disk edge store -----------

    // Store trio on a ≥10^6-edge instance every tier handles: Herman N=15
    // full sweep (3^15 ≈ 1.43·10^7 edges; 344 MB flat). The trio measures
    // the compressed tier's bytes/edge against the flat 24 B/edge, the
    // time both non-flat tiers pay, and — on the disk row — the
    // out-of-core accounting (≈ 72 MB spilled behind a 32 MiB cache, so
    // `resident_bytes < spilled_bytes`).
    results.extend(run_store_trio(
        "herman/N=15/synchronous",
        &herman15,
        DaemonSpec::synchronous(),
        &herman15.legitimacy(),
        &ExploreOptions::full(),
        CAP,
        1,
    ));

    // The resilience row: the same N=15 compressed sweep with a durable
    // frame chain (one frame per 4096 states → 8 frames). The chain is
    // written where `--checkpoint-dir` points (and left behind for a
    // later `--resume`), or to a scratch directory otherwise.
    let scratch = checkpoint_dir.is_none();
    let ck_dir = checkpoint_dir.unwrap_or_else(|| {
        std::env::temp_dir().join(format!("exp-explore-ck-{}", std::process::id()))
    });
    results.push(run_checkpoint_overhead_case(
        "herman/N=15/synchronous",
        &herman15,
        DaemonSpec::synchronous(),
        &herman15.legitimacy(),
        CAP,
        &ck_dir,
        4096,
        5,
    ));
    if scratch {
        std::fs::remove_dir_all(&ck_dir).ok();
    }

    // Beyond the flat store entirely: the Herman N=17 *full sweep*
    // (3^17 ≈ 1.29·10^8 edges) needs ≈ 3.1 GB at 24 B/edge — the very
    // instance PR 2/PR 3 could only check through a quotient — but fits
    // the compressed stream comfortably. Explore-only (chain/analyze
    // null) to bound the smoke-job wall clock.
    results.push(run_big_compressed_case(
        "herman/N=17/synchronous",
        &herman17,
        DaemonSpec::synchronous(),
        &herman17.legitimacy(),
        &ExploreOptions::full(),
        BIG_CAP,
    ));

    // Token ring N=12 (m_12 = 5): 5^12 ≈ 2.4·10^8 configurations — full
    // enumeration is out of reach entirely. On-the-fly BFS over canonical
    // representatives from a designated scrambled seed checks the
    // fault-span of that seed exactly.
    let tr12 = TokenCirculation::on_ring(&builders::ring(12)).unwrap();
    let seed12 = Configuration::from_vec(vec![0u8, 3, 1, 4, 2, 0, 3, 1, 4, 2, 0, 1]);
    let reach_quot = ExploreOptions::reachable(vec![seed12]).with_ring_quotient();
    results.push(run_mode_case(
        "token_ring/N=12/central",
        &tr12,
        DaemonSpec::central(),
        &tr12.legitimacy(),
        &reach_quot,
        BIG_CAP,
        1,
        false,
    ));

    // ---- PR 5 row: the fully auto-planned study --------------------------

    // Herman N=15 with zero tuning: the planner consults the equivariance
    // gate (→ dihedral quotient) and the byte budget (3^15 × 24 B ≈
    // 344 MB estimated flat full sweep ≫ 32 MiB → compressed tier). The
    // serialized report backs the CI assertions that the auto tier choice
    // matches the measured-cheaper tier of the store pair above.
    results.push(run_planned_case(
        "herman/N=15/synchronous",
        &herman15,
        DaemonSpec::synchronous(),
        &herman15.legitimacy(),
        CAP,
    ));

    // ---- Report ---------------------------------------------------------

    let mut table = Table::new(vec![
        "case",
        "mode",
        "quotient",
        "store",
        "planned",
        "configs",
        "represented",
        "group order",
        "edges",
        "B/edge",
        "explore ref (ms)",
        "explore engine (ms)",
        "speedup",
        "chain speedup",
        "ck overhead",
    ]);
    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"schema\": \"bench_explore/v7\",");
    let _ = writeln!(json, "  \"threads\": {threads},");
    let _ = writeln!(json, "  \"results\": [");
    for (i, r) in results.iter().enumerate() {
        let explore_speedup = r
            .explore_reference_ms
            .map(|ref_ms| ref_ms / r.explore_engine_ms);
        let chain_speedup = match (r.chain_reference_ms, r.chain_engine_ms) {
            (Some(ref_ms), Some(engine_ms)) => Some(ref_ms / engine_ms),
            _ => None,
        };
        table.row(vec![
            r.case.clone(),
            r.mode.to_string(),
            r.quotient.clone(),
            r.edge_store.clone(),
            r.planned.to_string(),
            r.configs.to_string(),
            r.represented.to_string(),
            r.group_order.to_string(),
            r.edges.to_string(),
            format!("{:.2}", r.edge_bytes as f64 / r.edges.max(1) as f64),
            fmt_opt(r.explore_reference_ms),
            format!("{:.3}", r.explore_engine_ms),
            explore_speedup.map_or("—".into(), |s| format!("{s:.2}x")),
            chain_speedup.map_or("—".into(), |s| format!("{s:.2}x")),
            r.checkpoint_overhead_pct
                .map_or("—".into(), |p| format!("{p:+.2}%")),
        ]);
        let _ = writeln!(json, "    {{");
        let _ = writeln!(json, "      \"case\": \"{}\",", r.case);
        let _ = writeln!(json, "      \"mode\": \"{}\",", r.mode);
        let _ = writeln!(json, "      \"quotient\": \"{}\",", r.quotient);
        let _ = writeln!(json, "      \"edge_store\": \"{}\",", r.edge_store);
        let _ = writeln!(json, "      \"planned\": {},", r.planned);
        let _ = writeln!(json, "      \"configs\": {},", r.configs);
        let _ = writeln!(json, "      \"represented\": {},", r.represented);
        let _ = writeln!(json, "      \"group_order\": {},", r.group_order);
        let _ = writeln!(json, "      \"edges\": {},", r.edges);
        let _ = writeln!(json, "      \"edge_bytes\": {},", r.edge_bytes);
        let _ = writeln!(json, "      \"resident_bytes\": {},", r.resident_bytes);
        let _ = writeln!(json, "      \"spilled_bytes\": {},", r.spilled_bytes);
        let _ = writeln!(
            json,
            "      \"explore_reference_ms\": {},",
            json_opt(r.explore_reference_ms)
        );
        let _ = writeln!(
            json,
            "      \"explore_engine_ms\": {:.6},",
            r.explore_engine_ms
        );
        let _ = writeln!(
            json,
            "      \"explore_speedup\": {},",
            json_opt(explore_speedup.map(|s| (s * 1000.0).round() / 1000.0))
        );
        let _ = writeln!(
            json,
            "      \"chain_reference_ms\": {},",
            json_opt(r.chain_reference_ms)
        );
        let _ = writeln!(
            json,
            "      \"chain_engine_ms\": {},",
            json_opt(r.chain_engine_ms)
        );
        let _ = writeln!(
            json,
            "      \"chain_speedup\": {},",
            json_opt(chain_speedup.map(|s| (s * 1000.0).round() / 1000.0))
        );
        let _ = writeln!(
            json,
            "      \"analyze_engine_ms\": {},",
            json_opt(r.analyze_engine_ms)
        );
        let _ = writeln!(
            json,
            "      \"checkpoint_overhead_pct\": {}",
            json_opt(r.checkpoint_overhead_pct)
        );
        let _ = writeln!(
            json,
            "    }}{}",
            if i + 1 < results.len() { "," } else { "" }
        );
    }
    let _ = writeln!(json, "  ]");
    let _ = writeln!(json, "}}");

    println!("# E0 — transition-engine throughput across exploration modes\n");
    println!("{}", table.to_markdown());
    std::fs::write("BENCH_explore.json", &json).expect("write BENCH_explore.json");
    println!("wrote BENCH_explore.json + STUDY_report.json");
}
