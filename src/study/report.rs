//! The serializable record of one [`Study`](super::Study) run.
//!
//! [`StudyReport`] is versioned (`study_report/v4`) and round-trips
//! through its JSON form bit-for-bit — bench binaries, CI validators and
//! downstream consumers all read the same object users see in code.
//!
//! v2 added the [`StatusSection`]: one [`Outcome`] per stage, so a study
//! interrupted by an exhausted [`Budget`](stab_core::engine::Budget)
//! still produces a well-formed report — the starved stage reads
//! `Degraded` with the budget's rendered reason, stages that never ran
//! read `Skipped`, and `space` became optional because a degraded
//! exploration has no counters to report.
//!
//! v3 replaces the flat daemon name with a structured `daemon` object —
//! `{name, distribution: {kind, k, radius}, fairness, bound}` — so every
//! point of the daemon lattice ([`DaemonSpec`]) serializes, not just the
//! paper's four named daemons. `name` stays `central`, `distributed`,
//! `synchronous` or `locally-central` for those four, so readers keyed on
//! it keep working. A `k` of 0 is rejected: it would allow no activation.

use stab_core::{Boundedness, DaemonSpec, Distribution, Fairness};

use super::json::Json;

/// The schema tag every serialized report carries.
pub const SCHEMA: &str = "study_report/v4";

/// How one stage of a study ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// The stage ran to completion.
    Complete,
    /// A budget probe tripped mid-stage: the stage's section is absent
    /// (or partial) and `reason` carries the rendered
    /// [`CoreError::BudgetExhausted`](stab_core::CoreError::BudgetExhausted).
    /// A Monte-Carlo request for zero runs, or whose runs all miss the
    /// legitimate set within `max_steps`, also degrades its stage, with a
    /// reason saying so.
    Degraded {
        /// The rendered exhaustion error.
        reason: String,
    },
    /// The stage never ran — not requested, or starved by an upstream
    /// degradation.
    Skipped,
}

impl Outcome {
    /// A degraded stage, for `reason`.
    pub(crate) fn degraded(reason: impl ToString) -> Self {
        let reason = reason.to_string();
        Outcome::Degraded { reason }
    }

    /// Whether this stage degraded.
    pub fn is_degraded(&self) -> bool {
        matches!(self, Outcome::Degraded { .. })
    }

    fn to_json(&self) -> Json {
        match self {
            Outcome::Complete => Json::Str("complete".to_string()),
            Outcome::Skipped => Json::Str("skipped".to_string()),
            Outcome::Degraded { reason } => obj(vec![("degraded", Json::Str(reason.clone()))]),
        }
    }

    fn from_json(v: &Json) -> Result<Self, String> {
        if let Some(tag) = v.as_str() {
            return match tag {
                "complete" => Ok(Outcome::Complete),
                "skipped" => Ok(Outcome::Skipped),
                other => Err(format!("unknown stage outcome `{other}`")),
            };
        }
        v.get("degraded")
            .and_then(Json::as_str)
            .map(Outcome::degraded)
            .ok_or_else(|| "stage outcome is not `complete`/`skipped`/{degraded}".to_string())
    }
}

/// Per-stage outcomes (same stage names as [`Timings`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StatusSection {
    /// Planning.
    pub plan: Outcome,
    /// The one shared exploration.
    pub explore: Outcome,
    /// Checker analyses.
    pub verdicts: Outcome,
    /// `Q`-row extraction.
    pub chain_build: Outcome,
    /// Hitting-time / absorption solves.
    pub expected_solve: Outcome,
    /// Monte-Carlo batch.
    pub monte_carlo: Outcome,
}

impl StatusSection {
    /// Whether any stage degraded.
    pub fn any_degraded(&self) -> bool {
        [
            &self.plan,
            &self.explore,
            &self.verdicts,
            &self.chain_build,
            &self.expected_solve,
            &self.monte_carlo,
        ]
        .into_iter()
        .any(Outcome::is_degraded)
    }
}

/// What the planner decided before exploring (mirrors
/// `stab_core::engine::Plan`, flattened to stable labels).
#[derive(Debug, Clone, PartialEq)]
pub struct PlanSection {
    /// Whether every decision was made by the auto-planner (false when
    /// options were forced or supplied wholesale).
    pub planned: bool,
    /// Full configuration-space size.
    pub total_configs: u64,
    /// Rows sampled for the edge estimate.
    pub sampled_rows: u64,
    /// Mean out-degree over the sample.
    pub est_edges_per_config: f64,
    /// Estimated full-sweep edge count.
    pub est_full_edges: u64,
    /// Estimated full-sweep flat-store bytes.
    pub est_full_flat_bytes: u64,
    /// Estimated analysis-time flat footprint (store + reverse CSR +
    /// Q mirror) — what the flat-tier decision actually compares.
    pub est_analysis_flat_bytes: u64,
    /// Estimated analysis-time compressed footprint.
    pub est_analysis_compressed_bytes: u64,
    /// The byte budget the flat-tier decision was made against.
    pub byte_budget: u64,
    /// The RAM ceiling the disk-tier decision was made against.
    pub disk_byte_budget: u64,
    /// Selected quotient label (`"none"` / `"ring-rotation"` /
    /// `"ring-dihedral"` / `"automorphism"`).
    pub quotient: String,
    /// Selected group order (1 without a quotient).
    pub group_order: u64,
    /// Selected edge-store label (`"flat"` / `"compressed"` / `"disk"`).
    pub edge_store: String,
    /// Every decision, with rationale.
    pub decisions: Vec<DecisionRecord>,
}

/// One planner decision (auto or forced), with its reason.
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionRecord {
    /// The setting decided (`"quotient"` / `"edge_store"` / `"id_map"` /
    /// `"options"`).
    pub setting: String,
    /// The chosen value's label.
    pub choice: String,
    /// Whether the planner chose it.
    pub auto: bool,
    /// Rationale.
    pub reason: String,
}

/// Measured counters of the one shared exploration.
#[derive(Debug, Clone, PartialEq)]
pub struct SpaceSection {
    /// Explored configurations (orbit representatives in a quotient).
    pub configs: u64,
    /// Concrete configurations represented (Σ orbit sizes).
    pub represented: u64,
    /// Group order of the quotient actually explored (1 outside).
    pub group_order: u64,
    /// Stored edges.
    pub edges: u64,
    /// Forward edge-store heap bytes.
    pub edge_bytes: u64,
    /// Forward edge-store bytes resident in RAM at the end of the run
    /// (equal to `edge_bytes` on the in-RAM tiers; offsets, probability
    /// table and cached chunks on the disk tier).
    pub resident_bytes: u64,
    /// Forward edge-store bytes spilled to chunk files (zero on the
    /// in-RAM tiers).
    pub spilled_bytes: u64,
    /// Legitimate explored configurations.
    pub legitimate: u64,
    /// Whether the determinism audit passed everywhere.
    pub deterministic: bool,
}

/// One property verdict: holds, or fails with a rendered witness.
#[derive(Debug, Clone, PartialEq)]
pub struct VerdictRecord {
    /// Whether the property holds.
    pub holds: bool,
    /// Rendered counterexample when it fails.
    pub witness: Option<String>,
}

/// The checker stage's output: closure, weak and probabilistic
/// convergence, plus the certain-convergence verdict per requested
/// fairness assumption.
#[derive(Debug, Clone, PartialEq)]
pub struct VerdictsSection {
    /// Strong closure of `L`.
    pub closure: VerdictRecord,
    /// Possible convergence (weak stabilization).
    pub weak: VerdictRecord,
    /// Probabilistic convergence under the randomized scheduler.
    pub probabilistic: VerdictRecord,
    /// Certain convergence per fairness assumption (weakest first; only
    /// the requested ones).
    pub self_stabilizing: Vec<FairnessVerdict>,
}

/// The self-stabilization verdict under one fairness assumption.
#[derive(Debug, Clone, PartialEq)]
pub struct FairnessVerdict {
    /// The assumption's stable name ([`Fairness::name`]).
    pub fairness: String,
    /// The verdict.
    pub verdict: VerdictRecord,
}

impl VerdictsSection {
    /// The verdict recorded for `fairness`, if it was requested.
    pub fn self_under(&self, fairness: Fairness) -> Option<&VerdictRecord> {
        self.self_stabilizing
            .iter()
            .find(|v| v.fairness == fairness.name())
            .map(|v| &v.verdict)
    }
}

/// The Markov stage's output: exact expected stabilization times off the
/// shared exploration's `Q` rows — or the typed reason they do not exist.
#[derive(Debug, Clone, PartialEq)]
pub enum ExpectedSection {
    /// Absorption is almost sure; the solves succeeded.
    Solved(ExpectedTimes),
    /// The chain does not absorb almost surely (or a solver failed):
    /// expected times are infinite/unavailable. The study still reports
    /// everything else.
    Unsolvable {
        /// The rendered error.
        error: String,
    },
}

impl ExpectedSection {
    /// The solved times, if absorption was almost sure.
    pub fn solved(&self) -> Option<&ExpectedTimes> {
        match self {
            ExpectedSection::Solved(t) => Some(t),
            ExpectedSection::Unsolvable { .. } => None,
        }
    }
}

/// Exact hitting-time summaries (and optionally the CDF).
#[derive(Debug, Clone, PartialEq)]
pub struct ExpectedTimes {
    /// Transient states of the chain.
    pub n_transient: u64,
    /// Worst-case expected steps over initial configurations.
    pub worst_case: f64,
    /// Uniform-initial average (orbit-weighted on quotient chains, so it
    /// equals the full-space average exactly).
    pub average: f64,
    /// Minimum absorption probability over transient states (1 up to
    /// solver tolerance for probabilistically self-stabilizing systems).
    pub min_absorption: f64,
    /// `cdf[k] = P(stabilized within k steps)` from the uniform initial
    /// distribution, when a horizon was requested.
    pub cdf: Option<Vec<f64>>,
}

/// The Monte-Carlo stage's output (seeded, deterministic in its config).
#[derive(Debug, Clone, PartialEq)]
pub struct McSection {
    /// Total runs.
    pub runs: u64,
    /// Runs that did not converge within the budget.
    pub failures: u64,
    /// Base seed.
    pub seed: u64,
    /// Per-run step budget.
    pub max_steps: u64,
    /// Steps-to-stabilization estimate.
    pub steps: EstimateRecord,
    /// Moves (total activations) estimate.
    pub moves: EstimateRecord,
    /// Rounds estimate.
    pub rounds: EstimateRecord,
}

/// A mean/spread estimate (mirrors `stab_sim::Estimate`).
#[derive(Debug, Clone, PartialEq)]
pub struct EstimateRecord {
    /// Sample mean.
    pub mean: f64,
    /// Sample standard deviation.
    pub std_dev: f64,
    /// Standard error of the mean.
    pub std_err: f64,
    /// Sample size.
    pub n: u64,
    /// Minimum observation.
    pub min: f64,
    /// Maximum observation.
    pub max: f64,
}

impl From<&stab_sim::Estimate> for EstimateRecord {
    fn from(e: &stab_sim::Estimate) -> Self {
        EstimateRecord {
            mean: e.mean,
            std_dev: e.std_dev,
            std_err: e.std_err,
            n: e.n,
            min: e.min,
            max: e.max,
        }
    }
}

/// Wall-clock milliseconds per stage (`None` = stage not requested).
///
/// Stages may overlap: the Monte-Carlo batch can run on its own thread
/// beside stages 0–4 (see `Study::run`), so `total` can be below the sum
/// of the stages.
#[derive(Debug, Clone, PartialEq)]
pub struct Timings {
    /// Planning (estimation + gate consultations).
    pub plan: f64,
    /// The one shared exploration.
    pub explore: f64,
    /// Checker analyses.
    pub verdicts: Option<f64>,
    /// `Q`-row extraction from the shared system.
    pub chain_build: Option<f64>,
    /// Hitting-time / absorption solves (and the CDF evolution).
    pub expected_solve: Option<f64>,
    /// Monte-Carlo batch (sampler set-up included), measured on the
    /// thread that ran it.
    pub monte_carlo: Option<f64>,
    /// End-to-end `run()`.
    pub total: f64,
}

/// The structured, versioned record of one `Study::run()`.
#[derive(Debug, Clone, PartialEq)]
pub struct StudyReport {
    /// Algorithm name.
    pub algorithm: String,
    /// Specification name.
    pub spec: String,
    /// The scheduler studied — a daemon-lattice point; the paper's four
    /// daemons are the named points of [`DaemonSpec::LEGACY`].
    pub daemon: DaemonSpec,
    /// What was decided before exploring, and why.
    pub plan: PlanSection,
    /// How each stage ended (complete / degraded / skipped).
    pub status: StatusSection,
    /// Measured counters of the shared exploration (`None` when the
    /// exploration itself degraded).
    pub space: Option<SpaceSection>,
    /// Checker verdicts (when the stage was requested).
    pub verdicts: Option<VerdictsSection>,
    /// Exact expected times (when the stage was requested).
    pub expected_times: Option<ExpectedSection>,
    /// Monte-Carlo estimates (when the stage was requested).
    pub monte_carlo: Option<McSection>,
    /// Per-stage wall-clock times.
    pub timings_ms: Timings,
}

fn u(v: u64) -> Json {
    Json::UInt(v)
}

fn opt_f(v: Option<f64>) -> Json {
    v.map_or(Json::Null, Json::Num)
}

fn obj(members: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        members
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

impl StudyReport {
    /// The JSON tree of this report (schema [`SCHEMA`]).
    pub fn to_json(&self) -> Json {
        obj(vec![
            ("schema", Json::Str(SCHEMA.to_string())),
            ("algorithm", Json::Str(self.algorithm.clone())),
            ("spec", Json::Str(self.spec.clone())),
            ("daemon", daemon_to_json(self.daemon)),
            ("plan", self.plan.to_json()),
            ("status", self.status.to_json()),
            (
                "space",
                self.space
                    .as_ref()
                    .map_or(Json::Null, SpaceSection::to_json),
            ),
            (
                "verdicts",
                self.verdicts
                    .as_ref()
                    .map_or(Json::Null, VerdictsSection::to_json),
            ),
            (
                "expected_times",
                self.expected_times
                    .as_ref()
                    .map_or(Json::Null, ExpectedSection::to_json),
            ),
            (
                "monte_carlo",
                self.monte_carlo
                    .as_ref()
                    .map_or(Json::Null, McSection::to_json),
            ),
            ("timings_ms", self.timings_ms.to_json()),
        ])
    }

    /// Renders the report as an indented JSON document.
    pub fn to_json_string(&self) -> String {
        self.to_json().render()
    }

    /// Parses a serialized report back.
    ///
    /// # Errors
    ///
    /// A rendered message on malformed JSON, a wrong/missing schema tag,
    /// or missing fields.
    pub fn from_json_str(text: &str) -> Result<Self, String> {
        let v = Json::parse(text)?;
        let schema = v
            .get("schema")
            .and_then(Json::as_str)
            .ok_or("missing schema tag")?;
        if schema != SCHEMA {
            return Err(format!("unsupported schema `{schema}` (want `{SCHEMA}`)"));
        }
        let daemon = daemon_from_json(field(&v, "daemon")?)?;
        Ok(StudyReport {
            algorithm: str_field(&v, "algorithm")?.to_string(),
            spec: str_field(&v, "spec")?.to_string(),
            daemon,
            plan: PlanSection::from_json(field(&v, "plan")?)?,
            status: StatusSection::from_json(field(&v, "status")?)?,
            space: nullable(&v, "space", SpaceSection::from_json)?,
            verdicts: nullable(&v, "verdicts", VerdictsSection::from_json)?,
            expected_times: nullable(&v, "expected_times", ExpectedSection::from_json)?,
            monte_carlo: nullable(&v, "monte_carlo", McSection::from_json)?,
            timings_ms: Timings::from_json(field(&v, "timings_ms")?)?,
        })
    }
}

// ---- daemon (de)serialization ------------------------------------------

fn daemon_to_json(d: DaemonSpec) -> Json {
    let distribution = match d.distribution {
        Distribution::Synchronous => obj(vec![("kind", Json::Str("synchronous".to_string()))]),
        Distribution::KCentral { k, radius } => obj(vec![
            ("kind", Json::Str("k-central".to_string())),
            ("k", k.map_or(Json::Null, |k| u(u64::from(k)))),
            ("radius", u(u64::from(radius))),
        ]),
    };
    obj(vec![
        ("name", Json::Str(d.name())),
        ("distribution", distribution),
        ("fairness", Json::Str(d.fairness.name().to_string())),
        (
            "bound",
            match d.bound {
                Boundedness::Unbounded => Json::Null,
                Boundedness::EnabledBounded(b) => u(u64::from(b)),
            },
        ),
    ])
}

fn u32_field(v: &Json, key: &str) -> Result<u32, String> {
    u32::try_from(u64_field(v, key)?).map_err(|_| format!("field `{key}` exceeds u32"))
}

fn daemon_from_json(v: &Json) -> Result<DaemonSpec, String> {
    let dist = field(v, "distribution")?;
    let distribution = match str_field(dist, "kind")? {
        "synchronous" => Distribution::Synchronous,
        "k-central" => {
            let k = match field(dist, "k")? {
                Json::Null => None,
                k => Some(
                    k.as_u64()
                        .and_then(|k| u32::try_from(k).ok())
                        .filter(|&k| k > 0)
                        .ok_or("daemon `k` is not a positive integer or null")?,
                ),
            };
            Distribution::KCentral {
                k,
                radius: u32_field(dist, "radius")?,
            }
        }
        other => return Err(format!("unknown distribution kind `{other}`")),
    };
    let fairness_name = str_field(v, "fairness")?;
    let fairness = Fairness::ALL
        .into_iter()
        .find(|f| f.name() == fairness_name)
        .ok_or_else(|| format!("unknown fairness `{fairness_name}`"))?;
    let bound = match field(v, "bound")? {
        Json::Null => Boundedness::Unbounded,
        b => Boundedness::EnabledBounded(
            b.as_u64()
                .and_then(|b| u32::try_from(b).ok())
                .ok_or("daemon `bound` is not an unsigned integer or null")?,
        ),
    };
    Ok(DaemonSpec {
        distribution,
        fairness,
        bound,
    })
}

// ---- field helpers -----------------------------------------------------

fn field<'a>(v: &'a Json, key: &str) -> Result<&'a Json, String> {
    v.get(key).ok_or_else(|| format!("missing field `{key}`"))
}

fn str_field<'a>(v: &'a Json, key: &str) -> Result<&'a str, String> {
    field(v, key)?
        .as_str()
        .ok_or_else(|| format!("field `{key}` is not a string"))
}

fn u64_field(v: &Json, key: &str) -> Result<u64, String> {
    field(v, key)?
        .as_u64()
        .ok_or_else(|| format!("field `{key}` is not an unsigned integer"))
}

fn f64_field(v: &Json, key: &str) -> Result<f64, String> {
    field(v, key)?
        .as_f64()
        .ok_or_else(|| format!("field `{key}` is not a number"))
}

fn bool_field(v: &Json, key: &str) -> Result<bool, String> {
    field(v, key)?
        .as_bool()
        .ok_or_else(|| format!("field `{key}` is not a boolean"))
}

fn opt_f64_field(v: &Json, key: &str) -> Result<Option<f64>, String> {
    let member = field(v, key)?;
    if member.is_null() {
        return Ok(None);
    }
    member
        .as_f64()
        .map(Some)
        .ok_or_else(|| format!("field `{key}` is not a number or null"))
}

fn nullable<T>(
    v: &Json,
    key: &str,
    parse: impl FnOnce(&Json) -> Result<T, String>,
) -> Result<Option<T>, String> {
    let member = field(v, key)?;
    if member.is_null() {
        Ok(None)
    } else {
        parse(member).map(Some)
    }
}

// ---- per-section (de)serialization -------------------------------------

impl PlanSection {
    fn to_json(&self) -> Json {
        obj(vec![
            ("planned", Json::Bool(self.planned)),
            ("total_configs", u(self.total_configs)),
            ("sampled_rows", u(self.sampled_rows)),
            ("est_edges_per_config", Json::Num(self.est_edges_per_config)),
            ("est_full_edges", u(self.est_full_edges)),
            ("est_full_flat_bytes", u(self.est_full_flat_bytes)),
            ("est_analysis_flat_bytes", u(self.est_analysis_flat_bytes)),
            (
                "est_analysis_compressed_bytes",
                u(self.est_analysis_compressed_bytes),
            ),
            ("byte_budget", u(self.byte_budget)),
            ("disk_byte_budget", u(self.disk_byte_budget)),
            ("quotient", Json::Str(self.quotient.clone())),
            ("group_order", u(self.group_order)),
            ("edge_store", Json::Str(self.edge_store.clone())),
            (
                "decisions",
                Json::Arr(self.decisions.iter().map(DecisionRecord::to_json).collect()),
            ),
        ])
    }

    fn from_json(v: &Json) -> Result<Self, String> {
        Ok(PlanSection {
            planned: bool_field(v, "planned")?,
            total_configs: u64_field(v, "total_configs")?,
            sampled_rows: u64_field(v, "sampled_rows")?,
            est_edges_per_config: f64_field(v, "est_edges_per_config")?,
            est_full_edges: u64_field(v, "est_full_edges")?,
            est_full_flat_bytes: u64_field(v, "est_full_flat_bytes")?,
            est_analysis_flat_bytes: u64_field(v, "est_analysis_flat_bytes")?,
            est_analysis_compressed_bytes: u64_field(v, "est_analysis_compressed_bytes")?,
            byte_budget: u64_field(v, "byte_budget")?,
            disk_byte_budget: u64_field(v, "disk_byte_budget")?,
            quotient: str_field(v, "quotient")?.to_string(),
            group_order: u64_field(v, "group_order")?,
            edge_store: str_field(v, "edge_store")?.to_string(),
            decisions: field(v, "decisions")?
                .as_arr()
                .ok_or("`decisions` is not an array")?
                .iter()
                .map(DecisionRecord::from_json)
                .collect::<Result<_, _>>()?,
        })
    }
}

impl DecisionRecord {
    fn to_json(&self) -> Json {
        obj(vec![
            ("setting", Json::Str(self.setting.clone())),
            ("choice", Json::Str(self.choice.clone())),
            ("auto", Json::Bool(self.auto)),
            ("reason", Json::Str(self.reason.clone())),
        ])
    }

    fn from_json(v: &Json) -> Result<Self, String> {
        Ok(DecisionRecord {
            setting: str_field(v, "setting")?.to_string(),
            choice: str_field(v, "choice")?.to_string(),
            auto: bool_field(v, "auto")?,
            reason: str_field(v, "reason")?.to_string(),
        })
    }
}

impl StatusSection {
    fn to_json(&self) -> Json {
        obj(vec![
            ("plan", self.plan.to_json()),
            ("explore", self.explore.to_json()),
            ("verdicts", self.verdicts.to_json()),
            ("chain_build", self.chain_build.to_json()),
            ("expected_solve", self.expected_solve.to_json()),
            ("monte_carlo", self.monte_carlo.to_json()),
        ])
    }

    fn from_json(v: &Json) -> Result<Self, String> {
        Ok(StatusSection {
            plan: Outcome::from_json(field(v, "plan")?)?,
            explore: Outcome::from_json(field(v, "explore")?)?,
            verdicts: Outcome::from_json(field(v, "verdicts")?)?,
            chain_build: Outcome::from_json(field(v, "chain_build")?)?,
            expected_solve: Outcome::from_json(field(v, "expected_solve")?)?,
            monte_carlo: Outcome::from_json(field(v, "monte_carlo")?)?,
        })
    }
}

impl SpaceSection {
    fn to_json(&self) -> Json {
        obj(vec![
            ("configs", u(self.configs)),
            ("represented", u(self.represented)),
            ("group_order", u(self.group_order)),
            ("edges", u(self.edges)),
            ("edge_bytes", u(self.edge_bytes)),
            ("resident_bytes", u(self.resident_bytes)),
            ("spilled_bytes", u(self.spilled_bytes)),
            ("legitimate", u(self.legitimate)),
            ("deterministic", Json::Bool(self.deterministic)),
        ])
    }

    fn from_json(v: &Json) -> Result<Self, String> {
        Ok(SpaceSection {
            configs: u64_field(v, "configs")?,
            represented: u64_field(v, "represented")?,
            group_order: u64_field(v, "group_order")?,
            edges: u64_field(v, "edges")?,
            edge_bytes: u64_field(v, "edge_bytes")?,
            resident_bytes: u64_field(v, "resident_bytes")?,
            spilled_bytes: u64_field(v, "spilled_bytes")?,
            legitimate: u64_field(v, "legitimate")?,
            deterministic: bool_field(v, "deterministic")?,
        })
    }
}

impl VerdictRecord {
    fn to_json(&self) -> Json {
        obj(vec![
            ("holds", Json::Bool(self.holds)),
            (
                "witness",
                self.witness
                    .as_ref()
                    .map_or(Json::Null, |w| Json::Str(w.clone())),
            ),
        ])
    }

    fn from_json(v: &Json) -> Result<Self, String> {
        let witness = field(v, "witness")?;
        Ok(VerdictRecord {
            holds: bool_field(v, "holds")?,
            witness: if witness.is_null() {
                None
            } else {
                Some(
                    witness
                        .as_str()
                        .ok_or("`witness` is not a string or null")?
                        .to_string(),
                )
            },
        })
    }
}

impl VerdictsSection {
    fn to_json(&self) -> Json {
        obj(vec![
            ("closure", self.closure.to_json()),
            ("weak", self.weak.to_json()),
            ("probabilistic", self.probabilistic.to_json()),
            (
                "self_stabilizing",
                Json::Arr(
                    self.self_stabilizing
                        .iter()
                        .map(|fv| {
                            obj(vec![
                                ("fairness", Json::Str(fv.fairness.clone())),
                                ("verdict", fv.verdict.to_json()),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    fn from_json(v: &Json) -> Result<Self, String> {
        Ok(VerdictsSection {
            closure: VerdictRecord::from_json(field(v, "closure")?)?,
            weak: VerdictRecord::from_json(field(v, "weak")?)?,
            probabilistic: VerdictRecord::from_json(field(v, "probabilistic")?)?,
            self_stabilizing: field(v, "self_stabilizing")?
                .as_arr()
                .ok_or("`self_stabilizing` is not an array")?
                .iter()
                .map(|fv| {
                    Ok(FairnessVerdict {
                        fairness: str_field(fv, "fairness")?.to_string(),
                        verdict: VerdictRecord::from_json(field(fv, "verdict")?)?,
                    })
                })
                .collect::<Result<_, String>>()?,
        })
    }
}

impl ExpectedSection {
    fn to_json(&self) -> Json {
        match self {
            ExpectedSection::Unsolvable { error } => obj(vec![("error", Json::Str(error.clone()))]),
            ExpectedSection::Solved(t) => obj(vec![
                ("n_transient", u(t.n_transient)),
                ("worst_case", Json::Num(t.worst_case)),
                ("average", Json::Num(t.average)),
                ("min_absorption", Json::Num(t.min_absorption)),
                (
                    "cdf",
                    t.cdf.as_ref().map_or(Json::Null, |cdf| {
                        Json::Arr(cdf.iter().map(|&p| Json::Num(p)).collect())
                    }),
                ),
            ]),
        }
    }

    fn from_json(v: &Json) -> Result<Self, String> {
        if let Some(error) = v.get("error") {
            return Ok(ExpectedSection::Unsolvable {
                error: error.as_str().ok_or("`error` is not a string")?.to_string(),
            });
        }
        let cdf = match field(v, "cdf")? {
            Json::Null => None,
            arr => Some(
                arr.as_arr()
                    .ok_or("`cdf` is not an array or null")?
                    .iter()
                    .map(|p| p.as_f64().ok_or("`cdf` entry is not a number".to_string()))
                    .collect::<Result<_, _>>()?,
            ),
        };
        Ok(ExpectedSection::Solved(ExpectedTimes {
            n_transient: u64_field(v, "n_transient")?,
            worst_case: f64_field(v, "worst_case")?,
            average: f64_field(v, "average")?,
            min_absorption: f64_field(v, "min_absorption")?,
            cdf,
        }))
    }
}

impl EstimateRecord {
    fn to_json(&self) -> Json {
        obj(vec![
            ("mean", Json::Num(self.mean)),
            ("std_dev", Json::Num(self.std_dev)),
            ("std_err", Json::Num(self.std_err)),
            ("n", u(self.n)),
            ("min", Json::Num(self.min)),
            ("max", Json::Num(self.max)),
        ])
    }

    fn from_json(v: &Json) -> Result<Self, String> {
        Ok(EstimateRecord {
            mean: f64_field(v, "mean")?,
            std_dev: f64_field(v, "std_dev")?,
            std_err: f64_field(v, "std_err")?,
            n: u64_field(v, "n")?,
            min: f64_field(v, "min")?,
            max: f64_field(v, "max")?,
        })
    }
}

impl McSection {
    fn to_json(&self) -> Json {
        obj(vec![
            ("runs", u(self.runs)),
            ("failures", u(self.failures)),
            ("seed", u(self.seed)),
            ("max_steps", u(self.max_steps)),
            ("steps", self.steps.to_json()),
            ("moves", self.moves.to_json()),
            ("rounds", self.rounds.to_json()),
        ])
    }

    fn from_json(v: &Json) -> Result<Self, String> {
        Ok(McSection {
            runs: u64_field(v, "runs")?,
            failures: u64_field(v, "failures")?,
            seed: u64_field(v, "seed")?,
            max_steps: u64_field(v, "max_steps")?,
            steps: EstimateRecord::from_json(field(v, "steps")?)?,
            moves: EstimateRecord::from_json(field(v, "moves")?)?,
            rounds: EstimateRecord::from_json(field(v, "rounds")?)?,
        })
    }
}

impl Timings {
    fn to_json(&self) -> Json {
        obj(vec![
            ("plan", Json::Num(self.plan)),
            ("explore", Json::Num(self.explore)),
            ("verdicts", opt_f(self.verdicts)),
            ("chain_build", opt_f(self.chain_build)),
            ("expected_solve", opt_f(self.expected_solve)),
            ("monte_carlo", opt_f(self.monte_carlo)),
            ("total", Json::Num(self.total)),
        ])
    }

    fn from_json(v: &Json) -> Result<Self, String> {
        Ok(Timings {
            plan: f64_field(v, "plan")?,
            explore: f64_field(v, "explore")?,
            verdicts: opt_f64_field(v, "verdicts")?,
            chain_build: opt_f64_field(v, "chain_build")?,
            expected_solve: opt_f64_field(v, "expected_solve")?,
            monte_carlo: opt_f64_field(v, "monte_carlo")?,
            total: f64_field(v, "total")?,
        })
    }
}
