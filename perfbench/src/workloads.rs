//! The three workloads, their set-up, and the pins every op must pass.

use std::path::{Path, PathBuf};

use stab_algorithms::{
    CenterFinding, CenterLeader, DijkstraFourState, DijkstraRing, DijkstraThreeState,
    FairnessGadget, GreedyColoring, HermanRing, ParentLeader, TokenCirculation, TwoProcessToggle,
};
use stab_core::engine::{EdgeStoreKind, ExploreOptions, SpillConfig};
use stab_core::{Algorithm, DaemonSpec, Fairness, Legitimacy};
use stab_graph::{builders, GraphError};
use weak_stabilization::study::{ExpectedSection, McConfig, StudyReport, Timings};

use crate::point::{Claim, Point, StudyPoint};

pub const NAMES: [&str; 3] = ["zoo-lattice", "herman-showcase", "herman-disk"];

/// Monte-Carlo runs per absorbing zoo point.
const ZOO_MC_RUNS: u64 = 200;
/// Monte-Carlo runs of the showcase cross-check.
const SHOWCASE_MC_RUNS: u64 = 8_000;
const MC_MAX_STEPS: u64 = 1_000_000;
/// Spill geometry of the disk workload: a stream of several MiB passes
/// through a cache that holds four chunks.
const DISK_CHUNK_BYTES: u64 = 256 << 10;
const DISK_CACHE_BYTES: u64 = 1 << 20;

/// SplitMix64: the seeded source of sweep orders and Monte-Carlo seeds.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        // The modulo bias is irrelevant for shuffling at most 44 items.
        (self.next_u64() % n as u64) as usize
    }
}

pub struct Workload {
    pub name: &'static str,
    pub points: Vec<Box<dyn Point>>,
    /// The warm-up op's report for each point: every later op must
    /// reproduce it (timings aside).
    pub references: Vec<StudyReport>,
    shuffle: bool,
    spill_dir: Option<PathBuf>,
}

/// The report with its timings blanked: everything an op must repeat.
fn comparable(r: &StudyReport) -> StudyReport {
    let mut c = r.clone();
    c.timings_ms = Timings {
        plan: 0.0,
        explore: 0.0,
        verdicts: None,
        chain_build: None,
        expected_solve: None,
        monte_carlo: None,
        total: 0.0,
    };
    c
}

impl Workload {
    /// Builds the workload's topologies, algorithms, specs and indexers,
    /// then runs the untimed warm-up op that produces the reference
    /// output, and pins it.
    pub fn setup(name: &str, seed: u64, work_dir: &Path) -> Result<Workload, String> {
        let mut rng = Rng::new(seed);
        let mut w = match name {
            "zoo-lattice" => Workload {
                name: "zoo-lattice",
                points: zoo()?,
                references: Vec::new(),
                shuffle: true,
                spill_dir: None,
            },
            "herman-showcase" => {
                let ring = builders::ring(15);
                let alg = HermanRing::on_ring(&ring).map_err(|e| e.to_string())?;
                let spec = alg.legitimacy();
                let mut p = StudyPoint::new(
                    "herman/ring(15)/synchronous".to_string(),
                    alg,
                    spec,
                    DaemonSpec::synchronous(),
                )?
                .expected_times()
                .claim(showcase_claim);
                p.set_monte_carlo(mc(SHOWCASE_MC_RUNS, rng.next_u64()));
                Workload {
                    name: "herman-showcase",
                    points: vec![Box::new(p)],
                    references: Vec::new(),
                    shuffle: false,
                    spill_dir: None,
                }
            }
            "herman-disk" => {
                let dir = work_dir.join("spill");
                let ring = builders::ring(13);
                let alg = HermanRing::on_ring(&ring).map_err(|e| e.to_string())?;
                let spec = alg.legitimacy();
                let opts = ExploreOptions::full()
                    .with_edge_store(EdgeStoreKind::Disk)
                    .with_spill(SpillConfig {
                        dir: Some(dir.clone()),
                        chunk_bytes: DISK_CHUNK_BYTES,
                        cache_bytes: DISK_CACHE_BYTES,
                    });
                let p = StudyPoint::new(
                    "herman/ring(13)/synchronous/disk".to_string(),
                    alg,
                    spec,
                    DaemonSpec::synchronous(),
                )?
                .chain_build()
                .options(opts)
                .claim(disk_claim);
                Workload {
                    name: "herman-disk",
                    points: vec![Box::new(p)],
                    references: Vec::new(),
                    shuffle: false,
                    spill_dir: Some(dir),
                }
            }
            other => return Err(format!("unknown workload {other:?}")),
        };

        if w.name == "zoo-lattice" {
            // Points whose exact chain is almost-surely absorbing get a
            // seeded Monte-Carlo stage (a solved expected time means the
            // chain set-up found it absorbing).
            for p in &mut w.points {
                let r = p.run().map_err(|e| format!("{}: {e}", p.label()))?;
                let mc_seed = rng.next_u64();
                if let Some(ExpectedSection::Solved(_)) = r.expected_times {
                    p.set_monte_carlo(mc(ZOO_MC_RUNS, mc_seed));
                }
            }
        }

        for i in 0..w.points.len() {
            let p = &w.points[i];
            let r = p.run().map_err(|e| format!("{}: {e}", p.label()))?;
            w.references.push(r);
            w.check(i, &w.references[i])
                .map_err(|e| format!("warm-up: {e}"))?;
        }
        Ok(w)
    }

    /// One sweep's op order: the points in a seeded random order for the
    /// zoo, the single point otherwise.
    pub fn order(&self, rng: &mut Rng) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.points.len()).collect();
        if self.shuffle {
            for i in (1..order.len()).rev() {
                order.swap(i, rng.below(i + 1));
            }
        }
        order
    }

    /// The pins of op `p`: no degraded stage, the reference output
    /// reproduced, and the point's own claim.
    pub fn check(&self, p: usize, r: &StudyReport) -> Result<(), String> {
        let label = self.points[p].label();
        if r.status.any_degraded() {
            return Err(format!("{label}: degraded stage {:?}", r.status));
        }
        if comparable(r) != comparable(&self.references[p]) {
            return Err(format!("{label}: output differs from the set-up reference"));
        }
        match self.points[p].claim() {
            Some(claim) => claim(r).map_err(|e| format!("{label}: {e}")),
            None => Ok(()),
        }
    }

    /// Whether two set-ups produced the same reference outputs.
    pub fn same_references(&self, other: &Workload) -> bool {
        self.references.len() == other.references.len()
            && self
                .references
                .iter()
                .zip(&other.references)
                .all(|(a, b)| comparable(a) == comparable(b))
    }

    /// Removes the workload's spill directory.
    pub fn clean(&self) {
        if let Some(d) = &self.spill_dir {
            let _ = std::fs::remove_dir_all(d);
        }
    }
}

fn mc(runs: u64, seed: u64) -> McConfig {
    McConfig {
        runs,
        max_steps: MC_MAX_STEPS,
        seed,
        threads: 1,
    }
}

/// Adds `alg` on `topology` under the four distribution points central,
/// distributed, synchronous and locally-central; `claim` pins one of them.
fn member<A, L>(
    points: &mut Vec<Box<dyn Point>>,
    topology: &str,
    claim: Option<(DaemonSpec, Claim)>,
    make: impl Fn() -> Result<(A, L), GraphError>,
) -> Result<(), String>
where
    A: Algorithm + Sync + 'static,
    A::State: Sync,
    L: Legitimacy<A::State> + Sync + 'static,
{
    for daemon in DaemonSpec::LEGACY {
        let (alg, spec) = make().map_err(|e| e.to_string())?;
        let label = format!("{}/{topology}/{}", alg.name(), daemon.name());
        let mut p = StudyPoint::new(label, alg, spec, daemon)?.expected_times();
        if let Some((_, c)) = claim.filter(|(d, _)| *d == daemon) {
            p = p.claim(c);
        }
        points.push(Box::new(p));
    }
    Ok(())
}

/// The 11 zoo members on small topologies (the trees on `path(5)`), each
/// under four daemons: 44 points.
fn zoo() -> Result<Vec<Box<dyn Point>>, String> {
    let mut pts: Vec<Box<dyn Point>> = Vec::new();
    member(&mut pts, "fixed", None, || {
        let a = FairnessGadget::new();
        let s = a.legitimacy();
        Ok((a, s))
    })?;
    member(&mut pts, "fixed", None, || {
        let a = TwoProcessToggle::new();
        let s = a.legitimacy();
        Ok((a, s))
    })?;
    member(&mut pts, "ring(5)", None, || {
        let a = HermanRing::on_ring(&builders::ring(5))?;
        let s = a.legitimacy();
        Ok((a, s))
    })?;
    member(&mut pts, "ring(4)", None, || {
        let a = DijkstraRing::on_ring(&builders::ring(4))?;
        let s = a.legitimacy();
        Ok((a, s))
    })?;
    member(&mut pts, "ring(5)", None, || {
        let a = DijkstraThreeState::on_ring(&builders::ring(5))?;
        let s = a.legitimacy();
        Ok((a, s))
    })?;
    member(&mut pts, "path(4)", None, || {
        let a = DijkstraFourState::on_path(&builders::path(4))?;
        let s = a.legitimacy();
        Ok((a, s))
    })?;
    let theorems = Some((DaemonSpec::distributed(), token_ring_claim as Claim));
    member(&mut pts, "ring(5)", theorems, || {
        let a = TokenCirculation::on_ring(&builders::ring(5))?;
        let s = a.legitimacy();
        Ok((a, s))
    })?;
    member(&mut pts, "path(4)", None, || {
        let a = GreedyColoring::new(&builders::path(4))?;
        let s = a.legitimacy();
        Ok((a, s))
    })?;
    member(&mut pts, "path(5)", None, || {
        let a = CenterFinding::on_tree(&builders::path(5))?;
        let s = a.legitimacy();
        Ok((a, s))
    })?;
    member(&mut pts, "path(5)", None, || {
        let a = CenterLeader::on_tree(&builders::path(5))?;
        let s = a.legitimacy();
        Ok((a, s))
    })?;
    member(&mut pts, "path(5)", None, || {
        let a = ParentLeader::on_tree(&builders::path(5))?;
        let s = a.legitimacy();
        Ok((a, s))
    })?;
    Ok(pts)
}

/// Token circulation on ring(5) under the distributed daemon: weak
/// (Theorem 2), self under Gouda fairness (Theorem 5), not self under
/// strong fairness (Theorem 6), probabilistic (Theorem 7).
fn token_ring_claim(r: &StudyReport) -> Result<(), String> {
    let v = r.verdicts.as_ref().ok_or("no verdicts")?;
    let self_under = |f| v.self_under(f).map(|x| x.holds);
    let ok = v.weak.holds
        && self_under(Fairness::Gouda) == Some(true)
        && self_under(Fairness::StronglyFair) == Some(false)
        && v.probabilistic.holds;
    ok.then_some(())
        .ok_or_else(|| "Theorems 2/5/6/7 do not hold".to_string())
}

/// Herman N=15: the worst case is the McIver–Morgan three-token closed
/// form 4abc/N = 4·5·5·5/15, and the Monte-Carlo mean lies within four
/// standard errors of the exact uniform average.
fn showcase_claim(r: &StudyReport) -> Result<(), String> {
    let Some(ExpectedSection::Solved(t)) = &r.expected_times else {
        return Err("expected times not solved".into());
    };
    let closed_form = 4.0 * 5.0 * 5.0 * 5.0 / 15.0;
    if (t.worst_case - closed_form).abs() > 1e-9 * closed_form {
        return Err(format!(
            "worst case {} != 4abc/N = {closed_form}",
            t.worst_case
        ));
    }
    let mc = r.monte_carlo.as_ref().ok_or("no Monte-Carlo section")?;
    if mc.failures != 0 || (mc.steps.mean - t.average).abs() > 4.0 * mc.steps.std_err {
        return Err(format!(
            "Monte-Carlo mean {} ± {} (failures {}) vs exact {}",
            mc.steps.mean, mc.steps.std_err, mc.failures, t.average
        ));
    }
    Ok(())
}

/// The disk tier really went out of core: the stream spilled past the
/// cache budget and the resident cache stayed under it.
fn disk_claim(r: &StudyReport) -> Result<(), String> {
    let s = r.space.as_ref().ok_or("no space section")?;
    if s.spilled_bytes > DISK_CACHE_BYTES && DISK_CACHE_BYTES > s.resident_bytes {
        Ok(())
    } else {
        Err(format!(
            "spilled {} / cache {DISK_CACHE_BYTES} / resident {} out of order",
            s.spilled_bytes, s.resident_bytes
        ))
    }
}
