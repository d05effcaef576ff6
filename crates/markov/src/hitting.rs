//! Expected hitting times and hitting-time distributions.
//!
//! Every solve goes through one tier dispatch and one solver call for all
//! its right-hand sides: dense elimination up to `DENSE_LIMIT` (600)
//! transient states, Gauss–Seidel above it. Gauss–Seidel works through
//! `Q`'s strongly connected blocks sinks first
//! ([`linalg::gauss_seidel_multi`]); each side freezes per block at its
//! own tolerance, so the fused expected-times-and-absorption solve is bit
//! identical to the two solo solves, and a chain whose transient states
//! form one block iterates exactly as a whole-chain sweep would.
//!
//! The blocks come from the chain's one walk of `Q`, the walk that also
//! decided [`AbsorbingChain::almost_surely_absorbing`], so a solve walks
//! `Q` only if no absorption check ran before it. On the compressed and
//! disk tiers each block is decoded once into the solver's flat scratch
//! while that fits the engine's byte budget (`DEFAULT_BYTE_BUDGET`), and
//! swept from the store otherwise (see [`linalg`]); a flat `Q` is swept
//! in place, its rows being flat already.

use stab_core::engine::{Budget, Components, DEFAULT_BYTE_BUDGET};
use stab_core::{Configuration, LocalState};

use crate::chain::AbsorbingChain;
use crate::error::MarkovError;
use crate::linalg;
use crate::qstore::{QRows, QStorage};

/// Above this many transient states the sparse Gauss–Seidel solver replaces
/// dense Gaussian elimination.
const DENSE_LIMIT: usize = 600;

/// Residual tolerance of the iterative solver.
const TOL: f64 = 1e-12;

/// Per-configuration expected stabilization times `t = (I − Q)⁻¹ 1`.
#[derive(Debug, Clone)]
pub struct HittingTimes {
    times: Vec<f64>,
}

impl HittingTimes {
    /// Expected steps from the transient state with the given index.
    pub fn of_transient(&self, idx: usize) -> f64 {
        self.times[idx]
    }

    /// The worst-case expected stabilization time over all configurations
    /// (legitimate ones contribute 0).
    pub fn worst_case(&self) -> f64 {
        self.times.iter().copied().fold(0.0, f64::max)
    }

    /// The transient index attaining the worst case, if any transient state
    /// exists.
    pub fn worst_index(&self) -> Option<usize> {
        (0..self.times.len()).max_by(|&i, &j| self.times[i].total_cmp(&self.times[j]))
    }

    /// The average expected stabilization time over a *uniformly random
    /// initial configuration* of the full space with `total` configurations
    /// (legitimate configurations count 0 steps).
    pub fn average_uniform(&self, total: u64) -> f64 {
        assert!(
            total as usize >= self.times.len(),
            "total below transient count"
        );
        self.times.iter().sum::<f64>() / total as f64
    }

    /// The weighted average `Σ wᵢ·tᵢ / total`: the uniform-initial average
    /// of a **quotient** chain, where transient state `i` stands for `wᵢ`
    /// concrete configurations
    /// ([`AbsorbingChain::transient_orbits`]) and `total` is the
    /// represented configuration count
    /// ([`AbsorbingChain::represented_configs`]). With unit weights this
    /// reduces to [`HittingTimes::average_uniform`].
    ///
    /// # Panics
    ///
    /// Panics if `weights` has the wrong length or `total` is below the
    /// total weight of the transient states.
    pub fn average_weighted(&self, weights: &[u64], total: u64) -> f64 {
        assert_eq!(weights.len(), self.times.len(), "weight length mismatch");
        let mass: u64 = weights.iter().sum();
        assert!(total >= mass, "total below total transient weight");
        self.times
            .iter()
            .zip(weights)
            .map(|(t, &w)| t * w as f64)
            .sum::<f64>()
            / total as f64
    }

    /// All transient expected times.
    pub fn as_slice(&self) -> &[f64] {
        &self.times
    }
}

/// Solves `(I − Q) x = b` for every side in `bs` on one concrete `Q` tier:
/// budget-probed Gauss–Seidel over the chain's `blocks` when given (above
/// [`DENSE_LIMIT`] rows), its block scratch bounded by `bound` bytes, and
/// dense Gaussian elimination otherwise.
fn solve_on<M: QRows, const K: usize>(
    q: &M,
    blocks: Option<&Components>,
    bs: [&[f64]; K],
    budget: &Budget,
    bound: u64,
) -> Result<[Vec<f64>; K], MarkovError> {
    if let Some(blocks) = blocks {
        return linalg::gauss_seidel_blocks(q, blocks, bs, TOL, 1_000_000, budget, bound);
    }
    let n = q.n_rows();
    let mut a = vec![vec![0.0; n]; n];
    for (i, row) in a.iter_mut().enumerate() {
        row[i] = 1.0;
        for (j, p) in q.row_iter(i) {
            row[j as usize] -= p;
        }
    }
    linalg::solve_dense_multi(a, bs.map(<[f64]>::to_vec))
}

impl<S: LocalState> AbsorbingChain<S> {
    /// Solves `(I − Q) x = b` for every right-hand side in `bs` with one
    /// solve (see [`solve_on`]). The `Q` tier is dispatched once here, so
    /// the solver's inner loop runs on the concrete store. One entry probe
    /// of the `solver` stage covers the dense path (whose runtime is
    /// bounded by the limit); a chain without transient states solves
    /// trivially, unprobed.
    fn solve_fundamental<const K: usize>(
        &self,
        bs: [&[f64]; K],
        budget: &Budget,
    ) -> Result<[Vec<f64>; K], MarkovError> {
        if self.n_transient() == 0 {
            return Ok(std::array::from_fn(|_| Vec::new()));
        }
        budget.probe("solver", 0, 0)?;
        let blocks = (self.n_transient() > DENSE_LIMIT).then(|| &self.decomposition().0);
        match self.q() {
            // A flat row is a slice already: a scratch would only copy it.
            QStorage::Flat(q) => solve_on(q, blocks, bs, budget, 0),
            QStorage::Stream(q) => solve_on(q, blocks, bs, budget, DEFAULT_BYTE_BUDGET),
        }
    }

    /// Solves `(I − Q) t = 1` for the expected stabilization times.
    ///
    /// # Errors
    ///
    /// [`MarkovError::NotAbsorbing`] if some configuration cannot reach
    /// `L` (infinite expected time); solver errors otherwise.
    pub fn expected_steps(&self) -> Result<HittingTimes, MarkovError> {
        self.expected_steps_with(&Budget::unlimited())
    }

    /// [`AbsorbingChain::expected_steps`] under a cooperative [`Budget`]:
    /// the iterative solver probes the `solver` stage each sweep, so an
    /// exhausted wall-clock budget surfaces as
    /// [`MarkovError::Core`]`(BudgetExhausted)` instead of iterating to
    /// the sweep cap.
    ///
    /// # Errors
    ///
    /// As [`AbsorbingChain::expected_steps`], plus the budget error above.
    pub fn expected_steps_with(&self, budget: &Budget) -> Result<HittingTimes, MarkovError> {
        self.almost_surely_absorbing()?;
        let [times] = self.solve_fundamental([&vec![1.0; self.n_transient()]], budget)?;
        Ok(HittingTimes { times })
    }

    /// The expected stabilization times and the absorption probabilities
    /// from one solve with both right-hand sides (`1` and the one-step
    /// absorption vector): each `Q` row is decoded once per sweep for
    /// both. The results are bit-identical to
    /// [`AbsorbingChain::expected_steps_with`] and
    /// [`AbsorbingChain::absorption_probabilities_with`].
    ///
    /// # Errors
    ///
    /// [`MarkovError::NotAbsorbing`] before any solving when absorption is
    /// not almost sure; otherwise the first failing side's solver error
    /// (expected times first), or the budget error.
    pub fn expected_steps_and_absorption_with(
        &self,
        budget: &Budget,
    ) -> Result<(HittingTimes, Vec<f64>), MarkovError> {
        self.almost_surely_absorbing()?;
        let ones = vec![1.0; self.n_transient()];
        let [times, absorption] = self.solve_fundamental([&ones, self.absorb()], budget)?;
        Ok((HittingTimes { times }, absorption))
    }

    /// The expected stabilization time from a specific configuration
    /// (0 when legitimate).
    ///
    /// # Panics
    ///
    /// Panics if `cfg` was not explored (possible in reachable mode) —
    /// its expected time is unknown, not 0; probe with
    /// [`AbsorbingChain::is_explored`] first.
    pub fn expected_from(&self, times: &HittingTimes, cfg: &Configuration<S>) -> f64 {
        match self.transient_index(cfg) {
            None => {
                assert!(
                    self.is_explored(cfg),
                    "configuration {cfg:?} was not explored; its expected time is unknown"
                );
                0.0
            }
            Some(i) => times.of_transient(i),
        }
    }

    /// Solves the reward equation `(I − Q) x = r` for an arbitrary
    /// per-step reward vector `r` over the transient states: `x(γ)` is the
    /// expected accumulated reward before absorption.
    ///
    /// # Errors
    ///
    /// [`MarkovError::NotAbsorbing`] when absorption is not almost sure;
    /// solver errors otherwise.
    ///
    /// # Panics
    ///
    /// Panics if `reward` has the wrong length.
    pub fn expected_reward(&self, reward: &[f64]) -> Result<HittingTimes, MarkovError> {
        assert_eq!(reward.len(), self.n_transient(), "reward length mismatch");
        self.almost_surely_absorbing()?;
        let [times] = self.solve_fundamental([reward], &Budget::unlimited())?;
        Ok(HittingTimes { times })
    }

    /// Exact expected number of process activations (*moves*) before
    /// stabilization: the reward solve with the per-step expected
    /// activation sizes. Under the central daemon this equals
    /// [`AbsorbingChain::expected_steps`]; under the synchronous daemon it
    /// counts total work.
    ///
    /// # Errors
    ///
    /// As for [`AbsorbingChain::expected_reward`].
    pub fn expected_moves(&self) -> Result<HittingTimes, MarkovError> {
        self.expected_reward(self.step_moves())
    }

    /// Absorption probabilities per transient state, `a = (I − Q)⁻¹ r`
    /// with `r` the one-step absorption vector. For probabilistically
    /// self-stabilizing systems this is the all-ones vector — a numeric
    /// re-verification of Theorems 8–9.
    ///
    /// # Errors
    ///
    /// Solver errors only; this does not require almost-sure absorption.
    pub fn absorption_probabilities(&self) -> Result<Vec<f64>, MarkovError> {
        self.absorption_probabilities_with(&Budget::unlimited())
    }

    /// [`AbsorbingChain::absorption_probabilities`] under a cooperative
    /// [`Budget`] (`solver`-stage probes, as
    /// [`AbsorbingChain::expected_steps_with`]).
    ///
    /// # Errors
    ///
    /// Solver errors, plus [`MarkovError::Core`]`(BudgetExhausted)` when a
    /// probe trips.
    pub fn absorption_probabilities_with(&self, budget: &Budget) -> Result<Vec<f64>, MarkovError> {
        let [probs] = self.solve_fundamental([self.absorb()], budget)?;
        Ok(probs)
    }

    /// The CDF of the stabilization time from the uniform initial
    /// distribution over the *represented* configurations:
    /// `cdf[k] = P(stabilized within k steps)`, for `k = 0..=horizon`.
    ///
    /// On a full-sweep chain the represented set is the whole space (the
    /// PR 1 semantics); on a quotient chain every transient state carries
    /// its orbit's mass, so the CDF equals the full-space CDF exactly; on
    /// a reachable-mode chain the distribution is uniform over the
    /// explored (reached) configurations.
    pub fn hitting_cdf_uniform(&self, horizon: usize) -> Vec<f64> {
        let n = self.n_transient();
        let total = self.represented_configs() as f64;
        // Initially the legitimate mass is already absorbed; transient
        // state i starts with the mass of its whole orbit.
        let transient_mass: u64 = self.transient_orbits().iter().sum();
        let mut absorbed = (total - transient_mass as f64) / total;
        let mut mass: Vec<f64> = self
            .transient_orbits()
            .iter()
            .map(|&o| o as f64 / total)
            .collect();
        let mut cdf = Vec::with_capacity(horizon + 1);
        cdf.push(absorbed);
        for _ in 0..horizon {
            let mut next = vec![0.0; n];
            for (i, &m) in mass.iter().enumerate() {
                if m == 0.0 {
                    continue;
                }
                absorbed += m * self.absorb()[i];
                for (j, q) in self.q().row_iter(i) {
                    next[j as usize] += m * q;
                }
            }
            mass = next;
            cdf.push(absorbed);
        }
        cdf
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stab_algorithms::{DijkstraRing, HermanRing, TokenCirculation, TwoProcessToggle};
    use stab_core::{DaemonSpec, ProjectedLegitimacy, Transformed};
    use stab_graph::builders;

    /// Trans(Algorithm 3) under the synchronous daemon, solved by hand on
    /// the projection chain: from (F,F) both processes toss, giving (T,T)
    /// with ¼ (absorbed), a half-raised state with ½, and (F,F) again with
    /// ¼; from a half-raised state only one process is enabled, lowering
    /// with ½ back to (F,F) or staying. The equations
    /// `t_ff = 1 + ½·t_h + ¼·t_ff` and `t_h = 1 + ½·t_h + ½·t_ff`
    /// solve to `t_h = 2 + t_ff`, hence `t_ff = 8` and `t_h = 10`.
    #[test]
    fn transformed_toggle_exact_times() {
        let a = Transformed::new(TwoProcessToggle::new());
        let spec = ProjectedLegitimacy::new(TwoProcessToggle::new().legitimacy());
        let chain = AbsorbingChain::build(&a, DaemonSpec::synchronous(), &spec, 1 << 12).unwrap();
        let times = chain.expected_steps().unwrap();
        // From any coined configuration projecting to (F,F):
        let ff = Transformed::<TwoProcessToggle>::lift(
            &Configuration::from_vec(vec![false, false]),
            false,
        );
        let t = chain.expected_from(&times, &ff);
        assert!((t - 8.0).abs() < 1e-9, "expected 8, got {t}");
        let half = Transformed::<TwoProcessToggle>::lift(
            &Configuration::from_vec(vec![true, false]),
            false,
        );
        let th = chain.expected_from(&times, &half);
        assert!((th - 10.0).abs() < 1e-9, "expected 10, got {th}");
    }

    /// Theorems 8–9 numerically: absorption probability 1 under the
    /// synchronous and the distributed randomized scheduler. The *central*
    /// randomized scheduler is deliberately excluded — and asserted to
    /// fail — because Algorithm 3 needs a simultaneous move, which no
    /// central scheduler (randomized or not) can provide. This is exactly
    /// why the paper's transformer keeps synchronous steps possible.
    #[test]
    fn absorption_probabilities_are_one_for_transformed_systems() {
        let a = Transformed::new(TwoProcessToggle::new());
        let spec = ProjectedLegitimacy::new(TwoProcessToggle::new().legitimacy());
        for daemon in [DaemonSpec::synchronous(), DaemonSpec::distributed()] {
            let chain = AbsorbingChain::build(&a, daemon, &spec, 1 << 12).unwrap();
            let probs = chain.absorption_probabilities().unwrap();
            for (i, p) in probs.iter().enumerate() {
                assert!(
                    (p - 1.0).abs() < 1e-9,
                    "absorption {p} from {} under {daemon}",
                    chain.render(i)
                );
            }
        }
        let central = AbsorbingChain::build(&a, DaemonSpec::central(), &spec, 1 << 12).unwrap();
        let probs = central.absorption_probabilities().unwrap();
        assert!(
            probs.iter().any(|p| *p < 1e-9),
            "the central scheduler cannot converge Algorithm 3, even transformed"
        );
    }

    #[test]
    fn herman3_expected_times_are_finite_and_positive() {
        let a = HermanRing::on_ring(&builders::ring(3)).unwrap();
        let chain =
            AbsorbingChain::build(&a, DaemonSpec::synchronous(), &a.legitimacy(), 1 << 12).unwrap();
        let times = chain.expected_steps().unwrap();
        // The two transient states are the uniform configurations, where
        // all three tokens coexist; each process flips a fair coin, and the
        // step absorbs unless the outcome is uniform again (prob 2/8):
        // t = 1 + (2/8)·t  =>  t = 4/3.
        for i in 0..chain.n_transient() {
            let t = times.of_transient(i);
            assert!((t - 4.0 / 3.0).abs() < 1e-9, "expected 4/3, got {t}");
        }
    }

    #[test]
    fn dijkstra_central_times_match_dense_and_sparse() {
        let a = DijkstraRing::on_ring(&builders::ring(4)).unwrap();
        let chain =
            AbsorbingChain::build(&a, DaemonSpec::central(), &a.legitimacy(), 1 << 20).unwrap();
        let times = chain.expected_steps().unwrap();
        // Cross-validate dense against Gauss–Seidel on the same rows.
        let n = chain.n_transient();
        let QStorage::Flat(q) = chain.q() else {
            unreachable!("a default build stores Q flat")
        };
        let gs = linalg::gauss_seidel(q, &vec![1.0; n], 1e-12, 1_000_000).unwrap();
        for (i, g) in gs.iter().enumerate() {
            assert!((times.of_transient(i) - g).abs() < 1e-7);
        }
        assert!(times.worst_case() > 0.0);
        assert!(times.average_uniform(chain.n_configs()) <= times.worst_case());
    }

    #[test]
    fn token_ring_transformed_times_decrease_toward_legitimacy() {
        let base = TokenCirculation::on_ring(&builders::ring(3)).unwrap();
        let spec = ProjectedLegitimacy::new(base.legitimacy());
        let a = Transformed::new(TokenCirculation::on_ring(&builders::ring(3)).unwrap());
        let chain = AbsorbingChain::build(&a, DaemonSpec::distributed(), &spec, 1 << 20).unwrap();
        let times = chain.expected_steps().unwrap();
        assert!(times.worst_case().is_finite());
        assert!(times.worst_case() > 0.0);
    }

    #[test]
    fn cdf_is_monotone_and_approaches_one() {
        let a = Transformed::new(TwoProcessToggle::new());
        let spec = ProjectedLegitimacy::new(TwoProcessToggle::new().legitimacy());
        let chain = AbsorbingChain::build(&a, DaemonSpec::synchronous(), &spec, 1 << 12).unwrap();
        let cdf = chain.hitting_cdf_uniform(200);
        for w in cdf.windows(2) {
            assert!(w[1] >= w[0] - 1e-12, "CDF must be monotone");
        }
        assert!(
            cdf[0] > 0.0,
            "legitimate initial mass is absorbed at time 0"
        );
        assert!(
            (cdf.last().unwrap() - 1.0).abs() < 1e-6,
            "mass absorbs eventually"
        );
    }

    #[test]
    fn budgeted_solves_degrade_or_match_unlimited() {
        let a = Transformed::new(TwoProcessToggle::new());
        let spec = ProjectedLegitimacy::new(TwoProcessToggle::new().legitimacy());
        let chain = AbsorbingChain::build(&a, DaemonSpec::synchronous(), &spec, 1 << 12).unwrap();
        let expired = Budget::unlimited().with_wall_time(std::time::Duration::ZERO);
        assert!(matches!(
            chain.expected_steps_with(&expired),
            Err(MarkovError::Core(stab_core::CoreError::BudgetExhausted {
                stage: "solver",
                ..
            }))
        ));
        assert!(matches!(
            chain.absorption_probabilities_with(&expired),
            Err(MarkovError::Core(_))
        ));
        // Unlimited budgets reproduce the plain results exactly.
        let plain = chain.expected_steps().unwrap();
        let budgeted = chain.expected_steps_with(&Budget::unlimited()).unwrap();
        assert_eq!(plain.as_slice(), budgeted.as_slice());
    }

    #[test]
    fn non_absorbing_chain_reports_error() {
        let a = TwoProcessToggle::new();
        let chain =
            AbsorbingChain::build(&a, DaemonSpec::central(), &a.legitimacy(), 1 << 12).unwrap();
        assert!(matches!(
            chain.expected_steps(),
            Err(MarkovError::NotAbsorbing { .. })
        ));
    }

    #[test]
    fn expected_moves_equal_steps_under_central_daemon() {
        // Central daemon: exactly one move per step, so the two solves
        // coincide state by state.
        let a = TokenCirculation::on_ring(&builders::ring(4)).unwrap();
        let chain =
            AbsorbingChain::build(&a, DaemonSpec::central(), &a.legitimacy(), 1 << 20).unwrap();
        let steps = chain.expected_steps().unwrap();
        let moves = chain.expected_moves().unwrap();
        for i in 0..chain.n_transient() {
            assert!((steps.of_transient(i) - moves.of_transient(i)).abs() < 1e-9);
        }
    }

    #[test]
    fn expected_moves_exceed_steps_under_synchronous_daemon() {
        let a = Transformed::new(TwoProcessToggle::new());
        let spec = ProjectedLegitimacy::new(TwoProcessToggle::new().legitimacy());
        let chain = AbsorbingChain::build(&a, DaemonSpec::synchronous(), &spec, 1 << 12).unwrap();
        let steps = chain.expected_steps().unwrap();
        let moves = chain.expected_moves().unwrap();
        for i in 0..chain.n_transient() {
            assert!(moves.of_transient(i) >= steps.of_transient(i) - 1e-9);
        }
        assert!(moves.worst_case() > steps.worst_case());
    }

    #[test]
    fn unit_reward_recovers_expected_steps() {
        let a = HermanRing::on_ring(&builders::ring(5)).unwrap();
        let chain =
            AbsorbingChain::build(&a, DaemonSpec::synchronous(), &a.legitimacy(), 1 << 12).unwrap();
        let steps = chain.expected_steps().unwrap();
        let unit = chain
            .expected_reward(&vec![1.0; chain.n_transient()])
            .unwrap();
        for i in 0..chain.n_transient() {
            assert!((steps.of_transient(i) - unit.of_transient(i)).abs() < 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "reward length mismatch")]
    fn reward_length_checked() {
        let a = TwoProcessToggle::new();
        let chain =
            AbsorbingChain::build(&a, DaemonSpec::distributed(), &a.legitimacy(), 1 << 12).unwrap();
        let _ = chain.expected_reward(&[1.0]);
    }

    #[test]
    fn worst_index_points_at_worst_case() {
        let a = TokenCirculation::on_ring(&builders::ring(4)).unwrap();
        let chain =
            AbsorbingChain::build(&a, DaemonSpec::central(), &a.legitimacy(), 1 << 20).unwrap();
        let times = chain.expected_steps().unwrap();
        let worst = times.worst_index().unwrap();
        assert!((times.of_transient(worst) - times.worst_case()).abs() < 1e-12);
    }
}
