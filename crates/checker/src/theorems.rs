//! The paper's theorems, phrased as checkable statements over finite
//! instances. Each function returns a machine verdict used by the
//! integration tests and the experiment binaries.

use stab_core::{Algorithm, CoreError, DaemonSpec, Fairness, Legitimacy};

use crate::analysis::{analyze, StabilizationReport};

/// **Theorem 1**: under a synchronous scheduler, a deterministic algorithm
/// is weak-stabilizing iff it is self-stabilizing. Returns the two verdicts;
/// [`Theorem1::holds`] checks their equivalence.
#[derive(Debug, Clone)]
pub struct Theorem1 {
    /// The full synchronous-daemon report.
    pub report: StabilizationReport,
}

impl Theorem1 {
    /// Whether the equivalence holds on this instance.
    pub fn holds(&self) -> bool {
        // Self-stabilization under the synchronous scheduler = certain
        // convergence over the unique synchronous execution; fairness is
        // vacuous there, so the unfair verdict is the self verdict.
        !self.report.deterministic || (self.report.weak.holds() == self.report.self_unfair.holds())
    }
}

/// Checks Theorem 1 on a deterministic instance.
///
/// # Errors
///
/// Propagates exploration errors.
pub fn theorem1<A, L>(alg: &A, spec: &L, cap: u64) -> Result<Theorem1, CoreError>
where
    A: Algorithm + Sync,
    A::State: Sync,
    L: Legitimacy<A::State> + Sync,
{
    Ok(Theorem1 {
        report: analyze(alg, DaemonSpec::synchronous(), spec, cap)?,
    })
}

/// **Theorems 5 & 7**: for a finite system, self-stabilization under
/// Gouda's strong fairness, probabilistic self-stabilization under the
/// randomized scheduler, and (given closure) weak stabilization are
/// equivalent. Returns whether the three verdicts of `report` agree.
pub fn theorem5_and_7_agree(report: &StabilizationReport) -> bool {
    let gouda = report.self_under(Fairness::Gouda).holds();
    let prob = report.probabilistic.holds();
    let weak = report.weak.holds();
    gouda == prob && (!report.closure.holds() || gouda == weak)
}

/// **Theorem 6**: the classical strongly fair scheduler is strictly weaker
/// than Gouda's fairness — witnessed by an instance that converges under
/// Gouda fairness but has a strongly-fair non-converging lasso.
pub fn theorem6_separation(report: &StabilizationReport) -> bool {
    report.self_under(Fairness::Gouda).holds() && !report.self_under(Fairness::StronglyFair).holds()
}

#[cfg(test)]
mod tests {
    use super::*;
    use stab_algorithms::{GreedyColoring, TokenCirculation, TwoProcessToggle};
    use stab_graph::builders;

    const CAP: u64 = 1 << 22;

    #[test]
    fn theorem1_on_the_zoo() {
        let ring = builders::ring(5);
        let tc = TokenCirculation::on_ring(&ring).unwrap();
        let t = theorem1(&tc, &tc.legitimacy(), CAP).unwrap();
        assert!(t.holds());

        let toggle = TwoProcessToggle::new();
        let t = theorem1(&toggle, &toggle.legitimacy(), CAP).unwrap();
        assert!(t.holds());
        // For the toggle, weak and self agree *positively* under the
        // synchronous daemon: the unique synchronous run converges.
        assert!(t.report.weak.holds());
        assert!(t.report.self_unfair.holds());

        let path = builders::path(4);
        let col = GreedyColoring::new(&path).unwrap();
        let t = theorem1(&col, &col.legitimacy(), CAP).unwrap();
        assert!(t.holds());
        // For coloring both fail under the synchronous daemon (symmetry).
        assert!(!t.report.weak.holds());
        assert!(!t.report.self_unfair.holds());
    }

    #[test]
    fn theorem6_on_algorithm1() {
        let ring = builders::ring(6);
        let tc = TokenCirculation::on_ring(&ring).unwrap();
        let report = analyze(&tc, DaemonSpec::distributed(), &tc.legitimacy(), CAP).unwrap();
        assert!(theorem6_separation(&report));
        assert!(theorem5_and_7_agree(&report));
    }
}
