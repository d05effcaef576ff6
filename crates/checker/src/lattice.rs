//! Verdict propagation along the daemon lattice.
//!
//! Every stabilization property this crate decides is universally
//! quantified over the executions a daemon can produce, and
//! [`DaemonSpec::refines`] orders daemons by execution inclusion:
//! `a.refines(b)` means every execution of `a` is an execution of `b`.
//! Two propagation rules follow immediately:
//!
//! * **holds flows down** — a property that holds under `b` holds under
//!   every `a` refining `b` (fewer executions to satisfy);
//! * **counterexamples flow up** — an execution violating the property
//!   under `a` is also an execution of every `b` that `a` refines, so the
//!   property fails there too.
//!
//! [`VerdictPropagator`] accumulates `(daemon, holds?)` observations of
//! *one* property and answers what they imply at any other lattice point,
//! so a study sweeping many lattice points can skip the model checking
//! wherever the order already decides the answer.
//!
//! ```
//! use stab_checker::lattice::{Implied, VerdictPropagator};
//! use stab_core::DaemonSpec;
//!
//! let mut prop = VerdictPropagator::new();
//! // Observed: the property holds under the distributed daemon.
//! prop.record(DaemonSpec::distributed(), true);
//! // Every restriction of it is decided for free...
//! assert_eq!(prop.implied(DaemonSpec::central()), Implied::Holds);
//! assert_eq!(prop.implied(DaemonSpec::locally_central()), Implied::Holds);
//! assert_eq!(prop.implied(DaemonSpec::synchronous()), Implied::Holds);
//! // ...but nothing follows at incomparable or coarser points.
//! ```

use stab_core::DaemonSpec;

/// What the refinement order implies about the property at one lattice
/// point, given the recorded observations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Implied {
    /// Some observed point the target refines holds, so the target holds.
    Holds,
    /// Some observed counterexample point refines the target, so the
    /// target fails.
    Fails,
    /// The order decides nothing; the target must be checked directly.
    Unknown,
}

/// Accumulated `(daemon, holds?)` observations of one universally
/// quantified property, queried through the refinement order.
#[derive(Debug, Clone, Default)]
pub struct VerdictPropagator {
    observations: Vec<(DaemonSpec, bool)>,
}

impl VerdictPropagator {
    /// An empty propagator (every query answers [`Implied::Unknown`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Records that the property was checked directly under `daemon`.
    pub fn record(&mut self, daemon: DaemonSpec, holds: bool) {
        self.observations.push((daemon, holds));
    }

    /// The recorded observations, in insertion order.
    pub fn observations(&self) -> &[(DaemonSpec, bool)] {
        &self.observations
    }

    /// What the observations imply at `target` — a direct observation of
    /// `target` itself counts (every daemon refines itself).
    pub fn implied(&self, target: DaemonSpec) -> Implied {
        if self
            .observations
            .iter()
            .any(|&(d, holds)| holds && target.refines(d))
        {
            return Implied::Holds;
        }
        if self
            .observations
            .iter()
            .any(|&(d, holds)| !holds && d.refines(target))
        {
            return Implied::Fails;
        }
        Implied::Unknown
    }

    /// Whether the observations are mutually consistent: no observed
    /// counterexample point may refine an observed holding point (its
    /// violating execution would live under both). An inconsistency means
    /// a checking bug, not a property of the system.
    pub fn is_consistent(&self) -> bool {
        !self.observations.iter().any(|&(fail_at, holds)| {
            !holds
                && self
                    .observations
                    .iter()
                    .any(|&(hold_at, h)| h && fail_at.refines(hold_at))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stab_core::{Boundedness, DaemonSpec, Fairness};

    #[test]
    fn holds_flows_down_the_order() {
        let mut p = VerdictPropagator::new();
        p.record(DaemonSpec::distributed(), true);
        for d in DaemonSpec::LEGACY {
            assert_eq!(p.implied(d), Implied::Holds, "{d} refines distributed");
        }
        // A weakly fair restriction of the distributed daemon is decided
        // too; a *coarser* fairness is not expressible here (unfair is
        // already the bottom), but an incomparable bound-only point is.
        let weakly = DaemonSpec::distributed().with_fairness(Fairness::WeaklyFair);
        assert_eq!(p.implied(weakly), Implied::Holds);
    }

    #[test]
    fn counterexamples_flow_up_the_order() {
        let mut p = VerdictPropagator::new();
        p.record(DaemonSpec::central(), false);
        assert_eq!(p.implied(DaemonSpec::distributed()), Implied::Fails);
        assert_eq!(p.implied(DaemonSpec::locally_central()), Implied::Fails);
        // The synchronous daemon does not contain central's executions.
        assert_eq!(p.implied(DaemonSpec::synchronous()), Implied::Unknown);
    }

    #[test]
    fn direct_observations_answer_their_own_point() {
        let mut p = VerdictPropagator::new();
        let point = DaemonSpec::locally_central()
            .with_fairness(Fairness::StronglyFair)
            .with_bound(Boundedness::EnabledBounded(2));
        p.record(point, false);
        assert_eq!(p.implied(point), Implied::Fails);
        assert_eq!(p.implied(DaemonSpec::central()), Implied::Unknown);
    }

    #[test]
    fn consistency_detects_an_impossible_pair() {
        let mut p = VerdictPropagator::new();
        p.record(DaemonSpec::distributed(), true);
        assert!(p.is_consistent());
        // A counterexample under a refinement of a holding point is a
        // checking bug.
        p.record(DaemonSpec::central(), false);
        assert!(!p.is_consistent());
    }
}
