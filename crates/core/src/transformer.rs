//! The weak→probabilistic transformer of §4 of the paper.
//!
//! Every action `A :: guard → S` of the input algorithm becomes
//!
//! ```text
//! Trans(A) :: guard → B ← Rand(true, false); if B then S
//! ```
//!
//! i.e. a scheduled process first tosses a coin into its fresh boolean
//! P-variable `B` and performs the original statement only on heads. The
//! paper proves (Theorems 8 and 9) that if the input is a deterministic
//! weak-stabilizing system with finitely many configurations under a
//! distributed scheduler, the transformed system is probabilistically
//! self-stabilizing under the synchronous *and* the distributed randomized
//! scheduler. The coin simulates a randomized scheduler even when the real
//! scheduler is adversarially synchronous — the conflict-manager idea of
//! Gradinariu–Tixeuil the paper builds on.
//!
//! [`Transformed`] implements the construction generically over any
//! [`Algorithm`]; [`Coined`] is the augmented state `(S, B)`;
//! [`ProjectedLegitimacy`] lifts a legitimacy predicate through the
//! projection (the paper's Definition 7:
//! `L_Prob = {γ : γ|_Det ∈ L_Det}`).

use std::fmt;

use stab_graph::{Graph, NodeId, PortId};

use crate::action::{ActionId, ActionMask};
use crate::algorithm::Algorithm;
use crate::config::Configuration;
use crate::outcome::Outcomes;
use crate::spec::Legitimacy;
use crate::view::View;

/// The transformed local state: the original state plus the coin variable
/// `B` added by `Trans`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Coined<S> {
    /// The original (D-variable) state.
    pub base: S,
    /// The coin `B`: result of the most recent `Rand(true, false)`.
    pub coin: bool,
}

impl<S> Coined<S> {
    /// Pairs a base state with a coin value.
    pub fn new(base: S, coin: bool) -> Self {
        Coined { base, coin }
    }
}

impl<S: fmt::Debug> fmt::Debug for Coined<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}{}", self.base, if self.coin { "⁺" } else { "⁻" })
    }
}

/// A [`View`] over transformed state that exposes only the base components,
/// letting the inner algorithm's guards and statements run unchanged and
/// without copying any state.
pub struct ProjectedView<'a, V> {
    inner: &'a V,
}

impl<'a, V> ProjectedView<'a, V> {
    /// Wraps a view of coined state.
    pub fn new(inner: &'a V) -> Self {
        ProjectedView { inner }
    }
}

impl<S, V: View<Coined<S>>> View<S> for ProjectedView<'_, V> {
    fn node(&self) -> NodeId {
        self.inner.node()
    }

    fn degree(&self) -> usize {
        self.inner.degree()
    }

    fn me(&self) -> &S {
        &self.inner.me().base
    }

    fn neighbor(&self, port: PortId) -> &S {
        &self.inner.neighbor(port).base
    }
}

/// The transformer `Trans(·)` applied to an algorithm.
///
/// The default coin is fair, as in the paper; [`Transformed::with_bias`]
/// generalizes to `P(B = true) = p` for the coin-bias ablation study (the
/// paper's proofs only need `0 < p < 1`).
///
/// ```
/// use stab_core::{Algorithm, Transformed};
/// # use stab_core::{ActionId, ActionMask, Outcomes, View};
/// # use stab_graph::{builders, Graph, NodeId};
/// # struct Toy { g: Graph }
/// # impl Algorithm for Toy {
/// #     type State = bool;
/// #     fn graph(&self) -> &Graph { &self.g }
/// #     fn name(&self) -> String { "toy".into() }
/// #     fn state_space(&self, _n: NodeId) -> Vec<bool> { vec![false, true] }
/// #     fn enabled_actions<V: View<bool>>(&self, v: &V) -> ActionMask {
/// #         ActionMask::when(!*v.me(), ActionId::A1)
/// #     }
/// #     fn apply<V: View<bool>>(&self, _v: &V, _a: ActionId) -> Outcomes<bool> {
/// #         Outcomes::certain(true)
/// #     }
/// # }
/// let t = Transformed::new(Toy { g: builders::path(2) });
/// assert!(t.is_probabilistic());
/// assert_eq!(t.name(), "Trans(toy)");
/// ```
#[derive(Debug, Clone)]
pub struct Transformed<A> {
    inner: A,
    p_heads: f64,
}

impl<A> Transformed<A> {
    /// Transforms `inner` with the paper's fair coin.
    pub fn new(inner: A) -> Self {
        Transformed {
            inner,
            p_heads: 0.5,
        }
    }

    /// Transforms `inner` with a biased coin, `P(B = true) = p_heads`.
    ///
    /// # Panics
    ///
    /// Panics if `p_heads` is not strictly between 0 and 1 (the probability
    /// argument of Theorems 8–9 requires both coin outcomes possible).
    pub fn with_bias(inner: A, p_heads: f64) -> Self {
        assert!(
            p_heads > 0.0 && p_heads < 1.0,
            "coin bias must lie strictly between 0 and 1, got {p_heads}"
        );
        Transformed { inner, p_heads }
    }

    /// The transformed algorithm's coin bias.
    pub fn bias(&self) -> f64 {
        self.p_heads
    }

    /// The untransformed algorithm.
    pub fn inner(&self) -> &A {
        &self.inner
    }
}

impl<A: Algorithm> Transformed<A> {
    /// Projects a transformed configuration onto the inner variables
    /// (`γ|_S_Det` in the paper).
    pub fn project(cfg: &Configuration<Coined<A::State>>) -> Configuration<A::State> {
        cfg.map(|c| c.base.clone())
    }

    /// Lifts an inner configuration by giving every process coin value
    /// `coin`.
    pub fn lift(cfg: &Configuration<A::State>, coin: bool) -> Configuration<Coined<A::State>> {
        cfg.map(|s| Coined::new(s.clone(), coin))
    }
}

impl<A: Algorithm> Algorithm for Transformed<A> {
    type State = Coined<A::State>;

    fn graph(&self) -> &Graph {
        self.inner.graph()
    }

    fn name(&self) -> String {
        if (self.p_heads - 0.5).abs() < f64::EPSILON {
            format!("Trans({})", self.inner.name())
        } else {
            format!("Trans({}, p={})", self.inner.name(), self.p_heads)
        }
    }

    fn state_space(&self, node: NodeId) -> Vec<Self::State> {
        let mut out = Vec::new();
        for base in self.inner.state_space(node) {
            out.push(Coined::new(base.clone(), false));
            out.push(Coined::new(base, true));
        }
        out
    }

    fn enabled_actions<V: View<Self::State>>(&self, view: &V) -> ActionMask {
        // Trans(A) has exactly A's guards (the coin is written, never read).
        self.inner.enabled_actions(&ProjectedView::new(view))
    }

    fn apply<V: View<Self::State>>(&self, view: &V, action: ActionId) -> Outcomes<Self::State> {
        let projected = ProjectedView::new(view);
        let inner_outcomes = self.inner.apply(&projected, action);
        // Heads (prob p): B ← true and the inner statement fires.
        // Tails (prob 1−p): B ← false and the base state is unchanged.
        let unchanged = Coined::new(view.me().base.clone(), false);
        if inner_outcomes.is_certain() {
            let heads = Coined::new(inner_outcomes.into_certain(), true);
            return Outcomes::biased_coin(self.p_heads, heads, unchanged);
        }
        let mut entries: Vec<(f64, Self::State)> = inner_outcomes
            .into_entries()
            .into_iter()
            .map(|(q, s)| (self.p_heads * q, Coined::new(s, true)))
            .collect();
        entries.push((1.0 - self.p_heads, unchanged));
        Outcomes::weighted(entries)
    }

    fn is_initial(&self, cfg: &Configuration<Self::State>) -> bool {
        self.inner.is_initial(&Self::project(cfg))
    }

    fn is_probabilistic(&self) -> bool {
        true
    }
}

/// Definition 7 of the paper: a transformed configuration is legitimate iff
/// its projection on the inner variables is legitimate.
pub struct ProjectedLegitimacy<L> {
    inner: L,
}

impl<L> ProjectedLegitimacy<L> {
    /// Lifts `inner` through the coin projection.
    pub fn new(inner: L) -> Self {
        ProjectedLegitimacy { inner }
    }
}

impl<S: Clone, L: Legitimacy<S>> Legitimacy<Coined<S>> for ProjectedLegitimacy<L> {
    fn name(&self) -> String {
        format!("projected({})", self.inner.name())
    }

    fn is_legitimate(&self, cfg: &Configuration<Coined<S>>) -> bool {
        self.inner.is_legitimate(&cfg.map(|c| c.base.clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::test_support::Infection;
    use crate::scheduler::Activation;
    use crate::semantics::successor_distribution;
    use crate::spec::Predicate;
    use stab_graph::builders;

    fn transformed() -> Transformed<Infection> {
        Transformed::new(Infection {
            g: builders::path(3),
        })
    }

    fn coined(states: &[(u8, bool)]) -> Configuration<Coined<u8>> {
        Configuration::from_vec(states.iter().map(|&(b, c)| Coined::new(b, c)).collect())
    }

    #[test]
    fn state_space_doubles() {
        let t = transformed();
        assert_eq!(t.state_space(NodeId::new(0)).len(), 4); // {0,1} x {F,T}
    }

    #[test]
    fn guards_ignore_the_coin() {
        let t = transformed();
        for coin0 in [false, true] {
            for coin1 in [false, true] {
                let cfg = coined(&[(1, coin0), (0, coin1), (0, false)]);
                assert!(t.is_enabled(&cfg, NodeId::new(1)), "guard must not read B");
                assert!(!t.is_enabled(&cfg, NodeId::new(2)));
            }
        }
    }

    #[test]
    fn apply_is_the_paper_coin_toss() {
        let t = transformed();
        let cfg = coined(&[(1, false), (0, true), (0, false)]);
        let act = Activation::singleton(NodeId::new(1));
        let dist = successor_distribution(&t, &cfg, &act);
        assert_eq!(dist.len(), 2);
        // Heads: base becomes 1 and coin true; tails: base unchanged, coin false.
        let heads = dist
            .iter()
            .find(|(_, c)| *c.get(NodeId::new(1)) == Coined::new(1, true))
            .expect("heads branch present");
        let tails = dist
            .iter()
            .find(|(_, c)| *c.get(NodeId::new(1)) == Coined::new(0, false))
            .expect("tails branch present");
        assert!((heads.0 - 0.5).abs() < 1e-12);
        assert!((tails.0 - 0.5).abs() < 1e-12);
    }

    #[test]
    fn biased_coin_changes_probabilities() {
        let t = Transformed::with_bias(
            Infection {
                g: builders::path(3),
            },
            0.9,
        );
        let cfg = coined(&[(1, false), (0, false), (0, false)]);
        let act = Activation::singleton(NodeId::new(1));
        let dist = successor_distribution(&t, &cfg, &act);
        let heads = dist
            .iter()
            .find(|(_, c)| c.get(NodeId::new(1)).coin)
            .unwrap();
        assert!((heads.0 - 0.9).abs() < 1e-12);
        assert!(t.name().contains("p=0.9"));
    }

    #[test]
    #[should_panic(expected = "strictly between 0 and 1")]
    fn bias_validation() {
        let _ = Transformed::with_bias(
            Infection {
                g: builders::path(2),
            },
            0.0,
        );
    }

    #[test]
    fn project_and_lift_are_inverse() {
        let base = Configuration::from_vec(vec![1u8, 0, 1]);
        let lifted = Transformed::<Infection>::lift(&base, true);
        assert!(lifted.states().iter().all(|c| c.coin));
        let projected = Transformed::<Infection>::project(&lifted);
        assert_eq!(projected, base);
    }

    #[test]
    fn projected_legitimacy_ignores_coins() {
        let spec = ProjectedLegitimacy::new(Predicate::new("all-ones", |c: &Configuration<u8>| {
            c.states().iter().all(|&s| s == 1)
        }));
        assert!(spec.is_legitimate(&coined(&[(1, true), (1, false)])));
        assert!(!spec.is_legitimate(&coined(&[(1, true), (0, true)])));
        assert_eq!(spec.name(), "projected(all-ones)");
    }

    #[test]
    fn transformed_name_and_flags() {
        let t = transformed();
        assert_eq!(t.name(), "Trans(infection)");
        assert!(t.is_probabilistic());
        assert!(!t.inner().is_probabilistic());
        assert!((t.bias() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn coined_debug_marks_coin() {
        assert_eq!(format!("{:?}", Coined::new(3u8, true)), "3⁺");
        assert_eq!(format!("{:?}", Coined::new(3u8, false)), "3⁻");
    }
}
