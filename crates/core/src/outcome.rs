//! Finite probability distributions over successor states.
//!
//! The paper distinguishes *D-variables* (deterministically assigned) from
//! *P-variables* (randomly assigned via `Rand`). [`Outcomes`] represents the
//! result of executing one action: a finite distribution over the process's
//! next local state. Deterministic actions yield a singleton; the
//! transformer's coin toss yields a two-point distribution.

use std::fmt;

use rand::Rng;

/// Tolerance for validating that probabilities sum to one.
const PROB_EPS: f64 = 1e-9;

/// A finite probability distribution over successor local states, produced
/// by executing a single action of a single process.
///
/// Probabilities are strictly positive and sum to 1 (validated on
/// construction, duplicates merged).
///
/// One- and two-point distributions (every deterministic action, every
/// coin toss) are stored inline and touch no heap; only distributions
/// with three or more outcomes keep their entries in a `Vec`.
///
/// ```
/// use stab_core::Outcomes;
/// let o = Outcomes::fair_coin(0u8, 1u8);
/// assert_eq!(o.entries().len(), 2);
/// assert!(!o.is_certain());
/// assert_eq!(Outcomes::certain(5u8).entries(), &[(1.0, 5u8)]);
/// ```
#[derive(Clone)]
pub struct Outcomes<S>(Entries<S>);

/// The entries of an [`Outcomes`], inline up to two.
#[derive(Clone)]
enum Entries<S> {
    One([(f64, S); 1]),
    Two([(f64, S); 2]),
    Many(Vec<(f64, S)>),
}

impl<S> From<Vec<(f64, S)>> for Entries<S> {
    fn from(entries: Vec<(f64, S)>) -> Self {
        match <[_; 1]>::try_from(entries) {
            Ok(one) => Entries::One(one),
            Err(entries) => match <[_; 2]>::try_from(entries) {
                Ok(two) => Entries::Two(two),
                Err(many) => Entries::Many(many),
            },
        }
    }
}

impl<S: PartialEq> PartialEq for Outcomes<S> {
    fn eq(&self, other: &Self) -> bool {
        self.entries() == other.entries()
    }
}

impl<S: PartialEq> Outcomes<S> {
    /// A deterministic outcome: the next state with probability 1.
    pub fn certain(state: S) -> Self {
        Outcomes(Entries::One([(1.0, state)]))
    }

    /// A fair coin: each state with probability ½, as in the paper's
    /// transformer `B ← Rand(true, false)`. If both states are equal the
    /// distribution collapses to a certain outcome.
    pub fn fair_coin(heads: S, tails: S) -> Self {
        Self::biased_coin(0.5, heads, tails)
    }

    /// A biased coin: `heads` with probability `p_heads`, `tails` with
    /// probability `1 − p_heads`. Used by the coin-bias ablation study.
    ///
    /// # Panics
    ///
    /// Panics if `p_heads` is not strictly between 0 and 1.
    pub fn biased_coin(p_heads: f64, heads: S, tails: S) -> Self {
        assert!(
            p_heads > 0.0 && p_heads < 1.0,
            "coin bias must lie strictly between 0 and 1, got {p_heads}"
        );
        if heads == tails {
            return Self::certain(heads);
        }
        Outcomes(Entries::Two([(p_heads, heads), (1.0 - p_heads, tails)]))
    }

    /// A distribution from explicit weights.
    ///
    /// Entries with equal states are merged; all probabilities must be
    /// strictly positive and sum to 1 within `1e-9`.
    ///
    /// # Panics
    ///
    /// Panics on an empty list, non-positive weights, or weights that do not
    /// sum to 1.
    pub fn weighted(entries: Vec<(f64, S)>) -> Self {
        assert!(
            !entries.is_empty(),
            "a distribution needs at least one outcome"
        );
        let merged = merge_equal(entries);
        let total: f64 = merged.iter().map(|(p, _)| p).sum();
        assert!(
            (total - 1.0).abs() < PROB_EPS,
            "outcome probabilities must sum to 1, got {total}"
        );
        Outcomes(merged.into())
    }

    /// A uniform distribution over the given states (duplicates merged).
    ///
    /// # Panics
    ///
    /// Panics if `states` is empty.
    pub fn uniform(states: Vec<S>) -> Self {
        assert!(
            !states.is_empty(),
            "a distribution needs at least one outcome"
        );
        let p = 1.0 / states.len() as f64;
        Self::weighted(states.into_iter().map(|s| (p, s)).collect())
    }
}

impl<S> Outcomes<S> {
    /// The `(probability, state)` entries; probabilities are positive and
    /// sum to 1.
    #[inline]
    pub fn entries(&self) -> &[(f64, S)] {
        match &self.0 {
            Entries::One(e) => e,
            Entries::Two(e) => e,
            Entries::Many(e) => e,
        }
    }

    /// Whether this outcome is deterministic (a single entry).
    #[inline]
    pub fn is_certain(&self) -> bool {
        self.entries().len() == 1
    }

    /// Consumes the distribution, returning its entries.
    pub fn into_entries(self) -> Vec<(f64, S)> {
        match self.0 {
            Entries::One(e) => e.into(),
            Entries::Two(e) => e.into(),
            Entries::Many(e) => e,
        }
    }

    /// The unique state of a deterministic outcome.
    ///
    /// # Panics
    ///
    /// Panics if the outcome is probabilistic.
    pub fn into_certain(self) -> S {
        let n = self.entries().len();
        match self.0 {
            Entries::One([(_, s)]) => s,
            _ => panic!("into_certain on a probabilistic outcome with {n} entries"),
        }
    }

    /// Maps every state through `f`, keeping probabilities; states that
    /// `f` folds together merge as in [`Outcomes::weighted`].
    pub fn map<T: PartialEq>(self, mut f: impl FnMut(S) -> T) -> Outcomes<T> {
        let merged = match self.0 {
            Entries::One([(p, s)]) => return Outcomes(Entries::One([(p, f(s))])),
            Entries::Two(e) => merge_equal(e.map(|(p, s)| (p, f(s)))),
            Entries::Many(e) => merge_equal(e.into_iter().map(|(p, s)| (p, f(s)))),
        };
        Outcomes(merged.into())
    }

    /// Samples a state according to the distribution.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> &S {
        let entries = self.entries();
        if entries.len() == 1 {
            return &entries[0].1;
        }
        let x: f64 = rng.random();
        let mut acc = 0.0;
        for (p, s) in entries {
            acc += p;
            if x < acc {
                return s;
            }
        }
        // Floating-point slack: fall back to the last entry.
        &entries[entries.len() - 1].1
    }
}

/// Merges entries with equal states, summing their probabilities onto
/// the first occurrence (which keeps its position).
///
/// # Panics
///
/// Panics on a non-positive probability.
fn merge_equal<S: PartialEq>(entries: impl IntoIterator<Item = (f64, S)>) -> Vec<(f64, S)> {
    let entries = entries.into_iter();
    let mut merged: Vec<(f64, S)> = Vec::with_capacity(entries.size_hint().0);
    for (p, s) in entries {
        assert!(
            p > 0.0,
            "outcome probabilities must be strictly positive, got {p}"
        );
        match merged.iter_mut().find(|(_, t)| *t == s) {
            Some((q, _)) => *q += p,
            None => merged.push((p, s)),
        }
    }
    merged
}

impl<S: fmt::Debug> fmt::Debug for Outcomes<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Outcomes[")?;
        for (i, (p, s)) in self.entries().iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{p:.3}↦{s:?}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn certain_is_singleton() {
        let o = Outcomes::certain(42u8);
        assert!(o.is_certain());
        assert_eq!(o.entries(), &[(1.0, 42)]);
        assert_eq!(o.into_certain(), 42);
    }

    #[test]
    fn fair_coin_halves() {
        let o = Outcomes::fair_coin(true, false);
        assert_eq!(o.entries().len(), 2);
        assert!((o.entries()[0].0 - 0.5).abs() < 1e-12);
    }

    #[test]
    fn coin_with_equal_sides_collapses() {
        let o = Outcomes::fair_coin(7u8, 7u8);
        assert!(o.is_certain());
    }

    #[test]
    #[should_panic(expected = "strictly between 0 and 1")]
    fn degenerate_bias_rejected() {
        let _ = Outcomes::biased_coin(1.0, 1u8, 0u8);
    }

    #[test]
    fn weighted_merges_duplicates() {
        let o = Outcomes::weighted(vec![(0.25, 'x'), (0.5, 'y'), (0.25, 'x')]);
        assert_eq!(o.entries().len(), 2);
        let px = o
            .entries()
            .iter()
            .find(|(_, s)| *s == 'x')
            .map(|(p, _)| *p)
            .unwrap();
        assert!((px - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "sum to 1")]
    fn weighted_validates_total() {
        let _ = Outcomes::weighted(vec![(0.3, 1u8), (0.3, 2u8)]);
    }

    #[test]
    #[should_panic(expected = "strictly positive")]
    fn weighted_rejects_zero_probability() {
        let _ = Outcomes::weighted(vec![(0.0, 1u8), (1.0, 2u8)]);
    }

    #[test]
    fn equality_compares_entries_not_storage() {
        let merged = Outcomes::weighted(vec![(0.5, 3u8), (0.5, 3u8)]);
        assert!(merged.is_certain());
        assert_eq!(merged, Outcomes::certain(3u8));
        assert_eq!(
            Outcomes::weighted(vec![(0.5, 1u8), (0.5, 2u8)]),
            Outcomes::fair_coin(1u8, 2u8)
        );
        let three = Outcomes::uniform(vec![1u8, 2, 2, 3]);
        assert_eq!(three.entries().len(), 3);
        assert_eq!(three.clone().map(|s| s + 1).into_entries().len(), 3);
        assert_ne!(three, Outcomes::fair_coin(1u8, 2u8));
    }

    #[test]
    fn uniform_distributes_evenly() {
        let o = Outcomes::uniform(vec![1u8, 2, 3, 4]);
        assert_eq!(o.entries().len(), 4);
        for (p, _) in o.entries() {
            assert!((p - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn map_preserves_probabilities() {
        let o = Outcomes::fair_coin(1u8, 2u8).map(|s| s * 10);
        let states: Vec<u8> = o.entries().iter().map(|(_, s)| *s).collect();
        assert_eq!(states, vec![10, 20]);
    }

    #[test]
    fn map_merges_states_it_folds() {
        let folded = Outcomes::fair_coin(1u8, 2u8).map(|_| 0u8);
        assert!(folded.is_certain());
        assert_eq!(folded, Outcomes::certain(0u8));
        let three = Outcomes::uniform(vec![1u8, 2, 3]).map(|s| s % 2);
        assert_eq!(three.entries().len(), 2);
        let mass: f64 = three.entries().iter().map(|(p, _)| p).sum();
        assert!((mass - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "probabilistic outcome")]
    fn into_certain_rejects_probabilistic() {
        let _ = Outcomes::fair_coin(0u8, 1u8).into_certain();
    }

    #[test]
    fn sampling_matches_distribution_roughly() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let o = Outcomes::biased_coin(0.8, 1u8, 0u8);
        let n = 20_000;
        let ones: usize = (0..n).filter(|_| *o.sample(&mut rng) == 1).count();
        let freq = ones as f64 / n as f64;
        assert!((freq - 0.8).abs() < 0.02, "sampled frequency {freq}");
    }
}
