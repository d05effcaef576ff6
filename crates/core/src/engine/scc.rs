//! The one strongly-connected-components pass of the workspace: an
//! iterative Tarjan over row cursors, shared by the checker's verdict
//! stage and the Markov solver's block order, plus the sinks-first
//! reachability rule both read off its components.
//!
//! The walk keeps one live row cursor per DFS frame and resumes it where
//! the frame left off, so it never collects a node's successors: its
//! state is O(n) `u32`s (`index`, `low`, the node stack) plus the
//! frames. Any row source works — the engine's edge tiers
//! ([`EdgeIter`](crate::engine::EdgeIter)) as much as the Markov `Q`
//! tiers — because the caller supplies the cursor. [`Components::walk`]
//! keeps one walk's components, and [`Components::mark_reaching`] decides which
//! of them reach a target set in one pass over them, with no reverse
//! graph.

use std::sync::atomic::{AtomicU64, Ordering};

use super::bitset::BitSet;

/// Nodes discovered between two calls of [`Components::walk`]'s probe.
pub const PROBE_STRIDE: u32 = 4096;

/// `index` of a node not yet discovered.
const UNSEEN: u32 = u32::MAX;

/// `index` of a node whose component has been emitted.
const DONE: u32 = u32::MAX - 1;

/// Process-wide walk counter, incremented once per [`Components::walk`]
/// entry.
static WALKS: AtomicU64 = AtomicU64::new(0);

/// Number of Tarjan walks performed by this process so far. A
/// stage that promises to decompose its graph once (the checker's
/// verdict stage) pins that promise by asserting this counter.
pub fn tarjan_count() -> u64 {
    WALKS.load(Ordering::Relaxed)
}

/// The strongly connected components of one Tarjan walk, in emission
/// order (sinks first), stored flat: component `c` is
/// `members[ends[c]..ends[c + 1]]`.
#[derive(Debug)]
pub struct Components {
    members: Vec<u32>,
    ends: Vec<u32>,
}

impl Components {
    /// Iterative Tarjan over the graph whose successors of node `v` are
    /// `row(v)`, with DFS roots taken from `roots` in order (already
    /// visited roots are skipped), keeping its components. A component
    /// is kept only after every component it reaches, so the stored
    /// order is a reverse topological order of the condensation (sinks
    /// first); `arrange` puts each component's members, handed over in
    /// Tarjan stack order, into the order they are stored in.
    ///
    /// `probe(discovered)` runs each time the number of discovered nodes
    /// reaches a multiple of [`PROBE_STRIDE`]; its first error stops the
    /// walk and is returned.
    ///
    /// # Errors
    ///
    /// The probe's error.
    ///
    /// # Panics
    ///
    /// Panics if a root or successor is not below `n`, or if `n` reaches
    /// `u32::MAX - 1`.
    pub fn walk<I: Iterator<Item = u32>, E>(
        n: usize,
        roots: impl IntoIterator<Item = u32>,
        mut row: impl FnMut(u32) -> I,
        mut probe: impl FnMut(u32) -> Result<(), E>,
        mut arrange: impl FnMut(&mut [u32]),
    ) -> Result<Self, E> {
        WALKS.fetch_add(1, Ordering::Relaxed);
        let (mut members, mut ends) = (Vec::new(), vec![0]);
        // `index` is UNSEEN, DONE, or the discovery index of a node on the
        // stack.
        let (mut index, mut low) = (vec![UNSEEN; n], vec![0u32; n]);
        // The node stack, the explicit DFS stack of (node, its row cursor)
        // frames, and the next discovery index.
        let (mut stack, mut call, mut next_index) = (Vec::new(), Vec::<(u32, I)>::new(), 0u32);
        for start in roots {
            let mut fresh = (index[start as usize] == UNSEEN).then_some(start);
            loop {
                if let Some(w) = fresh {
                    index[w as usize] = next_index;
                    low[w as usize] = next_index;
                    next_index += 1;
                    if next_index.is_multiple_of(PROBE_STRIDE) {
                        probe(next_index)?;
                    }
                    stack.push(w);
                    call.push((w, row(w)));
                }
                let Some((v, cursor)) = call.last_mut() else {
                    break;
                };
                let v = *v as usize;
                // Resume v's row up to its next undiscovered successor,
                // lowering v's link over the stacked ones passed on the way.
                fresh = cursor.find(|&w| match index[w as usize] {
                    UNSEEN => true,
                    DONE => false,
                    iw => {
                        low[v] = low[v].min(iw);
                        false
                    }
                });
                if fresh.is_some() {
                    continue;
                }
                // v is finished.
                call.pop();
                if let Some(&(parent, _)) = call.last() {
                    low[parent as usize] = low[parent as usize].min(low[v]);
                }
                if low[v] == index[v] {
                    // v roots a component: it and everything above it.
                    let root = stack.iter().rposition(|&w| w as usize == v).unwrap_or(0);
                    let first = members.len();
                    members.extend(stack.drain(root..).inspect(|&w| index[w as usize] = DONE));
                    arrange(&mut members[first..]);
                    ends.push(super::ids::id_u32(members.len(), "node ids fit u32"));
                }
            }
        }
        Ok(Components { members, ends })
    }

    /// Number of components.
    pub fn len(&self) -> usize {
        self.ends.len() - 1
    }

    /// Whether the walk found no component (it had no roots).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The members of component `c`.
    pub fn get(&self, c: usize) -> &[u32] {
        &self.members[self.ends[c] as usize..self.ends[c + 1] as usize]
    }

    /// The components in emission order, sinks first.
    pub fn iter(&self) -> impl Iterator<Item = &[u32]> + '_ {
        (0..self.len()).map(|c| self.get(c))
    }

    /// Marks every node that reaches a marked node. `marked` holds the
    /// targets on entry, and the components must cover the unmarked
    /// nodes that can reach them. Sinks first, a component reaches the
    /// targets iff one of its members steps into a target or into an
    /// already-marked component, so one pass in emission order decides
    /// them all; a component stops being read at its first such member.
    pub fn mark_reaching<I>(&self, mut row: impl FnMut(u32) -> I, marked: &mut BitSet)
    where
        I: Iterator<Item = u32>,
    {
        for comp in self.iter() {
            if comp.iter().any(|&v| row(v).any(|w| marked.get(w as usize))) {
                comp.iter().for_each(|&v| marked.insert(v as usize));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn components(succ: &[Vec<u32>]) -> Vec<Vec<u32>> {
        let walk = Components::walk(
            succ.len(),
            (0u32..).take(succ.len()),
            |v| succ[v as usize].iter().copied(),
            |_| Ok::<(), ()>(()),
            |_| {},
        );
        walk.unwrap().iter().map(<[u32]>::to_vec).collect()
    }

    #[test]
    fn components_come_sinks_first() {
        // 0 → {1, 2}; 1 ↔ 2 → 3 (self-loop); 4 isolated.
        let succ = vec![vec![1, 2], vec![2], vec![1, 3], vec![3], vec![]];
        assert_eq!(
            components(&succ),
            vec![vec![3], vec![1, 2], vec![0], vec![4]]
        );
    }

    #[test]
    fn probe_runs_every_stride_and_stops_the_walk() {
        // A path of 2·STRIDE + 1 nodes: two probes, the second trips.
        let n = 2 * PROBE_STRIDE + 1;
        let mut seen = Vec::new();
        let walk = Components::walk(
            n as usize,
            0..n,
            |v| (v + 1..n).take(1),
            |d| {
                seen.push(d);
                if d > PROBE_STRIDE {
                    Err(d)
                } else {
                    Ok(())
                }
            },
            |_| {},
        );
        assert_eq!(walk.err(), Some(2 * PROBE_STRIDE));
        assert_eq!(seen, vec![PROBE_STRIDE, 2 * PROBE_STRIDE]);
    }
}
