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
//! tiers — because the caller supplies the cursor. [`Components`] keeps
//! one walk's components, and [`Components::mark_reaching`] decides which
//! of them reach a target set in one pass over them, with no reverse
//! graph.

use std::sync::atomic::{AtomicU64, Ordering};

use super::bitset::BitSet;

/// Nodes discovered between two calls of [`tarjan`]'s probe.
pub const PROBE_STRIDE: u32 = 4096;

/// `index` of a node not yet discovered.
const UNSEEN: u32 = u32::MAX;

/// `index` of a node whose component has been emitted.
const DONE: u32 = u32::MAX - 1;

/// Process-wide walk counter, incremented once per [`tarjan`] entry.
static WALKS: AtomicU64 = AtomicU64::new(0);

/// Number of [`tarjan`] walks performed by this process so far. A
/// stage that promises to decompose its graph once (the checker's
/// verdict stage) pins that promise by asserting this counter.
pub fn tarjan_count() -> u64 {
    WALKS.load(Ordering::Relaxed)
}

/// Iterative Tarjan over the graph whose successors of node `v` are
/// `row(v)`, with DFS roots taken from `roots` in order (already visited
/// roots are skipped). Every component is handed to `emit` as the slice
/// of its nodes in Tarjan stack order; a component is emitted only after
/// every component it reaches, so emission order is a reverse
/// topological order of the condensation (sinks first).
///
/// `probe(discovered)` runs each time the number of discovered nodes
/// reaches a multiple of [`PROBE_STRIDE`]; its first error stops the walk
/// and is returned.
///
/// # Errors
///
/// The probe's error.
///
/// # Panics
///
/// Panics if a root or successor is not below `n`, or if `n` reaches
/// `u32::MAX - 1`.
pub fn tarjan<I, E>(
    n: usize,
    roots: impl IntoIterator<Item = u32>,
    mut row: impl FnMut(u32) -> I,
    mut probe: impl FnMut(u32) -> Result<(), E>,
    mut emit: impl FnMut(&[u32]),
) -> Result<(), E>
where
    I: Iterator<Item = u32>,
{
    WALKS.fetch_add(1, Ordering::Relaxed);
    // `index` is UNSEEN, DONE, or the discovery index of a node on the
    // stack.
    let mut index = vec![UNSEEN; n];
    let mut low = vec![0u32; n];
    let mut stack: Vec<u32> = Vec::new();
    let mut next_index = 0u32;
    // Explicit DFS stack: (node, its row cursor).
    let mut call: Vec<(u32, I)> = Vec::new();
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
                emit(&stack[root..]);
                stack[root..].iter().for_each(|&w| index[w as usize] = DONE);
                stack.truncate(root);
            }
        }
    }
    Ok(())
}

/// The strongly connected components of one [`tarjan`] walk, in emission
/// order (sinks first), stored flat: component `c` is
/// `members[ends[c - 1]..ends[c]]`.
#[derive(Debug)]
pub struct Components {
    members: Vec<u32>,
    ends: Vec<u32>,
}

impl Components {
    /// Runs one [`tarjan`] walk (same arguments) and keeps its
    /// components; `arrange` puts each component's members, handed over
    /// in Tarjan stack order, into the order they are stored in.
    ///
    /// # Errors
    ///
    /// The probe's error.
    ///
    /// # Panics
    ///
    /// As [`tarjan`].
    pub fn walk<I, E>(
        n: usize,
        roots: impl IntoIterator<Item = u32>,
        row: impl FnMut(u32) -> I,
        probe: impl FnMut(u32) -> Result<(), E>,
        mut arrange: impl FnMut(&mut [u32]),
    ) -> Result<Self, E>
    where
        I: Iterator<Item = u32>,
    {
        let mut members: Vec<u32> = Vec::new();
        let mut ends = Vec::new();
        tarjan(n, roots, row, probe, |comp| {
            let start = members.len();
            members.extend_from_slice(comp);
            arrange(&mut members[start..]);
            ends.push(super::ids::id_u32(members.len(), "node ids fit u32"));
        })?;
        Ok(Components { members, ends })
    }

    /// Number of components.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Whether the walk found no component (it had no roots).
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// The members of component `c`.
    pub fn get(&self, c: usize) -> &[u32] {
        let start = c.checked_sub(1).map_or(0, |p| self.ends[p] as usize);
        &self.members[start..self.ends[c] as usize]
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
        let mut out = Vec::new();
        let walk = tarjan(
            succ.len(),
            (0u32..).take(succ.len()),
            |v| succ[v as usize].iter().copied(),
            |_| Ok::<(), ()>(()),
            |c| out.push(c.to_vec()),
        );
        assert_eq!(walk, Ok(()));
        out
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
        let walk = tarjan(
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
        assert_eq!(walk, Err(2 * PROBE_STRIDE));
        assert_eq!(seen, vec![PROBE_STRIDE, 2 * PROBE_STRIDE]);
    }
}
