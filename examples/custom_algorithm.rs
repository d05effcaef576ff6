//! Bringing your own protocol: implement [`Algorithm`] for a custom
//! guarded-command system, let the checker classify it, and — if it is
//! weak-stabilizing — get a probabilistic self-stabilizing version for free
//! via `Trans(·)` (the paper's practical recipe, §5).
//!
//! ```bash
//! cargo run --release --example custom_algorithm
//! ```
//!
//! The custom protocol here is **anonymous maximal matching** on a path:
//! every process keeps a pointer (or ⊥); two neighbours pointing at each
//! other are *married*. A process proposes to a free lower-port neighbour,
//! accepts a proposal, or withdraws a dangling pointer.
//!
//! Two lessons fall out of the run:
//! 1. the checker may *surprise* you — this matching is already
//!    deterministically self-stabilizing (mutual simultaneous proposals
//!    marry instead of racing), so no transformation is needed;
//! 2. applying `Trans` anyway is sound but costs a measurable slowdown —
//!    the price of coin-halting on a system that did not need it.

use weak_stabilization::prelude::*;

use stab_checker::analyze;
use stab_core::{Outcomes, ProjectedLegitimacy};
use stab_graph::Graph;
use stab_markov::AbsorbingChain;

/// Pointer state: `None` = free, `Some(port)` = proposing to / married with
/// the neighbour behind `port`.
type Ptr = Option<PortId>;

struct Matching {
    g: Graph,
    rev: Vec<Vec<PortId>>,
}

impl Matching {
    fn new(g: &Graph) -> Self {
        let rev = g
            .nodes()
            .map(|p| {
                g.neighbors(p)
                    .iter()
                    .map(|&q| g.port_of(q, p).expect("symmetric adjacency"))
                    .collect()
            })
            .collect();
        Matching { g: g.clone(), rev }
    }

    /// Neighbour behind `port` points back at the viewed process.
    fn points_at_me<V: View<Ptr>>(&self, v: &V, port: PortId) -> bool {
        *v.neighbor(port) == Some(self.rev[v.node().index()][port.index()])
    }

    fn married<V: View<Ptr>>(&self, v: &V) -> bool {
        matches!(*v.me(), Some(p) if self.points_at_me(v, p))
    }
}

impl Algorithm for Matching {
    type State = Ptr;

    fn graph(&self) -> &Graph {
        &self.g
    }

    fn name(&self) -> String {
        format!("matching(N={})", self.g.n())
    }

    fn state_space(&self, node: NodeId) -> Vec<Ptr> {
        let mut s: Vec<Ptr> = vec![None];
        s.extend((0..self.g.degree(node)).map(|i| Some(PortId::new(i))));
        s
    }

    fn enabled_actions<V: View<Ptr>>(&self, v: &V) -> ActionMask {
        if self.married(v) {
            return ActionMask::empty();
        }
        match *v.me() {
            // Dangling pointer at a non-reciprocating neighbour: withdraw
            // unless the neighbour is free (then keep courting).
            Some(p) => ActionMask::when(v.neighbor(p).is_some(), ActionId::A2),
            // Free: accept a proposal, or propose to a free neighbour.
            None => {
                let acceptable = (0..v.degree()).any(|i| self.points_at_me(v, PortId::new(i)));
                let free = (0..v.degree()).any(|i| v.neighbor(PortId::new(i)).is_none());
                ActionMask::when(acceptable || free, ActionId::A1)
            }
        }
    }

    fn apply<V: View<Ptr>>(&self, v: &V, action: ActionId) -> Outcomes<Ptr> {
        match action {
            // Withdraw.
            ActionId::A2 => Outcomes::certain(None),
            // Accept the lowest proposal, else propose to the lowest free
            // neighbour.
            ActionId::A1 => {
                let accept = (0..v.degree())
                    .map(PortId::new)
                    .find(|&i| self.points_at_me(v, i));
                let target = accept.or_else(|| {
                    (0..v.degree())
                        .map(PortId::new)
                        .find(|&i| v.neighbor(i).is_none())
                });
                Outcomes::certain(target)
            }
            other => unreachable!("matching has no action {other}"),
        }
    }
}

/// Maximal matching: everyone married, or single with all neighbours
/// married to someone else — equivalently, terminal.
struct Maximal<'a>(&'a Matching);

impl Legitimacy<Ptr> for Maximal<'_> {
    fn name(&self) -> String {
        "maximal-matching".into()
    }

    fn is_legitimate(&self, cfg: &stab_core::Configuration<Ptr>) -> bool {
        self.0.is_terminal(cfg)
    }
}

fn main() {
    let g = builders::path(4);
    let alg = Matching::new(&g);
    let spec = Maximal(&alg);

    // Classify under the distributed scheduler. Surprise: simultaneous
    // mutual proposals *marry* rather than race, so this protocol is
    // already deterministically self-stabilizing — the checker proves it.
    let report = analyze(&alg, DaemonSpec::distributed(), &spec, 1 << 22).expect("small space");
    println!("{report}\n");
    assert!(report.is_weak_stabilizing());
    assert!(
        report.is_self_stabilizing(Fairness::Unfair),
        "mutual proposals marry; no adversarial schedule breaks matching on a path"
    );

    // Exact expected time of the *raw* protocol under the randomized
    // distributed scheduler.
    let raw_chain = AbsorbingChain::build(&alg, DaemonSpec::distributed(), &spec, 1 << 22).unwrap();
    let raw_times = raw_chain.expected_steps().unwrap();

    // Applying Trans anyway stays sound (Theorem 9) — but the coin halts
    // progress half the time, and the exact analysis quantifies the price.
    let trans = Transformed::new(Matching::new(&g));
    let tspec = ProjectedLegitimacy::new(Maximal(&alg));
    let treport = analyze(&trans, DaemonSpec::distributed(), &tspec, 1 << 22).expect("small space");
    assert!(treport.is_probabilistically_self_stabilizing(), "Theorem 9");
    let chain = AbsorbingChain::build(&trans, DaemonSpec::distributed(), &tspec, 1 << 22).unwrap();
    let times = chain.expected_steps().unwrap();

    println!("expected steps under the distributed randomized scheduler:");
    println!(
        "  raw matching:    worst {:.3}, uniform-average {:.3}",
        raw_times.worst_case(),
        raw_times.average_uniform(raw_chain.n_configs()),
    );
    println!(
        "  Trans(matching): worst {:.3}, uniform-average {:.3}",
        times.worst_case(),
        times.average_uniform(chain.n_configs()),
    );
    assert!(
        times.worst_case() > raw_times.worst_case(),
        "the coin costs time"
    );
    println!("\nbring your own protocol; the checker classifies it, the transformer");
    println!("is there when (and only when) you need it ✓");
}
