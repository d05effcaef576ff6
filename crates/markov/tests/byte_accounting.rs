//! Byte accounting pinned on every edge-store tier, on Herman N=11
//! synchronous (full sweep, default spill settings): the edge store's
//! total, resident and spilled bytes after exploration and again after
//! the chain build has read every row, then the `Q` store's entry count,
//! total bytes and resident bytes after the build and again after a
//! Gauss–Seidel solve (the resident figure is what the solver's budget
//! probes carry). A storage refactor must leave every figure unchanged.

use stab_algorithms::HermanRing;
use stab_core::engine::{EdgeStoreKind, ExploreOptions, TransitionSystem};
use stab_core::{DaemonSpec, SpaceIndexer};
use stab_graph::builders;
use stab_markov::AbsorbingChain;

const CAP: u64 = 1 << 22;

/// Every figure of one tier, in the order [`figures`] measures them.
type Figures = [u64; 10];

fn figures(kind: EdgeStoreKind) -> Figures {
    let alg = HermanRing::on_ring(&builders::ring(11)).unwrap();
    let ix = SpaceIndexer::new(&alg, CAP).unwrap();
    let opts = ExploreOptions::full().with_edge_store(kind);
    let ts = TransitionSystem::explore_with(
        &alg,
        &ix,
        DaemonSpec::synchronous(),
        &alg.legitimacy(),
        &opts,
    )
    .unwrap();
    assert_eq!(ts.edge_store_kind(), kind);
    let explored = [
        ts.edge_bytes(),
        ts.resident_edge_bytes(),
        ts.spilled_edge_bytes(),
    ];
    let chain = AbsorbingChain::from_transition_system(ix, DaemonSpec::synchronous(), &ts);
    let q = chain.q();
    assert_eq!(q.kind(), kind);
    let built = [q.n_entries(), q.q_bytes(), q.resident_q_bytes()];
    let read = [
        ts.edge_bytes(),
        ts.resident_edge_bytes(),
        ts.spilled_edge_bytes(),
    ];
    chain.expected_steps().unwrap();
    [
        explored[0],
        explored[1],
        explored[2],
        read[0],
        read[1],
        read[2],
        built[0],
        built[1],
        built[2],
        q.resident_q_bytes(),
    ]
}

#[test]
fn byte_accounting_is_pinned_on_every_tier() {
    // Explored edges (total, resident, spilled), the same after the
    // chain build, Q (entries, total, resident), Q resident after a
    // solve. On the disk tier the resident figures grow as rows are read
    // through the chunk cache; the stream tiers share one encoding, so
    // their totals agree.
    let pins: [(EdgeStoreKind, Figures); 3] = [
        (
            EdgeStoreKind::Flat,
            [
                4_259_748, 4_259_748, 0, 4_259_748, 4_259_748, 0, 173_232, 2_779_820, 0, 0,
            ],
        ),
        (
            EdgeStoreKind::Compressed,
            [
                732_774, 732_774, 0, 732_774, 732_774, 0, 173_232, 370_312, 0, 0,
            ],
        ),
        (
            EdgeStoreKind::Disk,
            [
                732_774, 16_440, 716_334, 732_774, 732_774, 716_334, 173_232, 370_312, 16_256,
                370_312,
            ],
        ),
    ];
    for (kind, want) in pins {
        assert_eq!(figures(kind), want, "{} tier", kind.label());
    }
}
