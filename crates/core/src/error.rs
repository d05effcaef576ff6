//! Error type for the kernel's fallible operations.

use std::error::Error;
use std::fmt;

/// Errors raised by state-space enumeration and scheduler enumeration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoreError {
    /// The full configuration space exceeds the requested cap; exhaustive
    /// analyses must fall back to sampling.
    StateSpaceTooLarge {
        /// Number of configurations (saturating).
        total: u128,
        /// The cap that was exceeded.
        cap: u64,
    },
    /// Enumerating all activations of the distributed daemon would produce
    /// `2^k − 1` subsets for `k` enabled processes; `k` exceeded the cap.
    TooManyEnabled {
        /// Number of enabled processes.
        enabled: usize,
        /// Maximum supported for enumeration.
        cap: usize,
    },
    /// A node has an empty state space, so no configuration exists.
    EmptyStateSpace {
        /// The node with no states.
        node: usize,
    },
    /// A symmetry quotient was requested for a system it does not apply
    /// to: the group does not fit the topology, state alphabets break the
    /// symmetry, or the per-run equivariance gate found the algorithm or
    /// specification not to respect the group.
    QuotientUnsupported {
        /// Human-readable reason.
        reason: String,
    },
    /// A reachable-mode `max_states` cap above the engine's u32
    /// configuration-id width was requested. Such a cap could never be
    /// enforced (interning fails at the id width first), so it is
    /// rejected up front rather than silently clamped.
    StateCapExceedsIdWidth {
        /// The requested cap.
        requested: u64,
        /// The enforceable maximum (`u32::MAX`).
        limit: u64,
    },
    /// An operation that exists only on the flat edge-store tier (borrowed
    /// `&[Edge]` row slices) was requested on the compressed tier, whose
    /// rows exist only in decoded form. Iterate the row cursor
    /// (`edge_iter` / `row_iter`) instead, which works on both tiers.
    FlatStoreRequired {
        /// The operation that was attempted.
        op: &'static str,
    },
    /// A cooperative [`Budget`](crate::engine::Budget) probe found a
    /// resource limit exhausted. Stages that receive this degrade
    /// gracefully (a `Degraded` status in the study report) instead of
    /// panicking or overcommitting memory.
    BudgetExhausted {
        /// The pipeline stage that hit the limit.
        stage: &'static str,
        /// Which resource ran out (`"wall-time-ms"` / `"bytes"` /
        /// `"states"` / `"fault-injected"`).
        resource: &'static str,
        /// The configured limit.
        limit: u64,
        /// The usage observed at the probe.
        used: u64,
    },
    /// A fault-injection kill-point fired: the
    /// [`FaultPlan`](crate::engine::FaultPlan) requested the run die right
    /// after the k-th durable checkpoint frame, simulating an abrupt
    /// process death whose on-disk frames survive. Re-running the same
    /// exploration with the same checkpoint directory resumes from those
    /// frames.
    Interrupted {
        /// Number of durable frames written before the injected death.
        after_frames: u64,
    },
    /// A checkpoint file could not be read or written.
    CheckpointIo {
        /// The offending path (or directory).
        path: String,
        /// The underlying I/O error, rendered.
        detail: String,
    },
    /// A checkpoint frame failed validation (bad magic, truncated payload,
    /// CRC32 mismatch, or an inconsistent field) and no usable earlier
    /// state exists behind it.
    CheckpointCorrupt {
        /// The offending frame path.
        path: String,
        /// What failed.
        detail: String,
    },
    /// [`TransitionSystem::resume`](crate::engine::TransitionSystem::resume)
    /// was called on a checkpoint directory whose frame chain does not end
    /// in a final frame: the exploration never completed. Re-run the
    /// exploration with the same checkpoint directory to continue it.
    CheckpointIncomplete {
        /// The checkpoint directory.
        dir: String,
    },
    /// A symmetry group too large to enumerate was requested (e.g. the
    /// factorial automorphism group of a wide star, or brute-force search
    /// over too many nodes).
    SymmetryGroupTooLarge {
        /// Size driving the blow-up (leaves or nodes).
        size: usize,
        /// The enumeration cap.
        cap: usize,
    },
    /// A node permutation handed to a symmetry analysis is not an
    /// automorphism of the algorithm's graph: its size does not match, it
    /// is not a permutation, or it breaks an edge.
    NotAnAutomorphism {
        /// Nodes the permutation maps.
        nodes: usize,
        /// Nodes of the algorithm's graph.
        graph_nodes: usize,
    },
    /// An analysis that is only sound for deterministic algorithms was
    /// invoked on a nondeterministic one.
    DeterminismRequired {
        /// The analysis that requires determinism.
        context: &'static str,
    },
    /// An index or byte-offset computation exceeded the width of the
    /// engine's typed ids (u32 configuration/edge ids, u32 CSR offsets)
    /// or overflowed its arithmetic. Raised by the checked conversions
    /// in [`engine::ids`](crate::engine::ids) and the `try_` CSR
    /// constructors instead of silently wrapping.
    OffsetOverflow {
        /// What was being converted (`"config id"`, `"csr offset"`, …).
        what: &'static str,
        /// The value that did not fit (saturating render).
        value: u128,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::StateSpaceTooLarge { total, cap } => write!(
                f,
                "configuration space has {total} states, exceeding the cap of {cap}"
            ),
            CoreError::TooManyEnabled { enabled, cap } => write!(
                f,
                "cannot enumerate distributed activations for {enabled} enabled processes (cap {cap})"
            ),
            CoreError::EmptyStateSpace { node } => {
                write!(f, "node {node} has an empty state space")
            }
            CoreError::QuotientUnsupported { reason } => {
                write!(f, "symmetry quotient unsupported: {reason}")
            }
            CoreError::StateCapExceedsIdWidth { requested, limit } => write!(
                f,
                "reachable-mode max_states {requested} exceeds the u32 configuration-id limit {limit}"
            ),
            CoreError::FlatStoreRequired { op } => write!(
                f,
                "{op} requires the flat edge store; compressed rows exist only in decoded form — iterate edge_iter/row_iter instead"
            ),
            CoreError::BudgetExhausted {
                stage,
                resource,
                limit,
                used,
            } => write!(
                f,
                "budget exhausted in stage `{stage}`: {resource} used {used} of {limit}"
            ),
            CoreError::Interrupted { after_frames } => write!(
                f,
                "fault injection killed the run after {after_frames} durable checkpoint frames; \
                 re-run with the same checkpoint directory to resume"
            ),
            CoreError::CheckpointIo { path, detail } => {
                write!(f, "checkpoint I/O failed at {path}: {detail}")
            }
            CoreError::CheckpointCorrupt { path, detail } => {
                write!(f, "checkpoint frame {path} is corrupt: {detail}")
            }
            CoreError::CheckpointIncomplete { dir } => write!(
                f,
                "checkpoint directory {dir} holds no completed exploration (no final frame); \
                 re-run the exploration with the same checkpoint directory to continue it"
            ),
            CoreError::SymmetryGroupTooLarge { size, cap } => write!(
                f,
                "symmetry group over {size} elements is too large to enumerate (cap {cap})"
            ),
            CoreError::NotAnAutomorphism { nodes, graph_nodes } => write!(
                f,
                "a {nodes}-node permutation is not an automorphism of the {graph_nodes}-node graph"
            ),
            CoreError::DeterminismRequired { context } => {
                write!(f, "{context} requires a deterministic algorithm")
            }
            CoreError::OffsetOverflow { what, value } => write!(
                f,
                "{what} {value} exceeds the engine's typed-id width (u32)"
            ),
        }
    }
}

impl Error for CoreError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_mention_key_numbers() {
        let e = CoreError::StateSpaceTooLarge {
            total: 1 << 40,
            cap: 1 << 20,
        };
        assert!(e.to_string().contains("1099511627776"));
        let e = CoreError::TooManyEnabled {
            enabled: 30,
            cap: 20,
        };
        assert!(e.to_string().contains("30"));
        let e = CoreError::EmptyStateSpace { node: 2 };
        assert!(e.to_string().contains("node 2"));
        let e = CoreError::QuotientUnsupported {
            reason: "not a ring".into(),
        };
        assert!(e.to_string().contains("not a ring"));
        let e = CoreError::StateCapExceedsIdWidth {
            requested: 1 << 40,
            limit: u32::MAX as u64,
        };
        assert!(e.to_string().contains("1099511627776"));
        assert!(e.to_string().contains("4294967295"));
        let e = CoreError::FlatStoreRequired { op: "edges()" };
        assert!(e.to_string().contains("edges()"));
        assert!(e.to_string().contains("flat edge store"));
        let e = CoreError::BudgetExhausted {
            stage: "explore",
            resource: "bytes",
            limit: 1024,
            used: 2048,
        };
        assert!(e.to_string().contains("explore"));
        assert!(e.to_string().contains("2048 of 1024"));
        let e = CoreError::Interrupted { after_frames: 3 };
        assert!(e.to_string().contains("after 3 durable"));
        let e = CoreError::CheckpointCorrupt {
            path: "ckpt-000001.bin".into(),
            detail: "crc mismatch".into(),
        };
        assert!(e.to_string().contains("ckpt-000001.bin"));
        assert!(e.to_string().contains("crc mismatch"));
        let e = CoreError::CheckpointIncomplete {
            dir: "/tmp/x".into(),
        };
        assert!(e.to_string().contains("no final frame"));
        let e = CoreError::SymmetryGroupTooLarge { size: 12, cap: 9 };
        assert!(e.to_string().contains("12"));
        assert!(e.to_string().contains("cap 9"));
        let e = CoreError::NotAnAutomorphism {
            nodes: 4,
            graph_nodes: 5,
        };
        assert!(e.to_string().contains("4-node permutation"));
        assert!(e.to_string().contains("5-node graph"));
        let e = CoreError::DeterminismRequired {
            context: "synchronous symmetry checking",
        };
        assert!(e.to_string().contains("deterministic"));
        let e = CoreError::OffsetOverflow {
            what: "csr offset",
            value: 1 << 33,
        };
        assert!(e.to_string().contains("csr offset"));
        assert!(e.to_string().contains("8589934592"));
        assert!(e.to_string().contains("u32"));
    }

    #[test]
    fn is_std_error() {
        fn check<E: std::error::Error + Send + Sync + 'static>() {}
        check::<CoreError>();
    }
}
