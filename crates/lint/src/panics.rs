//! Pass SL002: interprocedural panic reachability over the durable
//! write paths.
//!
//! The checkpoint / spill machinery must never abort mid-write with an
//! unlocalised panic: a torn frame is exactly the corruption the `WSR1`
//! framing exists to prevent, and PR 6's sticky-error `FrameSink` was
//! built so I/O failures surface as typed `CheckpointIo` errors instead.
//! PR 9's version of this pass closed over call edges *within* the
//! three durable-path files; this version walks the **workspace call
//! graph** ([`crate::callgraph`]) instead, so a helper in `spill.rs`
//! that is only ever invoked from `explore.rs` — across a crate
//! boundary — is audited too, and every finding reports the **shortest
//! call chain** from a root:
//!
//! * **Roots** ([`default_roots`]) — the public entry points of the
//!   reproduction: `Study::run`, `TransitionSystem::{explore,
//!   explore_with, explore_guarded, resume}`, `AbsorbingChain::{build,
//!   build_with, from_transition_system}`, the Gauss–Seidel / dense
//!   solvers and the `expected_*` hitting-time surfaces — plus, keeping
//!   the PR 9 guarantee intact, every method defined directly inside an
//!   `impl FrameSink` / `impl SpillSink` block.
//! * **Closure** — everything transitively callable from a root in the
//!   over-approximate name-matched call graph. Over-connection can only
//!   *widen* the audited set.
//! * **Findings** — abort sites (`.unwrap()` / `.expect(..)`,
//!   `panic!`-family macros, `assert!`-family macros, slice/array index
//!   expressions) inside reachable functions of the **audited files**
//!   (the durable write paths), each reported with its shortest chain.
//!
//! Deliberate sites are carried by `crates/lint/panic_allowlist.txt`:
//! one entry per line, `file::function kind reason…`. Every entry must
//! carry a reason and must match at least one finding — stale entries
//! are themselves findings, so the allowlist cannot rot. Test modules
//! are exempt: test code may abort freely.

use std::collections::{BTreeMap, BTreeSet};

use crate::callgraph::{CallGraph, Reach};
use crate::lexer::TokenKind;
use crate::resolve::Resolved;
use crate::{Diagnostic, PassId, SourceFile};

/// The workspace-relative durable-write-path files whose abort sites
/// the pass reports.
pub const DURABLE_PATHS: &[&str] = &[
    "crates/core/src/engine/resilience.rs",
    "crates/core/src/engine/spill.rs",
    "crates/core/src/engine/edgestore.rs",
];

/// The kinds of abort site the pass recognises.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum AbortKind {
    /// `.unwrap()`.
    Unwrap,
    /// `.expect(..)`.
    Expect,
    /// `panic!` / `unreachable!` / `todo!` / `unimplemented!`.
    Panic,
    /// `assert!` / `assert_eq!` / `assert_ne!`.
    Assert,
    /// Slice or array index expression.
    Index,
}

impl AbortKind {
    /// Stable label used in diagnostics and the allowlist grammar.
    pub fn label(self) -> &'static str {
        match self {
            AbortKind::Unwrap => "unwrap",
            AbortKind::Expect => "expect",
            AbortKind::Panic => "panic",
            AbortKind::Assert => "assert",
            AbortKind::Index => "index",
        }
    }

    fn parse(s: &str) -> Option<AbortKind> {
        Some(match s {
            "unwrap" => AbortKind::Unwrap,
            "expect" => AbortKind::Expect,
            "panic" => AbortKind::Panic,
            "assert" => AbortKind::Assert,
            "index" => AbortKind::Index,
            _ => return None,
        })
    }
}

/// The reasoned allowlist: `(file_stem::fn, kind) → reason`.
#[derive(Debug, Default)]
pub struct Allowlist {
    entries: BTreeMap<(String, AbortKind), String>,
}

impl Allowlist {
    /// Parses the allowlist text. Malformed lines (missing kind or
    /// reason) are reported into `diags` rather than silently dropped.
    pub fn parse(text: &str, diags: &mut Vec<Diagnostic>) -> Allowlist {
        let mut entries = BTreeMap::new();
        for (idx, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.splitn(3, char::is_whitespace);
            let key = parts.next().unwrap_or_default();
            let kind = parts.next().and_then(AbortKind::parse);
            let reason = parts.next().map(str::trim).unwrap_or_default();
            match kind {
                Some(k) if key.contains("::") && !reason.is_empty() => {
                    entries.insert((key.to_string(), k), reason.to_string());
                }
                _ => diags.push(Diagnostic {
                    pass: PassId::Panic,
                    file: "crates/lint/panic_allowlist.txt".into(),
                    // lint: cast-ok(allowlist line numbers fit u32)
                    line: (idx + 1) as u32,
                    message: format!(
                        "malformed allowlist entry `{line}` — expected \
                         `file::function kind reason…` with a non-empty reason"
                    ),
                }),
            }
        }
        Allowlist { entries }
    }

    fn contains(&self, key: &str, kind: AbortKind) -> bool {
        self.entries.contains_key(&(key.to_string(), kind))
    }
}

/// The default root set: public entry points plus the PR 9 sink impls.
pub fn default_roots(resolved: &Resolved) -> Vec<usize> {
    const SINK_TYPES: &[&str] = &["FrameSink", "SpillSink"];
    const TYPED_ROOTS: &[(&str, &str)] = &[
        ("Study", "run"),
        ("TransitionSystem", "explore"),
        ("TransitionSystem", "explore_with"),
        ("TransitionSystem", "explore_guarded"),
        ("TransitionSystem", "resume"),
        ("AbsorbingChain", "build"),
        ("AbsorbingChain", "build_with"),
        ("AbsorbingChain", "from_transition_system"),
    ];
    const FREE_ROOTS: &[&str] = &[
        "gauss_seidel",
        "gauss_seidel_multi",
        "solve_dense",
        "solve_dense_multi",
    ];
    let mut roots = Vec::new();
    for (idx, it) in resolved.items.iter().enumerate() {
        if it.in_test {
            continue;
        }
        let ty = it.self_type.as_deref();
        let is_root = ty.is_some_and(|t| SINK_TYPES.contains(&t))
            || ty.is_some_and(|t| TYPED_ROOTS.contains(&(t, it.name.as_str())))
            || (it.is_pub && FREE_ROOTS.contains(&it.name.as_str()))
            || (it.is_pub && it.name.starts_with("expected_"));
        if is_root {
            roots.push(idx);
        }
    }
    roots
}

/// Runs the panic-reachability audit.
///
/// `resolved`/`graph` span the whole workspace; `audited` selects the
/// files whose abort sites are reported (the durable write paths in
/// production, every fixture file in tests); `roots` are item indices
/// (usually [`default_roots`]).
pub fn audit(
    files: &[SourceFile],
    resolved: &Resolved,
    graph: &CallGraph,
    roots: &[usize],
    audited: &dyn Fn(&str) -> bool,
    allowlist: &Allowlist,
) -> Vec<Diagnostic> {
    let reach = graph.bfs(roots);
    let mut diags = Vec::new();
    let mut used_allow: BTreeSet<(String, AbortKind)> = BTreeSet::new();
    for (idx, it) in resolved.items.iter().enumerate() {
        if it.in_test || !reach.reached(idx) || !audited(&files[it.file_idx].rel_path) {
            continue;
        }
        let toks = &files[it.file_idx].lexed.tokens;
        let key = resolved.allow_key(idx);
        for i in it.body.clone() {
            let Some(kind) = abort_site(toks, i) else {
                continue;
            };
            if allowlist.contains(&key, kind) {
                used_allow.insert((key.clone(), kind));
                continue;
            }
            diags.push(Diagnostic {
                pass: PassId::Panic,
                file: files[it.file_idx].rel_path.clone(),
                line: toks[i].line,
                message: format!(
                    "`{}` in `{key}`, reachable via {} — return a typed error, or add \
                     `{key} {} <reason>` to crates/lint/panic_allowlist.txt",
                    kind.label(),
                    render_chain(resolved, &reach, idx),
                    kind.label()
                ),
            });
        }
    }

    // Stale allowlist entries are findings too.
    for (key, kind) in allowlist.entries.keys() {
        if !used_allow.contains(&(key.clone(), *kind)) {
            diags.push(Diagnostic {
                pass: PassId::Panic,
                file: "crates/lint/panic_allowlist.txt".into(),
                line: 0,
                message: format!(
                    "stale allowlist entry `{key} {}` matches no finding — remove it",
                    kind.label()
                ),
            });
        }
    }
    diags
}

/// Renders the shortest call chain to item `idx` as `a -> b -> c`.
fn render_chain(resolved: &Resolved, reach: &Reach, idx: usize) -> String {
    let names: Vec<String> = reach
        .chain(idx)
        .into_iter()
        .map(|i| resolved.display(i))
        .collect();
    names.join(" -> ")
}

/// Classifies the token at `i` as an abort site, if it is one.
fn abort_site(toks: &[crate::lexer::Token], i: usize) -> Option<AbortKind> {
    let t = &toks[i];
    match (t.kind, t.text.as_str()) {
        (TokenKind::Ident, "unwrap") | (TokenKind::Ident, "expect")
            if i > 0
                && toks[i - 1].kind == TokenKind::Punct
                && toks[i - 1].text == "."
                && toks
                    .get(i + 1)
                    .is_some_and(|n| n.kind == TokenKind::Punct && n.text == "(") =>
        {
            Some(if t.text == "unwrap" {
                AbortKind::Unwrap
            } else {
                AbortKind::Expect
            })
        }
        (TokenKind::Ident, "panic" | "unreachable" | "todo" | "unimplemented")
            if toks
                .get(i + 1)
                .is_some_and(|n| n.kind == TokenKind::Punct && n.text == "!") =>
        {
            Some(AbortKind::Panic)
        }
        (TokenKind::Ident, "assert" | "assert_eq" | "assert_ne")
            if toks
                .get(i + 1)
                .is_some_and(|n| n.kind == TokenKind::Punct && n.text == "!") =>
        {
            Some(AbortKind::Assert)
        }
        (TokenKind::Punct, "[")
            if i > 0
                && (toks[i - 1].kind == TokenKind::Ident
                    && !is_keyword_before_bracket(&toks[i - 1].text)
                    || toks[i - 1].kind == TokenKind::Punct
                        && (toks[i - 1].text == ")" || toks[i - 1].text == "]")) =>
        {
            Some(AbortKind::Index)
        }
        _ => None,
    }
}

/// Identifiers that may directly precede `[` without forming an index
/// expression (statement-position keywords before array literals).
fn is_keyword_before_bracket(ident: &str) -> bool {
    matches!(
        ident,
        "return" | "break" | "in" | "else" | "match" | "mut" | "dyn" | "const" | "let"
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph::CallGraph;
    use crate::resolve;

    fn run(src: &str, allow: &str) -> Vec<Diagnostic> {
        let files = vec![SourceFile::from_text("engine/resilience.rs", src)];
        let resolved = resolve::resolve(&files);
        let graph = CallGraph::build(&files, &resolved);
        let roots = default_roots(&resolved);
        let mut diags = Vec::new();
        let allowlist = Allowlist::parse(allow, &mut diags);
        diags.extend(audit(
            &files,
            &resolved,
            &graph,
            &roots,
            &|_| true,
            &allowlist,
        ));
        diags
    }

    const SINK: &str = r#"
struct FrameSink;
impl FrameSink {
    fn write(&mut self) { helper(); }
}
fn helper() { let v = vec![1]; let _x = v.first().unwrap(); }
fn unrelated() { let v: Vec<u8> = vec![]; let _x = v.len(); }
"#;

    #[test]
    fn reachable_unwrap_is_flagged_unreachable_is_not() {
        let d = run(SINK, "");
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("unwrap"));
        assert!(d[0].message.contains("resilience::helper"));
    }

    #[test]
    fn findings_carry_the_shortest_chain() {
        let d = run(SINK, "");
        assert!(
            d[0].message
                .contains("FrameSink::write -> resilience::helper"),
            "{}",
            d[0].message
        );
    }

    #[test]
    fn entry_point_roots_reach_across_items() {
        let src = r#"
struct TransitionSystem;
impl TransitionSystem {
    pub fn explore(&self) { stage_one(); }
}
fn stage_one() { stage_two(); }
fn stage_two() { panic!("abort mid-path"); }
"#;
        let d = run(src, "");
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(
            d[0].message.contains(
                "TransitionSystem::explore -> resilience::stage_one -> resilience::stage_two"
            ),
            "{}",
            d[0].message
        );
    }

    #[test]
    fn allowlisted_finding_passes() {
        let d = run(
            SINK,
            "resilience::helper unwrap first element exists by construction\n",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn stale_entries_are_findings() {
        let d = run(
            SINK,
            "resilience::helper unwrap ok\nresilience::gone index was removed\n",
        );
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("stale"));
    }

    #[test]
    fn malformed_entries_are_findings() {
        let d = run(
            SINK,
            "resilience::helper unwrap ok\nnot-a-key unwrap reason\n",
        );
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("malformed"));
    }

    #[test]
    fn index_panic_and_assert_kinds_fire() {
        let src = r#"
struct SpillSink;
impl SpillSink {
    fn spill(&mut self) {
        let v = [1, 2];
        let _x = v[0];
        assert!(true);
        panic!("boom");
    }
}
"#;
        let d = run(src, "");
        let kinds: Vec<&str> = d
            .iter()
            .map(|x| {
                if x.message.contains("`index`") {
                    "index"
                } else if x.message.contains("`assert`") {
                    "assert"
                } else {
                    "panic"
                }
            })
            .collect();
        assert_eq!(d.len(), 3, "{d:?}");
        assert!(kinds.contains(&"index") && kinds.contains(&"assert") && kinds.contains(&"panic"));
    }

    #[test]
    fn macro_brackets_and_attributes_are_not_indexing() {
        let src = r#"
struct FrameSink;
impl FrameSink {
    #[inline]
    fn write(&mut self) { let _v = vec![1, 2]; let _a = [0u8; 4]; }
}
"#;
        let d = run(src, "");
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn test_modules_are_exempt() {
        let src = r#"
struct FrameSink;
impl FrameSink {
    fn write(&mut self) {}
}
#[cfg(test)]
mod tests {
    fn write() { let v = vec![1]; let _x = v[0]; }
}
"#;
        let d = run(src, "");
        assert!(d.is_empty(), "{d:?}");
    }
}
