//! Fixture battery for the source passes: every bad fixture under
//! `tests/fixtures/` must produce exactly one diagnostic from its pass,
//! every good fixture must pass clean, and the real workspace must lint
//! clean end to end. The fixtures live outside any `src` tree, so
//! [`stab_lint::run_source`] never sees them. The `minicrate/`
//! subdirectory is a two-module fixture exercising the cross-file call
//! graph and shortest-chain reporting.

use std::path::PathBuf;

use stab_lint::callgraph::CallGraph;
use stab_lint::{
    arith, captures, casts, constants, discards, panics, resolve, unsafety, Diagnostic, PassId,
    SourceFile,
};

fn fixture(name: &str) -> SourceFile {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    SourceFile::load(&dir, &dir.join(name)).expect("fixture exists")
}

/// Runs the interprocedural panic audit over `files` with the default
/// roots and an in-memory allowlist, auditing every file.
fn panic_audit(files: &[SourceFile], allow: &str) -> Vec<Diagnostic> {
    let resolved = resolve::resolve(files);
    let graph = CallGraph::build(files, &resolved);
    let roots = panics::default_roots(&resolved);
    let mut diags = Vec::new();
    let allowlist = panics::Allowlist::parse(allow, &mut diags);
    diags.extend(panics::audit(
        files,
        &resolved,
        &graph,
        &roots,
        &|_| true,
        &allowlist,
    ));
    diags
}

#[test]
fn cast_bad_yields_exactly_one_cast_diagnostic() {
    let d = casts::audit(&fixture("cast_bad.rs"));
    assert_eq!(d.len(), 1, "{d:?}");
    assert_eq!(d[0].pass, PassId::Cast);
    assert_eq!(d[0].file, "cast_bad.rs");
    assert!(d[0].message.contains("u32"), "{}", d[0].message);
}

#[test]
fn cast_good_passes_clean() {
    let d = casts::audit(&fixture("cast_good.rs"));
    assert!(d.is_empty(), "{d:?}");
}

#[test]
fn panic_bad_yields_exactly_one_panic_diagnostic() {
    let diags = panic_audit(&[fixture("panic_bad.rs")], "");
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].pass, PassId::Panic);
    assert!(diags[0].message.contains("unwrap"), "{}", diags[0].message);
    assert!(
        diags[0].message.contains("panic_bad::encode"),
        "the unreachable `unrelated` unwrap must not be flagged: {}",
        diags[0].message
    );
    assert!(
        diags[0]
            .message
            .contains("FrameSink::write -> panic_bad::encode"),
        "the shortest chain must be reported: {}",
        diags[0].message
    );
}

#[test]
fn panic_good_passes_clean() {
    let diags = panic_audit(&[fixture("panic_good.rs")], "");
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn minicrate_call_graph_connects_across_files() {
    let files = [
        fixture("minicrate/entry.rs"),
        fixture("minicrate/helpers.rs"),
    ];
    let resolved = resolve::resolve(&files);
    let graph = CallGraph::build(&files, &resolved);
    let idx = |n: &str| {
        resolved
            .items
            .iter()
            .position(|i| i.name == n)
            .unwrap_or_else(|| panic!("item {n}"))
    };
    // write → mid (same file), mid → leaf (cross-file), island isolated.
    assert_eq!(graph.callees[idx("write")], vec![idx("mid")]);
    assert_eq!(graph.callees[idx("mid")], vec![idx("leaf")]);
    let reach = graph.bfs(&panics::default_roots(&resolved));
    assert!(reach.reached(idx("leaf")));
    assert!(!reach.reached(idx("island")));
}

#[test]
fn minicrate_findings_report_the_cross_file_shortest_chain() {
    let files = [
        fixture("minicrate/entry.rs"),
        fixture("minicrate/helpers.rs"),
    ];
    let diags = panic_audit(&files, "");
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].file, "minicrate/helpers.rs");
    assert!(
        diags[0]
            .message
            .contains("FrameSink::write -> entry::mid -> helpers::leaf"),
        "{}",
        diags[0].message
    );
}

#[test]
fn arith_bad_yields_exactly_one_arith_diagnostic() {
    let files = [fixture("arith_bad.rs")];
    let resolved = resolve::resolve(&files);
    let d = arith::audit(&files[0], &resolved, 0);
    assert_eq!(d.len(), 1, "{d:?}");
    assert_eq!(d[0].pass, PassId::Arith);
    assert!(d[0].message.contains("chunk_offset"), "{}", d[0].message);
}

#[test]
fn arith_good_passes_clean() {
    let files = [fixture("arith_good.rs")];
    let resolved = resolve::resolve(&files);
    let d = arith::audit(&files[0], &resolved, 0);
    assert!(d.is_empty(), "{d:?}");
}

#[test]
fn capture_bad_yields_exactly_one_capture_diagnostic_per_call() {
    let files = [fixture("capture_bad.rs")];
    let resolved = resolve::resolve(&files);
    let statics = captures::static_mut_names(&files);
    let d = captures::audit(&files[0], &resolved, 0, &statics);
    assert_eq!(d.len(), 3, "{d:?}");
    assert!(d.iter().all(|d| d.pass == PassId::Capture), "{d:?}");
    assert!(d[0].message.contains("borrow_mut"), "{}", d[0].message);
    assert!(
        d[1].message
            .contains("`join` worker assigns captured `seen`"),
        "{}",
        d[1].message
    );
    assert!(
        d[2].message
            .contains("`join` worker assigns captured `runs`"),
        "{}",
        d[2].message
    );
}

#[test]
fn capture_good_passes_clean() {
    let files = [fixture("capture_good.rs")];
    let resolved = resolve::resolve(&files);
    let statics = captures::static_mut_names(&files);
    let d = captures::audit(&files[0], &resolved, 0, &statics);
    assert!(d.is_empty(), "{d:?}");
}

#[test]
fn discard_bad_yields_exactly_one_discard_diagnostic() {
    let files = [fixture("discard_bad.rs")];
    let resolved = resolve::resolve(&files);
    let d = discards::audit(&files[0], &resolved, 0);
    assert_eq!(d.len(), 1, "{d:?}");
    assert_eq!(d[0].pass, PassId::Discard);
    assert!(
        d[0].message.contains("binds a call result"),
        "{}",
        d[0].message
    );
}

#[test]
fn discard_good_passes_clean() {
    let files = [fixture("discard_good.rs")];
    let resolved = resolve::resolve(&files);
    let d = discards::audit(&files[0], &resolved, 0);
    assert!(d.is_empty(), "{d:?}");
}

#[test]
fn unsafe_without_safety_comment_yields_exactly_one_diagnostic() {
    let d = unsafety::audit(&fixture("unsafe_bad.rs"));
    assert_eq!(d.len(), 1, "{d:?}");
    assert_eq!(d[0].pass, PassId::Unsafe);
    assert!(d[0].message.contains("SAFETY"), "{}", d[0].message);
}

#[test]
fn unsafe_without_policy_header_yields_exactly_one_diagnostic() {
    let d = unsafety::audit(&fixture("unsafe_bad_policy.rs"));
    assert_eq!(d.len(), 1, "{d:?}");
    assert_eq!(d[0].pass, PassId::Unsafe);
    assert!(
        d[0].message.contains("unsafe_op_in_unsafe_fn"),
        "{}",
        d[0].message
    );
}

#[test]
fn unsafe_good_passes_clean() {
    let d = unsafety::audit(&fixture("unsafe_good.rs"));
    assert!(d.is_empty(), "{d:?}");
}

#[test]
fn duplicated_frame_magic_yields_exactly_one_diagnostic() {
    let files = [fixture("constants_base.rs"), fixture("constants_bad.rs")];
    let d = constants::audit(&files);
    assert_eq!(d.len(), 1, "{d:?}");
    assert_eq!(d[0].pass, PassId::Constant);
    assert!(d[0].message.contains("WSR1"), "{}", d[0].message);
    assert!(
        d[0].message.contains("constants_base.rs") && d[0].message.contains("constants_bad.rs"),
        "both sites must be listed: {}",
        d[0].message
    );
}

#[test]
fn single_constant_sites_pass_clean() {
    let d = constants::audit(&[fixture("constants_base.rs")]);
    assert!(d.is_empty(), "{d:?}");
}

#[test]
fn workspace_source_passes_are_clean() {
    let diags = stab_lint::run_source(&stab_lint::workspace_root()).expect("workspace readable");
    assert!(
        diags.is_empty(),
        "the committed workspace must lint clean:\n{}",
        diags
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}
