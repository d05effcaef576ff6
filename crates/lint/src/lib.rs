//! `stab-lint`: the workspace's dependency-free static-analysis harness.
//!
//! Two pass families, both wired into CI as hard gates. The source
//! passes share a hand-rolled comment/string-aware tokenizer
//! ([`lexer`]) — no `syn`, no crates-io — and, since this version, a
//! workspace-wide **symbol layer**: [`resolve`] extracts a per-crate
//! item table (every `fn`, its impl/trait self type, module path,
//! visibility, `#[cfg(test)]` status and body span) and [`callgraph`]
//! connects the items with name-matched call edges.
//!
//! **Over-approximation model.** The symbol layer is lexer-level, not a
//! type checker: callees match by bare name across every crate, trait
//! dispatch and imports are not modelled. Imprecision is one-sided by
//! construction — a spurious edge or item can only *widen* what the
//! passes audit (one more reasoned annotation at worst), never silence
//! a real finding. That is the correct failure direction for a lint
//! gate, and every pass below is designed around it.
//!
//! Source passes, each with a stable rule code ([`PassId::code`]):
//!
//! * **SL001 [`casts`]** — lossy-cast audit over the whole workspace:
//!   narrowing / sign-losing `as` casts need `// lint: cast-ok(<reason>)`;
//! * **SL002 [`panics`]** — interprocedural panic reachability: no
//!   `unwrap` / `expect` / `panic!` / slice-index in durable-write-path
//!   functions transitively reachable from the public entry points
//!   (`Study::run`, the explore/resume surfaces, the solvers) — each
//!   finding reports its shortest call chain, modulo the reasoned
//!   allowlist in `crates/lint/panic_allowlist.txt`;
//! * **SL003 [`unsafety`]** — every `unsafe` needs an attached
//!   `// SAFETY:` comment and a `#![deny(unsafe_op_in_unsafe_fn)]`
//!   module policy header;
//! * **SL004 [`constants`]** — the `WSR1` frame magic, the CRC32C
//!   polynomial and the `study_report/vN` schema string must each have
//!   exactly one defining site;
//! * **SL005 [`specs`]** — pre-exploration well-formedness audit of
//!   every algorithm-zoo member via
//!   [`stab_checker::structure::audit_spec`];
//! * **SL006 [`arith`]** — offset/id overflow dataflow: unchecked
//!   `+`/`*`/`<<` on offset-lexicon or `engine::ids`-typed operands in
//!   the engine's offset-bearing modules needs
//!   `// lint: arith-ok(<reason>)`;
//! * **SL007 [`captures`]** — fork-join capture audit: closures passed
//!   into `engine::parallel::map_chunks` / `map_ranges`, and both arms
//!   of `parallel::join`, may not capture `&mut` bindings,
//!   `static mut`, or `Cell`/`RefCell`/`UnsafeCell` state crossing the
//!   join boundary;
//! * **SL008 [`discards`]** — error hygiene on the durable paths:
//!   `let _ = fallible();` and `.ok();` discards need
//!   `// lint: discard-ok(<reason>)`.
//!
//! Run it as `cargo run -p stab-lint -- --source --specs`; both
//! families exit non-zero on findings. Diagnostics are sorted by
//! (file, line, code) and render as `file:line: [SLnnn label] message`;
//! `--format json` emits the same findings as a JSON array for CI
//! artifacts. The annotation and allowlist grammars are documented in
//! the README's "Static analysis" section.

pub mod arith;
pub mod callgraph;
pub mod captures;
pub mod casts;
pub mod constants;
pub mod discards;
pub mod lexer;
pub mod panics;
pub mod resolve;
pub mod specs;
pub mod unsafety;

use std::fmt;
use std::path::{Path, PathBuf};

/// One finding of a source pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// The pass that produced the finding.
    pub pass: PassId,
    /// Workspace-relative path of the offending file.
    pub file: String,
    /// 1-based line of the finding (0 for file-level findings).
    pub line: u32,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{} {}] {}",
            self.file,
            self.line,
            self.pass.code(),
            self.pass.label(),
            self.message
        )
    }
}

/// The source passes plus the spec pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum PassId {
    /// Lossy-cast audit.
    Cast,
    /// Interprocedural panic reachability over the durable write paths.
    Panic,
    /// `unsafe` hygiene audit.
    Unsafe,
    /// Framing-constant single-definition audit.
    Constant,
    /// Algorithm-spec well-formedness audit.
    Spec,
    /// Offset/id overflow dataflow.
    Arith,
    /// Fork-join capture audit.
    Capture,
    /// Durable-path error-discard audit.
    Discard,
}

impl PassId {
    /// Stable lower-case label used in diagnostics and fixture tests.
    pub fn label(self) -> &'static str {
        match self {
            PassId::Cast => "cast",
            PassId::Panic => "panic",
            PassId::Unsafe => "unsafe",
            PassId::Constant => "constant",
            PassId::Spec => "spec",
            PassId::Arith => "arith",
            PassId::Capture => "capture",
            PassId::Discard => "discard",
        }
    }

    /// Stable rule code, assigned once and never reused: CI keys its
    /// zero-findings assertion on these.
    pub fn code(self) -> &'static str {
        match self {
            PassId::Cast => "SL001",
            PassId::Panic => "SL002",
            PassId::Unsafe => "SL003",
            PassId::Constant => "SL004",
            PassId::Spec => "SL005",
            PassId::Arith => "SL006",
            PassId::Capture => "SL007",
            PassId::Discard => "SL008",
        }
    }

    /// Every pass, in rule-code order (for JSON reports and CI).
    pub const ALL: &'static [PassId] = &[
        PassId::Cast,
        PassId::Panic,
        PassId::Unsafe,
        PassId::Constant,
        PassId::Spec,
        PassId::Arith,
        PassId::Capture,
        PassId::Discard,
    ];
}

/// A source file loaded for analysis.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path (used in diagnostics).
    pub rel_path: String,
    /// Raw contents.
    pub text: String,
    /// Lexed form.
    pub lexed: lexer::Lexed,
}

impl SourceFile {
    /// Loads and lexes one file. `root` anchors the relative path shown
    /// in diagnostics.
    pub fn load(root: &Path, path: &Path) -> std::io::Result<SourceFile> {
        let text = std::fs::read_to_string(path)?;
        let rel_path = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        let lexed = lexer::lex(&text);
        Ok(SourceFile {
            rel_path,
            text,
            lexed,
        })
    }

    /// Builds a source file from in-memory text (fixture tests).
    pub fn from_text(rel_path: &str, text: &str) -> SourceFile {
        SourceFile {
            rel_path: rel_path.to_string(),
            text: text.to_string(),
            lexed: lexer::lex(text),
        }
    }
}

/// Extracts a `<marker><reason>)` annotation from the comment on `line`
/// or, failing that, the line directly above (annotation-only lines).
/// `Some(Err(()))` means the marker is present but malformed — no
/// closing paren or an empty reason. Shared by every annotation-escaped
/// pass; markers are the `lint: xxx-ok(` constants of the pass modules.
pub fn annotation_for(lexed: &lexer::Lexed, line: u32, marker: &str) -> Option<Result<String, ()>> {
    let reason_in = |comment: &str| -> Option<Result<String, ()>> {
        let start = comment.find(marker)?;
        let rest = &comment[start + marker.len()..];
        match rest.find(')') {
            Some(end) => {
                let reason = rest[..end].trim();
                if reason.is_empty() {
                    Some(Err(()))
                } else {
                    Some(Ok(reason.to_string()))
                }
            }
            None => Some(Err(())),
        }
    };
    if let Some(r) = reason_in(&lexed.comment_on_line(line)) {
        return Some(r);
    }
    if line > 1 {
        return reason_in(&lexed.comment_on_line(line - 1));
    }
    None
}

/// Sorts diagnostics into the stable output order: (file, line, code,
/// message). Every consumer — text output, JSON artifacts, fixture
/// assertions — sees the same order on every platform.
pub fn sort_diagnostics(diags: &mut [Diagnostic]) {
    diags.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.pass.code(), a.message.as_str()).cmp(&(
            b.file.as_str(),
            b.line,
            b.pass.code(),
            b.message.as_str(),
        ))
    });
}

fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            // lint: cast-ok(char scalar values are at most 0x10FFFF, lossless into u32)
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders diagnostics as a JSON document for CI artifacts:
/// `{"findings": [...], "counts": {"SL001": n, ...}, "total": n}`.
/// Counts carry every rule code, zeroes included, so the CI assertion
/// can key on each code without special-casing absence.
pub fn render_json(diags: &[Diagnostic]) -> String {
    let mut out = String::from("{\n  \"findings\": [");
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"code\": \"{}\", \"pass\": \"{}\", \"file\": \"{}\", \
             \"line\": {}, \"message\": \"{}\"}}",
            d.pass.code(),
            d.pass.label(),
            escape_json(&d.file),
            d.line,
            escape_json(&d.message)
        ));
    }
    if !diags.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("],\n  \"counts\": {");
    for (i, p) in PassId::ALL.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let n = diags.iter().filter(|d| d.pass == *p).count();
        out.push_str(&format!("\"{}\": {n}", p.code()));
    }
    out.push_str(&format!("}},\n  \"total\": {}\n}}\n", diags.len()));
    out
}

/// Recursively collects `.rs` files under `dir`, sorted for
/// deterministic diagnostics.
pub fn rust_files_under(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&d) else {
            continue;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                stack.push(p);
            } else if p.extension().is_some_and(|x| x == "rs") {
                out.push(p);
            }
        }
    }
    out.sort();
    out
}

/// The workspace root, derived from this crate's manifest directory
/// (`crates/lint` → two levels up).
pub fn workspace_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(Path::parent)
        .expect("crates/lint sits two levels below the workspace root")
        .to_path_buf()
}

/// Runs every source pass over the workspace rooted at `root` and
/// returns the findings in stable sorted order (empty = clean).
///
/// Scopes:
/// * **symbol layer** (resolve + call graph) — every crate's `src` tree
///   plus the facade's `src`, *excluding* `crates/lint/src` (the
///   linter's own helpers share names like `parse`/`audit` with the
///   analysed code and would only add bogus edges);
/// * SL001 cast — the whole workspace, linter included;
/// * SL002 panic — reachability over the whole graph, findings reported
///   in the durable write paths ([`panics::DURABLE_PATHS`]);
/// * SL003 unsafe + SL004 constants — everything except the linter
///   (whose sources must mention the audited literals to recognise
///   them);
/// * SL006 arith — the engine's offset-bearing modules
///   ([`arith::ARITH_PATHS`]);
/// * SL007 capture — every `map_chunks` / `map_ranges` /
///   `parallel::join` call site workspace-wide;
/// * SL008 discard — the durable paths ([`discards::DISCARD_PATHS`]).
pub fn run_source(root: &Path) -> std::io::Result<Vec<Diagnostic>> {
    let mut diags = Vec::new();

    // ---- load: analysis set (all non-lint src) + lint's own src -----
    let mut analysis: Vec<SourceFile> = Vec::new();
    let mut lint_src: Vec<SourceFile> = Vec::new();
    let crates_dir = root.join("crates");
    if let Ok(entries) = std::fs::read_dir(&crates_dir) {
        let mut crate_dirs: Vec<PathBuf> = entries
            .flatten()
            .map(|e| e.path())
            .filter(|p| p.is_dir())
            .collect();
        crate_dirs.sort();
        for c in crate_dirs {
            let is_lint = c.file_name().is_some_and(|n| n == "lint");
            for p in rust_files_under(&c.join("src")) {
                let f = SourceFile::load(root, &p)?;
                if is_lint {
                    lint_src.push(f);
                } else {
                    analysis.push(f);
                }
            }
        }
    }
    for p in rust_files_under(&root.join("src")) {
        analysis.push(SourceFile::load(root, &p)?);
    }

    // ---- symbol layer -----------------------------------------------
    let resolved = resolve::resolve(&analysis);
    let graph = callgraph::CallGraph::build(&analysis, &resolved);

    // ---- SL001 cast: whole workspace, linter included ---------------
    for f in analysis.iter().chain(lint_src.iter()) {
        diags.extend(casts::audit(f));
    }

    // ---- SL002 panic: workspace reachability, durable-path findings -
    let allowlist_path = root.join("crates/lint/panic_allowlist.txt");
    let allowlist = match std::fs::read_to_string(&allowlist_path) {
        Ok(text) => panics::Allowlist::parse(&text, &mut diags),
        Err(_) => panics::Allowlist::default(),
    };
    let roots = panics::default_roots(&resolved);
    diags.extend(panics::audit(
        &analysis,
        &resolved,
        &graph,
        &roots,
        &|rel| panics::DURABLE_PATHS.contains(&rel),
        &allowlist,
    ));

    // ---- SL003 unsafe + SL004 constants -----------------------------
    for f in &analysis {
        diags.extend(unsafety::audit(f));
    }
    diags.extend(constants::audit(&analysis));

    // ---- SL006 arith ------------------------------------------------
    for (idx, f) in analysis.iter().enumerate() {
        if arith::ARITH_PATHS.contains(&f.rel_path.as_str()) {
            diags.extend(arith::audit(f, &resolved, idx));
        }
    }

    // ---- SL007 capture: every fork-join site workspace-wide ---------
    let statics = captures::static_mut_names(&analysis);
    for (idx, f) in analysis.iter().enumerate() {
        diags.extend(captures::audit(f, &resolved, idx, &statics));
    }

    // ---- SL008 discard ----------------------------------------------
    for (idx, f) in analysis.iter().enumerate() {
        if discards::DISCARD_PATHS.contains(&f.rel_path.as_str()) {
            diags.extend(discards::audit(f, &resolved, idx));
        }
    }

    sort_diagnostics(&mut diags);
    Ok(diags)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workspace_root_holds_the_manifest() {
        assert!(workspace_root().join("Cargo.toml").is_file());
    }

    #[test]
    fn rust_files_are_sorted_and_rs_only() {
        let files = rust_files_under(&workspace_root().join("crates/lint/src"));
        assert!(files.iter().all(|p| p.extension().unwrap() == "rs"));
        let mut sorted = files.clone();
        sorted.sort();
        assert_eq!(files, sorted);
    }

    #[test]
    fn diagnostics_render_with_code_and_label() {
        let d = Diagnostic {
            pass: PassId::Cast,
            file: "x.rs".into(),
            line: 7,
            message: "m".into(),
        };
        assert_eq!(d.to_string(), "x.rs:7: [SL001 cast] m");
    }

    #[test]
    fn rule_codes_are_unique_and_stable() {
        let codes: Vec<&str> = PassId::ALL.iter().map(|p| p.code()).collect();
        let mut dedup = codes.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(codes.len(), dedup.len());
        assert_eq!(PassId::Cast.code(), "SL001");
        assert_eq!(PassId::Discard.code(), "SL008");
    }

    #[test]
    fn sort_is_by_file_line_code() {
        let mk = |pass, file: &str, line| Diagnostic {
            pass,
            file: file.into(),
            line,
            message: "m".into(),
        };
        let mut d = vec![
            mk(PassId::Arith, "b.rs", 2),
            mk(PassId::Cast, "b.rs", 2),
            mk(PassId::Panic, "a.rs", 9),
        ];
        sort_diagnostics(&mut d);
        assert_eq!(d[0].file, "a.rs");
        assert_eq!(d[1].pass, PassId::Cast); // SL001 before SL006
        assert_eq!(d[2].pass, PassId::Arith);
    }

    #[test]
    fn json_report_escapes_and_counts() {
        let d = vec![Diagnostic {
            pass: PassId::Capture,
            file: "a.rs".into(),
            line: 3,
            message: "uses `x` and a \"quote\"".into(),
        }];
        let json = render_json(&d);
        assert!(json.contains("\"code\": \"SL007\""), "{json}");
        assert!(json.contains("\\\"quote\\\""), "{json}");
        assert!(json.contains("\"SL001\": 0"), "{json}");
        assert!(json.contains("\"SL007\": 1"), "{json}");
        assert!(json.contains("\"total\": 1"), "{json}");
        let empty = render_json(&[]);
        assert!(empty.contains("\"findings\": []"), "{empty}");
    }

    #[test]
    fn shared_annotation_helper_reads_line_and_line_above() {
        let lexed = lexer::lex("let a = 1; // lint: arith-ok(bounded)\nlet b = 2;\n");
        assert_eq!(
            annotation_for(&lexed, 1, "lint: arith-ok("),
            Some(Ok("bounded".to_string()))
        );
        assert_eq!(
            annotation_for(&lexed, 2, "lint: arith-ok("),
            Some(Ok("bounded".to_string()))
        );
        assert_eq!(annotation_for(&lexed, 2, "lint: cast-ok("), None);
        let bad = lexer::lex("let a = 1; // lint: arith-ok( )\n");
        assert_eq!(annotation_for(&bad, 1, "lint: arith-ok("), Some(Err(())));
    }
}
