//! Workspace symbol resolution: the per-crate item table.
//!
//! [`resolve`] walks every loaded file's token stream once and extracts
//! an [`Item`] per `fn` — its name, the `impl`/`trait` self type it is
//! defined under (if any), its module path (derived from the file path
//! plus inline `mod` nesting), its visibility, whether it sits inside a
//! `#[cfg(test)]` module, and the token range of its body. The table is
//! the substrate for the interprocedural passes: the call graph
//! ([`crate::callgraph`]) connects items by name, the panic pass walks
//! reachability over it, and the capture pass uses the item spans to
//! find the function enclosing a fork-join call site.
//!
//! **Over-approximation model.** This is a lexer-level resolver, not a
//! type checker: items are keyed by bare name, generics are skipped
//! structurally, and no trait dispatch is modelled. Every consumer is
//! designed so imprecision only *widens* the analysed set (more
//! reachable functions, more candidate callees) — it can produce an
//! annotation request that a full type checker would not, never an
//! unsound silence. Test modules (`#[cfg(test)] mod …`) are resolved
//! but marked [`Item::in_test`]; the audit passes exempt them, since
//! test code may abort freely.

use std::ops::Range;

use crate::lexer::{Token, TokenKind};
use crate::SourceFile;

/// One resolved `fn` item.
#[derive(Debug)]
pub struct Item {
    /// Bare function name.
    pub name: String,
    /// The `impl`/`trait` self type the item is defined under, if any
    /// (last path segment: `impl QRows for DeltaStream` →
    /// `DeltaStream`; `trait QRows` → `QRows`).
    pub self_type: Option<String>,
    /// Module path derived from the file path plus inline `mod`
    /// nesting: `crates/core/src/engine/spill.rs` → `core::engine::spill`.
    pub module_path: String,
    /// File stem (`spill` for `engine/spill.rs`) — the allowlist key
    /// prefix, kept stable across the PR 9 grammar.
    pub file_stem: String,
    /// Index of the defining file in the slice passed to [`resolve`].
    pub file_idx: usize,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Token index range of the body (exclusive of the braces).
    pub body: Range<usize>,
    /// Declared with a `pub` (incl. `pub(crate)`) visibility.
    pub is_pub: bool,
    /// Defined inside a `#[cfg(test)]` module.
    pub in_test: bool,
}

/// The resolved item table for a set of files.
#[derive(Debug, Default)]
pub struct Resolved {
    /// All items, in (file, token) order.
    pub items: Vec<Item>,
    /// Per file: token index ranges covered by `#[cfg(test)] mod`
    /// bodies, sorted and disjoint.
    pub test_tokens: Vec<Vec<Range<usize>>>,
}

impl Resolved {
    /// Human-readable display name for chains and diagnostics:
    /// `Type::name` under an impl/trait, `file_stem::name` otherwise.
    pub fn display(&self, idx: usize) -> String {
        let it = &self.items[idx];
        match &it.self_type {
            Some(t) => format!("{t}::{}", it.name),
            None => format!("{}::{}", it.file_stem, it.name),
        }
    }

    /// The allowlist key of an item (`file_stem::name`, the PR 9
    /// grammar).
    pub fn allow_key(&self, idx: usize) -> String {
        let it = &self.items[idx];
        format!("{}::{}", it.file_stem, it.name)
    }

    /// Whether token index `tok` of file `file_idx` lies inside a
    /// `#[cfg(test)]` module body.
    pub fn in_test_tokens(&self, file_idx: usize, tok: usize) -> bool {
        self.test_tokens
            .get(file_idx)
            .is_some_and(|rs| rs.iter().any(|r| r.contains(&tok)))
    }
}

/// Derives the dotted module path and file stem from a workspace-
/// relative path: `crates/core/src/engine/spill.rs` →
/// (`core::engine::spill`, `spill`); the facade's `src/study/mod.rs` →
/// (`facade::study`, `mod`). Fixture files keep their bare stem.
fn module_path_of(rel_path: &str) -> (String, String) {
    let stem = rel_path
        .rsplit('/')
        .next()
        .unwrap_or(rel_path)
        .trim_end_matches(".rs")
        .to_string();
    let parts: Vec<&str> = rel_path.trim_end_matches(".rs").split('/').collect();
    let mut comps: Vec<String> = Vec::new();
    match parts.as_slice() {
        ["crates", krate, "src", rest @ ..] => {
            comps.push((*krate).to_string());
            comps.extend(rest.iter().map(|s| s.to_string()));
        }
        ["src", rest @ ..] => {
            comps.push("facade".to_string());
            comps.extend(rest.iter().map(|s| s.to_string()));
        }
        _ => comps.push(stem.clone()),
    }
    // `mod.rs` / `lib.rs` / `main.rs` name their parent, not themselves.
    if comps.len() > 1
        && matches!(
            comps.last().map(String::as_str),
            Some("mod" | "lib" | "main")
        )
    {
        comps.pop();
    }
    (comps.join("::"), stem)
}

/// Extracts the self type from an `impl` header token slice (the tokens
/// strictly between `impl` and the body `{`): the last path segment at
/// angle-bracket depth 0, restarting after a `for` (so the trait name
/// of `impl Trait for Type` never wins), stopping at `where`.
fn impl_self_type(header: &[Token]) -> Option<String> {
    let mut angle: i64 = 0;
    let mut cur: Option<String> = None;
    for t in header {
        match (t.kind, t.text.as_str()) {
            (TokenKind::Punct, "<") => angle += 1,
            (TokenKind::Punct, ">") => angle = (angle - 1).max(0),
            (TokenKind::Ident, "for") if angle == 0 => cur = None,
            (TokenKind::Ident, "where") if angle == 0 => break,
            (TokenKind::Ident, "dyn" | "mut" | "const" | "unsafe") => {}
            (TokenKind::Ident, name) if angle == 0 => cur = Some(name.to_string()),
            _ => {}
        }
    }
    cur
}

/// Whether the tokens before index `i` (the `fn` keyword) declare the
/// item `pub`: walks back over `const`/`unsafe`/`async`/`extern`, ABI
/// strings and one `( … )` restriction group.
fn is_pub_before(toks: &[Token], i: usize) -> bool {
    let mut j = i;
    while j > 0 {
        j -= 1;
        match (toks[j].kind, toks[j].text.as_str()) {
            (TokenKind::Ident, "const" | "unsafe" | "async" | "extern") => {}
            (TokenKind::Str, _) => {}
            (TokenKind::Punct, ")") => {
                // Skip back over a `(crate)`-style restriction group.
                let mut d = 1;
                while j > 0 && d > 0 {
                    j -= 1;
                    match toks[j].text.as_str() {
                        ")" => d += 1,
                        "(" => d -= 1,
                        _ => {}
                    }
                }
            }
            (TokenKind::Ident, "pub") => return true,
            _ => return false,
        }
    }
    false
}

/// Whether the attribute group ending just before token `i` (i.e. the
/// tokens `# [ … ]` whose `]` is at `i - 1`) contains `cfg ( test`.
/// Walks back over any number of stacked attributes.
fn cfg_test_before(toks: &[Token], mut i: usize) -> bool {
    loop {
        if i == 0 || !(toks[i - 1].kind == TokenKind::Punct && toks[i - 1].text == "]") {
            return false;
        }
        // Find the matching `[`.
        let mut j = i - 1;
        let mut d = 1;
        while j > 0 && d > 0 {
            j -= 1;
            match toks[j].text.as_str() {
                "]" => d += 1,
                "[" => d -= 1,
                _ => {}
            }
        }
        if j == 0 || !(toks[j - 1].kind == TokenKind::Punct && toks[j - 1].text == "#") {
            return false;
        }
        let attr = &toks[j..i - 1];
        let is_cfg_test = attr.windows(3).any(|w| {
            w[0].kind == TokenKind::Ident
                && w[0].text == "cfg"
                && w[1].text == "("
                && w[2].kind == TokenKind::Ident
                && w[2].text == "test"
        });
        if is_cfg_test {
            return true;
        }
        i = j - 1; // Try the attribute above this one.
    }
}

/// Resolves the item table over `files`.
pub fn resolve(files: &[SourceFile]) -> Resolved {
    let mut out = Resolved {
        items: Vec::new(),
        test_tokens: vec![Vec::new(); files.len()],
    };
    for (file_idx, file) in files.iter().enumerate() {
        extract_file(file_idx, file, &mut out);
    }
    out
}

fn extract_file(file_idx: usize, file: &SourceFile, out: &mut Resolved) {
    let toks = &file.lexed.tokens;
    let (file_module, stem) = module_path_of(&file.rel_path);
    let mut depth: i64 = 0;
    // Enclosing-scope stacks, keyed by the depth *inside* their body.
    let mut impl_stack: Vec<(i64, Option<String>)> = Vec::new();
    let mut mod_stack: Vec<(i64, String)> = Vec::new();
    // (depth inside body, start token) of open `#[cfg(test)] mod` bodies.
    let mut test_stack: Vec<(i64, usize)> = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        let t = &toks[i];
        if t.kind == TokenKind::Punct && t.text == "{" {
            depth += 1;
            i += 1;
            continue;
        }
        if t.kind == TokenKind::Punct && t.text == "}" {
            depth -= 1;
            while impl_stack.last().is_some_and(|&(d, _)| d > depth) {
                impl_stack.pop();
            }
            while mod_stack.last().is_some_and(|&(d, _)| d > depth) {
                mod_stack.pop();
            }
            while test_stack.last().is_some_and(|&(d, _)| d > depth) {
                let (_, start) = test_stack.pop().expect("just checked non-empty");
                out.test_tokens[file_idx].push(start..i);
            }
            i += 1;
            continue;
        }
        if t.kind == TokenKind::Ident && (t.text == "impl" || t.text == "trait") {
            // Header runs to the body `{` or a bodyless `;` (trait
            // bounds in `impl Trait for …` headers carry no braces in
            // this workspace).
            let is_trait = t.text == "trait";
            let mut j = i + 1;
            while j < toks.len()
                && !(toks[j].kind == TokenKind::Punct
                    && (toks[j].text == "{" || toks[j].text == ";"))
            {
                j += 1;
            }
            if j < toks.len() && toks[j].text == "{" {
                let self_type = if is_trait {
                    toks.get(i + 1)
                        .filter(|t| t.kind == TokenKind::Ident)
                        .map(|t| t.text.clone())
                } else {
                    impl_self_type(&toks[i + 1..j])
                };
                impl_stack.push((depth + 1, self_type));
                depth += 1;
            }
            i = j + 1;
            continue;
        }
        if t.kind == TokenKind::Ident && t.text == "mod" {
            let name = toks
                .get(i + 1)
                .filter(|n| n.kind == TokenKind::Ident)
                .map(|n| n.text.clone());
            let body_open = toks
                .get(i + 2)
                .is_some_and(|n| n.kind == TokenKind::Punct && n.text == "{");
            if let (Some(name), true) = (name, body_open) {
                if cfg_test_before(toks, i) {
                    test_stack.push((depth + 1, i + 3));
                }
                mod_stack.push((depth + 1, name));
                depth += 1;
                i += 3;
                continue;
            }
            i += 1;
            continue;
        }
        if t.kind == TokenKind::Ident && t.text == "fn" {
            let Some(name_tok) = toks.get(i + 1) else {
                break;
            };
            if name_tok.kind != TokenKind::Ident {
                // `fn(..)` pointer type, not an item.
                i += 1;
                continue;
            }
            let name = name_tok.text.clone();
            // Signature runs to the body `{` or a bodyless `;`.
            let mut j = i + 2;
            let mut body = None;
            while j < toks.len() {
                if toks[j].kind == TokenKind::Punct {
                    if toks[j].text == ";" {
                        break;
                    }
                    if toks[j].text == "{" {
                        let mut d = 1i64;
                        let start = j + 1;
                        let mut k = start;
                        while k < toks.len() && d > 0 {
                            if toks[k].kind == TokenKind::Punct {
                                if toks[k].text == "{" {
                                    d += 1;
                                } else if toks[k].text == "}" {
                                    d -= 1;
                                }
                            }
                            k += 1;
                        }
                        body = Some(start..k.saturating_sub(1));
                        break;
                    }
                }
                j += 1;
            }
            if let Some(body) = body {
                let self_type = impl_stack
                    .last()
                    .filter(|&&(d, _)| d == depth)
                    .and_then(|(_, t)| t.clone());
                let mut module_path = file_module.clone();
                for (_, m) in &mod_stack {
                    module_path.push_str("::");
                    module_path.push_str(m);
                }
                out.items.push(Item {
                    name,
                    self_type,
                    module_path,
                    file_stem: stem.clone(),
                    file_idx,
                    line: t.line,
                    body,
                    is_pub: is_pub_before(toks, i),
                    in_test: !test_stack.is_empty(),
                });
                // Continue scanning *inside* the body (nested fns, and
                // depth bookkeeping must still see its braces): resume
                // right after the body's opening brace.
                i = j + 1;
                depth += 1;
                continue;
            }
            i = j + 1;
            continue;
        }
        i += 1;
    }
    // Unclosed test ranges (malformed input) run to end of stream.
    while let Some((_, start)) = test_stack.pop() {
        out.test_tokens[file_idx].push(start..toks.len());
    }
    out.test_tokens[file_idx].sort_by_key(|r| r.start);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn items(src: &str) -> Resolved {
        resolve(&[SourceFile::from_text(
            "crates/core/src/engine/spill.rs",
            src,
        )])
    }

    #[test]
    fn module_paths_derive_from_file_paths() {
        assert_eq!(
            module_path_of("crates/core/src/engine/spill.rs"),
            ("core::engine::spill".to_string(), "spill".to_string())
        );
        assert_eq!(
            module_path_of("src/study/mod.rs"),
            ("facade::study".to_string(), "mod".to_string())
        );
        assert_eq!(
            module_path_of("panic_bad.rs"),
            ("panic_bad".to_string(), "panic_bad".to_string())
        );
    }

    #[test]
    fn impl_and_trait_self_types_resolve() {
        let r = items(
            "impl SpillSink { fn write(&mut self) {} }\n\
             impl EdgeStore for CompressedEdges { fn rows(&self) {} }\n\
             trait QRows: Sized { fn row(&self) {} }\n\
             pub fn free() {}\n",
        );
        let by_name = |n: &str| r.items.iter().find(|i| i.name == n).unwrap();
        assert_eq!(by_name("write").self_type.as_deref(), Some("SpillSink"));
        assert_eq!(
            by_name("rows").self_type.as_deref(),
            Some("CompressedEdges")
        );
        assert_eq!(by_name("row").self_type.as_deref(), Some("QRows"));
        assert_eq!(by_name("free").self_type, None);
        assert!(by_name("free").is_pub);
        assert!(!by_name("write").is_pub);
        assert_eq!(by_name("free").module_path, "core::engine::spill");
    }

    #[test]
    fn generic_impl_headers_pick_the_self_type() {
        let r = items("impl<'a, T: Clone> Cursor<'a, T> { fn next(&mut self) {} }\n");
        assert_eq!(r.items[0].self_type.as_deref(), Some("Cursor"));
    }

    #[test]
    fn cfg_test_modules_are_marked() {
        let r = items(
            "fn real() {}\n\
             #[cfg(test)]\nmod tests {\n    fn helper() {}\n    #[test]\n    fn case() {}\n}\n",
        );
        let by_name = |n: &str| r.items.iter().find(|i| i.name == n).unwrap();
        assert!(!by_name("real").in_test);
        assert!(by_name("helper").in_test);
        assert!(by_name("case").in_test);
        assert_eq!(r.test_tokens[0].len(), 1);
    }

    #[test]
    fn inline_mods_extend_the_module_path() {
        let r = items("mod vbyte { pub fn read() {} }\n");
        assert_eq!(r.items[0].module_path, "core::engine::spill::vbyte");
        assert!(r.items[0].is_pub);
    }

    #[test]
    fn nested_fns_and_bodies_are_scanned() {
        let r = items("fn outer() { fn inner() {} }\n");
        let names: Vec<&str> = r.items.iter().map(|i| i.name.as_str()).collect();
        assert_eq!(names, vec!["outer", "inner"]);
    }

    #[test]
    fn display_and_allow_key_formats() {
        let r = items("impl SpillSink { fn write(&mut self) {} }\nfn free() {}\n");
        assert_eq!(r.display(0), "SpillSink::write");
        assert_eq!(r.allow_key(0), "spill::write");
        assert_eq!(r.display(1), "spill::free");
    }
}
