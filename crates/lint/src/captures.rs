//! Pass SL007: the fork-join capture audit.
//!
//! `engine::parallel::map_chunks` (and `map_ranges`) fans a closure out
//! over scoped OS threads and joins the results in chunk order;
//! `engine::parallel::join` runs its two closure arms on two threads. The planned parallel
//! compressed assembly will thread shared chunk state through exactly
//! these closures, and the race-shaped failure modes are known in
//! advance: a closure that mutates a captured binding, touches
//! `static mut`, or smuggles `Cell`/`RefCell`/`UnsafeCell` interior
//! mutability across the join boundary. `rustc`'s `Fn + Sync` bounds
//! catch most of these *today*; this pass makes the discipline a CI
//! gate that survives any future loosening of those bounds (raw
//! pointers, `unsafe impl Sync` wrappers, a channel-based rewrite).
//!
//! For every `map_chunks` / `map_ranges` call site in the workspace, and
//! every `parallel::join` call (also a bare `join(…)`, or a call of its
//! alias, in a file whose `use` items import it), the pass locates each
//! worker argument
//! (the second; for `join` the second and the third) — a closure
//! literal, or an identifier resolved to a `let NAME = |…|` closure
//! binding or a local `fn` item in the same file — and audits its body:
//!
//! * **mutation of a capture** — an assignment (`x = …`, `x += …`,
//!   `x.field = …`) or a `&mut x` whose base identifier is not declared
//!   inside the closure (params, `let`s, `for` binders, nested-closure
//!   params);
//! * **interior mutability** — the body mentions `Cell` / `RefCell` /
//!   `UnsafeCell` or calls `.borrow_mut()`, or a captured identifier's
//!   `let` binding elsewhere in the file mentions one of those types;
//! * **`static mut`** — the body references any `static mut` name
//!   declared in the audited file set.
//!
//! Local-name collection is deliberately greedy (every identifier in a
//! `let` pattern counts as local), so imprecision *suppresses* a
//! finding rather than inventing one on closure-local state; the
//! mutation rules above then only fire on genuine captures. Deliberate
//! sites escape with `// lint: capture-ok(<reason>)` on the finding's
//! line or the line above. Test modules are exempt.

use std::collections::BTreeSet;
use std::ops::Range;

use crate::lexer::{Token, TokenKind};
use crate::resolve::Resolved;
use crate::{Diagnostic, PassId, SourceFile};

/// The annotation marker looked up in comments.
pub const CAPTURE_OK: &str = "lint: capture-ok(";

/// The fork-join entry points and the argument positions of their
/// workers. `join` is common as a method (`handle.join()`,
/// `path.join(…)`), so it is only matched as `parallel::join`, or bare
/// under the name a `use` item binds `parallel::join` to.
const FORK_JOINS: &[(&str, &[usize])] = &[
    ("map_chunks", &[1]),
    ("map_ranges", &[1]),
    ("join", &[1, 2]),
];

/// The interior-mutability type names that may not cross the join.
const INTERIOR_TYPES: &[&str] = &["Cell", "RefCell", "UnsafeCell"];

/// Collects every `static mut NAME` declared in `files`.
pub fn static_mut_names(files: &[SourceFile]) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for f in files {
        let toks = &f.lexed.tokens;
        for i in 0..toks.len() {
            if toks[i].kind == TokenKind::Ident
                && toks[i].text == "static"
                && toks.get(i + 1).is_some_and(|t| t.text == "mut")
            {
                if let Some(name) = toks.get(i + 2).filter(|t| t.kind == TokenKind::Ident) {
                    out.insert(name.text.clone());
                }
            }
        }
    }
    out
}

/// One audited worker-closure span.
struct Worker {
    /// Token range of the closure parameters (between the pipes), empty
    /// for `fn`-item workers (their params are part of the local set
    /// already).
    params: Range<usize>,
    /// Token range of the body.
    body: Range<usize>,
    /// Line of the fork-join call, used when the worker cannot be
    /// resolved at all.
    call_line: u32,
}

/// Runs the capture audit over one file.
pub fn audit(
    file: &SourceFile,
    resolved: &Resolved,
    file_idx: usize,
    statics: &BTreeSet<String>,
) -> Vec<Diagnostic> {
    let toks = &file.lexed.tokens;
    let imported = imported_join(toks);
    let mut out = Vec::new();
    for i in 0..toks.len() {
        if toks[i].kind != TokenKind::Ident {
            continue;
        }
        // A bare call of the imported name: not a method, path or item.
        let bare = imported == Some(toks[i].text.as_str())
            && !(i > 0 && matches!(toks[i - 1].text.as_str(), "." | ":" | "fn"));
        let name = if bare { "join" } else { toks[i].text.as_str() };
        let Some(&(callee, args)) = FORK_JOINS.iter().find(|(n, _)| *n == name) else {
            continue;
        };
        let qualified = i >= 3
            && toks[i - 3].text == "parallel"
            && toks[i - 2].text == ":"
            && toks[i - 1].text == ":";
        if (callee == "join" && !qualified && !bare) || resolved.in_test_tokens(file_idx, i) {
            continue;
        }
        // The call's argument list: skip an optional turbofish, then `(`.
        let Some(open) = call_open(toks, i + 1) else {
            continue;
        };
        for &arg in args {
            // A callee mentioned without a resolvable worker (e.g. a
            // re-export) has nothing to audit.
            if let Some(worker) = worker_span(toks, open, i, arg, resolved, file_idx) {
                audit_worker(file, toks, callee, &worker, statics, &mut out);
            }
        }
    }
    out
}

/// The name a `use` item of the file binds `parallel::join` to: `join`
/// itself (also through a `parallel::*` glob) or its `as` alias.
fn imported_join(toks: &[Token]) -> Option<&str> {
    let mut i = 0;
    while i < toks.len() {
        if toks[i].kind == TokenKind::Ident && toks[i].text == "use" {
            let end = (i..toks.len())
                .find(|&j| toks[j].text == ";")
                .unwrap_or(toks.len());
            let item = &toks[i..end];
            if let Some(p) = item.iter().position(|t| t.text == "parallel") {
                for (k, t) in item.iter().enumerate().skip(p + 1) {
                    match t.text.as_str() {
                        "*" if k == p + 3 => return Some("join"),
                        "join" => {
                            let alias = item.get(k + 1).filter(|t| t.text == "as");
                            return Some(alias.and(item.get(k + 2)).map_or("join", |t| &t.text));
                        }
                        _ => {}
                    }
                }
            }
            i = end;
        }
        i += 1;
    }
    None
}

/// Resolves the index of the argument-list `(` after an optional
/// `::<…>` turbofish, returning `None` when the ident is not a call.
fn call_open(toks: &[Token], mut j: usize) -> Option<usize> {
    if toks.get(j).is_some_and(|t| t.text == ":")
        && toks.get(j + 1).is_some_and(|t| t.text == ":")
        && toks.get(j + 2).is_some_and(|t| t.text == "<")
    {
        let mut d = 1i64;
        j += 3;
        while j < toks.len() && d > 0 {
            match toks[j].text.as_str() {
                "<" => d += 1,
                ">" => d -= 1,
                _ => {}
            }
            j += 1;
        }
    }
    toks.get(j)
        .filter(|t| t.kind == TokenKind::Punct && t.text == "(")
        .map(|_| j)
}

/// Locates worker argument `arg` (0-based) of the fork-join call whose
/// argument list opens at token `open`: either a closure literal or an
/// identifier resolved within the file.
fn worker_span(
    toks: &[Token],
    open: usize,
    call_tok: usize,
    arg: usize,
    resolved: &Resolved,
    file_idx: usize,
) -> Option<Worker> {
    let call_line = toks[call_tok].line;
    // Find the `arg`-th top-level comma: the worker starts after it.
    // Closure parameter pipes do not nest, so a `,` inside `|a, b|`
    // would count; the workers audited here take at most one parameter.
    let mut depth = 1i64;
    let mut j = open + 1;
    let mut commas = 0;
    let mut arg_start = None;
    while j < toks.len() && depth > 0 && arg_start.is_none() {
        match (toks[j].kind, toks[j].text.as_str()) {
            (TokenKind::Punct, "(" | "[" | "{") => depth += 1,
            (TokenKind::Punct, ")" | "]" | "}") => depth -= 1,
            (TokenKind::Punct, ",") if depth == 1 => {
                commas += 1;
                if commas == arg {
                    arg_start = Some(j + 1);
                }
            }
            _ => {}
        }
        j += 1;
    }
    let start = arg_start?;
    // Closure literal: `|params| body`.
    if toks.get(start).is_some_and(|t| t.text == "|") {
        return closure_span(toks, start, call_line);
    }
    // Identifier worker: resolve `let NAME = |…|` first, then an item.
    let name_tok = toks.get(start).filter(|t| t.kind == TokenKind::Ident)?;
    let name = name_tok.text.as_str();
    for k in 0..call_tok {
        if toks[k].kind == TokenKind::Ident
            && toks[k].text == "let"
            && toks.get(k + 1).is_some_and(|t| t.text == name)
            && toks.get(k + 2).is_some_and(|t| t.text == "=")
            && toks.get(k + 3).is_some_and(|t| t.text == "|")
        {
            return closure_span(toks, k + 3, call_line);
        }
    }
    let item = resolved
        .items
        .iter()
        .find(|it| it.file_idx == file_idx && it.name == name)?;
    Some(Worker {
        params: 0..0,
        body: item.body.clone(),
        call_line,
    })
}

/// Parses a closure starting at the opening `|` at token `p`: params to
/// the closing `|`, then either a braced block or an expression running
/// to the first `,` / `)` at the argument's depth.
fn closure_span(toks: &[Token], p: usize, call_line: u32) -> Option<Worker> {
    let mut q = p + 1;
    while q < toks.len() && toks[q].text != "|" {
        q += 1;
    }
    let params = p + 1..q;
    // Skip a `-> Type` return annotation to the body opener.
    let mut b = q + 1;
    let mut angle = 0i64;
    while b < toks.len() {
        match (toks[b].kind, toks[b].text.as_str()) {
            (TokenKind::Punct, "<") => angle += 1,
            (TokenKind::Punct, ">") => angle = (angle - 1).max(0),
            (TokenKind::Punct, "{") if angle == 0 => break,
            (TokenKind::Punct, "," | ")") if angle == 0 => break,
            _ => {}
        }
        b += 1;
    }
    if toks.get(b).is_some_and(|t| t.text == "{") {
        // Braced body: match the brace.
        let mut d = 1i64;
        let start = b + 1;
        let mut k = start;
        while k < toks.len() && d > 0 {
            match toks[k].text.as_str() {
                "{" => d += 1,
                "}" => d -= 1,
                _ => {}
            }
            k += 1;
        }
        return Some(Worker {
            params,
            body: start..k.saturating_sub(1),
            call_line,
        });
    }
    // Expression body: runs to the `,` or `)` that closes the argument.
    let start = q + 1;
    let mut d = 0i64;
    let mut k = start;
    while k < toks.len() {
        match toks[k].text.as_str() {
            "(" | "[" | "{" => d += 1,
            ")" | "]" | "}" if d == 0 => break,
            ")" | "]" | "}" => d -= 1,
            "," if d == 0 => break,
            _ => {}
        }
        k += 1;
    }
    Some(Worker {
        params,
        body: start..k,
        call_line,
    })
}

/// Greedily collects the names declared *inside* the worker: params,
/// every identifier in a `let` pattern (up to `=` or `;`), `for`
/// binders (up to `in`) and nested-closure params.
fn local_names(toks: &[Token], w: &Worker) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for i in w.params.clone() {
        if toks[i].kind == TokenKind::Ident && toks[i].text != "mut" {
            // Param patterns are `name: Type` — idents after a `:` are
            // types, not binders.
            let prev_colon = i > w.params.start && toks[i - 1].text == ":";
            if !prev_colon {
                out.insert(toks[i].text.clone());
            }
        }
    }
    let mut i = w.body.start;
    while i < w.body.end {
        match (toks[i].kind, toks[i].text.as_str()) {
            (TokenKind::Ident, "let") => {
                let mut j = i + 1;
                while j < w.body.end && toks[j].text != "=" && toks[j].text != ";" {
                    if toks[j].kind == TokenKind::Ident {
                        out.insert(toks[j].text.clone());
                    }
                    j += 1;
                }
                i = j;
            }
            (TokenKind::Ident, "for") => {
                let mut j = i + 1;
                while j < w.body.end && toks[j].text != "in" {
                    if toks[j].kind == TokenKind::Ident {
                        out.insert(toks[j].text.clone());
                    }
                    j += 1;
                }
                i = j;
            }
            (TokenKind::Punct, "|") => {
                // Nested closure params up to the closing pipe (greedy:
                // a lone `|` bitwise-or would over-collect, which only
                // suppresses).
                let mut j = i + 1;
                while j < w.body.end && toks[j].text != "|" {
                    if toks[j].kind == TokenKind::Ident {
                        out.insert(toks[j].text.clone());
                    }
                    j += 1;
                }
                i = j + 1;
                continue;
            }
            _ => {}
        }
        i += 1;
    }
    out
}

/// Walks back from an assignment's `=` over the place expression
/// (`a.b[c].d = …`) to its base identifier.
fn place_base(toks: &[Token], mut j: usize) -> Option<usize> {
    loop {
        match (toks[j].kind, toks[j].text.as_str()) {
            (TokenKind::Punct, "]") => {
                let mut d = 1i64;
                while j > 0 && d > 0 {
                    j -= 1;
                    match toks[j].text.as_str() {
                        "]" => d += 1,
                        "[" => d -= 1,
                        _ => {}
                    }
                }
                if j == 0 {
                    return None;
                }
                j -= 1;
            }
            (TokenKind::Ident | TokenKind::Num, _) => {
                if j > 0 && toks[j - 1].text == "." {
                    if j < 2 {
                        return None;
                    }
                    j -= 2;
                } else {
                    return if toks[j].kind == TokenKind::Ident {
                        Some(j)
                    } else {
                        None
                    };
                }
            }
            _ => return None,
        }
    }
}

/// Whether the `=` at `j` is a plain or compound assignment operator
/// (not `==`, `<=`, `=>`, `..=`, pattern `=` in `let`, etc.), returning
/// the index of the last place-expression token.
fn assignment_place(toks: &[Token], j: usize) -> Option<usize> {
    if toks[j].text != "=" || toks.get(j + 1).is_some_and(|t| t.text == "=") {
        return None;
    }
    let prev = j.checked_sub(1)?;
    match toks[prev].text.as_str() {
        // Comparison / arrow / range halves and `let` bindings.
        "=" | "!" | "<" | ">" | "." | ":" => None,
        // Compound assignment: the place ends before the operator
        // (handles `+=`, `-=`, `*=`, `/=`, `%=`, `&=`, `|=`, `^=` and
        // the shift forms' final char).
        "+" | "-" | "*" | "/" | "%" | "&" | "|" | "^" => Some(prev.checked_sub(1)?),
        _ => Some(prev),
    }
}

/// Audits one worker body, reporting at most one diagnostic per
/// captured name (a closure mutating `x` three ways is one defect).
fn audit_worker(
    file: &SourceFile,
    toks: &[Token],
    callee: &str,
    w: &Worker,
    statics: &BTreeSet<String>,
    out: &mut Vec<Diagnostic>,
) {
    let locals = local_names(toks, w);
    let mut flagged: BTreeSet<String> = BTreeSet::new();
    let mut report = |name: &str, line: u32, why: String, out: &mut Vec<Diagnostic>| {
        if !flagged.insert(name.to_string()) {
            return;
        }
        match crate::annotation_for(&file.lexed, line, CAPTURE_OK) {
            Some(Ok(_reason)) => {}
            Some(Err(())) => out.push(Diagnostic {
                pass: PassId::Capture,
                file: file.rel_path.clone(),
                line,
                message: format!(
                    "malformed `lint: capture-ok(..)` annotation on the `{callee}` \
                     worker capture of `{name}` — the reason inside the parentheses \
                     must be non-empty"
                ),
            }),
            None => out.push(Diagnostic {
                pass: PassId::Capture,
                file: file.rel_path.clone(),
                line,
                message: format!(
                    "{why} — fork-join workers must not share mutable state across the \
                     join boundary; restructure to per-chunk results merged after the \
                     join, or annotate with `// lint: capture-ok(<reason>)`"
                ),
            }),
        }
    };

    for i in w.body.clone() {
        let t = &toks[i];
        // Interior-mutability type mentioned inside the body.
        if t.kind == TokenKind::Ident && INTERIOR_TYPES.contains(&t.text.as_str()) {
            report(
                &t.text,
                t.line,
                format!(
                    "`{callee}` worker uses interior mutability (`{}`) at the call site",
                    t.text
                ),
                out,
            );
            continue;
        }
        // `.borrow_mut()` — RefCell write access.
        if t.kind == TokenKind::Ident
            && t.text == "borrow_mut"
            && i > w.body.start
            && toks[i - 1].text == "."
        {
            let name = place_base(toks, i - 2)
                .map(|b| toks[b].text.clone())
                .unwrap_or_else(|| "borrow_mut".into());
            report(
                &name,
                t.line,
                format!("`{callee}` worker calls `borrow_mut` on captured `{name}`"),
                out,
            );
            continue;
        }
        // `static mut` reference.
        if t.kind == TokenKind::Ident && statics.contains(&t.text) {
            report(
                &t.text,
                t.line,
                format!("`{callee}` worker references `static mut {}`", t.text),
                out,
            );
            continue;
        }
        // `&mut x` on a capture.
        if t.kind == TokenKind::Punct
            && t.text == "&"
            && toks.get(i + 1).is_some_and(|n| n.text == "mut")
        {
            if let Some(n) = toks.get(i + 2).filter(|n| n.kind == TokenKind::Ident) {
                if !locals.contains(&n.text) && n.text != "self" {
                    report(
                        &n.text,
                        n.line,
                        format!("`{callee}` worker takes `&mut` of captured `{}`", n.text),
                        out,
                    );
                }
            }
            continue;
        }
        // Assignment to a capture.
        if t.kind == TokenKind::Punct && t.text == "=" {
            if let Some(place_end) = assignment_place(toks, i) {
                if place_end >= w.body.start {
                    if let Some(base) = place_base(toks, place_end) {
                        let name = &toks[base].text;
                        if !locals.contains(name) && name != "self" {
                            report(
                                name,
                                toks[base].line,
                                format!("`{callee}` worker assigns captured `{name}`"),
                                out,
                            );
                        }
                    }
                }
            }
        }
    }

    // A worker body that resolved to nothing is suspicious but silent;
    // `call_line` anchors future rules. Touch it so the field is load-
    // bearing for fn-item workers resolved with empty param ranges.
    let _ = w.call_line;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resolve;

    fn run(src: &str) -> Vec<Diagnostic> {
        let files = vec![SourceFile::from_text("engine/worker.rs", src)];
        let r = resolve::resolve(&files);
        let statics = static_mut_names(&files);
        audit(&files[0], &r, 0, &statics)
    }

    #[test]
    fn shared_ref_closure_passes() {
        let d = run("fn go(total: u64, data: &[u8]) {\n\
             let chunks = parallel::map_chunks(total, |range| {\n\
                 let mut local = 0u64;\n\
                 for i in range { local += data.len() as u64 + i; }\n\
                 Ok::<_, ()>(local)\n\
             });\n\
             let _ = chunks;\n}\n");
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn refcell_capture_is_flagged_once() {
        let d = run("use std::cell::RefCell;\n\
             fn go(total: u64) {\n\
             let shared = RefCell::new(0u64);\n\
             let _ = parallel::map_chunks(total, |range| {\n\
                 *shared.borrow_mut() += range.end;\n\
                 Ok::<_, ()>(())\n\
             });\n}\n");
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("borrow_mut"), "{}", d[0].message);
    }

    #[test]
    fn mutating_a_capture_is_flagged() {
        let d = run("fn go(total: u64) {\n\
             let mut sum = 0u64;\n\
             let _ = parallel::map_chunks(total, |range| {\n\
                 sum += range.end;\n\
                 Ok::<_, ()>(())\n\
             });\n}\n");
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(
            d[0].message.contains("assigns captured `sum`"),
            "{}",
            d[0].message
        );
    }

    #[test]
    fn mut_borrow_of_capture_is_flagged() {
        let d = run("fn go(total: u64) {\n\
             let mut buf = Vec::new();\n\
             let _ = parallel::map_chunks(total, |range| {\n\
                 fill(&mut buf, range);\n\
                 Ok::<_, ()>(())\n\
             });\n}\n");
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(
            d[0].message.contains("`&mut` of captured `buf`"),
            "{}",
            d[0].message
        );
    }

    #[test]
    fn static_mut_reference_is_flagged() {
        let d = run("static mut COUNTER: u64 = 0;\n\
             fn go(total: u64) {\n\
             let _ = parallel::map_chunks(total, |range| {\n\
                 let _ = (COUNTER, range);\n\
                 Ok::<_, ()>(())\n\
             });\n}\n");
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("static mut"), "{}", d[0].message);
    }

    #[test]
    fn let_bound_closure_worker_is_audited() {
        let d = run("fn go(total: u64) {\n\
             let mut hits = 0u64;\n\
             let worker = |range: std::ops::Range<u64>| { hits = range.end; Ok::<_, ()>(()) };\n\
             let _ = parallel::map_chunks(total, worker);\n}\n");
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(
            d[0].message.contains("assigns captured `hits`"),
            "{}",
            d[0].message
        );
    }

    #[test]
    fn annotated_capture_passes() {
        let d = run("fn go(total: u64) {\n\
             let mut sum = 0u64;\n\
             let _ = parallel::map_chunks(total, |range| {\n\
                 // lint: capture-ok(single-threaded fallback path, join is a no-op)\n\
                 sum += range.end;\n\
                 Ok::<_, ()>(())\n\
             });\n}\n");
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn closure_locals_are_not_captures() {
        let d = run("fn go(total: u64) {\n\
             let _ = parallel::map_chunks(total, |range| {\n\
                 let mut acc = Vec::new();\n\
                 for id in range { acc.push(id); encode(&mut acc); }\n\
                 Ok::<_, ()>(acc)\n\
             });\n}\n");
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn both_join_arms_are_audited() {
        let d = run("fn go(total: u64) {\n\
             let mut a = 0u64;\n\
             let mut b = 0u64;\n\
             let _ = parallel::join(total, || { a += 1; }, || { b = total; });\n}\n");
        assert_eq!(d.len(), 2, "{d:?}");
        assert!(
            d[0].message.contains("`join` worker assigns captured `a`"),
            "{}",
            d[0].message
        );
        assert!(d[1].message.contains("captured `b`"), "{}", d[1].message);
    }

    #[test]
    fn join_arms_returning_results_pass_and_method_joins_are_ignored() {
        let d = run("fn go(total: u64, data: &[u64]) {\n\
             let (x, y) = parallel::join(total, || data.len(), || {\n\
                 let mut local = 0u64;\n\
                 for v in data { local += v; }\n\
                 local\n\
             });\n\
             let mut n = 0u64;\n\
             let _ = handle.join(|| { n += 1; }, || { n = 2; });\n\
             let _ = (x, y);\n}\n");
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn imported_join_is_audited_bare_and_under_its_alias() {
        let src = |import: &str, call: &str| {
            format!(
                "use stab_core::engine::parallel::{import};\n\
                 fn go(total: u64) {{\n\
                 let mut x = 0u64;\n\
                 let _ = {call}(total, || {{ x += 1; }}, || total);\n\
                 let _ = handle.join();\n}}\n"
            )
        };
        for (import, call) in [("join", "join"), ("{self, join}", "join"), ("*", "join")] {
            let d = run(&src(import, call));
            assert_eq!(d.len(), 1, "{import}: {d:?}");
            assert!(d[0].message.contains("captured `x`"), "{}", d[0].message);
        }
        assert_eq!(run(&src("join as fork", "fork")).len(), 1);
        // Without the import a bare `join` is someone else's.
        assert!(run(&src("map_chunks", "join")).is_empty());
    }

    #[test]
    fn test_modules_are_exempt() {
        let d = run("#[cfg(test)]\nmod tests {\n\
             fn go(total: u64) {\n\
                 let mut sum = 0u64;\n\
                 let _ = parallel::map_chunks(total, |r| { sum += r.end; Ok::<_, ()>(()) });\n\
             }\n}\n");
        assert!(d.is_empty(), "{d:?}");
    }
}
