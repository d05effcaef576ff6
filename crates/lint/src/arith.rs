//! Pass SL006: offset/id overflow dataflow.
//!
//! The cast audit (SL001) sees every *narrowing*; what it cannot see is
//! arithmetic that overflows **before** any cast — a u64 chunk offset
//! summed past the end of the address space, a CSR byte offset shifted
//! off the top. Release builds ship with `overflow-checks=on` in a CI
//! lane, but that only catches the inputs a test happens to drive; this
//! pass makes unchecked arithmetic on offset-carrying expressions a
//! *static* finding.
//!
//! **Tracked operands** — two sources, both over-approximate:
//!
//! 1. **The offset lexicon** — an identifier (or field name) that
//!    names a byte/chunk offset: any name containing `offset`, the
//!    stream-base field `base`, or a `chunk_`-prefixed name. These are
//!    the CSR u64 byte offsets and spill chunk offsets of
//!    `engine::{csr,edgestore,spill}`.
//! 2. **`engine::ids` dataflow** — any `let` binding whose initializer
//!    flows through the typed id helpers (`try_u32`, `try_id`,
//!    `id_u32`, `id_u32_wide`, `delta_target`) is an id-typed value;
//!    arithmetic on it re-opens the overflow the helper just closed.
//!
//! **Findings** — a raw `+`, `*` or `<<` (including the compound-assign
//! forms) with a tracked operand on either side, outside the
//! `checked_*` / `try_*` helpers, unless the line (or the line above)
//! carries a `// lint: arith-ok(<reason>)` annotation with a non-empty
//! reason. Subtraction is out of scope: the engine's offset math is
//! monotone (offsets only grow), so `-` underflow is caught by the
//! sorted-offsets invariants instead. Test modules are exempt.

use std::collections::BTreeSet;

use crate::lexer::TokenKind;
use crate::resolve::Resolved;
use crate::{Diagnostic, PassId, SourceFile};

/// The audited files: the engine's offset-bearing modules plus the
/// markov Q-store mirror.
pub const ARITH_PATHS: &[&str] = &[
    "crates/core/src/engine/csr.rs",
    "crates/core/src/engine/cursor.rs",
    "crates/core/src/engine/edgestore.rs",
    "crates/core/src/engine/explore.rs",
    "crates/core/src/engine/onthefly.rs",
    "crates/core/src/engine/resilience.rs",
    "crates/core/src/engine/rowgen.rs",
    "crates/core/src/engine/spill.rs",
    "crates/core/src/engine/traverse.rs",
    "crates/markov/src/qstore.rs",
];

/// The annotation marker looked up in comments.
pub const ARITH_OK: &str = "lint: arith-ok(";

/// The `engine::ids` helpers whose results are id-typed.
const ID_HELPERS: &[&str] = &["try_u32", "try_id", "id_u32", "id_u32_wide", "delta_target"];

/// Whether `name` belongs to the offset lexicon.
fn is_offset_name(name: &str) -> bool {
    name.contains("offset") || name == "base" || name.starts_with("chunk_")
}

/// Collects the names of `let` bindings initialized through the
/// `engine::ids` helpers, file-wide (flow-insensitive: a name bound
/// from a helper anywhere taints every use in the file — imprecision
/// only widens the tracked set).
fn ids_bound_names(file: &SourceFile) -> BTreeSet<String> {
    let toks = &file.lexed.tokens;
    let mut out = BTreeSet::new();
    let mut i = 0;
    while i < toks.len() {
        if !(toks[i].kind == TokenKind::Ident && toks[i].text == "let") {
            i += 1;
            continue;
        }
        // Simple binding only: `let [mut] NAME (: …)? = …;`.
        let mut j = i + 1;
        if toks.get(j).is_some_and(|t| t.text == "mut") {
            j += 1;
        }
        let Some(name_tok) = toks.get(j).filter(|t| t.kind == TokenKind::Ident) else {
            i += 1;
            continue;
        };
        let name = name_tok.text.clone();
        if !toks
            .get(j + 1)
            .is_some_and(|t| t.kind == TokenKind::Punct && (t.text == "=" || t.text == ":"))
        {
            i += 1;
            continue;
        }
        // Scan the initializer to the statement's `;` at bracket depth 0.
        let mut depth = 0i64;
        let mut k = j + 1;
        while k < toks.len() {
            match (toks[k].kind, toks[k].text.as_str()) {
                (TokenKind::Punct, "(" | "[" | "{") => depth += 1,
                (TokenKind::Punct, ")" | "]" | "}") => depth -= 1,
                (TokenKind::Punct, ";") if depth <= 0 => break,
                (TokenKind::Ident, h)
                    if ID_HELPERS.contains(&h)
                        && toks.get(k + 1).is_some_and(|t| t.text == "(") =>
                {
                    out.insert(name.clone());
                }
                _ => {}
            }
            k += 1;
        }
        i = k;
    }
    out
}

/// The arithmetic operators audited, as (token window, display) pairs
/// resolved at each position: `+`/`+=`, `*`/`*=`, `<<`/`<<=`.
#[derive(Clone, Copy)]
struct Op {
    /// Token index of the operator's first character.
    at: usize,
    /// Token index of the left operand candidate (just before `at`).
    left: usize,
    /// Token index of the right operand candidate (just after the
    /// operator, compound `=` included).
    right: usize,
    display: &'static str,
}

/// Finds the audited operator at token `i`, if any.
fn op_at(toks: &[crate::lexer::Token], i: usize) -> Option<Op> {
    let t = &toks[i];
    if t.kind != TokenKind::Punct {
        return None;
    }
    let next_is = |j: usize, s: &str| toks.get(j).is_some_and(|t| t.text == s);
    match t.text.as_str() {
        "+" => {
            // Skip `+` in trait-object/bound position after a lifetime
            // or `?` (`'a + Send`, `?Sized + …`) — operand check below
            // already filters most, but a lifetime left operand is
            // never tracked anyway.
            let right = if next_is(i + 1, "=") { i + 2 } else { i + 1 };
            Some(Op {
                at: i,
                left: i.wrapping_sub(1),
                right,
                display: if right == i + 2 { "+=" } else { "+" },
            })
        }
        "*" => {
            // Binary only: a deref/raw-pointer `*` follows an operator,
            // an open bracket, `as`, `mut`/`const`, or another `*`.
            let prev = i.checked_sub(1).map(|j| &toks[j])?;
            let binary = match (prev.kind, prev.text.as_str()) {
                (TokenKind::Ident, "as" | "mut" | "const" | "return" | "in" | "else") => false,
                (TokenKind::Ident | TokenKind::Num, _) => true,
                (TokenKind::Punct, ")" | "]") => true,
                _ => false,
            };
            if !binary {
                return None;
            }
            let right = if next_is(i + 1, "=") { i + 2 } else { i + 1 };
            Some(Op {
                at: i,
                left: i - 1,
                right,
                display: if right == i + 2 { "*=" } else { "*" },
            })
        }
        "<" if next_is(i + 1, "<") => {
            // `<<` or `<<=`: two adjacent `<` puncts only ever lex from
            // a shift (nested generics always carry an ident between).
            let right = if next_is(i + 2, "=") { i + 3 } else { i + 2 };
            Some(Op {
                at: i,
                left: i.wrapping_sub(1),
                right,
                display: if right == i + 3 { "<<=" } else { "<<" },
            })
        }
        _ => None,
    }
}

/// Runs the arith audit over one file. `resolved`/`file_idx` supply the
/// `#[cfg(test)]` exemption ranges.
pub fn audit(file: &SourceFile, resolved: &Resolved, file_idx: usize) -> Vec<Diagnostic> {
    let toks = &file.lexed.tokens;
    let tracked_lets = ids_bound_names(file);
    let tracked = |j: usize| -> Option<String> {
        let t = toks.get(j)?;
        if t.kind != TokenKind::Ident {
            return None;
        }
        if is_offset_name(&t.text) || tracked_lets.contains(&t.text) {
            Some(t.text.clone())
        } else {
            None
        }
    };
    let mut out = Vec::new();
    for i in 0..toks.len() {
        if resolved.in_test_tokens(file_idx, i) {
            continue;
        }
        let Some(op) = op_at(toks, i) else {
            continue;
        };
        let Some(name) = tracked(op.left).or_else(|| tracked(op.right)) else {
            continue;
        };
        let line = toks[op.at].line;
        match crate::annotation_for(&file.lexed, line, ARITH_OK) {
            Some(Ok(_reason)) => {}
            Some(Err(())) => out.push(Diagnostic {
                pass: PassId::Arith,
                file: file.rel_path.clone(),
                line,
                message: format!(
                    "malformed `lint: arith-ok(..)` annotation on `{}` over `{name}` — \
                     the reason inside the parentheses must be non-empty",
                    op.display
                ),
            }),
            None => out.push(Diagnostic {
                pass: PassId::Arith,
                file: file.rel_path.clone(),
                line,
                message: format!(
                    "unchecked `{}` on offset/id-typed `{name}` — use `checked_{}` / the \
                     `engine::ids` helpers, or annotate with `// lint: arith-ok(<reason>)`",
                    op.display,
                    match op.display {
                        "+" | "+=" => "add",
                        "*" | "*=" => "mul",
                        _ => "shl",
                    }
                ),
            }),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resolve;

    fn run(src: &str) -> Vec<Diagnostic> {
        let files = vec![SourceFile::from_text("engine/spill.rs", src)];
        let r = resolve::resolve(&files);
        audit(&files[0], &r, 0)
    }

    #[test]
    fn offset_addition_needs_annotation() {
        let d = run("fn f(offset: u64, n: u64) -> u64 { offset + n }\n");
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("checked_add"), "{}", d[0].message);
    }

    #[test]
    fn annotated_offset_addition_passes() {
        let d = run("fn f(offset: u64, n: u64) -> u64 { offset + n } \
             // lint: arith-ok(bounded by the verified chunk table)\n");
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn chunk_and_base_names_are_tracked() {
        assert_eq!(
            run("fn f(chunk_start: u64) -> u64 { chunk_start + 1 }\n").len(),
            1
        );
        assert_eq!(run("fn f(base: u64) -> u64 { base * 2 }\n").len(), 1);
        assert_eq!(run("fn f(x: u64) -> u64 { x + 1 }\n").len(), 0);
    }

    #[test]
    fn compound_assign_and_shift_fire() {
        let d = run("fn f(mut byte_offset: u64) { byte_offset += 8; }\n");
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("`+=`"), "{}", d[0].message);
        let d = run("fn f(offset: u64) -> u64 { offset << 3 }\n");
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("checked_shl"), "{}", d[0].message);
    }

    #[test]
    fn ids_bound_values_are_tracked() {
        let d =
            run("fn f(n: usize) -> u32 { let id = ids::try_id(n, \"row\").unwrap(); id * 4 }\n");
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("`id`"), "{}", d[0].message);
    }

    #[test]
    fn checked_helpers_are_silent() {
        let d = run("fn f(offset: u64, n: u64) -> Option<u64> { offset.checked_add(n) }\n");
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn deref_and_cast_stars_are_not_arithmetic() {
        assert!(run("fn f(p: *const u64) -> u64 { unsafe { *p } }\n").is_empty());
        assert!(run("fn f(x: &u64) -> u64 { *x }\n").is_empty());
        assert!(run("fn f(offset: u64) -> *const u8 { offset as *const u8 }\n").is_empty());
    }

    #[test]
    fn untracked_shift_constants_pass() {
        assert!(run("const CHUNK: u64 = 8 << 20;\n").is_empty());
    }

    #[test]
    fn test_modules_are_exempt() {
        let d = run("#[cfg(test)]\nmod tests {\n    fn f(offset: u64) -> u64 { offset + 1 }\n}\n");
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn empty_reason_is_malformed() {
        let d = run("fn f(offset: u64) -> u64 { offset + 1 } // lint: arith-ok( )\n");
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("malformed"));
    }
}
