//! The over-approximate workspace call graph.
//!
//! Edges connect [`crate::resolve::Item`]s **by bare callee name**: a token
//! `name` followed by `(` (a direct or method call), a turbofish
//! `name::<…>(`, or a bare `name` in argument position (`name,` /
//! `name)` — a function reference handed to a combinator, e.g.
//! `map_chunks(total, explore_range)`) inside a caller's body creates
//! an edge to *every* item named `name`, in any crate. No receiver
//! types, no trait dispatch, no imports are modelled — so the graph can
//! only over-connect, never under-connect, which is the right failure
//! mode for the reachability passes built on top: a spurious edge
//! widens the audited set and at worst requests one more reasoned
//! annotation; a missing edge would silence a real finding.
//!
//! [`CallGraph::bfs`] computes single-source-set shortest paths with
//! deterministic tie-breaking (roots and callees visited in item-table
//! order), so the *shortest call chain* reported for a finding is
//! stable across runs and platforms.

use std::collections::BTreeMap;

use crate::lexer::TokenKind;
use crate::resolve::Resolved;
use crate::SourceFile;

/// The call graph over a resolved item table.
#[derive(Debug)]
pub struct CallGraph {
    /// Per item: indices of candidate callees, sorted and deduplicated.
    pub callees: Vec<Vec<usize>>,
}

/// BFS result: distance and parent per item, for shortest-chain
/// reconstruction.
#[derive(Debug)]
pub struct Reach {
    /// `dist[i]` = shortest call-edge count from any root (`u32::MAX`
    /// if unreached).
    pub dist: Vec<u32>,
    /// `parent[i]` = predecessor on a shortest chain (`i` itself for
    /// roots).
    pub parent: Vec<usize>,
}

impl Reach {
    /// Whether item `i` is reachable from the root set.
    pub fn reached(&self, i: usize) -> bool {
        self.dist.get(i).is_some_and(|&d| d != u32::MAX)
    }

    /// The shortest chain root → … → `i` as item indices. Empty if
    /// unreached.
    pub fn chain(&self, i: usize) -> Vec<usize> {
        if !self.reached(i) {
            return Vec::new();
        }
        let mut out = vec![i];
        let mut cur = i;
        while self.parent[cur] != cur {
            cur = self.parent[cur];
            out.push(cur);
        }
        out.reverse();
        out
    }
}

impl CallGraph {
    /// Builds the graph: one pass over every item body, matching callee
    /// tokens against the item-name index.
    pub fn build(files: &[SourceFile], resolved: &Resolved) -> CallGraph {
        let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (idx, it) in resolved.items.iter().enumerate() {
            by_name.entry(it.name.as_str()).or_default().push(idx);
        }
        let mut callees = Vec::with_capacity(resolved.items.len());
        for it in &resolved.items {
            let toks = &files[it.file_idx].lexed.tokens;
            let mut set: Vec<usize> = Vec::new();
            for i in it.body.clone() {
                let t = &toks[i];
                if t.kind != TokenKind::Ident {
                    continue;
                }
                let Some(targets) = by_name.get(t.text.as_str()) else {
                    continue;
                };
                // A nested `fn name` definition is not a call.
                if i > 0 && toks[i - 1].kind == TokenKind::Ident && toks[i - 1].text == "fn" {
                    continue;
                }
                if is_callee_position(toks, i) {
                    set.extend_from_slice(targets);
                }
            }
            set.sort_unstable();
            set.dedup();
            callees.push(set);
        }
        CallGraph { callees }
    }

    /// Deterministic multi-source BFS from `roots` (item indices).
    pub fn bfs(&self, roots: &[usize]) -> Reach {
        let n = self.callees.len();
        let mut dist = vec![u32::MAX; n];
        let mut parent: Vec<usize> = (0..n).collect();
        let mut sorted_roots: Vec<usize> = roots.to_vec();
        sorted_roots.sort_unstable();
        sorted_roots.dedup();
        let mut queue = std::collections::VecDeque::new();
        for &r in &sorted_roots {
            if r < n && dist[r] == u32::MAX {
                dist[r] = 0;
                queue.push_back(r);
            }
        }
        while let Some(u) = queue.pop_front() {
            for &v in &self.callees[u] {
                if dist[v] == u32::MAX {
                    dist[v] = dist[u] + 1;
                    parent[v] = u;
                    queue.push_back(v);
                }
            }
        }
        Reach { dist, parent }
    }
}

/// Whether the ident at `i` sits in a callee position: `name(`,
/// `name::<…>(`, or argument position `name,` / `name)` (a function
/// reference). Macro bangs (`name!`) never count.
fn is_callee_position(toks: &[crate::lexer::Token], i: usize) -> bool {
    let Some(next) = toks.get(i + 1) else {
        return false;
    };
    if next.kind != TokenKind::Punct {
        return false;
    }
    match next.text.as_str() {
        "(" => true,
        "," | ")" => {
            // Argument position only — `name,`/`name)` directly after a
            // `(` or `,` opener would also match struct-literal
            // shorthand; that over-match is acceptable (see module
            // docs), but a path segment (`a::name)`) is still a value
            // use, so no look-behind is needed.
            true
        }
        ":" => {
            // Turbofish: `name::<T>(`.
            if !(toks.get(i + 2).is_some_and(|t| t.text == ":")
                && toks.get(i + 3).is_some_and(|t| t.text == "<"))
            {
                return false;
            }
            let mut d = 1i64;
            let mut j = i + 4;
            while j < toks.len() && d > 0 {
                match toks[j].text.as_str() {
                    "<" => d += 1,
                    ">" => d -= 1,
                    _ => {}
                }
                j += 1;
            }
            toks.get(j).is_some_and(|t| t.text == "(")
        }
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resolve;

    fn graph(src: &str) -> (Vec<SourceFile>, Resolved, CallGraph) {
        let files = vec![SourceFile::from_text("a.rs", src)];
        let r = resolve::resolve(&files);
        let g = CallGraph::build(&files, &r);
        (files, r, g)
    }

    #[test]
    fn direct_and_method_calls_create_edges() {
        let (_, r, g) = graph(
            "fn a() { b(); }\n\
             fn b() { self.c(); }\n\
             fn c() {}\n",
        );
        let idx = |n: &str| r.items.iter().position(|i| i.name == n).unwrap();
        assert_eq!(g.callees[idx("a")], vec![idx("b")]);
        assert_eq!(g.callees[idx("b")], vec![idx("c")]);
        assert!(g.callees[idx("c")].is_empty());
    }

    #[test]
    fn function_references_and_turbofish_create_edges() {
        let (_, r, g) = graph(
            "fn run() { map(helper); generic::<u8>(); }\n\
             fn helper() {}\n\
             fn generic() {}\n\
             fn map(_f: fn()) {}\n",
        );
        let idx = |n: &str| r.items.iter().position(|i| i.name == n).unwrap();
        let run = &g.callees[idx("run")];
        assert!(run.contains(&idx("helper")));
        assert!(run.contains(&idx("generic")));
        assert!(run.contains(&idx("map")));
    }

    #[test]
    fn macro_bangs_do_not_create_edges() {
        let (_, r, g) = graph("fn a() { b!(); }\nfn b() {}\n");
        let idx = |n: &str| r.items.iter().position(|i| i.name == n).unwrap();
        assert!(g.callees[idx("a")].is_empty());
    }

    #[test]
    fn bfs_reports_shortest_chains() {
        let (_, r, g) = graph(
            "fn root() { mid(); deep(); }\n\
             fn mid() { leaf(); }\n\
             fn deep() { mid(); }\n\
             fn leaf() {}\n\
             fn island() {}\n",
        );
        let idx = |n: &str| r.items.iter().position(|i| i.name == n).unwrap();
        let reach = g.bfs(&[idx("root")]);
        assert_eq!(reach.dist[idx("leaf")], 2);
        assert!(!reach.reached(idx("island")));
        let chain: Vec<String> = reach
            .chain(idx("leaf"))
            .into_iter()
            .map(|i| r.display(i))
            .collect();
        assert_eq!(chain, vec!["a::root", "a::mid", "a::leaf"]);
    }

    #[test]
    fn cross_file_edges_resolve_by_name() {
        let files = vec![
            SourceFile::from_text("m1.rs", "pub fn entry() { helper(); }\n"),
            SourceFile::from_text(
                "m2.rs",
                "pub fn helper() { helper_inner(); }\nfn helper_inner() {}\n",
            ),
        ];
        let r = resolve::resolve(&files);
        let g = CallGraph::build(&files, &r);
        let idx = |n: &str| r.items.iter().position(|i| i.name == n).unwrap();
        assert_eq!(g.callees[idx("entry")], vec![idx("helper")]);
        let reach = g.bfs(&[idx("entry")]);
        assert_eq!(reach.dist[idx("helper_inner")], 2);
    }
}
