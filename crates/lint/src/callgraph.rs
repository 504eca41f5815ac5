//! Call-site extraction and the workspace call graph.
//!
//! Walks every function body's token trees for the three call shapes the
//! rules care about — `path::to::f(…)`, `.method(…)` and `name!(…)` — and
//! links them through [`Symbols`] into a function-level graph. Method calls
//! cannot be type-resolved without full inference, so a `.m(…)` site edges
//! to *every* in-workspace method named `m`: reachability over-approximates
//! (a safe direction for a panic audit) and never silently under-reports.
//! Panic sinks (`panic!`-family macros, `.unwrap()`, `.expect` with a
//! non-invariant message) are recorded per function alongside the edges.

use crate::lexer::TokKind;
use crate::parser::{Group, Tree};
use crate::symbols::{FileUnit, FnId, Symbols};

/// The shape of one call site.
#[derive(Debug)]
pub enum CallKind {
    /// `a::b::f(…)` or bare `f(…)`.
    Path(Vec<String>),
    /// `.m(…)`.
    Method(String),
    /// `name!(…)` / `name![…]` / `name!{…}`.
    Macro(String),
}

/// One call site inside a function body.
#[derive(Debug)]
pub struct CallSite {
    /// What is being called.
    pub kind: CallKind,
    /// 1-based line of the callee name.
    pub line: u32,
    /// 1-based column of the callee name.
    pub col: u32,
    /// True when the argument list has no arguments.
    pub args_empty: bool,
    /// First string literal anywhere in the argument list, if any.
    pub first_str: Option<String>,
}

/// Extracts every call site in a token-tree slice, recursing into groups
/// (so closures and nested blocks are covered).
pub fn call_sites(trees: &[Tree]) -> Vec<CallSite> {
    let mut out = Vec::new();
    scan(trees, &mut out);
    out
}

fn first_str_in(g: &Group) -> Option<String> {
    for t in &g.children {
        match t {
            Tree::Leaf(tok) if tok.kind == TokKind::Str => return Some(tok.text.clone()),
            Tree::Group(inner) => {
                if let Some(s) = first_str_in(inner) {
                    return Some(s);
                }
            }
            _ => {}
        }
    }
    None
}

fn site(kind: CallKind, line: u32, col: u32, args: &Group) -> CallSite {
    CallSite {
        kind,
        line,
        col,
        args_empty: args.children.is_empty(),
        first_str: first_str_in(args),
    }
}

/// Skips a `::<…>` turbofish starting at `i` (pointing at `::`); returns
/// the index after the closing `>`, or `i` unchanged if there is none.
pub(crate) fn skip_turbofish(trees: &[Tree], i: usize) -> usize {
    if !(trees.get(i).is_some_and(|t| t.is_punct("::"))
        && trees.get(i + 1).is_some_and(|t| t.is_punct("<")))
    {
        return i;
    }
    let mut depth = 0i64;
    let mut k = i + 1;
    while k < trees.len() {
        if let Some(tok) = trees[k].leaf() {
            match tok.text.as_str() {
                "<" => depth += 1,
                ">" => depth -= 1,
                ">>" => depth -= 2,
                _ => {}
            }
        }
        k += 1;
        if depth <= 0 {
            return k;
        }
    }
    i
}

fn scan(trees: &[Tree], out: &mut Vec<CallSite>) {
    let mut i = 0usize;
    while i < trees.len() {
        // `.method(…)`, with optional turbofish.
        if trees[i].is_punct(".") {
            if let Some(m) = trees.get(i + 1).and_then(|t| {
                t.leaf()
                    .filter(|t| t.kind == TokKind::Ident)
                    .map(|t| (t.text.clone(), t.line, t.col))
            }) {
                let after = skip_turbofish(trees, i + 2);
                if let Some(g) = trees
                    .get(after)
                    .and_then(Tree::group)
                    .filter(|g| g.delim == '(')
                {
                    out.push(site(CallKind::Method(m.0), m.1, m.2, g));
                    // Jump to the argument group (scanned generically by the
                    // main loop) so the method name is not re-read as a path
                    // call.
                    i = after;
                    continue;
                }
            }
            i += 1;
            continue;
        }
        // Identifier: a path `a::b::f`, then a macro bang, an argument
        // group (with optional turbofish), or nothing interesting.
        if let Some(first) = trees[i].leaf().filter(|t| t.kind == TokKind::Ident) {
            let (line, col) = (first.line, first.col);
            let mut last = first;
            let mut segs = vec![first.text.clone()];
            let mut k = i + 1;
            while let Some(next) = trees
                .get(k + 1)
                .and_then(Tree::leaf)
                .filter(|t| t.kind == TokKind::Ident && trees[k].is_punct("::"))
            {
                segs.push(next.text.clone());
                last = next;
                k += 2;
            }
            // `name!(…)` / `std::name![…]`, anchored at the macro name.
            if trees.get(k).is_some_and(|t| t.is_punct("!")) {
                if let Some(g) = trees.get(k + 1).and_then(Tree::group) {
                    out.push(site(
                        CallKind::Macro(last.text.clone()),
                        last.line,
                        last.col,
                        g,
                    ));
                    i = k + 1; // the group itself is scanned by the main loop
                    continue;
                }
            }
            let after = skip_turbofish(trees, k);
            if let Some(g) = trees
                .get(after)
                .and_then(Tree::group)
                .filter(|g| g.delim == '(')
            {
                out.push(site(CallKind::Path(segs), line, col, g));
            }
            // Step past the whole path so `b::f` is not re-scanned as its
            // own call; the argument group is reached by the main loop.
            i = k;
            continue;
        }
        if let Some(g) = trees[i].group() {
            scan(&g.children, out);
        }
        i += 1;
    }
}

/// One panic site inside a function body.
#[derive(Debug, Clone)]
pub struct Sink {
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Display form (`panic!`, `unwrap()`, `expect("msg")`).
    pub what: String,
}

/// The function-level call graph with per-function panic sinks.
pub struct Graph {
    /// Outgoing edges per function, sorted and deduplicated.
    pub calls: Vec<Vec<FnId>>,
    /// Panic sinks per function.
    pub sinks: Vec<Vec<Sink>>,
}

/// Classifies a call site as a panic sink. `.expect` counts only with a
/// sub-invariant string message — a non-string argument (e.g. the byte the
/// JSON reader's own `expect` method takes) is a different function.
fn sink_of(c: &CallSite) -> Option<Sink> {
    let what = match &c.kind {
        CallKind::Macro(m) if matches!(m.as_str(), "panic" | "todo" | "unimplemented") => {
            format!("{m}!")
        }
        CallKind::Method(m) if m == "unwrap" && c.args_empty => "unwrap()".to_string(),
        CallKind::Method(m) if m == "expect" => {
            let msg = c.first_str.as_deref()?;
            if msg.split_whitespace().count() >= 3 {
                return None;
            }
            format!("expect(\"{msg}\")")
        }
        _ => return None,
    };
    Some(Sink {
        line: c.line,
        col: c.col,
        what,
    })
}

/// Builds the graph over every function with a body.
pub fn build(units: &[FileUnit], syms: &Symbols) -> Graph {
    let n = syms.fns.len();
    let mut calls: Vec<Vec<FnId>> = vec![Vec::new(); n];
    let mut sinks: Vec<Vec<Sink>> = vec![Vec::new(); n];
    for (id, sym) in syms.fns.iter().enumerate() {
        let unit = &units[sym.unit];
        let def = &unit.ast.fns[sym.def];
        let Some(body) = &def.body else { continue };
        for c in call_sites(&body.children) {
            if let Some(s) = sink_of(&c) {
                sinks[id].push(s);
            }
            match &c.kind {
                CallKind::Path(segs) => {
                    calls[id].extend(syms.resolve_fn(unit, &def.mod_path, segs));
                }
                CallKind::Method(m) => {
                    calls[id].extend_from_slice(syms.methods_named(m));
                }
                CallKind::Macro(_) => {}
            }
        }
        calls[id].sort_by_key(|f| f.0);
        calls[id].dedup();
    }
    Graph { calls, sinks }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::build_trees;

    fn sites(src: &str) -> Vec<CallSite> {
        call_sites(&build_trees(&lex(src).tokens))
    }

    #[test]
    fn extracts_path_method_and_macro_calls() {
        let got = sites("crate::rng::substream(seed, 1); x.unwrap(); panic!(\"boom\");");
        let kinds: Vec<String> = got
            .iter()
            .map(|c| match &c.kind {
                CallKind::Path(p) => format!("path:{}", p.join("::")),
                CallKind::Method(m) => format!("method:{m}"),
                CallKind::Macro(m) => format!("macro:{m}"),
            })
            .collect();
        assert_eq!(
            kinds,
            vec!["path:crate::rng::substream", "method:unwrap", "macro:panic"]
        );
    }

    #[test]
    fn turbofish_and_nesting_are_handled() {
        let got = sites("xs.iter().sum::<f64>(); f(g(h()));");
        let names: Vec<&str> = got
            .iter()
            .map(|c| match &c.kind {
                CallKind::Path(p) => p.last().unwrap().as_str(),
                CallKind::Method(m) => m.as_str(),
                CallKind::Macro(m) => m.as_str(),
            })
            .collect();
        assert_eq!(names, vec!["iter", "sum", "f", "g", "h"]);
    }

    #[test]
    fn sink_classification() {
        let s = |src: &str| sites(src).iter().filter_map(sink_of).count();
        assert_eq!(s("x.unwrap();"), 1);
        assert_eq!(s("x.unwrap_or(0);"), 0);
        assert_eq!(s("x.expect(\"bad\");"), 1);
        assert_eq!(s("x.expect(\n    \"bad\"\n);"), 1); // multi-line message
        assert_eq!(s("x.expect(\"slots minted by compile above\");"), 0);
        assert_eq!(s("self.expect(b'{')?;"), 0); // non-string argument
        assert_eq!(s("todo!();"), 1);
        assert_eq!(s("std::panic!(\"boom\");"), 1); // path-qualified macro
        assert_eq!(s("core::unimplemented![];"), 1);
    }
}
