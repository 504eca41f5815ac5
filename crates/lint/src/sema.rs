//! The lint pipeline and its semantic rules, over the AST, symbol table
//! and call graph.
//!
//! [`analyze`] is the one pipeline: every file is lexed and parsed once
//! (by [`FileUnit::new`]), the lexical rule of [`crate::rules`] runs on its
//! tokens, [`Symbols`] and the call graph are built, the rules below run,
//! and each file's suppression comments are applied to all of its findings
//! at once. Each invariant has one rule, which judges literal,
//! const-resolved and unresolvable inputs alike and reports one finding
//! per defect:
//!
//! - `panic-policy` — panic sinks in the policy crates' library code, and
//!   sinks elsewhere that the policy crates' public API reaches on the
//!   call graph (with the call chain).
//! - `telemetry-taxonomy` — telemetry names, literal or routed through a
//!   string const, checked against the §5b/§5d registries; names that do
//!   not resolve.
//! - `rng-stream-discipline` — literal `substream(seed, stream)` collisions,
//!   RNGs captured across parallel-closure boundaries, and stream-id reuse
//!   across chunk loops.
//! - `nondet-reduction` — float accumulation inside parallel chains that is
//!   not routed through an order-insensitive merge.
//! - `knob-coverage` — two-way diff of environment reads against the
//!   documented registry.

use crate::callgraph::{self, skip_turbofish, Graph};
use crate::lexer::{Tok, TokKind};
use crate::parser::{contains_ident, split_args, Tree};
use crate::rules::{self, Diagnostic, RuleId};
use crate::symbols::{self, path_segments, FileUnit, FnId, Symbols};
use crate::TreeLint;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::io;
use std::path::Path;

/// Parallel-iterator sources: a chain containing one runs on rayon.
const PAR_SOURCES: &[&str] = &[
    "par_iter",
    "par_iter_mut",
    "into_par_iter",
    "par_bridge",
    "par_chunks",
    "par_windows",
];

/// Adaptors whose closure arguments execute on worker threads.
const PAR_ADAPTORS: &[&str] = &[
    "map",
    "map_init",
    "map_with",
    "for_each",
    "for_each_init",
    "for_each_with",
    "filter",
    "filter_map",
    "flat_map",
    "fold",
    "try_fold",
    "reduce",
    "try_reduce",
    "try_for_each",
    "inspect",
    "update",
    "all",
    "any",
    "find_any",
    "position_any",
];

/// Methods that run their closure arguments on worker threads whatever
/// their receiver: `FailureAnalyzer::sweep`'s parallel grid.
const PAR_SWEEPS: &[&str] = &["sweep"];

/// Identifiers whose presence in a `let` initialiser marks the binding as
/// an RNG value (must not be shared across parallel work items).
const RNG_MAKERS: &[&str] = &[
    "substream",
    "seeded_rng",
    "seed_from_u64",
    "from_seed",
    "StdRng",
    "SmallRng",
];

/// Loads every walked file under `root` and runs [`analyze`] on them.
///
/// # Errors
///
/// Propagates I/O failures from the walk and file reads.
pub fn analyze_tree(root: &Path) -> io::Result<TreeLint> {
    Ok(analyze(&symbols::load_workspace(root)?))
}

/// Runs every rule over `units` as one tree (cross-file resolution, call
/// graph, registries) and applies each file's allows. Diagnostics are
/// sorted by (file, line, col, rule).
pub fn analyze(units: &[FileUnit]) -> TreeLint {
    let syms = Symbols::build(units);
    let graph = callgraph::build(units, &syms);
    let calls = path_calls(units);

    let mut per: Vec<Vec<Diagnostic>> = units
        .iter()
        .map(|u| rules::token_diags(&u.rel, &u.lexed.tokens, &u.ast))
        .collect();
    rng_stream_discipline(units, &syms, &mut per);
    panic_policy(units, &syms, &graph, &mut per);
    nondet_reduction(units, &mut per);
    telemetry_taxonomy(units, &syms, &calls, &mut per);
    knob_coverage(units, &syms, &calls, &mut per);

    let mut diagnostics = Vec::new();
    for (unit, mut found) in units.iter().zip(per) {
        rules::apply_allows(&unit.rel, &unit.lexed.allows, &mut found);
        diagnostics.append(&mut found);
    }
    diagnostics
        .sort_by(|a, b| (&a.file, a.line, a.col, a.rule).cmp(&(&b.file, b.line, b.col, b.rule)));
    TreeLint {
        files_scanned: units.len(),
        diagnostics,
    }
}

fn diag(unit: &FileUnit, line: u32, col: u32, rule: RuleId, message: String) -> Diagnostic {
    Diagnostic {
        file: unit.rel.clone(),
        line,
        col,
        rule,
        message,
    }
}

fn flatten_trees(trees: &[Tree]) -> String {
    let mut s = String::new();
    for t in trees {
        match t {
            Tree::Leaf(tok) => {
                if !s.is_empty() {
                    s.push(' ');
                }
                s.push_str(&tok.text);
            }
            Tree::Group(g) => {
                s.push(g.delim);
                s.push_str(&flatten_trees(&g.children));
                s.push(match g.delim {
                    '(' => ')',
                    '[' => ']',
                    _ => '}',
                });
            }
        }
    }
    s
}

fn contains_float(trees: &[Tree]) -> bool {
    trees.iter().any(|t| match t {
        Tree::Leaf(tok) => tok.kind == TokKind::Float,
        Tree::Group(g) => contains_float(&g.children),
    })
}

/// True when `trees[..i]` ends with a method chain that contains a rayon
/// parallel source. Scans backwards over chain-shaped elements only, so a
/// statement boundary (`=`, `;`, `,`) stops the search.
fn chain_is_parallel(trees: &[Tree], i: usize) -> bool {
    let mut j = i;
    while j > 0 {
        j -= 1;
        match &trees[j] {
            Tree::Group(g) if g.delim == '(' || g.delim == '[' => {}
            Tree::Leaf(tok) if tok.kind == TokKind::Ident => {
                if PAR_SOURCES.contains(&tok.text.as_str()) {
                    return true;
                }
            }
            Tree::Leaf(tok)
                if tok.kind == TokKind::Punct
                    && matches!(tok.text.as_str(), "." | "?" | "::" | "<" | ">" | ">>" | "&") => {}
            Tree::Leaf(tok) if tok.kind == TokKind::Int => {}
            _ => return false,
        }
    }
    false
}

/// Matches a path call `a::b::f(…)` whose leading ident is at `i` (caller
/// must ensure `trees[i-1]` is not `.`). Returns (segments, position of the
/// last segment, index of the argument group).
fn path_call_at(trees: &[Tree], i: usize) -> Option<(Vec<String>, (u32, u32), usize)> {
    let first = trees[i].leaf().filter(|t| t.kind == TokKind::Ident)?;
    let mut segs = vec![first.text.clone()];
    let mut pos = (first.line, first.col);
    let mut k = i + 1;
    while trees.get(k).is_some_and(|t| t.is_punct("::")) {
        let Some(next) = trees
            .get(k + 1)
            .and_then(Tree::leaf)
            .filter(|t| t.kind == TokKind::Ident)
        else {
            break;
        };
        segs.push(next.text.clone());
        pos = (next.line, next.col);
        k += 2;
    }
    let after = skip_turbofish(trees, k);
    let g = trees.get(after).and_then(Tree::group)?;
    if g.delim != '(' {
        return None;
    }
    Some((segs, pos, after))
}

// ------------------------------------------------- rng-stream-discipline

struct SubSite {
    unit: usize,
    line: u32,
    col: u32,
    seed: Option<u128>,
    seed_text: String,
    stream: Option<u128>,
    fn_key: (usize, usize),
    /// (for-loop line, loop var) when the stream argument is the loop var.
    in_loop: Option<u32>,
}

struct RngWalk<'a> {
    units: &'a [FileUnit],
    syms: &'a Symbols,
    unit_idx: usize,
    mod_path: &'a [String],
    fn_key: (usize, usize),
    /// Scope stack of RNG-tainted binding names.
    frames: Vec<Vec<String>>,
    /// (frame depth, group position) at each parallel-closure entry.
    boundaries: Vec<(usize, (u32, u32))>,
    /// Enclosing `for` loops: (line of `for`, loop variable).
    loops: Vec<(u32, String)>,
    sites: &'a mut Vec<SubSite>,
    /// Capture findings: (line, col, name).
    captures: &'a mut Vec<(usize, u32, u32, String)>,
    /// Dedup: one capture finding per (parallel group, name).
    flagged: BTreeSet<((u32, u32), String)>,
}

impl RngWalk<'_> {
    fn unit(&self) -> &FileUnit {
        &self.units[self.unit_idx]
    }

    fn walk(&mut self, trees: &[Tree]) {
        let mut i = 0usize;
        while i < trees.len() {
            // `for <var> in <iter> { … }` with a simple ident pattern.
            if trees[i].is_ident("for") {
                if let Some(var) = trees
                    .get(i + 1)
                    .and_then(Tree::leaf)
                    .filter(|t| t.kind == TokKind::Ident)
                    .map(|t| t.text.clone())
                {
                    let mut b = i + 2;
                    while b < trees.len()
                        && !trees[b].is_punct(";")
                        && trees[b].group().is_none_or(|g| g.delim != '{')
                    {
                        b += 1;
                    }
                    if let Some(body) = trees.get(b).and_then(Tree::group) {
                        let (line, _) = trees[i].pos();
                        self.walk(&trees[i + 2..b]);
                        self.loops.push((line, var));
                        self.frames.push(Vec::new());
                        self.walk(&body.children);
                        self.frames.pop();
                        self.loops.pop();
                        i = b + 1;
                        continue;
                    }
                }
            }
            // `let [mut] name = <rhs containing an RNG maker>;`
            if trees[i].is_ident("let") {
                let mut j = i + 1;
                if trees.get(j).is_some_and(|t| t.is_ident("mut")) {
                    j += 1;
                }
                if let Some(name) = trees
                    .get(j)
                    .and_then(Tree::leaf)
                    .filter(|t| t.kind == TokKind::Ident)
                    .map(|t| t.text.clone())
                {
                    let mut eq = j + 1;
                    while eq < trees.len() && !trees[eq].is_punct("=") && !trees[eq].is_punct(";") {
                        eq += 1;
                    }
                    let mut end = eq;
                    while end < trees.len() && !trees[end].is_punct(";") {
                        end += 1;
                    }
                    if eq < end {
                        let rhs = &trees[eq + 1..end];
                        if RNG_MAKERS.iter().any(|m| contains_ident(rhs, m)) {
                            if let Some(frame) = self.frames.last_mut() {
                                frame.push(name);
                            }
                        }
                    }
                }
                i += 1; // rhs still gets scanned generically
                continue;
            }
            // Parallel closure boundary: `.adaptor(…)` on a chain that
            // contains a rayon source, or `.sweep(…)` on any receiver.
            if trees[i].is_punct(".") {
                if let Some(m) = trees
                    .get(i + 1)
                    .and_then(Tree::leaf)
                    .filter(|t| t.kind == TokKind::Ident)
                {
                    let name = m.text.as_str();
                    let after = skip_turbofish(trees, i + 2);
                    let par = trees
                        .get(after)
                        .and_then(Tree::group)
                        .is_some_and(|g| g.delim == '(')
                        && (PAR_SWEEPS.contains(&name)
                            || (PAR_ADAPTORS.contains(&name) && chain_is_parallel(trees, i)));
                    if par {
                        let g = trees[after].group().unwrap();
                        self.boundaries.push((self.frames.len(), (g.line, g.col)));
                        self.frames.push(Vec::new());
                        self.walk(&g.children);
                        self.frames.pop();
                        self.boundaries.pop();
                        i = after + 1;
                        continue;
                    }
                }
                // Other `.name` — skip the name so it is not read as a use.
                i += 2;
                continue;
            }
            // `…::substream(seed, stream)` sites.
            if trees[i].leaf().is_some_and(|t| t.kind == TokKind::Ident) {
                if let Some((segs, pos, gidx)) = path_call_at(trees, i) {
                    if segs.last().is_some_and(|s| s == "substream") {
                        let g = trees[gidx].group().unwrap();
                        let args = split_args(&g.children);
                        if args.len() == 2 {
                            self.record_site(pos, args[0], args[1]);
                        }
                        i = gidx; // args group is scanned generically below
                        continue;
                    }
                    // A path that is not substream: step past the segments
                    // (avoids reading path segments as local uses).
                    i += 2 * segs.len() - 1;
                    continue;
                }
                // Plain ident: a potential use of a captured RNG.
                self.check_use(trees, i);
                i += 1;
                continue;
            }
            if let Some(g) = trees[i].group() {
                self.frames.push(Vec::new());
                self.walk(&g.children);
                self.frames.pop();
            }
            i += 1;
        }
    }

    fn record_site(&mut self, pos: (u32, u32), seed_arg: &[Tree], stream_arg: &[Tree]) {
        let unit = self.unit();
        let seed = self
            .syms
            .resolve_int(self.units, unit, self.mod_path, seed_arg);
        let stream = self
            .syms
            .resolve_int(self.units, unit, self.mod_path, stream_arg);
        let in_loop = match stream_arg {
            [t] => t.leaf().filter(|t| t.kind == TokKind::Ident).and_then(|t| {
                self.loops
                    .iter()
                    .rev()
                    .find(|(_, v)| *v == t.text)
                    .map(|(l, _)| *l)
            }),
            _ => None,
        };
        self.sites.push(SubSite {
            unit: self.unit_idx,
            line: pos.0,
            col: pos.1,
            seed,
            seed_text: flatten_trees(seed_arg),
            stream,
            fn_key: self.fn_key,
            in_loop,
        });
    }

    fn check_use(&mut self, trees: &[Tree], i: usize) {
        let Some(&(boundary_depth, group_pos)) = self.boundaries.last() else {
            return;
        };
        // Path segments are not local uses.
        if trees.get(i + 1).is_some_and(|t| t.is_punct("::"))
            || (i > 0 && trees[i - 1].is_punct("::"))
        {
            return;
        }
        let name = &trees[i].leaf().unwrap().text;
        let bound_outside = self.frames[..boundary_depth]
            .iter()
            .any(|f| f.iter().any(|b| b == name));
        let bound_inside = self.frames[boundary_depth..]
            .iter()
            .any(|f| f.iter().any(|b| b == name));
        if bound_outside && !bound_inside {
            let (line, col) = trees[i].pos();
            if self.flagged.insert((group_pos, name.clone())) {
                self.captures.push((self.unit_idx, line, col, name.clone()));
            }
        }
    }
}

fn rng_stream_discipline(units: &[FileUnit], syms: &Symbols, per: &mut [Vec<Diagnostic>]) {
    let mut sites: Vec<SubSite> = Vec::new();
    let mut captures: Vec<(usize, u32, u32, String)> = Vec::new();
    for (u, unit) in units.iter().enumerate() {
        for (d, f) in unit.ast.fns.iter().enumerate() {
            if f.is_test {
                continue;
            }
            let Some(body) = &f.body else { continue };
            let mut walk = RngWalk {
                units,
                syms,
                unit_idx: u,
                mod_path: &f.mod_path,
                fn_key: (u, d),
                frames: vec![Vec::new()],
                boundaries: Vec::new(),
                loops: Vec::new(),
                sites: &mut sites,
                captures: &mut captures,
                flagged: BTreeSet::new(),
            };
            walk.walk(&body.children);
        }
    }

    // (b) RNGs captured across a parallel-closure boundary.
    for (u, line, col, name) in captures {
        per[u].push(diag(
            &units[u],
            line,
            col,
            RuleId::RngStreamDiscipline,
            format!(
                "RNG `{name}` is captured by a parallel closure; worker threads would share \
                 one stream nondeterministically — derive a per-item RNG with \
                 `substream(seed, item_index)` inside the closure"
            ),
        ));
    }

    // (a) Literal (seed, stream) collisions across the workspace.
    let mut by_pair: BTreeMap<(u128, u128), Vec<usize>> = BTreeMap::new();
    for (i, s) in sites.iter().enumerate() {
        if let (Some(seed), Some(stream)) = (s.seed, s.stream) {
            by_pair.entry((seed, stream)).or_default().push(i);
        }
    }
    for ((seed, stream), mut group) in by_pair {
        if group.len() < 2 {
            continue;
        }
        group.sort_by(|&a, &b| {
            (&units[sites[a].unit].rel, sites[a].line, sites[a].col).cmp(&(
                &units[sites[b].unit].rel,
                sites[b].line,
                sites[b].col,
            ))
        });
        let first = &sites[group[0]];
        let anchor = format!("{}:{}", units[first.unit].rel, first.line);
        for &i in &group[1..] {
            let s = &sites[i];
            per[s.unit].push(diag(
                &units[s.unit],
                s.line,
                s.col,
                RuleId::RngStreamDiscipline,
                format!(
                    "`substream` stream id {stream} for seed {seed} collides with {anchor}; \
                     every independent RNG consumer needs a distinct stream id within a seed \
                     scope"
                ),
            ));
        }
    }

    // (c) Stream-id ranges reused across multiple chunk loops.
    let mut by_seed: BTreeMap<String, Vec<usize>> = BTreeMap::new();
    for (i, s) in sites.iter().enumerate() {
        if s.in_loop.is_some() {
            let key = match s.seed {
                Some(v) => format!("#{v}"),
                None => format!("{}:{}:{}", s.fn_key.0, s.fn_key.1, s.seed_text),
            };
            by_seed.entry(key).or_default().push(i);
        }
    }
    for (_, mut group) in by_seed {
        let loops: BTreeSet<u32> = group.iter().filter_map(|&i| sites[i].in_loop).collect();
        if loops.len() < 2 {
            continue;
        }
        group.sort_by(|&a, &b| {
            (&units[sites[a].unit].rel, sites[a].line, sites[a].col).cmp(&(
                &units[sites[b].unit].rel,
                sites[b].line,
                sites[b].col,
            ))
        });
        let first_loop = sites[group[0]].in_loop.unwrap();
        for &i in &group[1..] {
            let s = &sites[i];
            if s.in_loop == Some(first_loop) {
                continue;
            }
            per[s.unit].push(diag(
                &units[s.unit],
                s.line,
                s.col,
                RuleId::RngStreamDiscipline,
                format!(
                    "chunk loop re-derives the stream ids of seed `{}` already consumed by \
                     the loop at line {first_loop}; offset the stream id (e.g. \
                     `substream(seed, base + idx)`) so samples stay independent",
                    s.seed_text
                ),
            ));
        }
    }
}

// ---------------------------------------------------------- panic-policy

/// Library trees under the strict panic policy.
const PANIC_POLICY_PREFIXES: &[&str] = &[
    "crates/circuit/src/",
    "crates/stats/src/",
    "crates/sram/src/",
    "crates/core/src/",
    "crates/bist/src/",
];

/// Reports the call graph's panic sinks: every sink in a non-test function
/// of a policy crate, and every sink elsewhere that a policy crate's public
/// API reaches, with the shortest call chain. Examples are leaf demo
/// binaries, never linked under the API.
fn panic_policy(units: &[FileUnit], syms: &Symbols, graph: &Graph, per: &mut [Vec<Diagnostic>]) {
    let policy = |rel: &str| PANIC_POLICY_PREFIXES.iter().any(|p| rel.starts_with(p));
    let n = syms.fns.len();
    let def = |id: usize| &units[syms.fns[id].unit].ast.fns[syms.fns[id].def];

    // Entry points: unrestricted-pub functions of the policy crates.
    let mut entries: Vec<usize> = (0..n)
        .filter(|&id| def(id).is_pub && !def(id).is_test && policy(&units[syms.fns[id].unit].rel))
        .collect();
    entries.sort_by_key(|&id| syms.path_of(FnId(id)).to_string());

    let mut parent: Vec<Option<usize>> = vec![None; n];
    let mut seen = vec![false; n];
    let mut queue: VecDeque<usize> = VecDeque::new();
    for &e in &entries {
        if !seen[e] {
            seen[e] = true;
            queue.push_back(e);
        }
    }
    while let Some(f) = queue.pop_front() {
        for &FnId(g) in &graph.calls[f] {
            if !seen[g] && !def(g).is_test {
                seen[g] = true;
                parent[g] = Some(f);
                queue.push_back(g);
            }
        }
    }

    for (id, sinks) in graph.sinks.iter().enumerate() {
        let sym = &syms.fns[id];
        let unit = &units[sym.unit];
        // `None` inside a policy crate, else the chain that reaches the sink.
        let chain = if sinks.is_empty() || def(id).is_test {
            continue;
        } else if policy(&unit.rel) {
            None
        } else if seen[id] && !unit.rel.starts_with("examples/") {
            // Shortest example chain from an entry point, via BFS parents.
            let mut chain = vec![id];
            while let Some(p) = chain.last().and_then(|&f| parent[f]) {
                chain.push(p);
            }
            let path: Vec<&str> = chain.iter().rev().map(|&f| syms.path_of(FnId(f))).collect();
            Some(path.join(" -> "))
        } else {
            continue;
        };
        for sink in sinks {
            let what = &sink.what;
            let message = match &chain {
                None => format!(
                    "`{what}` in library code; return an error, or state the invariant that \
                     rules it out (an `expect` message of at least three words, or \
                     `// pvtm-lint: allow(panic-policy) <invariant>`)"
                ),
                Some(chain) => format!(
                    "`{what}` is reachable from public API ({chain}); return an error, or \
                     justify with `// pvtm-lint: allow(panic-policy) <invariant>` at this \
                     sink (one allow covers every caller)"
                ),
            };
            per[sym.unit].push(diag(
                unit,
                sink.line,
                sink.col,
                RuleId::PanicPolicy,
                message,
            ));
        }
    }
}

// ---------------------------------------------------- nondet-reduction

fn nondet_reduction(units: &[FileUnit], per: &mut [Vec<Diagnostic>]) {
    for (u, unit) in units.iter().enumerate() {
        for f in &unit.ast.fns {
            if f.is_test {
                continue;
            }
            if let Some(body) = &f.body {
                let mut found = Vec::new();
                nondet_scan(&body.children, &mut found);
                for (line, col, msg) in found {
                    per[u].push(diag(unit, line, col, RuleId::NondetReduction, msg));
                }
            }
        }
    }
}

fn nondet_scan(trees: &[Tree], out: &mut Vec<(u32, u32, String)>) {
    let mut i = 0usize;
    while i < trees.len() {
        if trees[i].is_punct(".") {
            if let Some(m) = trees
                .get(i + 1)
                .and_then(Tree::leaf)
                .filter(|t| t.kind == TokKind::Ident)
            {
                let name = m.text.clone();
                let (line, col) = (m.line, m.col);
                let after = skip_turbofish(trees, i + 2);
                let has_args = trees
                    .get(after)
                    .and_then(Tree::group)
                    .is_some_and(|g| g.delim == '(');
                if has_args && chain_is_parallel(trees, i) {
                    match name.as_str() {
                        "sum" if float_sum(trees, i, after) => out.push((
                            line,
                            col,
                            "parallel float `sum()` adds in work-stealing order and is not \
                             bit-reproducible; accumulate per chunk and merge through \
                             `Summary::merge` (or an equivalent order-fixed reduction)"
                                .to_string(),
                        )),
                        "reduce" | "fold" => {
                            let g = trees[after].group().unwrap();
                            if contains_float(&g.children)
                                && !contains_ident(&g.children, "merge")
                                && !contains_ident(&g.children, "Summary")
                            {
                                out.push((
                                    line,
                                    col,
                                    format!(
                                        "parallel float `{name}` combines partial results in \
                                         scheduling order; route the accumulation through \
                                         `Summary::merge` (order-fixed) instead"
                                    ),
                                ));
                            }
                        }
                        _ => {}
                    }
                }
            }
        }
        if let Some(g) = trees[i].group() {
            nondet_scan(&g.children, out);
        }
        i += 1;
    }
}

/// Is this `.sum` a float sum? Either `::<f64>()` turbofish, or the chain
/// is bound by a float-annotated `let`.
fn float_sum(trees: &[Tree], dot: usize, group_idx: usize) -> bool {
    if group_idx > dot + 2 {
        // Turbofish present: `.sum :: < ty > (…)`.
        let ty = trees[dot + 4..group_idx].iter().find_map(|t| {
            t.leaf()
                .filter(|t| t.kind == TokKind::Ident)
                .map(|t| t.text.as_str())
        });
        return matches!(ty, Some("f64" | "f32"));
    }
    // Walk back past the chain to the statement head: `let name : fNN =`.
    let mut j = dot;
    while j > 0 {
        let prev = &trees[j - 1];
        let chainish = match prev {
            Tree::Group(g) => g.delim == '(' || g.delim == '[',
            Tree::Leaf(tok) => {
                tok.kind == TokKind::Ident
                    || tok.kind == TokKind::Int
                    || matches!(tok.text.as_str(), "." | "?" | "::" | "<" | ">" | ">>" | "&")
            }
        };
        if !chainish {
            break;
        }
        j -= 1;
    }
    j >= 1
        && trees[j - 1].is_punct("=")
        && j >= 2
        && trees[j - 2]
            .leaf()
            .is_some_and(|t| t.text == "f64" || t.text == "f32")
}

// ------------------------------------------------------ name arguments

/// One `…::callee(args)` call in a non-test function body: the shape of
/// telemetry calls (`pvtm_telemetry::span(NAME)`) and environment reads
/// (`std::env::var(NAME)`).
struct PathCall<'a> {
    unit: usize,
    mod_path: &'a [String],
    /// The path segment before the callee (`env` in `env::var`).
    qualifier: Option<&'a Tok>,
    callee: &'a Tok,
    args: &'a [Tree],
}

/// What the first argument of a [`PathCall`] names.
enum NameArg<'a> {
    /// A string literal (the argument's first token).
    Literal(&'a Tok),
    /// A path to a string const: the path as written, and its value.
    Const(String, String),
    /// Anything else: a parameter, a call, a non-string or unknown const.
    Unresolved,
}

fn path_calls(units: &[FileUnit]) -> Vec<PathCall<'_>> {
    fn scan<'a>(
        unit: usize,
        mod_path: &'a [String],
        trees: &'a [Tree],
        out: &mut Vec<PathCall<'a>>,
    ) {
        for (i, t) in trees.iter().enumerate() {
            if let Some(g) = t.group() {
                scan(unit, mod_path, &g.children, out);
                continue;
            }
            if !t.is_punct("::") {
                continue;
            }
            let callee = trees.get(i + 1).and_then(Tree::leaf);
            let args = trees.get(i + 2).and_then(Tree::group);
            if let (Some(callee), Some(args)) = (callee, args) {
                if callee.kind == TokKind::Ident && args.delim == '(' {
                    out.push(PathCall {
                        unit,
                        mod_path,
                        qualifier: i.checked_sub(1).and_then(|k| trees[k].leaf()),
                        callee,
                        args: &args.children,
                    });
                }
            }
        }
    }
    let mut out = Vec::new();
    for (u, unit) in units.iter().enumerate() {
        for f in unit.ast.fns.iter().filter(|f| !f.is_test) {
            if let Some(body) = &f.body {
                scan(u, &f.mod_path, &body.children, &mut out);
            }
        }
    }
    out
}

impl<'a> PathCall<'a> {
    fn name_arg(&self, units: &[FileUnit], syms: &Symbols) -> NameArg<'a> {
        let arg = split_args(self.args).first().copied().unwrap_or_default();
        if let Some(tok) = arg
            .first()
            .and_then(Tree::leaf)
            .filter(|t| t.kind == TokKind::Str)
        {
            return NameArg::Literal(tok);
        }
        let unit = &units[self.unit];
        match (
            path_segments(arg),
            syms.resolve_str(units, unit, self.mod_path, arg),
        ) {
            (Some(segs), Some(name)) => NameArg::Const(segs.join("::"), name),
            _ => NameArg::Unresolved,
        }
    }
}

// ---------------------------------------------------- telemetry-taxonomy

/// Maps a telemetry API function name to the kind of name it registers.
fn telemetry_kind(callee: &str) -> Option<&'static str> {
    match callee {
        "span" => Some("span"),
        "trace_scope" => Some("trace"),
        "counter_add" => Some("counter"),
        "gauge_set" => Some("gauge"),
        "hist_record" => Some("histogram"),
        "emit" => Some("event"),
        _ => None,
    }
}

/// Checks a telemetry name against the shape convention and the §5b/§5d
/// registries; returns the problem description if it violates either.
fn taxonomy_problem(kind: &str, name: &str) -> Option<String> {
    let shape_ok = !name.is_empty()
        && name.split('.').all(|seg| {
            !seg.is_empty()
                && seg
                    .chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
        });
    if !shape_ok {
        return Some(format!(
            "telemetry {kind} name \"{name}\" is not dotted lowercase \
             (`[a-z0-9_]` segments separated by `.`)"
        ));
    }
    let root = name.split('.').next().unwrap_or_default();
    let (roots, section): (&[&str], &str) = match kind {
        "span" | "trace" => (rules::SPAN_ROOTS, "5b"),
        "event" => (rules::EVENT_ROOTS, "5d"),
        _ => (rules::METRIC_ROOTS, "5b"),
    };
    if !roots.contains(&root) {
        return Some(format!(
            "telemetry {kind} name \"{name}\" is outside the DESIGN.md §{section} \
             taxonomy (unknown root \"{root}\"); extend the taxonomy and this registry \
             together"
        ));
    }
    None
}

/// Checks the name of every telemetry call, literal or routed through a
/// string const, and flags names that resolve to neither.
fn telemetry_taxonomy(
    units: &[FileUnit],
    syms: &Symbols,
    calls: &[PathCall<'_>],
    per: &mut [Vec<Diagnostic>],
) {
    for c in calls {
        let Some(kind) = telemetry_kind(&c.callee.text) else {
            continue;
        };
        let problem = match c.name_arg(units, syms) {
            NameArg::Literal(tok) => taxonomy_problem(kind, &tok.text),
            NameArg::Const(path, name) => taxonomy_problem(kind, &name)
                .map(|p| format!("{p} (name resolved through const `{path}`)")),
            NameArg::Unresolved => Some(format!(
                "non-literal {kind} name resolves to no string const and cannot be checked \
                 against the §5b taxonomy"
            )),
        };
        if let Some(message) = problem {
            let (line, col) = (c.callee.line, c.callee.col);
            per[c.unit].push(diag(
                &units[c.unit],
                line,
                col,
                RuleId::TelemetryTaxonomy,
                message,
            ));
        }
    }
}

// --------------------------------------------------------- knob-coverage

fn is_knob_shape(s: &str) -> bool {
    s.strip_prefix("PVTM_").is_some_and(|rest| {
        !rest.is_empty()
            && rest
                .chars()
                .all(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_')
    })
}

fn undocumented(name: &str) -> String {
    format!(
        "environment knob `{name}` is read but not in `DOCUMENTED_ENV_KNOBS`; document it \
         (README knob table) and register it, or drop the read"
    )
}

/// Two-way diff of environment reads against the documented registry.
/// An `env::var`/`var_os` read is judged at its `var` token: a literal name
/// of any shape, a name routed through a string const that is not
/// knob-shaped, and a name that resolves to nothing. Every other
/// knob-shaped string in non-test code counts as a read where it is
/// written (helpers, const definitions). A documented entry nothing reads
/// is stale.
fn knob_coverage(
    units: &[FileUnit],
    syms: &Symbols,
    calls: &[PathCall<'_>],
    per: &mut [Vec<Diagnostic>],
) {
    // The registry: every non-test `DOCUMENTED_ENV_KNOBS` string-list const
    // in the analyzed tree. Its entry positions anchor stale-doc findings;
    // a tree without one (minimal fixtures) falls back to the compiled-in
    // registry, losing only the stale direction.
    let mut entries: Vec<(usize, String, u32, u32)> = Vec::new();
    for (u, unit) in units.iter().enumerate() {
        for c in &unit.ast.consts {
            if c.name != "DOCUMENTED_ENV_KNOBS" || c.is_test {
                continue;
            }
            if let crate::ast::ConstValue::StrList(list) = &c.value {
                for e in list {
                    entries.push((u, e.value.clone(), e.line, e.col));
                }
            }
        }
    }
    let documented: BTreeSet<String> = if entries.is_empty() {
        rules::DOCUMENTED_ENV_KNOBS
            .iter()
            .map(|s| s.to_string())
            .collect()
    } else {
        entries.iter().map(|(_, v, _, _)| v.clone()).collect()
    };

    // Literals the shape scan below skips: the registry entries, and the
    // names of `env::var` reads, judged at the read.
    let mut skip: BTreeSet<(usize, u32, u32)> = entries.iter().map(|e| (e.0, e.2, e.3)).collect();
    let mut reads: BTreeSet<String> = BTreeSet::new();
    let env_reads = calls.iter().filter(|c| {
        c.qualifier.is_some_and(|q| q.text == "env")
            && matches!(c.callee.text.as_str(), "var" | "var_os")
    });
    for c in env_reads {
        let message = match c.name_arg(units, syms) {
            NameArg::Literal(tok) => {
                skip.insert((c.unit, tok.line, tok.col));
                reads.insert(tok.text.clone());
                (!documented.contains(&tok.text)).then(|| undocumented(&tok.text))
            }
            // A knob-shaped const is flagged by the shape scan where it is
            // spelled; any other undocumented name only shows here.
            NameArg::Const(path, name) => {
                let found = !documented.contains(&name) && !is_knob_shape(&name);
                reads.insert(name.clone());
                found.then(|| {
                    format!(
                        "{} (name resolved through const `{path}`)",
                        undocumented(&name)
                    )
                })
            }
            NameArg::Unresolved => Some(
                "`env::var` with a name that resolves to no literal or string const cannot \
                 be audited; read documented `PVTM_*` knobs by name"
                    .to_string(),
            ),
        };
        if let Some(message) = message {
            let (line, col) = (c.callee.line, c.callee.col);
            per[c.unit].push(diag(
                &units[c.unit],
                line,
                col,
                RuleId::KnobCoverage,
                message,
            ));
        }
    }

    // Every other knob-shaped string in non-test code.
    for (u, unit) in units.iter().enumerate() {
        for tok in &unit.lexed.tokens {
            if tok.kind != TokKind::Str
                || !is_knob_shape(&tok.text)
                || unit.ast.in_test(tok.line, tok.col)
                || skip.contains(&(u, tok.line, tok.col))
            {
                continue;
            }
            reads.insert(tok.text.clone());
            if !documented.contains(&tok.text) {
                let message = undocumented(&tok.text);
                per[u].push(diag(unit, tok.line, tok.col, RuleId::KnobCoverage, message));
            }
        }
    }

    // Documented knobs nothing reads.
    for (u, name, line, col) in entries {
        if !reads.contains(&name) {
            per[u].push(diag(
                &units[u],
                line,
                col,
                RuleId::KnobCoverage,
                format!(
                    "documented knob `{name}` is never read by walked code; delete the \
                     registry entry or wire the read it promises"
                ),
            ));
        }
    }
}
