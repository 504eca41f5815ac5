//! Workspace loading and the cross-file symbol table.
//!
//! Each walked `.rs` file becomes a [`FileUnit`] (source, tokens, token
//! trees, extracted items, canonical crate/module identity). [`Symbols`]
//! indexes every function and const under its canonical path
//! (`pvtm_stats::rng::substream`, `pvtm_circuit::template::Template::bake`)
//! and resolves the path expressions the semantic rules meet at call sites:
//! `crate::`/`self::`/`super::` prefixes, `use` aliases, sibling modules,
//! and — as a last resort — a unique-suffix match, so a rename in one layer
//! degrades to a miss rather than a wrong edge.

use crate::ast::{self, ConstDef, ConstValue, FileAst};
use crate::lexer::{self, Lexed, TokKind};
use crate::parser::{self, Tree};
use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::Path;

/// One analyzed file with everything the semantic rules need.
pub struct FileUnit {
    /// Repo-relative path with `/` separators.
    pub rel: String,
    /// Lexer output (tokens + suppression comments).
    pub lexed: Lexed,
    /// Token trees of the whole file.
    pub trees: Vec<Tree>,
    /// Extracted items.
    pub ast: FileAst,
    /// Extern-style crate name (`pvtm`, `pvtm_stats`, `pvtm_repro`,
    /// `example_<stem>`).
    pub crate_name: String,
    /// Module path induced by the file's location within its crate.
    pub file_mods: Vec<String>,
}

impl FileUnit {
    /// Lexes, parses and extracts one file. `rel` is its repo-relative
    /// path, which fixes its crate identity and every path-scoped rule, so
    /// an in-memory file is linted exactly as it would be at that path.
    pub fn new(rel: &str, src: &str) -> FileUnit {
        let rel = rel.replace('\\', "/");
        let lexed = lexer::lex(src);
        let trees = parser::build_trees(&lexed.tokens);
        let ast = ast::extract(&trees);
        let (crate_name, file_mods) = crate_identity(&rel);
        FileUnit {
            rel,
            lexed,
            trees,
            ast,
            crate_name,
            file_mods,
        }
    }
}

/// Loads every walked `.rs` file under `root` as a [`FileUnit`], sorted by
/// path so downstream output is deterministic.
///
/// # Errors
///
/// Propagates I/O failures from the walk and file reads.
pub fn load_workspace(root: &Path) -> io::Result<Vec<FileUnit>> {
    let mut units = Vec::new();
    for path in crate::walk_tree(root)? {
        let src = fs::read_to_string(&path)?;
        let rel = path.strip_prefix(root).unwrap_or(&path).to_string_lossy();
        units.push(FileUnit::new(&rel, &src));
    }
    Ok(units)
}

/// Maps a repo-relative path to (extern crate name, file module path).
/// Mirrors the workspace's `Cargo.toml` layout: `crates/core` is the `pvtm`
/// crate, every other `crates/<d>` is `pvtm_<d>`, the root package is
/// `pvtm-repro`, and each example is its own target.
pub fn crate_identity(rel: &str) -> (String, Vec<String>) {
    let parts: Vec<&str> = rel.split('/').collect();
    let (name, tail) = match parts.as_slice() {
        ["crates", d, "src", rest @ ..] => {
            let name = if *d == "core" {
                "pvtm".to_string()
            } else {
                format!("pvtm_{}", d.replace('-', "_"))
            };
            (name, rest)
        }
        ["src", rest @ ..] => ("pvtm_repro".to_string(), rest),
        ["examples", rest @ ..] => {
            let stem = rest
                .last()
                .map_or("", |f| f.strip_suffix(".rs").unwrap_or(f));
            (format!("example_{}", stem.replace('-', "_")), &rest[..0])
        }
        _ => (rel.replace(['/', '.', '-'], "_"), &parts[..0]),
    };
    let mut mods: Vec<String> = tail.iter().map(|s| s.to_string()).collect();
    if let Some(last) = mods.last_mut() {
        if let Some(stem) = last.strip_suffix(".rs") {
            *last = stem.to_string();
        }
        if matches!(last.as_str(), "lib" | "main" | "mod") {
            mods.pop();
        }
    }
    (name, mods)
}

/// Index of one function in the workspace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FnId(pub usize);

/// One indexed function: where it lives and its canonical path.
pub struct FnSym {
    /// Canonical path (`pvtm_sram::evaluator::Evaluator::eval`).
    pub path: String,
    /// Index into the unit list.
    pub unit: usize,
    /// Index into that unit's `ast.fns`.
    pub def: usize,
}

/// The workspace symbol table.
pub struct Symbols {
    /// All functions, in (unit, def) order — stable across runs.
    pub fns: Vec<FnSym>,
    fn_by_path: BTreeMap<String, Vec<FnId>>,
    fn_by_name: BTreeMap<String, Vec<FnId>>,
    /// Method name → functions defined with a `self_type`.
    method_by_name: BTreeMap<String, Vec<FnId>>,
    const_by_path: BTreeMap<String, (usize, usize)>,
}

impl Symbols {
    /// Builds the table over loaded units.
    pub fn build(units: &[FileUnit]) -> Symbols {
        let mut fns = Vec::new();
        let mut fn_by_path: BTreeMap<String, Vec<FnId>> = BTreeMap::new();
        let mut fn_by_name: BTreeMap<String, Vec<FnId>> = BTreeMap::new();
        let mut method_by_name: BTreeMap<String, Vec<FnId>> = BTreeMap::new();
        let mut const_by_path = BTreeMap::new();
        for (u, unit) in units.iter().enumerate() {
            for (d, f) in unit.ast.fns.iter().enumerate() {
                let id = FnId(fns.len());
                let path = join_path(unit, &f.mod_path, f.self_type.as_deref(), &f.name);
                fn_by_path.entry(path.clone()).or_default().push(id);
                fn_by_name.entry(f.name.clone()).or_default().push(id);
                if f.self_type.is_some() {
                    method_by_name.entry(f.name.clone()).or_default().push(id);
                }
                fns.push(FnSym {
                    path,
                    unit: u,
                    def: d,
                });
            }
            for (c, k) in unit.ast.consts.iter().enumerate() {
                let path = join_path(unit, &k.mod_path, None, &k.name);
                const_by_path.entry(path).or_insert((u, c));
            }
        }
        Symbols {
            fns,
            fn_by_path,
            fn_by_name,
            method_by_name,
            const_by_path,
        }
    }

    /// All functions sharing a method name (defined in some `impl`/`trait`).
    pub fn methods_named(&self, name: &str) -> &[FnId] {
        self.method_by_name.get(name).map_or(&[], Vec::as_slice)
    }

    /// Resolves a path expression at a call site to function ids.
    pub fn resolve_fn(&self, unit: &FileUnit, mod_path: &[String], segs: &[String]) -> Vec<FnId> {
        for cand in candidate_paths(unit, mod_path, segs) {
            if let Some(ids) = self.fn_by_path.get(&cand) {
                return ids.clone();
            }
        }
        // Unique-suffix fallback: `evaluator::eval` matches
        // `pvtm_sram::evaluator::eval` iff no other path ends the same way.
        let suffix = format!("::{}", segs.join("::"));
        let mut hits: Vec<FnId> = Vec::new();
        let mut matched_paths = 0usize;
        for (path, ids) in &self.fn_by_path {
            if path.ends_with(&suffix) {
                matched_paths += 1;
                hits.extend_from_slice(ids);
            }
        }
        if matched_paths == 1 {
            hits
        } else if segs.len() == 1 {
            // A bare name used as a value: only a unique free fn matches.
            match self.fn_by_name.get(&segs[0]) {
                Some(ids) if ids.len() == 1 => ids.clone(),
                _ => Vec::new(),
            }
        } else {
            Vec::new()
        }
    }

    /// Resolves a path expression to a const definition.
    pub fn resolve_const<'a>(
        &self,
        units: &'a [FileUnit],
        unit: &FileUnit,
        mod_path: &[String],
        segs: &[String],
    ) -> Option<&'a ConstDef> {
        for cand in candidate_paths(unit, mod_path, segs) {
            if let Some(&(u, c)) = self.const_by_path.get(&cand) {
                return Some(&units[u].ast.consts[c]);
            }
        }
        let suffix = format!("::{}", segs.join("::"));
        let mut hit = None;
        for (path, &(u, c)) in &self.const_by_path {
            if path.ends_with(&suffix) {
                if hit.is_some() {
                    return None; // ambiguous
                }
                hit = Some(&units[u].ast.consts[c]);
            }
        }
        hit
    }

    /// Resolves an argument expression (token-tree slice) to an integer:
    /// a literal, or a path to an integer const.
    pub fn resolve_int(
        &self,
        units: &[FileUnit],
        unit: &FileUnit,
        mod_path: &[String],
        arg: &[Tree],
    ) -> Option<u128> {
        if let [t] = arg {
            if let Some(tok) = t.leaf().filter(|t| t.kind == TokKind::Int) {
                return parser::int_value(&tok.text);
            }
        }
        let segs = path_segments(arg)?;
        match self.resolve_const(units, unit, mod_path, &segs)?.value {
            ConstValue::Int(n) => Some(n),
            _ => None,
        }
    }

    /// Resolves an argument expression to a string: a literal, or a path to
    /// a string const.
    pub fn resolve_str(
        &self,
        units: &[FileUnit],
        unit: &FileUnit,
        mod_path: &[String],
        arg: &[Tree],
    ) -> Option<String> {
        if let [t] = arg {
            if let Some(tok) = t.leaf().filter(|t| t.kind == TokKind::Str) {
                return Some(tok.text.clone());
            }
        }
        let segs = path_segments(arg)?;
        match &self.resolve_const(units, unit, mod_path, &segs)?.value {
            ConstValue::Str(s) => Some(s.clone()),
            _ => None,
        }
    }

    /// Canonical display path of a function.
    pub fn path_of(&self, id: FnId) -> &str {
        &self.fns[id.0].path
    }
}

/// Interprets a token-tree slice as a plain `a::b::C` path (idents and `::`
/// only, ignoring a leading `&`).
pub fn path_segments(arg: &[Tree]) -> Option<Vec<String>> {
    let mut segs = Vec::new();
    let mut expect_ident = true;
    for t in arg {
        if segs.is_empty() && t.is_punct("&") {
            continue;
        }
        match t.leaf() {
            Some(tok) if tok.kind == TokKind::Ident && expect_ident => {
                segs.push(tok.text.clone());
                expect_ident = false;
            }
            Some(tok) if tok.kind == TokKind::Punct && tok.text == "::" && !expect_ident => {
                expect_ident = true;
            }
            _ => return None,
        }
    }
    if segs.is_empty() || expect_ident {
        None
    } else {
        Some(segs)
    }
}

fn join_path(unit: &FileUnit, mod_path: &[String], self_type: Option<&str>, name: &str) -> String {
    let mut parts: Vec<&str> = vec![unit.crate_name.as_str()];
    parts.extend(unit.file_mods.iter().map(String::as_str));
    parts.extend(mod_path.iter().map(String::as_str));
    if let Some(t) = self_type {
        parts.push(t);
    }
    parts.push(name);
    parts.join("::")
}

/// Absolute-path candidates for a path expression written in `unit` inside
/// `mod_path`, most specific first.
fn candidate_paths(unit: &FileUnit, mod_path: &[String], segs: &[String]) -> Vec<String> {
    let mut here: Vec<String> = vec![unit.crate_name.clone()];
    here.extend(unit.file_mods.iter().cloned());
    here.extend(mod_path.iter().cloned());

    fn joined(mut base: Vec<String>, rest: &[String]) -> String {
        base.extend(rest.iter().cloned());
        base.join("::")
    }

    let mut out = Vec::new();
    match segs[0].as_str() {
        "crate" => out.push(joined(vec![unit.crate_name.clone()], &segs[1..])),
        "self" => out.push(joined(here.clone(), &segs[1..])),
        "super" => {
            let mut base = here.clone();
            let mut rest = segs;
            while rest.first().map(String::as_str) == Some("super") {
                base.pop();
                rest = &rest[1..];
            }
            out.push(joined(base, rest));
        }
        _ => {
            // A `use` alias in scope for the first segment?
            for u in &unit.ast.uses {
                if u.mod_path.len() <= mod_path.len()
                    && u.mod_path[..] == mod_path[..u.mod_path.len()]
                    && u.alias == segs[0]
                {
                    let mut spliced = u.target.clone();
                    spliced.extend(segs[1..].iter().cloned());
                    match spliced[0].as_str() {
                        "crate" => {
                            out.push(joined(vec![unit.crate_name.clone()], &spliced[1..]));
                        }
                        "self" => out.push(joined(here.clone(), &spliced[1..])),
                        "super" => {
                            let mut base = here.clone();
                            base.pop();
                            out.push(joined(base, &spliced[1..]));
                        }
                        _ => out.push(spliced.join("::")),
                    }
                }
            }
            // As written (extern-crate-qualified), from the current module,
            // and from the crate root.
            out.push(segs.join("::"));
            out.push(joined(here.clone(), segs));
            out.push(joined(vec![unit.crate_name.clone()], segs));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crate_identity_maps_the_workspace_layout() {
        let cases = [
            ("crates/core/src/lib.rs", "pvtm", vec![]),
            ("crates/stats/src/rng.rs", "pvtm_stats", vec!["rng"]),
            ("crates/sram/src/mc/run.rs", "pvtm_sram", vec!["mc", "run"]),
            ("crates/trace/src/span/mod.rs", "pvtm_trace", vec!["span"]),
            ("src/main.rs", "pvtm_repro", vec![]),
            ("examples/headline.rs", "example_headline", vec![]),
        ];
        for (rel, name, mods) in cases {
            let (n, m) = crate_identity(rel);
            assert_eq!(n, name, "{rel}");
            assert_eq!(m, mods, "{rel}");
        }
    }

    #[test]
    fn resolves_crate_use_and_suffix_paths() {
        let units = vec![
            FileUnit::new(
                "crates/stats/src/rng.rs",
                "pub fn substream(seed: u64, stream: u64) -> u64 { seed ^ stream }\n",
            ),
            FileUnit::new(
                "crates/stats/src/montecarlo.rs",
                "pub fn run() { crate::rng::substream(1, 2); }\n",
            ),
            FileUnit::new(
                "crates/sram/src/evaluator.rs",
                "use pvtm_stats::rng::substream;\npub fn eval() { substream(1, 2); }\n",
            ),
        ];
        let syms = Symbols::build(&units);
        let target = "pvtm_stats::rng::substream";

        let via_crate = syms.resolve_fn(
            &units[1],
            &[],
            &["crate".into(), "rng".into(), "substream".into()],
        );
        assert_eq!(via_crate.len(), 1);
        assert_eq!(syms.path_of(via_crate[0]), target);

        let via_use = syms.resolve_fn(&units[2], &[], &["substream".into()]);
        assert_eq!(via_use.len(), 1);
        assert_eq!(syms.path_of(via_use[0]), target);

        let via_suffix = syms.resolve_fn(&units[2], &[], &["rng".into(), "substream".into()]);
        assert_eq!(via_suffix.len(), 1);
    }

    #[test]
    fn resolves_int_and_str_consts_through_paths() {
        let units = vec![
            FileUnit::new(
                "crates/stats/src/config.rs",
                "pub const SEED: u64 = 0xF163;\npub const SPAN: &str = \"mc.chunk\";\n",
            ),
            FileUnit::new(
                "crates/stats/src/montecarlo.rs",
                "use crate::config::SEED;\n",
            ),
        ];
        let syms = Symbols::build(&units);
        let seed_trees = parser::build_trees(&lexer::lex("SEED").tokens);
        assert_eq!(
            syms.resolve_int(&units, &units[1], &[], &seed_trees),
            Some(0xF163)
        );
        let lit_trees = parser::build_trees(&lexer::lex("42u64").tokens);
        assert_eq!(
            syms.resolve_int(&units, &units[1], &[], &lit_trees),
            Some(42)
        );
        let span_trees = parser::build_trees(&lexer::lex("crate::config::SPAN").tokens);
        assert_eq!(
            syms.resolve_str(&units, &units[0], &[], &span_trees)
                .as_deref(),
            Some("mc.chunk")
        );
    }

    #[test]
    fn method_index_covers_impl_fns() {
        let units = vec![FileUnit::new(
            "crates/circuit/src/template.rs",
            "impl Template { pub fn bake(&self) {} }\nimpl Other { fn bake(&self) {} }\n",
        )];
        let syms = Symbols::build(&units);
        assert_eq!(syms.methods_named("bake").len(), 2);
        assert!(syms.methods_named("missing").is_empty());
    }
}
