//! `pvtm-lint`: a registry-free static-analysis pass over the workspace.
//!
//! The workspace's core contract — bit-reproducible Monte-Carlo yield
//! estimates and byte-identical telemetry reports — cannot be enforced by
//! clippy plugins or `syn`-based tools (no registry access, vendored shims
//! only), so this crate carries its own Rust lexer ([`lexer`]), a token-
//! tree parser ([`parser`]), an item extractor ([`ast`]), a workspace
//! symbol table ([`symbols`]), a call graph ([`callgraph`]), a token-stream
//! rule engine ([`rules`]), a semantic rule engine ([`sema`]), and a
//! `(file, rule)`-count baseline ratchet ([`baseline`]). The binary
//! (`cargo run -p pvtm-lint`) walks `crates/`, `src/` and `examples/`,
//! runs both passes via [`sema::analyze_tree`], prints `file:line:col
//! [rule-id] message` diagnostics, and exits non-zero on any violation not
//! covered by `lint-baseline.json`. See DESIGN.md §7 for the rule
//! catalogue and the analysis pipeline.

pub mod ast;
pub mod baseline;
pub mod callgraph;
pub mod lexer;
pub mod parser;
pub mod rules;
pub mod sema;
pub mod symbols;

pub use rules::{lint_source, Diagnostic, RuleId};
pub use sema::analyze_tree;

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Subdirectories of the root that are linted (when present).
pub const LINT_ROOTS: &[&str] = &["crates", "src", "examples"];

/// Directory names skipped during the walk: build output, test and bench
/// trees (whole-directory test context) and lint fixtures (deliberate
/// violations).
const SKIP_DIRS: &[&str] = &["target", "tests", "benches", "fixtures"];

/// Result of linting a source tree.
#[derive(Debug, Default)]
pub struct TreeLint {
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// All diagnostics, ordered by (file, line, col, rule).
    pub diagnostics: Vec<Diagnostic>,
}

/// Lints every `.rs` file under `root`'s [`LINT_ROOTS`], skipping
/// `target`, `tests`, `benches` and `fixtures` directories. File order
/// (and therefore output order) is sorted, so two runs over the same tree
/// are byte-identical.
///
/// # Errors
///
/// Propagates I/O failures from directory walks and file reads.
pub fn lint_tree(root: &Path) -> io::Result<TreeLint> {
    let mut out = TreeLint::default();
    for path in walk_tree(root)? {
        let src = fs::read_to_string(&path)?;
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        out.diagnostics.extend(lint_source(&rel, &src));
        out.files_scanned += 1;
    }
    out.diagnostics
        .sort_by(|a, b| (&a.file, a.line, a.col, a.rule).cmp(&(&b.file, b.line, b.col, b.rule)));
    Ok(out)
}

/// Collects every walked `.rs` file under `root`'s [`LINT_ROOTS`], sorted,
/// skipping the same directories as [`lint_tree`]. Shared by the
/// token-only [`lint_tree`] and the semantic [`sema::analyze_tree`], so
/// both passes see the same files.
///
/// # Errors
///
/// Propagates I/O failures from directory walks.
pub fn walk_tree(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    for sub in LINT_ROOTS {
        let dir = root.join(sub);
        if dir.is_dir() {
            collect_rs_files(&dir, &mut files)?;
        }
    }
    files.sort();
    Ok(files)
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if !SKIP_DIRS.contains(&name.as_ref()) {
                collect_rs_files(&path, out)?;
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}
