//! `pvtm-lint`: a registry-free static-analysis pass over the workspace.
//!
//! The workspace's core contract — bit-reproducible Monte-Carlo yield
//! estimates and byte-identical telemetry reports — is partly enforced by
//! clippy's configuration lints (`clippy.toml` bans the hash collections
//! and the wall clock). The rest cannot be written as clippy configuration
//! or with `syn`-based tools (no registry access, vendored shims only), so
//! this crate carries its own Rust lexer ([`lexer`]), a token-tree parser
//! ([`parser`]), an item extractor ([`ast`]), a workspace symbol table
//! ([`symbols`]) and a call graph ([`callgraph`]). One pipeline,
//! [`sema::analyze`], runs every rule over them: the lexical rule of
//! [`rules`] on each file's tokens, the rest on the symbol table and call
//! graph, one rule per invariant. The binary
//! (`cargo run -p pvtm-lint`) walks `crates/`, `src/` and `examples/`
//! ([`analyze_tree`]), prints `file:line:col [rule-id] message`
//! diagnostics, and exits non-zero on any violation; the one way to
//! accept a finding is a reasoned `// pvtm-lint: allow(rule-id) reason`
//! comment. See DESIGN.md §7 for the rule catalogue and the pipeline.

pub mod ast;
pub mod callgraph;
pub mod lexer;
pub mod parser;
pub mod rules;
pub mod sema;
pub mod symbols;

pub use rules::{Diagnostic, RuleId};
pub use sema::{analyze, analyze_tree};
pub use symbols::FileUnit;

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
#[derive(Debug)]
pub struct TreeLint {
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// All diagnostics, ordered by (file, line, col, rule).
    pub diagnostics: Vec<Diagnostic>,
}

/// Collects every `.rs` file under `root`'s [`LINT_ROOTS`], skipping
/// `target`, `tests`, `benches` and `fixtures` directories. File order
/// (and therefore output order) is sorted, so two runs over the same tree
/// are byte-identical.
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
