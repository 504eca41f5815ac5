//! Item extraction: a lightweight AST over the token tree.
//!
//! The semantic rules need three things the token tree does not name:
//! which functions exist (with visibility and test status), which consts
//! hold literal values that call sites route names through, and what the
//! `use` declarations alias. This module walks the top level of each
//! module — it deliberately does not descend into function bodies, struct
//! fields or macro definitions — and records exactly those items, plus the
//! source span of every item in test context, which the rules read; the
//! body of a `name! { … }` invocation at item position is walked for test
//! spans only. So "test context" is decided once, here, for every rule.
//! Like the lexer and the parser it is infallible: grammar it does not
//! model is skipped, never mis-extracted.

use crate::lexer::TokKind;
use crate::parser::{contains_ident, int_value, split_args, Group, Tree};

/// Extracted items of one file.
#[derive(Debug, Default)]
pub struct FileAst {
    /// Free functions, inherent/trait methods and trait default methods.
    pub fns: Vec<FnDef>,
    /// `const` and `static` items with their literal values when resolvable.
    pub consts: Vec<ConstDef>,
    /// Fully expanded `use` declarations (one entry per bound name).
    pub uses: Vec<UseDef>,
    /// Source spans of the outermost test-context items, inclusive: from
    /// the test attribute's `#` to the item's closing `}` or its `;`.
    pub test_spans: Vec<((u32, u32), (u32, u32))>,
}

impl FileAst {
    /// Whether the token at 1-based `line`:`col` lies in test context.
    pub fn in_test(&self, line: u32, col: u32) -> bool {
        self.test_spans
            .iter()
            .any(|&(start, end)| start <= (line, col) && (line, col) <= end)
    }
}

/// One function definition.
#[derive(Debug)]
pub struct FnDef {
    /// In-file module path (`mod a { mod b { … } }` → `["a", "b"]`).
    pub mod_path: Vec<String>,
    /// Enclosing `impl`/`trait` type name, if this is a method.
    pub self_type: Option<String>,
    /// Function name.
    pub name: String,
    /// True only for unrestricted `pub` (not `pub(crate)` etc.).
    pub is_pub: bool,
    /// True inside `#[test]` / `#[cfg(test)]` context.
    pub is_test: bool,
    /// 1-based position of the `fn` keyword.
    pub line: u32,
    /// 1-based column of the `fn` keyword.
    pub col: u32,
    /// Body block; `None` for trait signatures and extern decls.
    pub body: Option<Group>,
}

/// Literal value of a const, as far as the extractor resolves it.
#[derive(Debug)]
pub enum ConstValue {
    /// Integer literal.
    Int(u128),
    /// String literal.
    Str(String),
    /// `&[&str]`-shaped list; each entry keeps its own position so rules
    /// can anchor diagnostics at individual registry entries.
    StrList(Vec<StrEntry>),
    /// Anything else (expressions, non-literal initialisers).
    Other,
}

/// One string entry of a [`ConstValue::StrList`].
#[derive(Debug)]
pub struct StrEntry {
    /// The string contents.
    pub value: String,
    /// 1-based line of the literal.
    pub line: u32,
    /// 1-based column of the literal.
    pub col: u32,
}

/// One `const`/`static` item.
#[derive(Debug)]
pub struct ConstDef {
    /// In-file module path.
    pub mod_path: Vec<String>,
    /// Item name.
    pub name: String,
    /// Literal value when the initialiser is one.
    pub value: ConstValue,
    /// 1-based line of the name.
    pub line: u32,
    /// 1-based column of the name.
    pub col: u32,
    /// True inside test context.
    pub is_test: bool,
}

/// One name bound by a `use` declaration.
#[derive(Debug)]
pub struct UseDef {
    /// In-file module path of the declaration.
    pub mod_path: Vec<String>,
    /// The name visible in this module (the alias after `as`, else the
    /// last path segment).
    pub alias: String,
    /// Full target path segments (first may be `crate`/`self`/`super` or
    /// an extern crate name).
    pub target: Vec<String>,
}

/// Extracts the items of one file from its token trees.
pub fn extract(trees: &[Tree]) -> FileAst {
    let mut out = FileAst::default();
    walk_items(trees, &mut Scope::default(), &mut out);
    out
}

#[derive(Default, Clone)]
struct Scope {
    mod_path: Vec<String>,
    self_type: Option<String>,
    in_test: bool,
}

/// Whether one attribute puts its item in test context: `test`,
/// `cfg(test)`, `cfg(all(test, …))` do; anything with a `not` is
/// conservatively not. Whole identifiers only, so `cfg(feature =
/// "fastest")` is not test context.
fn attr_is_test(attr: &Group) -> bool {
    contains_ident(&attr.children, "test") && !contains_ident(&attr.children, "not")
}

fn ident_text(t: &Tree) -> Option<&str> {
    t.leaf()
        .filter(|t| t.kind == TokKind::Ident)
        .map(|t| t.text.as_str())
}

/// Position of the end of the item starting at `i`: the close of its
/// first top-level `{…}` group, or its `;` before any brace opens.
fn item_end(trees: &[Tree], i: usize) -> (u32, u32) {
    trees[i..]
        .iter()
        .find_map(|t| match t {
            Tree::Group(g) if g.delim == '{' => Some(g.end),
            t if t.is_punct(";") => Some(t.pos()),
            _ => None,
        })
        .unwrap_or((u32::MAX, u32::MAX))
}

fn walk_items(trees: &[Tree], scope: &mut Scope, out: &mut FileAst) {
    let mut i = 0usize;
    // Position of the first attribute since the last item that marks test
    // context.
    let mut test_attr: Option<(u32, u32)> = None;
    let mut is_pub = false;
    while i < trees.len() {
        // Attributes: `#[…]` / `#![…]`.
        if trees[i].is_punct("#") {
            let mut j = i + 1;
            if trees.get(j).is_some_and(|t| t.is_punct("!")) {
                j += 1;
            }
            if let Some(g) = trees
                .get(j)
                .and_then(Tree::group)
                .filter(|g| g.delim == '[')
            {
                if attr_is_test(g) {
                    test_attr = test_attr.or(Some(trees[i].pos()));
                }
                i = j + 1;
                continue;
            }
        }
        let word = ident_text(&trees[i]);
        let qualifier = matches!(
            word,
            Some("pub" | "unsafe" | "async" | "default" | "extern")
        ) || (word == Some("const")
            && trees.get(i + 1).and_then(ident_text) == Some("fn"));
        if let Some(start) = test_attr.filter(|_| !qualifier && !scope.in_test) {
            out.test_spans.push((start, item_end(trees, i)));
        }
        let test_attr_set = test_attr.is_some();
        match word {
            Some("pub") => {
                is_pub = true;
                if trees
                    .get(i + 1)
                    .and_then(Tree::group)
                    .is_some_and(|g| g.delim == '(')
                {
                    is_pub = false; // pub(crate) and friends are not public API
                    i += 1;
                }
                i += 1;
                continue;
            }
            // Qualifiers that may precede an item keyword.
            Some("unsafe" | "async" | "default" | "extern") => {
                i += 1;
                continue;
            }
            Some("fn") => {
                i = take_fn(trees, i, scope, is_pub, test_attr_set, out);
            }
            Some("const" | "static")
                if ident_text(trees.get(i + 1).unwrap_or(&trees[i])) != Some("fn") =>
            {
                i = take_const(trees, i, scope, test_attr_set, out);
            }
            Some("use") => {
                i = take_use(trees, i, scope, out);
            }
            Some("mod") => {
                i = take_mod(trees, i, scope, test_attr_set, out);
            }
            Some("impl" | "trait") => {
                i = take_impl(trees, i, scope, test_attr_set, out);
            }
            Some(_) if trees.get(i + 1).is_some_and(|t| t.is_punct("!")) => {
                i = take_macro_call(trees, i, scope, test_attr_set, out);
            }
            _ => {
                // `const fn` reaches here via the guard above: `const` is a
                // qualifier then, handled by falling through to `fn` next.
                if word == Some("const") {
                    i += 1;
                    continue;
                }
                test_attr = None;
                is_pub = false;
                i += 1;
                continue;
            }
        }
        test_attr = None;
        is_pub = false;
    }
}

/// Scans forward from `i` for the item's first top-level `{…}` body group,
/// stopping at a `;`. Returns (body, index after the item).
fn find_body(trees: &[Tree], i: usize) -> (Option<Group>, usize) {
    let mut k = i;
    while k < trees.len() {
        if trees[k].is_punct(";") {
            return (None, k + 1);
        }
        if let Some(g) = trees[k].group() {
            if g.delim == '{' {
                return (Some(g.clone()), k + 1);
            }
        }
        k += 1;
    }
    (None, k)
}

fn take_fn(
    trees: &[Tree],
    i: usize,
    scope: &Scope,
    is_pub: bool,
    test_attr: bool,
    out: &mut FileAst,
) -> usize {
    let (line, col) = trees[i].pos();
    let Some(name) = trees.get(i + 1).and_then(ident_text) else {
        return i + 1;
    };
    let (body, next) = find_body(trees, i + 2);
    out.fns.push(FnDef {
        mod_path: scope.mod_path.clone(),
        self_type: scope.self_type.clone(),
        name: name.to_string(),
        is_pub,
        is_test: scope.in_test || test_attr,
        line,
        col,
        body,
    });
    next
}

fn take_const(
    trees: &[Tree],
    i: usize,
    scope: &Scope,
    test_attr: bool,
    out: &mut FileAst,
) -> usize {
    let mut j = i + 1;
    if trees.get(j).and_then(ident_text) == Some("mut") {
        j += 1;
    }
    let Some(name_tree) = trees.get(j) else {
        return i + 1;
    };
    let Some(name) = ident_text(name_tree) else {
        return i + 1;
    };
    let (line, col) = name_tree.pos();
    // Find `= value ;`.
    let mut eq = j + 1;
    while eq < trees.len() && !trees[eq].is_punct("=") && !trees[eq].is_punct(";") {
        eq += 1;
    }
    let mut end = eq;
    while end < trees.len() && !trees[end].is_punct(";") {
        end += 1;
    }
    let value = if eq < end {
        parse_const_value(&trees[eq + 1..end])
    } else {
        ConstValue::Other
    };
    out.consts.push(ConstDef {
        mod_path: scope.mod_path.clone(),
        name: name.to_string(),
        value,
        line,
        col,
        is_test: scope.in_test || test_attr,
    });
    end + 1
}

fn parse_const_value(v: &[Tree]) -> ConstValue {
    match v {
        [t] if t.leaf().is_some_and(|t| t.kind == TokKind::Int) => {
            match int_value(&t.leaf().unwrap().text) {
                Some(n) => ConstValue::Int(n),
                None => ConstValue::Other,
            }
        }
        [t] if t.leaf().is_some_and(|t| t.kind == TokKind::Str) => {
            ConstValue::Str(t.leaf().unwrap().text.clone())
        }
        _ => {
            // `&[…]` or `[…]` of string literals.
            let list = v.iter().find_map(|t| t.group().filter(|g| g.delim == '['));
            let Some(list) = list else {
                return ConstValue::Other;
            };
            let str_entry = |t: &Tree| {
                t.leaf()
                    .filter(|t| t.kind == TokKind::Str)
                    .map(|tok| StrEntry {
                        value: tok.text.clone(),
                        line: tok.line,
                        col: tok.col,
                    })
            };
            let entries: Vec<StrEntry> = split_args(&list.children)
                .iter()
                .filter_map(|arg| match arg {
                    [t] => str_entry(t),
                    _ => None,
                })
                .collect();
            if entries.is_empty() {
                ConstValue::Other
            } else {
                ConstValue::StrList(entries)
            }
        }
    }
}

fn take_use(trees: &[Tree], i: usize, scope: &Scope, out: &mut FileAst) -> usize {
    let mut end = i + 1;
    while end < trees.len() && !trees[end].is_punct(";") {
        end += 1;
    }
    expand_use(&trees[i + 1..end], Vec::new(), scope, out);
    end + 1
}

/// Recursively expands one `use` tree (`a::{b, c as d, e::*}`) into flat
/// [`UseDef`] bindings. Globs are skipped (nothing nameable to bind).
fn expand_use(trees: &[Tree], prefix: Vec<String>, scope: &Scope, out: &mut FileAst) {
    let mut segs = prefix;
    let mut k = 0usize;
    while k < trees.len() {
        match &trees[k] {
            t if t.is_punct("::") => k += 1,
            t if t.is_punct("*") => return, // glob: skip
            Tree::Group(g) if g.delim == '{' => {
                for arg in split_args(&g.children) {
                    expand_use(arg, segs.clone(), scope, out);
                }
                return;
            }
            t => {
                let Some(word) = ident_text(t) else {
                    return;
                };
                if word == "as" {
                    if let Some(alias) = trees.get(k + 1).and_then(ident_text) {
                        out.uses.push(UseDef {
                            mod_path: scope.mod_path.clone(),
                            alias: alias.to_string(),
                            target: segs,
                        });
                    }
                    return;
                }
                // `self` inside braces rebinds the prefix itself.
                if word != "self" || segs.is_empty() {
                    segs.push(word.to_string());
                }
                k += 1;
            }
        }
    }
    if let Some(last) = segs.last().cloned() {
        out.uses.push(UseDef {
            mod_path: scope.mod_path.clone(),
            alias: last,
            target: segs,
        });
    }
}

fn take_mod(trees: &[Tree], i: usize, scope: &Scope, test_attr: bool, out: &mut FileAst) -> usize {
    let Some(name) = trees.get(i + 1).and_then(ident_text) else {
        return i + 1;
    };
    match trees.get(i + 2) {
        Some(Tree::Group(g)) if g.delim == '{' => {
            let mut inner = scope.clone();
            inner.mod_path.push(name.to_string());
            inner.in_test = inner.in_test || test_attr;
            walk_items(&g.children, &mut inner, out);
            i + 3
        }
        _ => i + 2, // `mod name;` — the file-module path mapping covers it
    }
}

fn take_impl(trees: &[Tree], i: usize, scope: &Scope, test_attr: bool, out: &mut FileAst) -> usize {
    // Collect path idents at angle-bracket depth 0 between the keyword and
    // the body; `for` resets the collection so `impl Trait for Type` names
    // `Type`.
    let mut depth = 0i64;
    let mut names: Vec<String> = Vec::new();
    let mut k = i + 1;
    let mut body: Option<&Group> = None;
    while k < trees.len() {
        match &trees[k] {
            Tree::Group(g) if g.delim == '{' && depth <= 0 => {
                body = Some(g);
                break;
            }
            t if t.is_punct("<") => depth += 1,
            t if t.is_punct(">") => depth -= 1,
            t if t.is_punct(">>") => depth -= 2,
            t if t.is_punct(";") => return k + 1,
            t => {
                if let Some(word) = ident_text(t) {
                    if word == "for" {
                        names.clear();
                    } else if word == "where" {
                        depth = 0; // bounds follow; keep scanning for the body
                    } else if depth == 0 {
                        names.push(word.to_string());
                    }
                }
            }
        }
        k += 1;
    }
    let Some(body) = body else {
        return k + 1;
    };
    let mut inner = scope.clone();
    inner.self_type = names.last().cloned();
    inner.in_test = inner.in_test || test_attr;
    walk_items(&body.children, &mut inner, out);
    k + 1
}

/// A `name! { … }` invocation at item position, such as `proptest! {
/// #[test] fn … }`: the test items in its body are test context, but what
/// the macro expands to is unknown, so no fn, const or use is taken from it.
fn take_macro_call(
    trees: &[Tree],
    i: usize,
    scope: &Scope,
    test_attr: bool,
    out: &mut FileAst,
) -> usize {
    let Some(body) = trees
        .get(i + 2)
        .and_then(Tree::group)
        .filter(|g| g.delim == '{')
    else {
        return i + 1;
    };
    let mut inner = scope.clone();
    inner.in_test = inner.in_test || test_attr;
    let mut items = FileAst::default();
    walk_items(&body.children, &mut inner, &mut items);
    out.test_spans.extend(items.test_spans);
    i + 3
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::build_trees;

    fn ast_of(src: &str) -> FileAst {
        extract(&build_trees(&lex(src).tokens))
    }

    #[test]
    fn extracts_fns_with_visibility_and_impl_type() {
        let src = "pub fn free() {}\n\
                   pub(crate) fn internal() {}\n\
                   impl Foo { pub fn method(&self) -> u8 { 0 } }\n\
                   impl fmt::Display for Foo { fn fmt(&self) {} }\n";
        let ast = ast_of(src);
        let names: Vec<(&str, bool, Option<&str>)> = ast
            .fns
            .iter()
            .map(|f| (f.name.as_str(), f.is_pub, f.self_type.as_deref()))
            .collect();
        assert_eq!(
            names,
            vec![
                ("free", true, None),
                ("internal", false, None),
                ("method", true, Some("Foo")),
                ("fmt", false, Some("Foo")),
            ]
        );
    }

    #[test]
    fn test_context_marks_fns() {
        // Whole identifiers only: "fastest" is no `test`, and a `not`
        // anywhere makes the attribute non-test.
        let src = "#[test]\nfn t() {}\n\
                   #[cfg(test)]\nmod tests { fn helper() {} }\n\
                   fn lib() {}\n\
                   #[cfg(feature = \"fastest\")]\nfn fast() {}\n\
                   #[cfg(not(test))]\nfn prod() {}\n";
        let ast = ast_of(src);
        let flags: Vec<(&str, bool)> = ast
            .fns
            .iter()
            .map(|f| (f.name.as_str(), f.is_test))
            .collect();
        assert_eq!(
            flags,
            vec![
                ("t", true),
                ("helper", true),
                ("lib", false),
                ("fast", false),
                ("prod", false)
            ]
        );
        // One span per outermost test item, from its attribute to its end.
        assert_eq!(ast.test_spans, [((1, 1), (2, 9)), ((3, 1), (4, 28))]);
    }

    #[test]
    fn test_spans_cover_every_item_kind() {
        let src = "#[cfg(test)]\nuse std::collections::HashMap;\n\
                   #[cfg(all(test, unix))] #[derive(Debug)]\npub struct S { m: HashMap<u8, u8> }\n\
                   impl S {\n    #[test]\n    fn t() {}\n}\n\
                   pub struct Shipped;\n";
        let ast = ast_of(src);
        assert_eq!(
            ast.test_spans,
            [((1, 1), (2, 30)), ((3, 1), (4, 35)), ((6, 5), (7, 13))]
        );
        assert!(ast.in_test(4, 18) && !ast.in_test(5, 1) && !ast.in_test(9, 12));
    }

    #[test]
    fn test_items_in_an_item_macro_are_test_context_only() {
        let src = "proptest! {\n    #[test]\n    fn prop(x in 0u8..9) { assert!(x < 9); }\n}\n\
                   thread_local! { static N: u8 = 0; }\n";
        let ast = ast_of(src);
        assert_eq!(ast.test_spans, [((2, 5), (3, 44))]);
        assert!(ast.in_test(3, 36) && !ast.in_test(5, 24));
        assert!(ast.fns.is_empty() && ast.consts.is_empty() && ast.uses.is_empty());
    }

    #[test]
    fn const_values_parse_int_str_and_str_list() {
        let src = "const SEED: u64 = 0x5EED;\n\
                   pub const NAME: &str = \"mc.chunk\";\n\
                   pub const KNOBS: &[&str] = &[\n    \"PVTM_A\",\n    \"PVTM_B\",\n];\n\
                   const F: f64 = 1.0 + 2.0;\n";
        let ast = ast_of(src);
        assert!(matches!(ast.consts[0].value, ConstValue::Int(0x5EED)));
        assert!(matches!(&ast.consts[1].value, ConstValue::Str(s) if s == "mc.chunk"));
        match &ast.consts[2].value {
            ConstValue::StrList(es) => {
                assert_eq!(es.len(), 2);
                assert_eq!(es[0].value, "PVTM_A");
                assert_eq!((es[0].line, es[1].line), (4, 5));
            }
            other => panic!("expected StrList, got {other:?}"),
        }
        assert!(matches!(ast.consts[3].value, ConstValue::Other));
    }

    #[test]
    fn use_decls_expand_braces_aliases_and_self() {
        let src = "use crate::rng::substream;\n\
                   use std::collections::{BTreeMap, BTreeSet as Set};\n\
                   use pvtm_stats::rng::{self, substream as sub};\n";
        let ast = ast_of(src);
        let binds: Vec<(String, String)> = ast
            .uses
            .iter()
            .map(|u| (u.alias.clone(), u.target.join("::")))
            .collect();
        assert!(binds.contains(&("substream".into(), "crate::rng::substream".into())));
        assert!(binds.contains(&("Set".into(), "std::collections::BTreeSet".into())));
        assert!(binds.contains(&("rng".into(), "pvtm_stats::rng".into())));
        assert!(binds.contains(&("sub".into(), "pvtm_stats::rng::substream".into())));
    }

    #[test]
    fn nested_mods_build_paths() {
        let src = "mod a { mod b { pub fn deep() {} } }\n";
        let ast = ast_of(src);
        assert_eq!(ast.fns[0].mod_path, vec!["a", "b"]);
    }

    #[test]
    fn const_fn_is_a_function_not_a_const() {
        let ast = ast_of("pub const fn k() -> u8 { 1 }\n");
        assert_eq!(ast.fns.len(), 1);
        assert!(ast.fns[0].is_pub);
        assert!(ast.consts.is_empty());
    }
}
