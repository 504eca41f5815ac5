//! Token-tree parser: nests the flat lexer stream by `()`/`[]`/`{}`.
//!
//! The semantic rules need structure the flat token stream cannot give —
//! which tokens are a call's arguments, where a closure body ends, what a
//! `for` loop encloses. Full Rust expression parsing is out of reach for a
//! registry-free tool, but Rust's delimiters alone already induce the tree
//! the rules need: every call, block, array and attribute is a delimited
//! group. This module turns `Vec<Tok>` into that tree, infallibly — stray
//! closers become leaves and unclosed groups end at EOF, so the parser can
//! never fail on code the lexer accepted (there is a proptest asserting
//! exactly that).

use crate::lexer::{Tok, TokKind};

/// One node of the token tree: a plain token or a delimited group.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tree {
    /// A non-delimiter token.
    Leaf(Tok),
    /// A `(…)`, `[…]` or `{…}` group.
    Group(Group),
}

/// A delimited group with the positions of its delimiters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Group {
    /// Opening delimiter: `'('`, `'['` or `'{'`.
    pub delim: char,
    /// 1-based line of the opening delimiter.
    pub line: u32,
    /// 1-based column of the opening delimiter.
    pub col: u32,
    /// Position of the token that closed the group: its closing delimiter,
    /// or the mismatched closer that ended it; `(u32::MAX, u32::MAX)` for
    /// a group left open at EOF.
    pub end: (u32, u32),
    /// Nested children in source order.
    pub children: Vec<Tree>,
}

impl Tree {
    /// The leaf token, if this node is one.
    pub fn leaf(&self) -> Option<&Tok> {
        match self {
            Tree::Leaf(t) => Some(t),
            Tree::Group(_) => None,
        }
    }

    /// The group, if this node is one.
    pub fn group(&self) -> Option<&Group> {
        match self {
            Tree::Leaf(_) => None,
            Tree::Group(g) => Some(g),
        }
    }

    /// True when the node is an identifier with exactly this text.
    pub fn is_ident(&self, text: &str) -> bool {
        self.leaf()
            .is_some_and(|t| t.kind == TokKind::Ident && t.text == text)
    }

    /// True when the node is a punct token with exactly this text.
    pub fn is_punct(&self, text: &str) -> bool {
        self.leaf()
            .is_some_and(|t| t.kind == TokKind::Punct && t.text == text)
    }

    /// Source position of the node (opening delimiter for groups).
    pub fn pos(&self) -> (u32, u32) {
        match self {
            Tree::Leaf(t) => (t.line, t.col),
            Tree::Group(g) => (g.line, g.col),
        }
    }
}

/// Closing delimiter matching an opener.
fn closer(open: char) -> char {
    match open {
        '(' => ')',
        '[' => ']',
        _ => '}',
    }
}

/// Builds the token tree. Infallible; see the module docs.
pub fn build_trees(toks: &[Tok]) -> Vec<Tree> {
    let mut pos = 0usize;
    parse_group_body(toks, &mut pos, None).0
}

/// Parses children until `until` (exclusive) or EOF, returning them with
/// the position of the token that ended the group (see [`Group::end`]). A
/// closer that does not match any open group is kept as a leaf so
/// positions stay faithful.
fn parse_group_body(toks: &[Tok], pos: &mut usize, until: Option<char>) -> (Vec<Tree>, (u32, u32)) {
    let mut out = Vec::new();
    while *pos < toks.len() {
        let t = &toks[*pos];
        if t.kind == TokKind::Punct && t.text.len() == 1 {
            let c = t.text.as_bytes()[0] as char;
            if matches!(c, '(' | '[' | '{') {
                let (line, col) = (t.line, t.col);
                *pos += 1;
                let (children, end) = parse_group_body(toks, pos, Some(closer(c)));
                out.push(Tree::Group(Group {
                    delim: c,
                    line,
                    col,
                    end,
                    children,
                }));
                continue;
            }
            if matches!(c, ')' | ']' | '}') {
                if until == Some(c) {
                    *pos += 1; // consume the closer
                    return (out, (t.line, t.col));
                }
                // Mismatched closer: with an open group, let the outer
                // level handle it (the group closes implicitly); at the
                // top level keep it as a leaf and move on.
                if until.is_some() {
                    return (out, (t.line, t.col));
                }
                out.push(Tree::Leaf(t.clone()));
                *pos += 1;
                continue;
            }
        }
        out.push(Tree::Leaf(t.clone()));
        *pos += 1;
    }
    (out, (u32::MAX, u32::MAX))
}

/// True when the ident `name` appears anywhere in `trees`, nested groups
/// included; whole identifiers only, never substrings or literals.
pub fn contains_ident(trees: &[Tree], name: &str) -> bool {
    trees.iter().any(|t| match t {
        Tree::Leaf(tok) => tok.kind == TokKind::Ident && tok.text == name,
        Tree::Group(g) => contains_ident(&g.children, name),
    })
}

/// Splits a group's children at top-level commas — the argument list of a
/// call-site group. Empty segments (trailing commas) are dropped.
pub fn split_args(children: &[Tree]) -> Vec<&[Tree]> {
    let mut out = Vec::new();
    let mut start = 0usize;
    for (i, c) in children.iter().enumerate() {
        if c.is_punct(",") {
            if i > start {
                out.push(&children[start..i]);
            }
            start = i + 1;
        }
    }
    if start < children.len() {
        out.push(&children[start..]);
    }
    out
}

/// Parses an integer literal token (decimal, hex/octal/binary, underscores,
/// type suffix) to its value.
pub fn int_value(text: &str) -> Option<u128> {
    let clean: String = text.chars().filter(|c| *c != '_').collect();
    let (radix, digits) = if let Some(d) = clean.strip_prefix("0x").or(clean.strip_prefix("0X")) {
        (16, d)
    } else if let Some(d) = clean.strip_prefix("0o") {
        (8, d)
    } else if let Some(d) = clean.strip_prefix("0b") {
        (2, d)
    } else {
        (10, clean.as_str())
    };
    // Strip a type suffix (u8…usize / i8…isize) by truncating at the first
    // char that is not a digit of the radix.
    let end = digits
        .char_indices()
        .find(|(_, c)| !c.is_digit(radix))
        .map_or(digits.len(), |(i, _)| i);
    if end == 0 {
        return None;
    }
    u128::from_str_radix(&digits[..end], radix).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn trees(src: &str) -> Vec<Tree> {
        build_trees(&lex(src).tokens)
    }

    #[test]
    fn nests_groups() {
        let t = trees("f(a, (b))[0] { x }");
        // f, (…), […], {…}
        assert_eq!(t.len(), 4);
        let call = t[1].group().unwrap();
        assert_eq!(call.delim, '(');
        assert_eq!(call.children.len(), 3); // a , (b)
        assert!(t[3].group().unwrap().delim == '{');
    }

    #[test]
    fn positions_point_at_openers() {
        let t = trees("fn f() {\n    g();\n}");
        let body = t.last().unwrap().group().unwrap();
        assert_eq!((body.line, body.col), (1, 8));
        let inner_call = body.children[1].group().unwrap();
        assert_eq!((inner_call.line, inner_call.col), (2, 6));
    }

    #[test]
    fn unbalanced_input_does_not_panic() {
        for src in ["(", ")", "((]", "} } {", "fn f( {", "]"] {
            let _ = trees(src);
        }
    }

    #[test]
    fn split_args_at_top_level_commas() {
        let t = trees("(a, b(c, d), e)");
        let g = t[0].group().unwrap();
        let args = split_args(&g.children);
        assert_eq!(args.len(), 3);
        assert_eq!(args[1].len(), 2); // b (c, d)
    }

    #[test]
    fn int_values_parse_all_radices() {
        assert_eq!(int_value("42"), Some(42));
        assert_eq!(int_value("0xF163"), Some(0xF163));
        assert_eq!(int_value("0b1010"), Some(10));
        assert_eq!(int_value("1_000u64"), Some(1000));
        assert_eq!(int_value("0o17"), Some(15));
        assert_eq!(int_value("x"), None);
    }
}
