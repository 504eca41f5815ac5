//! Offline shim of `serde_derive`: a hand-rolled `#[derive(Serialize)]`
//! without syn/quote.
//!
//! The parser walks the raw `TokenStream` of the item: enough to handle the
//! two shapes this workspace derives — non-generic structs with named
//! fields, and non-generic enums whose variants are all units. Any other
//! shape (a tuple struct, a generic type, a variant carrying data) panics
//! with the type's name, which fails the build. The generated impl targets
//! the JSON-only `serde::Serialize` trait from the sibling shim.

use proc_macro::{token_stream, Delimiter, TokenStream, TokenTree};
use std::iter::Peekable;

enum Item {
    Struct { name: String, fields: Vec<String> },
    Enum { name: String, variants: Vec<String> },
}

/// Skips attributes (`#[...]`) and visibility (`pub`, `pub(crate)`).
fn skip_attributes_and_visibility(iter: &mut Peekable<token_stream::IntoIter>) {
    loop {
        match iter.peek() {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                iter.next();
                iter.next(); // the [...] group
            }
            Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                iter.next();
                if let Some(TokenTree::Group(g)) = iter.peek() {
                    if g.delimiter() == Delimiter::Parenthesis {
                        iter.next(); // the (crate)/(super) group
                    }
                }
            }
            _ => break,
        }
    }
}

/// Extracts the item shape from the derive input tokens.
fn parse_item(input: TokenStream) -> Item {
    let mut iter = input.into_iter().peekable();
    skip_attributes_and_visibility(&mut iter);
    let kind = match iter.next() {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => panic!("serde_derive shim: expected struct/enum, got {other:?}"),
    };
    let name = match iter.next() {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => panic!("serde_derive shim: expected item name, got {other:?}"),
    };
    if matches!(iter.peek(), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        panic!("serde_derive shim: generic type `{name}` is not supported");
    }
    let body = loop {
        match iter.next() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => break g.stream(),
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                panic!("serde_derive shim: tuple struct `{name}` is not supported")
            }
            Some(_) => continue, // e.g. `where` clauses never appear here
            None => panic!("serde_derive shim: `{name}` has no body"),
        }
    };
    match kind.as_str() {
        "struct" => Item::Struct {
            name,
            fields: named_fields(body),
        },
        "enum" => Item::Enum {
            variants: unit_variants(&name, body),
            name,
        },
        other => panic!("serde_derive shim: cannot derive for `{other}`"),
    }
}

/// Field names from a brace-delimited field list. Tracks `<...>` depth so
/// commas inside generic types don't split fields.
fn named_fields(body: TokenStream) -> Vec<String> {
    let mut fields = Vec::new();
    let mut iter = body.into_iter().peekable();
    loop {
        skip_attributes_and_visibility(&mut iter);
        match iter.next() {
            Some(TokenTree::Ident(id)) => fields.push(id.to_string()),
            None => break,
            other => panic!("serde_derive shim: expected field name, got {other:?}"),
        }
        // Consume `: Type,` tracking angle-bracket depth.
        let mut depth = 0i32;
        for tok in iter.by_ref() {
            if let TokenTree::Punct(p) = &tok {
                match p.as_char() {
                    '<' => depth += 1,
                    '>' => depth -= 1,
                    ',' if depth == 0 => break,
                    _ => {}
                }
            }
        }
    }
    fields
}

/// Variant names of enum `name`; a variant carrying data is not supported.
fn unit_variants(name: &str, body: TokenStream) -> Vec<String> {
    let mut variants = Vec::new();
    let mut iter = body.into_iter().peekable();
    loop {
        skip_attributes_and_visibility(&mut iter);
        let variant = match iter.next() {
            Some(TokenTree::Ident(id)) => id.to_string(),
            None => break,
            other => panic!("serde_derive shim: expected variant name, got {other:?}"),
        };
        if matches!(iter.peek(), Some(TokenTree::Group(_))) {
            panic!(
                "serde_derive shim: variant `{variant}` of enum `{name}` carries data; \
                 only unit variants are supported"
            );
        }
        variants.push(variant);
        // Consume the optional discriminant and trailing comma.
        for tok in iter.by_ref() {
            if matches!(&tok, TokenTree::Punct(p) if p.as_char() == ',') {
                break;
            }
        }
    }
    variants
}

fn struct_impl(name: &str, fields: &[String]) -> String {
    let mut body = String::from("w.begin_object();\n");
    for f in fields {
        body.push_str(&format!(
            "w.key(\"{f}\");\nserde::Serialize::serialize_json(&self.{f}, w);\n"
        ));
    }
    body.push_str("w.end_object();");
    format!(
        "impl serde::Serialize for {name} {{\n\
         fn serialize_json(&self, w: &mut serde::JsonWriter) {{\n{body}\n}}\n}}"
    )
}

/// A unit variant serializes as its name: `"Name"`.
fn enum_impl(name: &str, variants: &[String]) -> String {
    let arms: String = variants
        .iter()
        .map(|v| format!("{name}::{v} => w.string(\"{v}\"),\n"))
        .collect();
    format!(
        "impl serde::Serialize for {name} {{\n\
         fn serialize_json(&self, w: &mut serde::JsonWriter) {{\nmatch self {{\n{arms}}}\n}}\n}}"
    )
}

/// Derives the shim's JSON-only `serde::Serialize`.
#[proc_macro_derive(Serialize)]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let generated = match parse_item(input) {
        Item::Struct { name, fields } => struct_impl(&name, &fields),
        Item::Enum { name, variants } => enum_impl(&name, &variants),
    };
    generated
        .parse()
        .expect("serde_derive shim generated invalid Rust")
}
