//! Offline shim of `serde`: a single-format (JSON) serialization trait
//! that keeps `#[derive(Serialize)]` call sites compiling and
//! `serde_json::to_writer_pretty` working without crates.io access.
//!
//! The workspace only ever *writes* JSON (experiment results), so the
//! shim has no deserialization half.

#[cfg(feature = "derive")]
pub use serde_derive::Serialize;

/// A type that can write itself as JSON.
pub trait Serialize {
    /// Appends this value's JSON representation to the writer.
    fn serialize_json(&self, w: &mut JsonWriter);
}

/// Incremental JSON writer with optional pretty-printing (2-space indent,
/// matching `serde_json`'s pretty format closely enough for humans and
/// parsers alike).
#[derive(Debug)]
pub struct JsonWriter {
    buf: String,
    pretty: bool,
    /// One entry per open container: `true` = array, `false` = object; the
    /// count tracks elements written so far.
    stack: Vec<(bool, usize)>,
}

impl JsonWriter {
    /// Creates a writer; `pretty` enables indentation.
    pub fn new(pretty: bool) -> Self {
        Self {
            buf: String::new(),
            pretty,
            stack: Vec::new(),
        }
    }

    /// Consumes the writer, returning the JSON text.
    pub fn into_string(self) -> String {
        self.buf
    }

    fn newline_indent(&mut self) {
        if self.pretty {
            self.buf.push('\n');
            for _ in 0..self.stack.len() {
                self.buf.push_str("  ");
            }
        }
    }

    /// Comma/indent bookkeeping before a value in array (or top-level)
    /// position. Object values are prefixed by [`Self::key`] instead.
    fn value_prefix(&mut self) {
        if let Some(&mut (is_array, ref mut count)) = self.stack.last_mut() {
            if is_array {
                if *count > 0 {
                    self.buf.push(',');
                }
                *count += 1;
                self.newline_indent();
            }
        }
    }

    /// Starts an object (`{`).
    pub fn begin_object(&mut self) {
        self.value_prefix();
        self.buf.push('{');
        self.stack.push((false, 0));
    }

    /// Ends the current object (`}`).
    pub fn end_object(&mut self) {
        let (is_array, count) = self.stack.pop().expect("end_object without begin");
        assert!(!is_array, "end_object closing an array");
        if count > 0 {
            self.newline_indent();
        }
        self.buf.push('}');
    }

    /// Starts an array (`[`).
    pub fn begin_array(&mut self) {
        self.value_prefix();
        self.buf.push('[');
        self.stack.push((true, 0));
    }

    /// Ends the current array (`]`).
    pub fn end_array(&mut self) {
        let (is_array, count) = self.stack.pop().expect("end_array without begin");
        assert!(is_array, "end_array closing an object");
        if count > 0 {
            self.newline_indent();
        }
        self.buf.push(']');
    }

    /// Writes an object key; the next write is its value.
    pub fn key(&mut self, k: &str) {
        let &mut (is_array, ref mut count) = self.stack.last_mut().expect("key outside an object");
        assert!(!is_array, "key inside an array");
        if *count > 0 {
            self.buf.push(',');
        }
        *count += 1;
        self.newline_indent();
        self.write_escaped(k);
        self.buf.push(':');
        if self.pretty {
            self.buf.push(' ');
        }
    }

    /// Writes a string value.
    pub fn string(&mut self, s: &str) {
        self.value_prefix();
        self.write_escaped(s);
    }

    /// Writes a pre-formatted scalar (number, bool, null).
    pub fn raw(&mut self, s: &str) {
        self.value_prefix();
        self.buf.push_str(s);
    }

    fn write_escaped(&mut self, s: &str) {
        self.buf.push('"');
        for c in s.chars() {
            match c {
                '"' => self.buf.push_str("\\\""),
                '\\' => self.buf.push_str("\\\\"),
                '\n' => self.buf.push_str("\\n"),
                '\r' => self.buf.push_str("\\r"),
                '\t' => self.buf.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    self.buf.push_str(&format!("\\u{:04x}", c as u32));
                }
                c => self.buf.push(c),
            }
        }
        self.buf.push('"');
    }
}

impl Serialize for f64 {
    fn serialize_json(&self, w: &mut JsonWriter) {
        if self.is_finite() {
            // `{:?}` is the shortest round-trip form and always keeps a
            // decimal point or exponent (`2.0`, not `2`).
            w.raw(&format!("{self:?}"));
        } else {
            // serde_json maps non-finite floats to null.
            w.raw("null");
        }
    }
}

impl Serialize for f32 {
    fn serialize_json(&self, w: &mut JsonWriter) {
        f64::from(*self).serialize_json(w);
    }
}

macro_rules! int_serialize {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize_json(&self, w: &mut JsonWriter) {
                w.raw(&self.to_string());
            }
        }
    )*};
}
int_serialize!(u8, u16, u32, u64, u128, usize, i8, i16, i32, i64, i128, isize);

impl Serialize for bool {
    fn serialize_json(&self, w: &mut JsonWriter) {
        w.raw(if *self { "true" } else { "false" });
    }
}

impl Serialize for str {
    fn serialize_json(&self, w: &mut JsonWriter) {
        w.string(self);
    }
}

impl Serialize for String {
    fn serialize_json(&self, w: &mut JsonWriter) {
        w.string(self);
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize_json(&self, w: &mut JsonWriter) {
        (**self).serialize_json(w);
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize_json(&self, w: &mut JsonWriter) {
        match self {
            Some(v) => v.serialize_json(w),
            None => w.raw("null"),
        }
    }
}

impl<T: Serialize> Serialize for [T] {
    fn serialize_json(&self, w: &mut JsonWriter) {
        w.begin_array();
        for v in self {
            v.serialize_json(w);
        }
        w.end_array();
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize_json(&self, w: &mut JsonWriter) {
        self.as_slice().serialize_json(w);
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn serialize_json(&self, w: &mut JsonWriter) {
        self.as_slice().serialize_json(w);
    }
}

impl<T: Serialize> Serialize for Box<T> {
    fn serialize_json(&self, w: &mut JsonWriter) {
        (**self).serialize_json(w);
    }
}

macro_rules! tuple_serialize {
    ($(($($n:tt $t:ident),+)),+) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn serialize_json(&self, w: &mut JsonWriter) {
                w.begin_array();
                $(self.$n.serialize_json(w);)+
                w.end_array();
            }
        }
    )+};
}
tuple_serialize!((0 A), (0 A, 1 B), (0 A, 1 B, 2 C), (0 A, 1 B, 2 C, 3 D));

#[cfg(test)]
mod tests {
    use super::*;

    fn to_string<T: Serialize>(v: &T, pretty: bool) -> String {
        let mut w = JsonWriter::new(pretty);
        v.serialize_json(&mut w);
        w.into_string()
    }

    #[test]
    fn scalars() {
        assert_eq!(to_string(&2.0f64, false), "2.0");
        assert_eq!(to_string(&0.125f64, false), "0.125");
        assert_eq!(to_string(&42u64, false), "42");
        assert_eq!(to_string(&true, false), "true");
        assert_eq!(to_string(&f64::NAN, false), "null");
        assert_eq!(to_string(&"a\"b", false), "\"a\\\"b\"");
    }

    #[test]
    fn arrays_compact_and_pretty() {
        assert_eq!(to_string(&vec![1.0f64, 2.0], false), "[1.0,2.0]");
        assert_eq!(to_string(&vec![1.0f64, 2.0], true), "[\n  1.0,\n  2.0\n]");
        let empty: Vec<f64> = vec![];
        assert_eq!(to_string(&empty, true), "[]");
    }

    #[test]
    fn nested_object_shape() {
        let mut w = JsonWriter::new(false);
        w.begin_object();
        w.key("a");
        1.5f64.serialize_json(&mut w);
        w.key("b");
        vec![1u32, 2].serialize_json(&mut w);
        w.end_object();
        assert_eq!(w.into_string(), "{\"a\":1.5,\"b\":[1,2]}");
    }

    #[test]
    fn float_round_trips_through_text() {
        for &x in &[1.0f64 / 3.0, 89.3e-12, -0.0, 6.02e23, 1e-300] {
            let s = to_string(&x, false);
            let back: f64 = s.parse().unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{s}");
        }
    }
}
