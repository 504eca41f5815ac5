//! Offline shim of `serde_json`: the writer half only, backed by the
//! JSON-only `serde::Serialize` trait from the sibling shim.

use serde::{JsonWriter, Serialize};

/// Error from the writer APIs (only I/O can fail; formatting is infallible).
#[derive(Debug)]
pub struct Error {
    inner: std::io::Error,
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "serde_json shim: {}", self.inner)
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.inner)
    }
}

impl From<std::io::Error> for Error {
    fn from(inner: std::io::Error) -> Self {
        Self { inner }
    }
}

/// Result alias matching serde_json's.
pub type Result<T> = std::result::Result<T, Error>;

/// Serializes `value` as compact JSON text.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut w = JsonWriter::new(false);
    value.serialize_json(&mut w);
    Ok(w.into_string())
}

/// Serializes `value` as pretty-printed JSON text (2-space indent).
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut w = JsonWriter::new(true);
    value.serialize_json(&mut w);
    Ok(w.into_string())
}

/// Writes `value` as pretty-printed JSON into `writer`.
pub fn to_writer_pretty<W: std::io::Write, T: Serialize + ?Sized>(
    mut writer: W,
    value: &T,
) -> Result<()> {
    let s = to_string_pretty(value)?;
    writer.write_all(s.as_bytes())?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_matches_string() {
        let v = vec![1.0f64, 2.0];
        let mut buf = Vec::new();
        to_writer_pretty(&mut buf, &v).unwrap();
        assert_eq!(
            String::from_utf8(buf).unwrap(),
            to_string_pretty(&v).unwrap()
        );
    }

    #[test]
    fn pretty_keeps_trailing_zero() {
        assert_eq!(to_string_pretty(&2.0f64).unwrap(), "2.0");
    }
}
