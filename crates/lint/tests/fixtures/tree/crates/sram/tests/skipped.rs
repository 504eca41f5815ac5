//! Never linted: the walk skips `tests/` directories (whole-directory test
//! context), so this seeded violation must not show up.

pub fn seeded(x: f64) -> bool { x == 0.5 }
