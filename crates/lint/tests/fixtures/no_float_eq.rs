//! Seeded violations for the `no-float-eq` rule.

pub fn sentinel(x: f64) -> bool {
    x == 0.0
}

pub fn literal(x: f64) -> bool {
    x != 0.25
}

pub fn infinity(x: f64) -> bool {
    x == f64::INFINITY
}

pub fn fract_guard_is_fine(x: f64) -> bool {
    x.fract() == 0.0
}

pub fn integers_are_fine(n: u32) -> bool {
    n == 0
}

#[cfg(feature = "fastest")]
pub fn feature_gated(x: f64) -> bool {
    x == 0.5
}

#[cfg(all(test, unix))]
fn unix_test_helper(x: f64) -> bool {
    x == 0.5
}
