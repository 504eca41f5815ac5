//! The sink justifies itself once, at the sink — not at every caller.

/// Picks the first element; callers guarantee non-empty input.
pub fn pick(v: &[u64]) -> u64 {
    // pvtm-lint: allow(panic-policy) callers pass non-empty slices by construction
    *v.first().unwrap()
}
