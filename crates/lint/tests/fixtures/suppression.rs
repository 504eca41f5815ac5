//! Suppression-comment behaviour: reasoned allows silence a diagnostic on
//! the same line or the next; everything else is itself reported.

pub fn allowed_same_line(x: f64) -> bool {
    x == 0.0 // pvtm-lint: allow(no-float-eq) assigned sentinel, never computed
}

pub fn allowed_line_above(x: f64) -> bool {
    // pvtm-lint: allow(no-float-eq) assigned sentinel, never computed
    x == 0.0
}

pub fn reasonless_allow_does_not_suppress(x: f64) -> bool {
    x == 0.0 // pvtm-lint: allow(no-float-eq)
}

// pvtm-lint: allow(no-such-rule) rule id typo
pub fn unknown_rule() {}

// pvtm-lint: allow(no-float-eq) nothing here matches
pub fn stale_allow() {}

// pvtm-lint: allw(no-float-eq) malformed directive
pub fn malformed_allow() {}
