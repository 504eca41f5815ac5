//! Seeded `env::var` reads for the `knob-coverage` rule.

pub fn undocumented() -> Option<String> {
    std::env::var("PVTM_SECRET_KNOB").ok()
}

pub fn dynamic(name: &str) -> Option<String> {
    std::env::var(name).ok()
}

pub fn documented_knob_is_fine() -> Option<String> {
    std::env::var("PVTM_TELEMETRY").ok()
}

// Literal names of any shape, and names routed through consts.

pub fn not_knob_shaped() -> Option<String> {
    std::env::var("NOT_A_KNOB").ok()
}

/// Flagged once, where the const spells the knob-shaped name.
const ROUTED_KNOB: &str = "PVTM_ROUTED_KNOB";

pub fn routed() -> Option<String> {
    std::env::var(ROUTED_KNOB).ok()
}

/// Not knob-shaped, so flagged at the read.
const ROUTED_NAME: &str = "NOT_A_KNOB_EITHER";

pub fn routed_not_knob_shaped() -> Option<String> {
    std::env::var_os(ROUTED_NAME).map(|_| String::new())
}

const QUIET: &str = "PVTM_QUIET";

pub fn routed_documented_knob_is_fine() -> Option<String> {
    std::env::var(QUIET).ok()
}

// The knob-shaped string scan skips the same test context as every rule.
#[cfg(feature = "fastest")]
pub const FEATURE_KNOB: &str = "PVTM_FEATURE_KNOB";

#[cfg(all(test, unix))]
const UNIX_TEST_KNOB: &str = "PVTM_UNIX_TEST_KNOB";
