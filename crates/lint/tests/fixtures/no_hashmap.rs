//! Seeded violations for the `no-hashmap` rule.

use std::collections::HashMap;
use std::collections::HashSet;

pub fn build() -> HashMap<u32, u32> {
    HashMap::new()
}

#[cfg(test)]
mod tests {
    // Test code may hash: iteration order cannot leak into shipped results.
    use std::collections::HashSet;

    #[test]
    fn hashset_in_tests_is_fine() {
        let _ = HashSet::<u8>::new();
    }
}

// Test context is decided by whole identifiers: a feature gate is shipped
// code, and `test` inside `all(…)` is test context.
#[cfg(feature = "fastest")]
pub fn feature_gated() -> HashSet<u8> {
    HashSet::new()
}

#[cfg(all(test, unix))]
mod unix_tests {
    use std::collections::HashMap;
}
