//! Seeded violations for the walker / CI negative test: this file sits in
//! a panic-policy crate of the fixture tree.

use std::collections::BTreeMap;

pub fn lookup(m: &BTreeMap<u32, u32>, k: u32) -> u32 {
    *m.get(&k).unwrap()
}
