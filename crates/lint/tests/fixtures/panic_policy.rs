//! Seeded violations for the `panic-policy` rule. Linted under the
//! pretend path `crates/sram/src/seeded.rs` so the crate scoping applies.

pub fn boom(flag: bool) {
    if flag {
        panic!("library code must not panic");
    }
}

pub fn yank(v: Option<u8>) -> u8 {
    v.unwrap()
}

pub fn terse(v: Option<u8>) -> u8 {
    v.expect("bad value")
}

pub fn invariant_expect_is_fine(v: Option<u8>) -> u8 {
    v.expect("caller guarantees the slot was filled above")
}

// Every sink of a policy crate counts: in a closure, a private `impl`
// method or behind a path-qualified macro as much as in a `pub fn`.

pub fn in_closure(v: &[Option<u8>]) -> Vec<u8> {
    v.iter().map(|x| x.unwrap()).collect()
}

pub struct Slot(Option<u8>);

impl Slot {
    fn take(&self) -> u8 {
        self.0.expect("empty slot")
    }
}

fn qualified_macro() {
    std::unimplemented!()
}

#[cfg(test)]
mod tests {
    #[test]
    fn unwrap_in_tests_is_fine() {
        assert_eq!(Some(3u8).unwrap(), 3);
    }
}
